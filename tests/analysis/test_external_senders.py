"""Every external-api verb has a sender outside ``src/``.

``PROTOCOL.md`` lists as "external api" the verbs a module declares it
handles although nothing in ``src/`` sends them. Such a verb is only worth
its handler if somebody drives it: a test, an example, a script or a
benchmark. A verb none of them sends is an interface without a user, and
leaves ``src/`` with its handler.
"""

import pathlib
import re

import pytest

import repro
from repro.analysis.source import load_sources
from repro.analysis.verbs import build_model

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]
USERS = ("tests", "examples", "scripts", "benchmarks")

_EXTERNAL_ROW = re.compile(r"^\| `([^`]+)` \| external api \|", re.MULTILINE)


def _external_verbs():
    text = (REPO_ROOT / "PROTOCOL.md").read_text(encoding="utf-8")
    return _EXTERNAL_ROW.findall(text)


@pytest.fixture(scope="module")
def user_sends():
    sources, errors = load_sources([str(REPO_ROOT / name) for name in USERS])
    assert errors == []
    return build_model(sources).sends


def test_protocol_lists_external_verbs():
    assert _external_verbs(), "PROTOCOL.md lists no external-api verb"


@pytest.mark.parametrize("verb", _external_verbs())
def test_external_verb_has_a_sender(verb, user_sends):
    assert verb in user_sends, (
        f'"{verb}" is external api but nothing under {", ".join(USERS)} '
        f"sends it: give it a user or delete its handler")
