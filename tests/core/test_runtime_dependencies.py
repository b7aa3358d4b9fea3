"""The package has no runtime dependency: ``import repro`` loads only the
standard library and ``repro`` itself.

The import runs in a fresh interpreter, so modules an earlier test (or
pytest and its plugins) already loaded cannot hide one, and only the
modules the import adds are counted, so a ``.pth`` hook of the
environment's ``site`` cannot add one.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""


def test_import_loads_only_repro_and_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = json.loads(out.splitlines()[-1])
    assert "repro" in added
    foreign = [name for name in added
               if name != "repro" and name not in sys.stdlib_module_names]
    assert foreign == []
