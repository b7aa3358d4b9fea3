"""The declared metrics, BENCHMARK.json and the source stay in step."""

import json
import re

import catalog
from conftest import E2E

FORBIDDEN = ("engine=", "indexed=", "flood=", "incremental=", "partitions=",
             "parallel=", "mediator_shards=", "resolver_shards=")


def test_benchmark_json_is_what_the_catalog_declares():
    path = E2E.parents[1] / "BENCHMARK.json"
    with open(path, encoding="utf-8") as handle:
        assert json.load(handle) == catalog.benchmark_json()


def test_the_contract_limits_hold():
    declared = catalog.benchmark_json()
    names = ([row["name"] for row in declared["workloads"]]
             + [row["name"] for row in declared["end_to_end"]]
             + [row["name"] for row in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert all(len(row["why"]) <= 200 and "\n" not in row["why"]
               for row in declared["workloads"])
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert all(0 <= row["bound"] <= 0.25 for row in declared["end_to_end"])
    units = [row["unit"] for row in declared["end_to_end"] + declared["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": 0.25} in declared["end_to_end"]


def test_the_source_passes_no_engine_switch_and_skips_the_old_generator():
    for source in sorted(E2E.glob("*.py")):
        text = source.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import)\s+repro\.apps", text, re.M)
        for switch in FORBIDDEN:
            assert switch not in text, (source.name, switch)
