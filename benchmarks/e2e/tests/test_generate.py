"""Inputs are a pure function of (workload, seed, sizes)."""

import pytest

import generate
from conftest import TINY


@pytest.mark.parametrize("workload", sorted(generate.GENERATORS))
def test_same_seed_gives_identical_bytes(workload):
    first = generate.plan_bytes(generate.generate(workload, 7, **TINY[workload]))
    second = generate.plan_bytes(generate.generate(workload, 7, **TINY[workload]))
    assert first == second


@pytest.mark.parametrize("workload", sorted(generate.GENERATORS))
def test_different_seed_gives_different_inputs(workload):
    first = generate.plan_bytes(generate.generate(workload, 7, **TINY[workload]))
    other = generate.plan_bytes(generate.generate(workload, 8, **TINY[workload]))
    assert first != other


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        generate.generate("no_such_workload", 1)


def test_one_source_never_publishes_inside_the_gap():
    plan = generate.generate("campus_steady", 3, **TINY["campus_steady"])
    last = {}
    for op in plan["timeline"]:
        assert op["t"] - last.get(op["sensor"], -99.0) >= generate.MIN_SOURCE_GAP
        last[op["sensor"]] = op["t"]


def test_rotations_fall_in_the_quiet_part_of_an_epoch():
    plan = generate.generate("lookalike_churn", 3, **TINY["lookalike_churn"])
    publishes = [op["t"] % 8.0 for op in plan["timeline"] if op["op"] == "publish"]
    rotations = [op["t"] % 8.0 for op in plan["timeline"] if op["op"] == "rotate"]
    # a publish needs at most one hop (1.5 sim-units) to reach the mediator
    assert rotations and max(publishes) < 7.0 - 1.5 and set(rotations) == {7.0}
