"""compare.py's verdicts on synthetic result pairs."""

import compare

BASE = [100.0, 101.0, 99.0, 100.5, 99.5]


def _scaled(factor):
    return [value * factor for value in BASE]


def test_five_percent_either_way_is_the_same_within_a_ten_percent_bound():
    assert compare.classify(BASE, _scaled(1.05), "lower", 0.10) == "same"
    assert compare.classify(BASE, _scaled(0.95), "higher", 0.10) == "same"


def test_twenty_percent_worse_is_worse_in_both_directions():
    assert compare.classify(BASE, _scaled(1.20), "lower", 0.10) == "worse"
    assert compare.classify(BASE, _scaled(0.80), "higher", 0.10) == "worse"


def test_an_improvement_beyond_the_base_spread_is_better():
    assert compare.classify(BASE, _scaled(0.95), "lower", 0.10) == "better"
    assert compare.classify(BASE, _scaled(1.20), "higher", 0.10) == "better"


def test_a_single_value_is_better_only_beyond_the_bound():
    assert compare.classify([100.0], [99.7], "lower", 0.05) == "same"
    assert compare.classify([100.0], [90.0], "lower", 0.05) == "better"
    assert compare.classify([100.0], [106.0], "lower", 0.05) == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_separated():
    noisy = [80.0, 120.0, 95.0, 105.0, 100.0]
    assert compare.classify(noisy, _scaled(1.05), "lower", 0.10) == "unresolved"
    # every run of the change is slower than every run of the base
    assert compare.classify(noisy, _scaled(1.50), "lower", 0.10) == "worse"
    assert compare.classify(noisy, _scaled(0.50), "lower", 0.10) == "better"


def _result(seed, median_values, sim_value, count):
    return {"workloads": {"w": {
        "seed": seed, "failures": {"missing": 0}, "failed": 0,
        "end_to_end": {
            "audit_s": {"unit": "s", "clock": "H", "median": median_values[2],
                        "values": median_values},
            "sim_delivery_p50": {"unit": "sim", "clock": "S",
                                 "median": sim_value, "values": [sim_value]}},
        "per_layer": {"net.messages_sent": {"value": count, "unit": "count"},
                      "net.self_s": {"value": 1.0, "unit": "s"}}}}}


BENCHMARK = {"end_to_end": [
    {"name": "audit_s", "unit": "s", "better": "lower", "bound": 0.10},
    {"name": "sim_delivery_p50", "unit": "sim", "better": "lower",
     "bound": 0.02}]}


def test_simulated_metrics_and_counts_must_not_move_for_one_seed():
    base = _result(1, BASE, 2.5, 1000)
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(
        base, _result(1, _scaled(1.01), 2.5001, 1001), BENCHMARK)}
    assert verdicts == {"audit_s": "same", "sim_delivery_p50": "changed",
                        "net.messages_sent": "changed"}
    # another seed: simulated metrics fall back to their (small) bound
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(
        base, _result(2, BASE, 2.5001, 1001), BENCHMARK)}
    assert verdicts == {"audit_s": "same", "sim_delivery_p50": "same"}
