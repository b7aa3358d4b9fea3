"""Every workload, at a tiny size, runs clean against the oracle."""

import pytest

import catalog
import deployment
import generate
import layers
import oracle
import trace as span_trace
from conftest import TINY


@pytest.mark.parametrize("workload", sorted(generate.GENERATORS))
def test_tiny_workload_matches_the_oracle(workload):
    plan = generate.generate(workload, 5, **TINY[workload])
    expected = oracle.expect(plan)
    dep = deployment.run_once(plan)
    assert dep.stuck_queries == 0 and dep.audit_failures == 0
    assert sum(oracle.check(expected, dep.observed()).values()) == 0
    assert set(dep.host_metrics()) | {
        "peak_rss_mb", "sim_delivery_p50", "sim_delivery_p99",
        "sim_messages_per_op"} == {row[0] for row in catalog.END_TO_END}
    assert all(value > 0 for value in dep.host_metrics().values())
    # a second repeat of the same seed: identical simulated metrics
    assert deployment.run_once(plan).sim_metrics() == dep.sim_metrics()


def test_traced_repeat_reports_every_declared_layer_metric():
    plan = generate.generate("range_federation", 5, **TINY["range_federation"])
    untraced = deployment.run_once(plan)
    recorder = span_trace.SpanRecorder()
    recorder.wrap()
    try:
        dep = deployment.run_once(plan, recorder=recorder)
    finally:
        recorder.unwrap()
    assert dep.sim_metrics() == untraced.sim_metrics()
    summary = recorder.summarise()
    values, absent = layers.layer_metrics(
        dep, recorder, summary, sum(untraced.phase_s.values()))
    assert list(values) == [row[0] for row in catalog.PER_LAYER]
    assert values["overlay.joins"] == len(plan["ranges"]) + 2
    assert values["server.queries_forwarded"] > 0
    assert not [name for name in absent if name.startswith("layer:")]
    attributed = sum(row["self_s"] for row in summary["layers"].values())
    assert attributed + summary["unattributed_s"] <= summary["root_s"] * 1.001
