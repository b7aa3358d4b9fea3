"""F1 — Figure 1 / Section 3: SCINET overlay vs hierarchical routing.

Claim: "Routing through an overlay network avoids any bottlenecks created
when using hierarchical infrastructures whilst achieving comparable
performance."

Reproduced series: for N ranges in {8, 32, 128}, route a uniform workload
and report (a) mean hops, (b) mean delivery latency, (c) the hotspot metric
max-node-load / mean-node-load. Expected shape: overlay hops grow
logarithmically and load stays balanced; the tree's root concentrates load
(hotspot ratio >> overlay's) while latencies stay comparable.
"""

import pathlib

import pytest

from repro.obs.experiments import (
    MESSAGES,
    SERVICE_TIME,
    check_hotspot_claim,
    check_log_growth_claim,
    figure1_artifact,
    run_hierarchy_instrumented,
    run_overlay_instrumented,
)
from repro.obs.export import load_metrics_json, write_metrics_document

ARTIFACT_PATH = (pathlib.Path(__file__).parent / "results"
                 / "bench_fig1_scinet.metrics.json")


def run_overlay(n, messages=MESSAGES, seed=0):
    """Headline numbers for one overlay run (metrics-derived)."""
    return dict(run_overlay_instrumented(n, messages, seed)["summary"])


def run_hierarchy(n, messages=MESSAGES, seed=0):
    """Headline numbers for one hierarchy run (metrics-derived)."""
    return dict(run_hierarchy_instrumented(n, messages, seed)["summary"])


class TestReportFigure1:
    def test_report_routing_comparison(self, report):
        report("")
        report("F1  SCINET overlay vs hierarchical routing "
               f"({MESSAGES} uniform messages)")
        report(f"{'N':>5} | {'overlay hops':>12} {'tree hops':>10} | "
               f"{'overlay lat':>11} {'tree lat':>9} | "
               f"{'overlay hotspot':>15} {'tree hotspot':>12}")
        for n in (8, 32, 128):
            overlay = run_overlay(n)
            tree = run_hierarchy(n)
            report(f"{n:>5} | {overlay['hops']:>12.2f} {tree['hops']:>10.2f} | "
                   f"{overlay['latency']:>11.2f} {tree['latency']:>9.2f} | "
                   f"{overlay['hotspot']:>15.2f} {tree['hotspot']:>12.2f}")
            # the paper's shape:
            assert overlay["delivered"] == MESSAGES
            assert tree["delivered"] == MESSAGES
            # comparable performance (same order of magnitude)
            assert overlay["latency"] < tree["latency"] * 4
            if n >= 32:
                # the tree root is the hotspot; the overlay balances.
                # (at N=8 the two-subtree tree is too small to concentrate)
                assert tree["hotspot"] > overlay["hotspot"]

    def test_report_overlay_scaling_is_logarithmic(self, report):
        small = run_overlay(8)
        large = run_overlay(128)
        report(f"overlay hop growth 8->128 ranges: "
               f"{small['hops']:.2f} -> {large['hops']:.2f}")
        # 16x more nodes -> ~log16(16)=1 extra hop, not 16x
        assert large["hops"] < small["hops"] + 2.5

    def test_report_metrics_artifact(self, report):
        """Emit the full-run metrics artefact and re-check the claims from
        the written JSON alone — the offline-reproducibility requirement."""
        artifact = figure1_artifact(sizes=(8, 32, 128))
        write_metrics_document(artifact, ARTIFACT_PATH)
        loaded = load_metrics_json(ARTIFACT_PATH)
        hotspot = check_hotspot_claim(loaded, 128)
        growth = check_log_growth_claim(loaded, 8, 128)
        report("")
        report(f"F1  metrics artefact: {ARTIFACT_PATH.name} "
               f"({ARTIFACT_PATH.stat().st_size} bytes, "
               f"{len(loaded['runs'])} runs)")
        report(f"    hotspot@128: root={hotspot['hierarchy_root_load']:.0f} "
               f"> overlay max={hotspot['overlay_max_load']:.0f} "
               f"-> {hotspot['ok']}")
        report(f"    log growth 8->128: {growth['small_hops']:.2f} -> "
               f"{growth['large_hops']:.2f} hops -> {growth['ok']}")
        assert hotspot["ok"], hotspot
        assert growth["ok"], growth


class TestBenchFigure1:
    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_bench_overlay_routing(self, benchmark, n):
        benchmark.pedantic(run_overlay, args=(n, 50), rounds=3, iterations=1)

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_bench_hierarchy_routing(self, benchmark, n):
        benchmark.pedantic(run_hierarchy, args=(n, 50), rounds=3, iterations=1)
