"""C1 — adaptivity to environmental change / component failure.

Claim (Section 6): the infrastructure "will also adjust the composition of
these components dynamically in the case of environment changes, thus
improving service and fault tolerance while minimising user intervention."

Reproduced series: crash a fraction of the door-sensor layer mid-stream and
report repair counts and stream recovery time; escalate to total modality
failure (all sensors) and show cross-representation recovery via the W-LAN
chain. The static-composition comparison (a Toolkit-style app never
recovering) is quantified in bench_claim_baselines.
"""

import pathlib

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.entities.entity import ContextAwareApplication
from repro.faults.monitor import StreamProbe
from repro.obs.export import (
    load_trace_jsonl,
    write_metrics_json,
    write_trace_jsonl,
)
from repro.query.model import QueryBuilder

LEASE = 10.0
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRACE_PATH = RESULTS_DIR / "bench_claim_adaptivity.trace.jsonl"
METRICS_PATH = RESULTS_DIR / "bench_claim_adaptivity.metrics.json"


class Monitor(ContextAwareApplication):
    """Keeps the last location update it consumed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.last_location = None

    def on_event(self, event, sub_id):
        if event.type_name == "location":
            self.last_location = event


def deploy(seed=0):
    sci = SCI(config=SCIConfig(seed=seed, lease_duration=LEASE))
    sci.create_range("livingstone", places=["livingstone"], hosts=["pc"])
    sensors = sci.add_door_sensors("livingstone")
    detector = sci.add_wlan_detector("livingstone")
    sci.add_person("bob", room="corridor", device_host="bob-dev")
    app = sci.create_application("monitor", host="pc", app_class=Monitor)
    sci.run(5)
    app.submit_query(QueryBuilder("ops")
                     .subscribe("location", "topological", subject="bob")
                     .build())
    sci.run(5)
    sci.walk("bob", "L10.01")
    sci.run(30)
    return sci, app, sensors, detector


def crash_and_measure(kill_count, seed=0):
    sci, app, sensors, _detector = deploy(seed)
    probe = StreamProbe(app, "location")
    victims = sorted(sensors.values(), key=lambda s: s.name)[:kill_count]
    failure_at = sci.now
    for sensor in victims:
        sci.injector.crash(sensor)
    # keep the subject moving so there is a stream to observe
    sci.walk("bob", "L10.03")
    sci.run(30)
    sci.walk("bob", "open-area")
    sci.run(30)
    cs = sci.range("livingstone")
    recovery = probe.recovery_time(failure_at)
    last = app.last_location
    return {
        "repairs": cs.configurations.repairs,
        "recovery": recovery,
        "updates_after": probe.count(),
        "via_converter": bool(last and "converted_by" in last.attributes),
    }


class TestReportAdaptivity:
    def test_report_recovery_vs_failure_scale(self, report):
        report("")
        report(f"C1  adaptivity: sensor failures mid-stream (lease={LEASE})")
        report(f"{'sensors killed':>14} | {'repairs':>7} | "
               f"{'recovery (sim s)':>16} | {'updates after':>13} | "
               f"{'via converter':>13}")
        for kill_count in (1, 3, 6):
            result = crash_and_measure(kill_count)
            recovery = (f"{result['recovery']:.1f}"
                        if result["recovery"] is not None else "-")
            report(f"{kill_count:>14} | {result['repairs']:>7} | "
                   f"{recovery:>16} | {result['updates_after']:>13} | "
                   f"{str(result['via_converter']):>13}")
            assert result["repairs"] >= 1
            assert result["updates_after"] > 0, "stream must survive"
        # total failure forces the representation bridge
        total = crash_and_measure(6)
        assert total["via_converter"] is True

    def test_report_recovery_bounded_by_detection(self, report):
        """Repair latency is dominated by failure *detection* (the lease),
        not by re-composition itself."""
        result = crash_and_measure(6)
        assert result["recovery"] is not None
        assert result["recovery"] < LEASE + 10.0
        report(f"total-failure recovery {result['recovery']:.1f}s "
               f"< lease {LEASE:.0f}s + lease/2 + W-LAN scan slack")

    def test_report_repair_trace_artifacts(self, report):
        """Crash the whole sensor layer and export the observability
        artefacts: the repair latency is then readable from the trace file
        alone (failure time from meta, repair span start from the JSONL)."""
        sci, app, sensors, _detector = deploy()
        failure_at = sci.now
        for sensor in sensors.values():
            sci.injector.crash(sensor)
        sci.walk("bob", "L10.03")
        sci.run(30)

        obs = sci.network.obs
        span_count = write_trace_jsonl(obs.tracer, TRACE_PATH)
        write_metrics_json(obs.metrics, METRICS_PATH,
                           meta={"experiment": "c1-adaptivity",
                                 "lease": LEASE, "failure_at": failure_at})

        records = load_trace_jsonl(TRACE_PATH)
        repairs = [r for r in records if r["name"] == "config.repair"]
        assert repairs, "repair must appear in the exported trace"
        latency = repairs[0]["start"] - failure_at
        assert 0 < latency < LEASE + 10.0
        report("")
        report(f"C1  trace artefact: {TRACE_PATH.name} ({span_count} spans), "
               f"metrics: {METRICS_PATH.name}")
        report(f"    repair span at t={repairs[0]['start']:.1f}, "
               f"failure at t={failure_at:.1f} -> "
               f"detection+repair latency {latency:.1f}s (from JSONL alone)")

    def test_report_no_user_intervention(self, report):
        """The application object is never touched after the failure — the
        'minimising user intervention' half of the claim."""
        sci, app, sensors, _ = deploy(seed=3)
        queries_before = len(app.query_acks)
        for sensor in sensors.values():
            sci.injector.crash(sensor)
        sci.walk("bob", "L10.03")
        sci.run(60)
        assert len(app.query_acks) == queries_before  # no re-query
        assert app.last_location is not None
        report("zero application-side actions during recovery "
               f"(still {queries_before} submitted query)")


class TestBenchAdaptivity:
    @pytest.mark.parametrize("kill_count", [1, 6])
    def test_bench_crash_recovery(self, benchmark, kill_count):
        benchmark.pedantic(crash_and_measure, args=(kill_count,),
                           rounds=3, iterations=1)
