"""EXT — the paper's future-work items 2 and 3, made measurable.

Item 2 asks for "contracts on quality of the context information"; item 3
asks for "bounds on acceptable adaptation". Both are implemented
(``quality(attr<=x)`` Which criteria and
``SCIConfig.max_repairs_per_config``); this bench shows their effect as
ablations over the C1 failure workload.
"""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.composition.manager import ConfigState
from repro.entities.entity import ContextAwareApplication
from repro.query.model import QueryBuilder


class Watcher(ContextAwareApplication):
    """Notes whether a query-result ever reported a failure."""

    notified = False

    def on_query_result(self, query_id, fields):
        self.notified |= not fields["ok"]


def run_with_budget(max_repairs, kill_count=3, seed=17):
    sci = SCI(config=SCIConfig(seed=seed, lease_duration=10.0,
                               max_repairs_per_config=max_repairs))
    sci.create_range("r", places=["livingstone"], hosts=["pc"])
    sensors = sci.add_door_sensors("r")
    sci.add_wlan_detector("r")
    sci.add_person("bob", room="corridor", device_host="d")
    app = sci.create_application("app", host="pc", app_class=Watcher)
    sci.run(5)
    app.submit_query(QueryBuilder("ops")
                     .subscribe("location", "topological", subject="bob")
                     .build())
    sci.run(5)
    ordered = sorted(sensors.values(), key=lambda s: s.name)
    for sensor in ordered[:kill_count]:
        sci.injector.crash(sensor)
        sci.run(20)  # one lease cycle per failure
    config = sci.range("r").configurations.configurations()[0]
    return {
        "state": config.state.value,
        "repairs": config.repairs,
        "notified": app.notified,
    }


def run_with_contract(contract, seed=18):
    sci = SCI(config=SCIConfig(seed=seed))
    sci.create_range("r", places=["livingstone"], hosts=["pc"])
    sci.add_door_sensors("r")
    sci.add_wlan_detector("r")
    app = sci.create_application("app", host="pc")
    sci.run(5)
    builder = (QueryBuilder("ops")
               .subscribe("location", "topological", subject="bob"))
    if contract:
        builder = builder.which(contract)
    query = builder.build()
    app.submit_query(query)
    sci.run(5)
    configs = sci.range("r").configurations.configurations()
    if not configs:
        return {"ok": False, "providers": set()}
    names = {node.profile.name for node in configs[0].plan.nodes.values()}
    return {"ok": app.query_acks[query.query_id]["ok"],
            "providers": names}


class TestReportExtensions:
    def test_report_adaptation_bounds(self, report):
        report("")
        report("EXT  adaptation bounds (future-work item 3): 3 failures, "
               "varying repair budget")
        report(f"{'budget':>9} | {'final state':>11} | {'repairs':>7} | "
               f"{'app notified':>12}")
        for budget in (None, 5, 1, 0):
            result = run_with_budget(budget)
            label = "unbounded" if budget is None else str(budget)
            report(f"{label:>9} | {result['state']:>11} | "
                   f"{result['repairs']:>7} | "
                   f"{str(result['notified']):>12}")
        unbounded = run_with_budget(None)
        strict = run_with_budget(1)
        assert unbounded["state"] == "active"
        assert unbounded["repairs"] == 3
        assert strict["state"] == "dead"
        assert strict["notified"] is True

    def test_report_quality_contracts(self, report):
        report("")
        report("EXT  QoC contracts (future-work item 2)")
        loose = run_with_contract(None)
        tight = run_with_contract("quality(accuracy<=3)")
        impossible = run_with_contract("quality(accuracy<=0.1)")
        report(f"  no contract          -> ok={loose['ok']}, "
               f"wlan in chain candidates possible")
        report(f"  accuracy<=3          -> ok={tight['ok']}, "
               f"wlan excluded={not any('wlan' in n for n in tight['providers'])}")
        report(f"  accuracy<=0.1        -> ok={impossible['ok']} "
               f"(honest refusal beats a broken promise)")
        assert tight["ok"] is True
        assert not any("wlan" in name for name in tight["providers"])
        assert impossible["ok"] is False


class TestBenchExtensions:
    @pytest.mark.parametrize("budget", [None, 1])
    def test_bench_bounded_recovery(self, benchmark, budget):
        benchmark.pedantic(run_with_budget, args=(budget,),
                           rounds=3, iterations=1)
