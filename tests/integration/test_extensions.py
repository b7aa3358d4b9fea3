"""The paper's future-work items made concrete: adaptation bounds (item 3)
and quality-of-context contracts (item 2)."""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.composition.manager import ConfigState
from repro.core.errors import QueryError
from repro.query.model import QueryBuilder
from repro.query.selection import Candidate, Criterion, WhichClause
from tests.recording import RecordingApp


class TestAdaptationBounds:
    def test_unbounded_by_default(self):
        sci = SCI(config=SCIConfig(seed=11, lease_duration=10.0))
        cs = sci.create_range("r", places=["livingstone"], hosts=["pc"])
        assert cs.configurations.max_repairs_per_config is None

    def test_repair_budget_enforced(self):
        sci = SCI(config=SCIConfig(seed=11, lease_duration=10.0,
                                   max_repairs_per_config=1))
        sci.create_range("r", places=["livingstone"], hosts=["pc"])
        sensors = sci.add_door_sensors("r")
        sci.add_wlan_detector("r")
        sci.add_person("bob", room="corridor", device_host="d")
        app = sci.create_application("app", host="pc", app_class=RecordingApp)
        sci.run(5)
        app.submit_query(QueryBuilder("ops")
                         .subscribe("location", "topological", subject="bob")
                         .build())
        sci.run(5)
        cs = sci.range("r")
        ordered = sorted(sensors.values(), key=lambda s: s.name)
        # first failure: repaired (budget 1)
        sci.injector.crash(ordered[0])
        sci.run(30)
        config = cs.configurations.configurations()[0]
        assert config.repairs == 1
        assert config.state == ConfigState.ACTIVE
        # second failure: budget exhausted -> dead + app notified
        sci.injector.crash(ordered[1])
        sci.run(30)
        assert config.state == ConfigState.DEAD
        failures = [r for r in app.results if not r.get("ok", True)]
        assert failures and "adaptation bound" in failures[0]["error"]

    def test_budget_zero_means_no_repairs(self):
        sci = SCI(config=SCIConfig(seed=12, lease_duration=10.0,
                                   max_repairs_per_config=0))
        sci.create_range("r", places=["livingstone"], hosts=["pc"])
        sensors = sci.add_door_sensors("r")
        app = sci.create_application("app", host="pc")
        sci.run(5)
        app.submit_query(QueryBuilder("ops")
                         .subscribe("location", "topological", subject="bob")
                         .build())
        sci.run(5)
        sci.injector.crash(next(iter(sensors.values())))
        sci.run(30)
        config = sci.range("r").configurations.configurations()[0]
        assert config.state == ConfigState.DEAD
        assert config.repairs == 0


class TestQualityContracts:
    def test_contract_parsing(self):
        criterion = Criterion("quality", "accuracy<=5")
        assert criterion.is_filter
        with pytest.raises(QueryError):
            Criterion("quality", "accuracy")
        with pytest.raises(QueryError):
            Criterion("quality", "accuracy==5")

    def test_contract_on_candidates(self):
        fine = Candidate("a", "fine", quality={"accuracy": 2.0})
        coarse = Candidate("b", "coarse", quality={"accuracy": 9.0})
        unknown = Candidate("c", "unknown", quality={})
        which = WhichClause.parse("quality(accuracy<=5)")
        survivors = which.apply([fine, coarse, unknown])
        assert [c.name for c in survivors] == ["fine"]

    def test_ge_contract(self):
        high = Candidate("a", "high", quality={"confidence": 0.95})
        low = Candidate("b", "low", quality={"confidence": 0.4})
        which = WhichClause.parse("quality(confidence>=0.9)")
        assert [c.name for c in which.apply([high, low])] == ["high"]

    def test_round_trip(self):
        which = WhichClause.parse("quality(accuracy<=5); closest-to(me)")
        assert WhichClause.parse(str(which)).criteria == which.criteria

    def test_contract_constrains_providers(self):
        """A tight accuracy contract keeps the coarse W-LAN chain out of a
        location configuration even when door sensors are the slower path
        to resolve."""
        sci = SCI(config=SCIConfig(seed=13))
        sci.create_range("r", places=["livingstone"], hosts=["pc"])
        sci.add_door_sensors("r")
        sci.add_wlan_detector("r")  # declares accuracy 5.0
        app = sci.create_application("app", host="pc")
        sci.run(5)
        query = (QueryBuilder("ops")
                 .subscribe("location", "topological", subject="bob")
                 .which("quality(accuracy<=3)")
                 .build())
        app.submit_query(query)
        sci.run(5)
        config = sci.range("r").configurations.configurations()[0]
        names = {node.profile.name for node in config.plan.nodes.values()}
        assert not any("wlan" in name for name in names)

    def test_unsatisfiable_contract_fails_cleanly(self):
        sci = SCI(config=SCIConfig(seed=14))
        sci.create_range("r", places=["livingstone"], hosts=["pc"])
        sci.add_wlan_detector("r")  # accuracy 5.0, the only location source
        app = sci.create_application("app", host="pc")
        sci.run(5)
        query = (QueryBuilder("ops")
                 .subscribe("location", "geometric", subject="bob")
                 .which("quality(accuracy<=1)")
                 .build())
        app.submit_query(query)
        sci.run(5)
        assert app.query_acks[query.query_id]["ok"] is False
