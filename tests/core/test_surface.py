"""Guards on what left the public surface because nothing used it.

``SCIConfig`` keeps only the options a caller sets; the mediator has no
event bridges; the Location Service answers no remote query verbs, and the
Range Service no ``probe``. Each of those was reached only by tests. There
is one counting path: no stats staging buffer, no scheduler quiesce hook,
and none of the observability options no caller set.
"""

import dataclasses
import inspect

import pytest

from repro import SCIConfig
from repro.events.mediator import EventMediator
from repro.location.service import LocationService
from repro.net import stats as stats_module
from repro.net.sim import Scheduler
from repro.net.transport import FunctionProcess
from repro.obs.hub import Observability
from repro.obs.tracing import Tracer
from repro.query.opgraph.engine import OperatorGraph
from repro.server.range_service import RangeService


def test_sciconfig_fields_are_pinned():
    assert [field.name for field in dataclasses.fields(SCIConfig)] == [
        "seed", "lease_duration", "latency_model", "max_repairs_per_config",
        "ledger"]


def test_mediator_has_no_bridges():
    for name in ("add_bridge", "remove_bridge", "_handle_bridge_add",
                 "_handle_bridge_remove"):
        assert not hasattr(EventMediator, name), name


@pytest.mark.parametrize("verb, payload", [
    ("locate", {"entity": "bob"}),
    ("resolve-where", {"expr": "within(room:L10)"}),
    ("route", {"from": "room:L10.01", "to": "room:L10.02"}),
])
def test_location_service_answers_no_remote_verb(network, guids, building,
                                                 verb, payload):
    service = LocationService(guids.mint(), "host-a", network, building, "r")
    service.update("bob", room="L10.01")
    replies = []
    asker = FunctionProcess(guids.mint(), "host-b", network, replies.append)
    asker.send(service.guid, verb, payload)
    asker.send(service.guid, verb, {})  # a missing field raised, once
    network.scheduler.run_until_idle()
    assert replies == []


def test_one_counting_path():
    """Counts go straight into the registry: no staging buffer, no quiesce
    hook, and no observability option a caller never set."""
    def parameters(target):
        return list(inspect.signature(target).parameters)

    assert parameters(Observability) == ["scheduler"]
    assert parameters(stats_module.MessageStats) == ["registry"]
    assert "enabled" not in parameters(Tracer)
    graph = parameters(OperatorGraph)
    assert "metrics" in graph
    assert not [name for name in graph
                if name.endswith(("_counter", "_gauge"))]
    assert not hasattr(stats_module, "StatsBuffer")
    for name in ("on_quiesce", "bound_network"):
        assert not hasattr(Scheduler(), name), name


def test_range_service_ignores_probe(network, guids):
    rs = RangeService(guids.mint(), "host-a", network, "r",
                      registrar=guids.mint())
    replies = []
    asker = FunctionProcess(guids.mint(), "host-a", network, replies.append)
    asker.send(rs.guid, "probe", {})
    network.scheduler.run_until_idle()
    assert replies == []
