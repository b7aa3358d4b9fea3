"""An application's hooks are its whole ConsumeInterface.

``on_query_result`` is handed the fields the ``query-result`` row parsed.
The row declares every field the Context Server sends, so for each result
shape the fields equal the payload that was sent. An application keeps no
record of what it consumed: after a thousand events and a hundred results
none of its containers is larger than after the first of each. That takes
in the transport's deduplication window, which holds request/reply
exchanges only: ``event`` and ``query-result`` are one-way, so it stays
empty.
"""

import pytest

from repro.core.types import TypeSpec
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.events.event import ContextEvent
from repro.net.transport import FunctionProcess
from repro.query.model import QueryBuilder
from repro.server.deployment import deploy_printers


class FieldsApp(ContextAwareApplication):
    """Keeps each ``query-result``'s fields, its payload, and what the hook
    was handed."""

    def __init__(self, *args):
        super().__init__(*args)
        self.arrivals = []
        self.handed = []

    def _handle_query_result(self, message):
        self.arrivals.append((message.fields, message.payload))
        super()._handle_query_result(message)

    def on_query_result(self, query_id, fields):
        self.handed.append(fields)


@pytest.fixture
def rig(network, guids, deployed_range):
    server, sensors = deployed_range
    deploy_printers("host-a", network, guids,
                    {"P1": "L10.03", "P4": "open-area"})
    app = FieldsApp(Profile(guids.mint(), "app", EntityClass.SOFTWARE),
                    "host-b", network)
    app.start()
    network.scheduler.run_for(10)
    assert app.registered
    return network, server, sensors, app


def _submit(network, app, query, wait=10):
    app.submit_query(query)
    network.scheduler.run_for(wait)


def _profile(network, server, sensors, app):
    _submit(network, app, QueryBuilder("ops").profiles_of_type("printer")
            .build())


def _selected(network, server, sensors, app):
    _submit(network, app, QueryBuilder("bob").advertisement("printer")
            .which("available").build())


def _unselected(network, server, sensors, app):
    _submit(network, app, QueryBuilder("bob").advertisement("printer")
            .which("quality(accuracy<=1)").build())


def _expired(network, server, sensors, app):
    until = network.scheduler.now + 5
    _submit(network, app, QueryBuilder("bob").profiles_of_type("device")
            .when(f"enters(bob, L10.01) until({until:g})").build(), wait=30)


def _dead_configuration(network, server, sensors, app):
    manager = server.configurations
    manager.deliver(TypeSpec("location", "topological", "bob"),
                    app.guid.hex, "q-dead")
    for sensor in sensors.values():
        manager.handle_entity_departure(sensor.guid.hex)
    network.scheduler.run_for(10)


#: each shape, and the fields its one answer carries beside ``query_id``
SHAPES = {
    "profile": (_profile, {"ok", "mode", "profiles"}),
    "advertisement-selected": (
        _selected, {"ok", "mode", "candidates", "selected"}),
    "advertisement-unselected": (
        _unselected, {"ok", "mode", "candidates", "error"}),
    "expired": (_expired, {"ok", "error"}),
    "dead-configuration": (_dead_configuration, {"ok", "error"}),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_the_hook_gets_fields_equal_to_the_payload(rig, shape):
    network, server, sensors, app = rig
    produce, names = SHAPES[shape]
    produce(network, server, sensors, app)
    [(fields, payload)] = app.arrivals
    assert fields == payload
    assert set(fields) == names | {"query_id"}
    [handed] = app.handed
    assert handed is fields


def _sizes(app):
    return {name: len(value) for name, value in vars(app).items()
            if isinstance(value, (list, dict, set))}


def test_an_application_keeps_no_history(network, guids):
    app = ContextAwareApplication(
        Profile(guids.mint(), "app", EntityClass.SOFTWARE), "host-a",
        network)
    server = FunctionProcess(guids.mint(), "host-b", network, lambda m: None)

    def event(seq):
        server.send(app.guid, "event", {
            "subs": [[1, seq]],
            "event": ContextEvent(TypeSpec("tick", "raw", "burst"), seq,
                                  server.guid, network.scheduler.now
                                  ).to_wire()})

    def result(n):
        server.send(app.guid, "query-result", {
            "query_id": f"q-{n}", "ok": True, "mode": "profile",
            "profiles": [Profile(guids.mint(), f"p{n}").to_wire()]})

    event(1)
    result(1)
    network.scheduler.run_for(5)
    first = _sizes(app)
    for n in range(2, 1001):
        event(n)
        if n <= 100:
            result(n)
        network.scheduler.run_for(0.5)
    network.scheduler.run_for(5)
    assert app.streams.last_seq((server.guid.value, 1)) == 1000
    grown = {name: (first.get(name), size)
             for name, size in _sizes(app).items()
             if size > first.get(name, 0)}
    assert grown == {}
    assert not app._seen_messages
