"""The determinism log is a test-side recorder attached to a live network.

:func:`tests.net.eventlog.attach` wraps one network's
``scheduler.schedule_at`` and ``_deliver``, so it records a deployment
whoever built it and whenever it is attached; the program carries no
log, no option and no slot for it.
"""

import importlib
import inspect
from collections import Counter

import pytest

from repro import SCI
from repro.net.sim import Scheduler, Timer
from repro.net.transport import FixedLatency, FunctionProcess, Network
from tests.net.eventlog import attach


def _build():
    """One range, door sensors, a walker and a tracking application."""
    sci = SCI()
    sci.create_range("livingstone", places=["livingstone"], hosts=["lab-pc"])
    sci.add_door_sensors("livingstone")
    sci.add_person("bob", room="corridor")
    app = sci.create_application("whereIsBob", host="lab-pc")
    return sci, app


def _drive(sci, app):
    sci.run(5)
    app.submit_query(sci.query("bob").subscribe(
        "location", "topological", subject="bob").build())
    sci.run(5)
    sci.walk("bob", "L10.01")
    sci.run(30)


def _sites_on(network, host):
    """``Class.method`` of everything a timer on ``host`` can run as: the
    methods of its processes and of the helpers they own (``.owner``)."""
    objects = []
    for process in network.processes_on(host):
        objects.append(process)
        objects += [value for value in vars(process).values()
                    if getattr(value, "owner", None) is process]
    return {f"{cls.__qualname__}.{name}" for obj in objects
            for cls in type(obj).__mro__ for name in vars(cls)}


def test_attached_to_a_built_deployment_it_records_timers_and_deliveries():
    sci, app = _build()
    log = attach(sci.network)
    _drive(sci, app)
    rows = log.entries()
    assert Counter(row[2] for row in rows).keys() == {"timer", "deliver"}
    timers = [row for row in rows if row[2] == "timer"]
    for _time, host, _kind, site in timers:
        assert site in _sites_on(sci.network, host), (host, site)
    # one site resolved through the instance's host, one through its owner
    assert {("cs-livingstone", "EventMediator._window_expired"),
            ("lab-pc", "AckBatcher._flush")} <= {
        (host, site) for _time, host, _kind, site in timers}


def test_attached_before_any_send_it_records_every_delivery():
    sci = SCI()
    log = attach(sci.network)
    sci.create_range("livingstone", places=["livingstone"], hosts=["lab-pc"])
    sci.add_door_sensors("livingstone")
    sci.run(10)
    delivered = [row for row in log.entries() if row[2] == "deliver"]
    assert len(delivered) == sci.network.stats.delivered > 0


class _Clock(FunctionProcess):
    def tick(self, label):
        self._handler(label)


def test_a_timer_is_recorded_as_it_fires_and_only_then():
    network = Network(latency_model=FixedLatency(1.0))
    network.add_host("a")
    fired = []
    clock = _Clock(network.guids.mint(), "a", network, fired.append)
    scheduler = network.scheduler
    scheduler.schedule(1.0, clock.tick, "before")
    log = attach(network)
    scheduler.schedule(2.0, clock.tick, "kept")
    scheduler.schedule_at(3.0, clock.tick, label="keyword")
    scheduler.schedule(4.0, clock.tick, "cancelled").cancel()
    scheduler.schedule(5.0, fired.append, "no owner")
    periodic = scheduler.schedule_periodic(6.0, lambda: clock.tick("tick"))
    scheduler.run_until(7.0)
    periodic.cancel()
    assert fired == ["before", "kept", "keyword", "no owner", "tick"]
    assert log.entries() == [(2.0, "a", "timer", "_Clock.tick"),
                             (3.0, "a", "timer", "_Clock.tick")]


def test_the_program_carries_no_log():
    network = Network()
    attach(network)
    for holder in (Network(), network, Scheduler(), Timer(1.0)):
        assert not hasattr(holder, "event_log"), holder
    assert "event_log" not in inspect.signature(Network).parameters
    assert Timer.__slots__ == ("when", "cancelled", "_scheduler")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.net.eventlog")
