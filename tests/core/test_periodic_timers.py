"""Polling stays out of ``src/repro`` unless it is the thing being modelled.

A periodic timer ticks whether or not anything is due, so a component
that waits for a deadline arms one timer at that deadline instead (the
Registrar's lease book, the Context Server's waiting queries, a request's
timeout). The ``schedule_periodic`` call sites that remain are listed
below, each with the reason it has to tick; a new one fails this test
until it is argued here. A function that passes itself to ``schedule`` or
``schedule_at`` re-arms itself, which is a poll when the delay is a
constant: those are listed too, each with why it is a deadline or why it
has to poll.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: (module, callback) -> why it ticks
ALLOWED = {
    ("repro.entities.sensors", "WLANDetectorCE.scan"):
        "sensor sampling: a W-LAN detector scans at its own rate",
    ("repro.entities.sensors", "TemperatureSensorCE.read"):
        "sensor sampling: a thermometer reads at its own rate",
    ("repro.server.range_service", "RangeService._renew_leases"):
        "lease renewal: one heartbeat per machine per lease / 3",
    ("repro.overlay.node", "OverlayNode._fd_tick"):
        "the overlay failure detector probes its neighbours",
    ("repro.mobility.detection", "BoundaryMonitor.scan"):
        "boundary detection's sensing period (parked in ROADMAP)",
}

#: (module, function) -> why it re-arms itself
REARMED = {
    ("repro.events.mediator", "EventMediator._window_expired"):
        "re-armed at the next deadline, not a period: the oldest unacked "
        "delivery's ack timeout, or the backed-off retransmission's",
}


def periodic_call_sites(source, module):
    """``(module, Class.callback)`` of every ``schedule_periodic`` call."""
    sites = []

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "schedule_periodic"):
            callback = node.args[1] if len(node.args) > 1 else None
            name = (callback.attr if isinstance(callback, ast.Attribute)
                    else ast.unparse(callback) if callback else "?")
            sites.append((module, f"{owner}.{name}"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return sites


def rearm_sites(source, module):
    """``(module, qualname)`` of every function that passes itself as the
    callback of a ``schedule``/``schedule_at`` call in its own body."""
    sites = set()

    def visit(node, scope, function):
        if isinstance(node, ast.ClassDef):
            scope += (node.name,)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope += (node.name,)
            function = node.name
        elif (function is not None and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("schedule", "schedule_at")
                and len(node.args) > 1):
            callback = node.args[1]
            if getattr(callback, "attr", getattr(callback, "id", None)) \
                    == function:
                sites.add((module, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function)

    visit(ast.parse(source), (), None)
    return sorted(sites)


def _modules():
    """``(module, source)`` of every file under ``src/repro``."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        yield module, path.read_text("utf-8")


def test_every_periodic_timer_is_on_the_allow_list():
    sites = []
    for module, source in _modules():
        sites += periodic_call_sites(source, module)
    assert sorted(sites) == sorted(ALLOWED)


def test_every_self_rearming_timer_is_on_the_allow_list():
    sites = []
    for module, source in _modules():
        sites += rearm_sites(source, module)
    assert sites == sorted(REARMED)


def test_the_scan_names_the_class_and_callback():
    source = (
        "class Poller:\n"
        "    def start(self):\n"
        "        self.t = self.scheduler.schedule_periodic(5.0, self._tick)\n"
        "def loose(scheduler, fn):\n"
        "    scheduler.schedule_periodic(1.0, fn)\n"
    )
    assert periodic_call_sites(source, "m") == [
        ("m", "Poller._tick"), ("m", "<module>.fn")]


def test_the_rearm_scan_names_the_function_that_rearms():
    source = (
        "class Poller:\n"
        "    def _tick(self):\n"
        "        self.scheduler.schedule(5.0, self._tick)\n"
        "        self.scheduler.schedule_at(9.0, self._tick)\n"
        "    def _once(self):\n"
        "        self.scheduler.schedule(5.0, self._other)\n"
        "    def _every(self):\n"
        "        self.scheduler.schedule_periodic(5.0, self._every)\n"
        "def carry(scheduler):\n"
        "    def replay():\n"
        "        scheduler.schedule(2.0, replay)\n"
        "    scheduler.schedule(2.0, replay)\n"
    )
    assert rearm_sites(source, "m") == [
        ("m", "Poller._tick"), ("m", "carry.replay")]
