"""Polling stays out of ``src/repro`` unless it is the thing being modelled.

A periodic timer ticks whether or not anything is due, so a component
that waits for a deadline arms one timer at that deadline instead (the
Registrar's lease book, the Context Server's waiting queries, a request's
timeout). The ``schedule_periodic`` call sites that remain are listed
below, each with the reason it has to tick; a new one fails this test
until it is argued here.
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


def test_every_periodic_timer_is_on_the_allow_list():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        sites += periodic_call_sites(path.read_text("utf-8"), module)
    assert sorted(sites) == sorted(ALLOWED)


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
