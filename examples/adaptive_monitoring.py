#!/usr/bin/env python3
"""Adaptivity to component failure (the Section-6 claim, measured).

An application subscribes to Bob's location. The infrastructure composes the
door-sensor chain (native topological representation). We then crash the
objLocation provider's inputs — every door sensor — so the chain cannot be
rebuilt from presence data at all. The infrastructure notices through lease
expiry and *re-composes across representations*: it falls back to the W-LAN
detector (geometric) and splices a geometric->topological converter, exactly
the cross-representation flexibility the paper says iQueue lacks.

Run:  python examples/adaptive_monitoring.py
"""

from repro import SCI
from repro.core.api import SCIConfig
from repro.entities.entity import ContextAwareApplication
from repro.faults.monitor import StreamProbe


class Monitor(ContextAwareApplication):
    """Keeps the latest location fix it received."""

    def __init__(self, *args):
        super().__init__(*args)
        self.last_location = None

    def on_event(self, event, sub_id):
        if event.type_name == "location":
            self.last_location = event


def main() -> None:
    sci = SCI(config=SCIConfig(seed=3, lease_duration=10.0))
    sci.create_range("livingstone", places=["livingstone"], hosts=["lab-pc"])
    sensors = sci.add_door_sensors("livingstone")
    sci.add_wlan_detector("livingstone")

    # Bob carries a W-LAN device, so both location modalities can see him.
    sci.add_person("bob", room="corridor", device_host="bob-pda")

    app = sci.create_application("monitor", host="lab-pc", app_class=Monitor)
    probe = StreamProbe(app, "location")
    sci.run(5)
    query = sci.query("ops").subscribe("location", "topological",
                                       subject="bob").build()
    app.submit_query(query)
    sci.walk("bob", "L10.01")
    sci.run(30)
    before = probe.count()
    print(f"door-sensor chain active: {before} location update(s) delivered")

    # Catastrophe: the whole badge network dies.
    failure_at = sci.now
    for sensor in sensors.values():
        sci.injector.crash(sensor)
    print(f"\ncrashed {len(sensors)} door sensors at t={failure_at:.1f}")

    # Bob keeps moving; the W-LAN keeps observing him.
    sci.walk("bob", "L10.03")
    sci.run(60)
    sci.walk("bob", "open-area")
    sci.run(60)

    recovery = probe.recovery_time(failure_at)
    cs = sci.range("livingstone")
    print(f"repairs performed by the Configuration Manager: "
          f"{cs.configurations.repairs}")
    print(f"stream recovered {recovery:.1f}s after the failure "
          f"(lease detection + re-composition)")
    print(f"updates after failure: {probe.count() - before}")
    last = app.last_location
    print(f"latest fix: bob is in {last.value} "
          f"(via {last.attributes.get('converted_by', 'native chain')})")
    assert cs.configurations.repairs >= 1
    assert probe.count() > before, "the stream must resume after repair"


if __name__ == "__main__":
    main()
