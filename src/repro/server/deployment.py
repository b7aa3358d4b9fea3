"""Standard deployment helpers: templates and sensor roll-outs.

A deployment equips each range with (a) sensor CEs wired to the physical
model (door sensors on every sensed door, a W-LAN detector over the signal
map) and (b) templates for the processing CEs the resolver may need to spawn
(object location, path, occupancy). A template's prototype profile is built
by the same ``make_profile`` its class builds each instance's with — the
resolver matches on the prototype, then the factory creates an instance
whose real profile agrees with it (asserted by
tests/composition/test_templates.py).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.ids import GUID, GuidFactory
from repro.composition.templates import CETemplate, TemplateRegistry
from repro.entities.derived import ObjectLocationCE, OccupancyCE, PathCE
from repro.entities.devices import PrinterCE
from repro.entities.sensors import DoorSensorCE, WLANDetectorCE
from repro.location.building import BuildingModel
from repro.net.transport import Network


def object_location_template(prototype_guid: GUID) -> CETemplate:
    """Template for :class:`~repro.entities.derived.ObjectLocationCE`."""
    return CETemplate(
        name="obj-location",
        prototype=ObjectLocationCE.make_profile(prototype_guid),
        factory=lambda guid, host_id, network: ObjectLocationCE(
            guid, host_id, network, name=f"obj-location#{guid}"),
    )


def path_template(prototype_guid: GUID, building: BuildingModel) -> CETemplate:
    """Template for :class:`~repro.entities.derived.PathCE`."""
    return CETemplate(
        name="path-ce",
        prototype=PathCE.make_profile(prototype_guid),
        factory=lambda guid, host_id, network: PathCE(
            guid, host_id, network, building, name=f"path-ce#{guid}"),
    )


def occupancy_template(prototype_guid: GUID, building: BuildingModel) -> CETemplate:
    """Template for :class:`~repro.entities.derived.OccupancyCE`."""
    return CETemplate(
        name="occupancy",
        prototype=OccupancyCE.make_profile(prototype_guid),
        factory=lambda guid, host_id, network: OccupancyCE(
            guid, host_id, network, building, name=f"occupancy#{guid}"),
    )


def standard_templates(guids: GuidFactory, building: BuildingModel) -> TemplateRegistry:
    """The template set every standard range deployment carries."""
    registry = TemplateRegistry()
    registry.register(object_location_template(guids.mint()))
    registry.register(path_template(guids.mint(), building))
    registry.register(occupancy_template(guids.mint(), building))
    return registry


def deploy_door_sensors(building: BuildingModel, host_id: str,
                        network: Network, guids: GuidFactory,
                        rooms: List[str] = None,
                        miss_rate: float = 0.0) -> Dict[str, DoorSensorCE]:
    """Create (and start) a DoorSensorCE for every sensed door.

    ``rooms`` restricts the roll-out to doors touching those rooms (a range
    deploys sensors for its own doors only). Returns door_id -> sensor.
    """
    sensors: Dict[str, DoorSensorCE] = {}
    for door in building.topology.doors():
        if door.sensor_id is None:
            continue
        if rooms is not None and not (door.place_a in rooms or door.place_b in rooms):
            continue
        sensor = DoorSensorCE(
            guids.mint(), host_id, network,
            door_id=door.door_id, room_a=door.place_a, room_b=door.place_b,
            miss_rate=miss_rate, seed=len(sensors),
        )
        sensor.start()
        sensors[door.door_id] = sensor
    return sensors


def deploy_wlan_detector(building: BuildingModel, host_id: str,
                         network: Network, guids: GuidFactory,
                         device_positions: Callable,
                         scan_interval: float = 5.0) -> WLANDetectorCE:
    """Create (and start) the range's W-LAN location detector."""
    detector = WLANDetectorCE(
        guids.mint(), host_id, network,
        signal_map=building.signal_map,
        device_positions=device_positions,
        scan_interval=scan_interval,
    )
    detector.start()
    return detector


def deploy_printers(host_id: str, network: Network, guids: GuidFactory,
                    placements: Dict[str, str],
                    seconds_per_page: float = 2.0) -> Dict[str, PrinterCE]:
    """Create (and start) printers: name -> room placements."""
    printers: Dict[str, PrinterCE] = {}
    for name, room in sorted(placements.items()):
        printer = PrinterCE(guids.mint(), host_id, network,
                            printer_name=name, room=room,
                            seconds_per_page=seconds_per_page)
        printer.start()
        printers[name] = printer
    return printers
