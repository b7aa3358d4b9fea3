"""The SCI facade — the library's public entry point.

An :class:`SCI` instance is one simulated deployment: a building, a
network, a SCINET overlay, and any number of ranges with their Context
Servers. It wires together everything the paper describes so applications
only deal with queries and events::

    from repro import SCI
    from repro.entities.entity import ContextAwareApplication

    class WhereIsBob(ContextAwareApplication):
        def on_event(self, event, sub_id):   # the ConsumeInterface
            print(event.value)

    sci = SCI()                               # synthetic Livingstone Tower
    level10 = sci.create_range("level10", places=["L10"], hosts=["lab-pc"])
    sci.add_door_sensors("level10")
    sci.add_person("bob", room="corridor")

    app = sci.create_application("pathApp", host="lab-pc",
                                 app_class=WhereIsBob)
    sci.run(5)                                # let registration settle
    query = sci.query("bob").subscribe("location", "topological",
                                       subject="bob").build()
    app.submit_query(query)
    sci.walk("bob", "L10.01")
    sci.run(60)                               # prints "L10.01"
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.errors import SCIError
from repro.core.ids import GuidFactory
from repro.core.types import TypeRegistry, standard_registry
from repro.composition.templates import TemplateRegistry
from repro.entities.devices import PrinterCE
from repro.entities.entity import ContextAwareApplication
from repro.entities.profile import EntityClass, Profile
from repro.entities.sensors import DoorSensorCE, WLANDetectorCE
from repro.faults.injector import FaultInjector
from repro.location.building import BuildingModel, livingstone_tower
from repro.location.converters import register_location_converters
from repro.mobility.detection import BoundaryMonitor
from repro.mobility.handoff import HandoffCoordinator
from repro.mobility.world import World
from repro.net.transport import LatencyModel, Network
from repro.overlay.scinet import SCINet
from repro.query.model import QueryBuilder
from repro.server.context_server import ContextServer
from repro.server.deployment import (
    deploy_door_sensors,
    deploy_printers,
    deploy_wlan_detector,
    standard_templates,
)
from repro.server.range import RangeDefinition

logger = logging.getLogger(__name__)


@dataclass
class SCIConfig:
    """Deployment-wide knobs."""

    seed: int = 0
    lease_duration: float = 30.0
    latency_model: Optional[LatencyModel] = None
    #: bound on re-compositions per configuration (future-work item 3);
    #: None = adapt forever
    max_repairs_per_config: Optional[int] = None


class SCI:
    """One simulated SCI deployment."""

    def __init__(self, building: Optional[BuildingModel] = None,
                 config: Optional[SCIConfig] = None):
        self.config = config or SCIConfig()
        self.building = building or livingstone_tower()
        self.network = Network(latency_model=self.config.latency_model,
                               seed=self.config.seed)
        self.scheduler = self.network.scheduler
        self.guids = GuidFactory(seed=self.config.seed ^ 0xACE)
        self.registry: TypeRegistry = register_location_converters(
            standard_registry(), self.building)
        self.world = World(self.building, self.scheduler)
        self.scinet = SCINet(self.network)
        self.injector = FaultInjector(self.network, seed=self.config.seed)
        self.ranges: Dict[str, ContextServer] = {}
        self.applications: Dict[str, ContextAwareApplication] = {}
        self.printers: Dict[str, PrinterCE] = {}
        self.door_sensors: Dict[str, DoorSensorCE] = {}
        self.handoff = HandoffCoordinator()
        self._monitor: Optional[BoundaryMonitor] = None

    # -- deployment -----------------------------------------------------------------

    def create_range(self, name: str, places: List[str],
                     hosts: Optional[List[str]] = None,
                     stations: Optional[List[str]] = None,
                     templates: Optional[TemplateRegistry] = None) -> ContextServer:
        """Create a range, its Context Server and its SCINET presence."""
        if name in self.ranges:
            raise SCIError(f"duplicate range: {name!r}")
        cs_host = f"cs-{name}"
        self.network.ensure_host(cs_host)
        definition = RangeDefinition(
            name=name,
            places=list(places),
            hosts=[cs_host] + list(hosts or []),
            stations=list(stations or []),
        )
        server = ContextServer(
            self.guids.mint(), cs_host, self.network,
            definition=definition,
            building=self.building,
            registry=self.registry,
            guid_factory=self.guids,
            templates=templates or standard_templates(self.guids, self.building),
            lease_duration=self.config.lease_duration,
            max_repairs_per_config=self.config.max_repairs_per_config,
        )
        announced = sorted(set(definition.rooms(self.building)) | set(places))
        node = self.scinet.create_node(cs_host, range_name=name,
                                       owner_cs_hex=server.guid.hex,
                                       places=announced)
        server.peer_lookup = node.lookup_place
        self.ranges[name] = server
        if self._monitor is not None:
            self._monitor.add_range(server)
        return server

    def range(self, name: str) -> ContextServer:
        try:
            return self.ranges[name]
        except KeyError:
            raise SCIError(f"unknown range: {name!r}") from None

    def add_door_sensors(self, range_name: str,
                         rooms: Optional[List[str]] = None,
                         miss_rate: float = 0.0) -> Dict[str, DoorSensorCE]:
        """Instrument the range's doors; sensors register automatically."""
        server = self.range(range_name)
        sensors = deploy_door_sensors(
            self.building, server.host_id, self.network, self.guids,
            rooms=rooms if rooms is not None else server.definition.rooms(self.building),
            miss_rate=miss_rate,
        )
        self.world.attach_door_sensors(sensors)
        self.door_sensors.update(sensors)
        return sensors

    def add_wlan_detector(self, range_name: str) -> WLANDetectorCE:
        server = self.range(range_name)
        return deploy_wlan_detector(
            self.building, server.host_id, self.network, self.guids,
            device_positions=self.world.device_positions)

    def add_printers(self, range_name: str,
                     placements: Dict[str, str]) -> Dict[str, PrinterCE]:
        server = self.range(range_name)
        printers = deploy_printers(server.host_id, self.network, self.guids,
                                   placements)
        self.printers.update(printers)
        return printers

    def start_boundary_monitor(self) -> BoundaryMonitor:
        """Turn on Section-3.4 arrival/departure detection and handoff."""
        if self._monitor is None:
            self._monitor = BoundaryMonitor(
                self.world, list(self.ranges.values()), self.handoff)
        return self._monitor

    # -- people and applications ---------------------------------------------------------

    def add_person(self, key: str, room: Optional[str] = None,
                   device_host: Optional[str] = None, has_tag: bool = True,
                   speed: float = 1.4):
        """Add a person; with ``room=None`` they start outside the building."""
        if device_host is not None:
            self.network.ensure_host(device_host)
        if room is None:
            return self.world.add_outdoor_entity(
                key, position=self._outside_position(),
                has_tag=has_tag, device_host=device_host, speed=speed)
        return self.world.add_entity(key, room, has_tag=has_tag,
                                     device_host=device_host, speed=speed)

    def _outside_position(self):
        from repro.location.geometry import Point
        return Point(-100.0, -100.0)

    def create_application(self, name: str, host: str,
                           app_class=ContextAwareApplication,
                           owner: Optional[str] = None,
                           **kwargs) -> ContextAwareApplication:
        """Create and start a CAA on ``host`` (it registers via Figure 5)."""
        if name in self.applications:  # its queries are named after it
            raise SCIError(f"duplicate application: {name!r}")
        self.network.ensure_host(host)
        profile = Profile(
            entity_id=self.guids.mint(),
            name=name,
            entity_class=EntityClass.SOFTWARE,
            attributes={"owner": owner} if owner else {},
        )
        app = app_class(profile, host, self.network, **kwargs)
        app.start()
        self.applications[name] = app
        return app

    # -- movement shortcuts -----------------------------------------------------------------

    def walk(self, key: str, room: str) -> float:
        return self.world.walk_to(key, room)

    def teleport(self, key: str, room: str):
        return self.world.teleport(key, room)

    # -- queries ---------------------------------------------------------------------------

    @staticmethod
    def query(owner: str) -> QueryBuilder:
        return QueryBuilder(owner)

    # -- time ------------------------------------------------------------------------------

    def run(self, duration: float) -> float:
        """Advance simulated time by ``duration``."""
        return self.scheduler.run_for(duration)

    def run_until(self, when: float) -> float:
        return self.scheduler.run_until(when)

    @property
    def now(self) -> float:
        return self.scheduler.now

    def __repr__(self) -> str:
        return (f"SCI(ranges={list(self.ranges)}, t={self.now:.2f}, "
                f"building={self.building.building_name!r})")
