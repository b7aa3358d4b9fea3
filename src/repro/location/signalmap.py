"""Signal-strength location model (W-LAN detection).

Section 3.4: "a user with a W-LAN equipped device could be detected leaving
the effective operating range of a wireless network"; Section 3.3 asks to
"convert network signal strength to a geometric position". Base stations
observe received signal strength from devices; the map turns a set of
observations into a position estimate (weighted centroid) or a coverage
decision. A log-distance path-loss model with deterministic per-pair noise
stands in for real radio hardware (see DESIGN.md substitutions).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.core.errors import LocationError
from repro.location.geometry import Point


@dataclass(frozen=True)
class BaseStation:
    """A fixed wireless access point."""

    station_id: str
    position: Point
    #: transmit power at 1 m, in dBm (typical indoor AP)
    tx_power_dbm: float = -30.0
    #: path-loss exponent; ~2 free space, 3+ indoors
    path_loss_exponent: float = 3.0
    #: weakest usable signal — beyond this the device is "out of range"
    sensitivity_dbm: float = -90.0

    def rssi_at(self, position: Point, noise_db: float = 0.0) -> Optional[float]:
        """Received signal strength for a device at ``position``.

        Returns None when below sensitivity (device undetectable).
        """
        distance = max(self.position.distance_to(position), 0.1)
        rssi = self.tx_power_dbm - 10.0 * self.path_loss_exponent * math.log10(distance)
        rssi += noise_db
        return rssi if rssi >= self.sensitivity_dbm else None

    def coverage_radius(self) -> float:
        """Distance at which the noiseless signal hits sensitivity."""
        budget = self.tx_power_dbm - self.sensitivity_dbm
        return 10.0 ** (budget / (10.0 * self.path_loss_exponent))


@dataclass(frozen=True)
class SignalObservation:
    """One (station, rssi) reading for a device."""

    station_id: str
    rssi_dbm: float


class SignalMap:
    """A set of base stations and signal->position estimation."""

    def __init__(self, stations: Iterable[BaseStation] = (), noise_db: float = 0.0, seed: int = 0):
        self._stations: Dict[str, BaseStation] = {}
        self.noise_db = noise_db
        self._rng = random.Random(seed)
        for station in stations:
            self.add_station(station)

    def add_station(self, station: BaseStation) -> BaseStation:
        if station.station_id in self._stations:
            raise LocationError(f"duplicate base station: {station.station_id!r}")
        self._stations[station.station_id] = station
        return station

    def station(self, station_id: str) -> BaseStation:
        try:
            return self._stations[station_id]
        except KeyError:
            raise LocationError(f"unknown base station: {station_id!r}") from None

    def stations(self) -> List[BaseStation]:
        return list(self._stations.values())

    # -- forward model: position -> observations -------------------------------

    def observe(self, position: Point) -> List[SignalObservation]:
        """All stations that can hear a device at ``position``."""
        observations = []
        for station in self._stations.values():
            noise = self._rng.gauss(0.0, self.noise_db) if self.noise_db else 0.0
            rssi = station.rssi_at(position, noise)
            if rssi is not None:
                observations.append(SignalObservation(station.station_id, rssi))
        return observations

    def in_coverage(self, position: Point) -> bool:
        """True when at least one station hears the device (Section 3.4's
        boundary test for W-LAN ranges)."""
        return any(
            station.rssi_at(position) is not None
            for station in self._stations.values()
        )

    # -- inverse model: observations -> position --------------------------------

    def estimate_position(self, observations: Iterable[SignalObservation]) -> Point:
        """Weighted-centroid position estimate from RSSI observations.

        Each heard station contributes its position weighted by the inverse
        of its implied distance. Simple, bounded-error and adequate for the
        paper's conversion claim; accuracy is reported by the C4 benchmark.
        """
        weights: List[float] = []
        points: List[Point] = []
        for observation in observations:
            station = self.station(observation.station_id)
            distance = self._implied_distance(station, observation.rssi_dbm)
            weights.append(1.0 / max(distance, 0.1))
            points.append(station.position)
        if not points:
            raise LocationError("cannot estimate position from zero observations")
        total = sum(weights)
        x = sum(w * p.x for w, p in zip(weights, points)) / total
        y = sum(w * p.y for w, p in zip(weights, points)) / total
        return Point(x, y)

    def estimate_error_bound(self, observations: Iterable[SignalObservation]) -> float:
        """A coarse accuracy figure (metres) attached as QoC to estimates:
        the implied distance to the strongest heard station."""
        best = float("inf")
        for observation in observations:
            station = self.station(observation.station_id)
            best = min(best, self._implied_distance(station, observation.rssi_dbm))
        if best == float("inf"):
            raise LocationError("cannot bound error with zero observations")
        return best

    @staticmethod
    def _implied_distance(station: BaseStation, rssi_dbm: float) -> float:
        exponent = (station.tx_power_dbm - rssi_dbm) / (10.0 * station.path_loss_exponent)
        return 10.0 ** exponent

    def __len__(self) -> int:
        return len(self._stations)

    def __repr__(self) -> str:
        return f"SignalMap(stations={len(self)}, noise={self.noise_db}dB)"
