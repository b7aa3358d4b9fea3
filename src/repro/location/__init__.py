"""Location models and their interoperation (Section 3.3).

The paper: "it is preferable to support many types of location model and
interoperate between them if necessary. For example it may be necessary to
convert geometric information to a hierarchical model or similarly convert
network signal strength to a geometric position. To facilitate this it will
be necessary to develop an intermediate location language."

Four models coexist here:

* **geometric** (:mod:`repro.location.geometry`) — 2-D points and rectangular rooms;
* **symbolic** (:mod:`repro.location.symbolic`) — the campus/building/floor/
  room hierarchy;
* **topological** (:mod:`repro.location.topology`) — places joined by doors,
  with access control and shortest paths;
* **signal-strength** (:mod:`repro.location.signalmap`) — W-LAN base-station
  observations.

:mod:`repro.location.building` binds them into one synthetic building;
:mod:`repro.location.converters` registers the cross-model conversions into
the type registry; :mod:`repro.location.language` is the intermediate
location language; :mod:`repro.location.service` is the Location Service
Context Utility.
"""

from repro.location.geometry import Point, Rect
from repro.location.symbolic import SymbolicHierarchy
from repro.location.topology import Topology, Door
from repro.location.signalmap import BaseStation, SignalMap, SignalObservation
from repro.location.building import BuildingModel, RoomSpec
from repro.location.language import LocationExpr, parse_location
from repro.location.converters import register_location_converters
from repro.location.service import LocationService

__all__ = [
    "Point",
    "Rect",
    "SymbolicHierarchy",
    "Topology",
    "Door",
    "BaseStation",
    "SignalMap",
    "SignalObservation",
    "BuildingModel",
    "RoomSpec",
    "LocationExpr",
    "parse_location",
    "register_location_converters",
    "LocationService",
]
