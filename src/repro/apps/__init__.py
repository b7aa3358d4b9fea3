"""Applications built on the SCI public API.

:mod:`repro.apps.capa` is the paper's own example (Section 5): CAPA, the
Context Aware Printing Application, plus a scripted builder for the full
Bob/John scenario of Figure 7. :mod:`repro.apps.pathfinder` is the Figure-3
floor-map application that displays the live path between two people.
:mod:`repro.apps.workload` is the open-loop traffic generator the scale
benchmarks drive the Event Mediator and Query Resolver with.
"""

from repro.apps.capa import CAPAApp, CAPAScenario, build_capa_scenario
from repro.apps.pathfinder import PathDisplayApp
from repro.apps.workload import (
    OpenLoopWorkload,
    ProviderFeed,
    WorkloadConfig,
    ZipfSampler,
)

__all__ = ["CAPAApp", "CAPAScenario", "build_capa_scenario", "PathDisplayApp",
           "OpenLoopWorkload", "ProviderFeed", "WorkloadConfig",
           "ZipfSampler"]
