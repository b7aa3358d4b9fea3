"""Applications built on the SCI public API.

:mod:`repro.apps.capa` is the paper's own example (Section 5): CAPA, the
Context Aware Printing Application, plus a scripted builder for the full
Bob/John scenario of Figure 7. :mod:`repro.apps.pathfinder` is the Figure-3
floor-map application that displays the live path between two people.
"""

from repro.apps.capa import CAPAApp, CAPAScenario, build_capa_scenario
from repro.apps.pathfinder import PathDisplayApp

__all__ = ["CAPAApp", "CAPAScenario", "build_capa_scenario", "PathDisplayApp"]
