"""The shared source environment the baseline comparisons run over.

A :class:`DataSource` stands for one sensor-level producer (a door-sensor
network, a wireless positioning system, a thermometer). Sources are typed
exactly like SCI's specs — semantic type plus representation plus subject —
so every composition model sees the same world and differs only in how it
binds to it. The environment can kill and revive sources, which is the
"environmental change" of the C3 workload.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import SCIError


class DataSource:
    """One sensor-level producer in the baseline environment."""

    def __init__(self, name: str, type_name: str, representation: str,
                 subject: Optional[str] = None):
        self.name = name
        self.type_name = type_name
        self.representation = representation
        self.subject = subject
        self.alive = True
        self._subscribers: List[Callable[["DataSource", Any], None]] = []
        self.pushes = 0

    def subscribe(self, callback: Callable[["DataSource", Any], None]) -> None:
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[["DataSource", Any], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    def push(self, value: Any) -> int:
        """Emit one value to live subscribers; dead sources emit nothing."""
        if not self.alive:
            return 0
        self.pushes += 1
        for callback in list(self._subscribers):
            callback(self, value)
        return len(self._subscribers)

    def matches_syntactically(self, type_name: str, representation: str,
                              subject: Optional[str] = None) -> bool:
        """iQueue-style matching: representation must agree exactly."""
        if not self.alive:
            return False
        if self.type_name != type_name:
            return False
        if self.representation != representation:
            return False
        if subject is not None and self.subject not in (None, subject):
            return False
        return True

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return (f"DataSource({self.name}: {self.type_name}"
                f"[{self.representation}] {state})")


class Environment:
    """All sources visible to the composition models, with kill/revive."""

    def __init__(self):
        self._sources: Dict[str, DataSource] = {}

    def add_source(self, source: DataSource) -> DataSource:
        if source.name in self._sources:
            raise SCIError(f"duplicate source: {source.name!r}")
        self._sources[source.name] = source
        return source

    def create(self, name: str, type_name: str, representation: str,
               subject: Optional[str] = None) -> DataSource:
        return self.add_source(DataSource(name, type_name, representation, subject))

    def source(self, name: str) -> DataSource:
        try:
            return self._sources[name]
        except KeyError:
            raise SCIError(f"unknown source: {name!r}") from None

    def sources(self) -> List[DataSource]:
        return list(self._sources.values())

    def live_sources(self) -> List[DataSource]:
        return [source for source in self._sources.values() if source.alive]

    def kill(self, name: str) -> DataSource:
        """Environmental change: a source becomes unavailable."""
        source = self.source(name)
        source.alive = False
        return source

    def revive(self, name: str) -> DataSource:
        source = self.source(name)
        source.alive = True
        return source

    def find_syntactic(self, type_name: str, representation: str,
                       subject: Optional[str] = None) -> List[DataSource]:
        """Live sources matching a spec exactly (sorted for determinism)."""
        found = [source for source in self._sources.values()
                 if source.matches_syntactically(type_name, representation, subject)]
        return sorted(found, key=lambda source: source.name)
