"""LaneSan: runtime lane-ownership sanitizer for the lane scheduler.

The dynamic half of the race detector (the static half is
:mod:`repro.analysis.races`). The partitioned scheduler's equivalence
guarantee rests on lane ownership: within one horizon round, a lane may
touch only state it owns — everything shared crosses rounds through a
message delivery, the stats staging buffer, or a control-lane barrier.
Lanes run one after another, so a violation is not a data race; it is
behaviour that depends on the partition count, because which hosts share a
lane decides whether the two accesses are ordered by the canonical key or
by lane index. LaneSan checks the claim on a live run instead of trusting
it.

Enable it per network — ``Network(..., sanitize=True)`` — and the
transport wraps its lane-shared registries (host table, process table,
partition map, per-host RNG streams) in ownership-asserting
:class:`SanDict` views. Every access records ``(structure, field, lane,
round)`` plus the call site; two accesses to the same field in the same
round from *different* lanes, at least one a write, are a conflict — the
exact pattern the horizon barrier exists to prevent. Iteration and
``len``/equality are recorded as whole-structure reads, which conflict
with a same-round write to any field by another lane.

Control-lane and external accesses (lane index < 0, or outside the run
loop) are exempt: control events are global barriers, ordered against
every lane in every partitioning. With the default single lane every
access is recorded but no pair can conflict. Everything stays
deterministic either way, because recording never changes container
semantics or ordering.

Typical use::

    network = Network(partitions=4, sanitize=True)
    ... run the workload ...
    network.sanitizer.assert_clean()      # raises LaneRaceError with both
                                          # stack sites on any conflict
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

_THIS_FILE = __file__

#: field name standing for "the whole structure" (iteration, len, ==)
STAR = "*"


class LaneRaceError(AssertionError):
    """A same-round cross-lane access pair was observed."""


@dataclass(frozen=True)
class Access:
    """One recorded side of a conflict."""

    lane: int
    kind: str                     # "read" | "write"
    site: str                     # "file:line in func <- caller"


@dataclass(frozen=True)
class Conflict:
    """Two lanes touched one field in one round, at least one writing."""

    label: str                    # which wrapped structure
    fieldname: str                # key, or ``*`` for whole-structure access
    round_index: int
    first: Access
    second: Access

    def format(self) -> str:
        return (f"lane-race on {self.label}[{self.fieldname}] in round "
                f"{self.round_index}:\n"
                f"  lane {self.first.lane} {self.first.kind} at "
                f"{self.first.site}\n"
                f"  lane {self.second.lane} {self.second.kind} at "
                f"{self.second.site}")


def _call_site() -> str:
    """Innermost non-sanitizer frame plus its caller."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == _THIS_FILE:
        frame = frame.f_back
    parts = []
    for _ in range(2):
        if frame is None:
            break
        code = frame.f_code
        parts.append(f"{code.co_filename}:{frame.f_lineno} "
                     f"in {code.co_name}")
        frame = frame.f_back
    return " <- ".join(parts) or "<unknown>"


@dataclass
class _FieldLog:
    """Per (label, field, lane) access summary within the current round."""

    read_site: Optional[str] = None
    write_site: Optional[str] = None


class LaneSan:
    """Collects lane-tagged accesses and reports same-round conflicts.

    One instance per sanitized :class:`~repro.net.transport.Network`.
    The buffer only ever holds one round of accesses — when a record
    arrives from a later round the previous round is reduced to conflicts
    and dropped, so memory stays bounded by per-round traffic.
    """

    def __init__(self, scheduler: Any):
        self._scheduler = scheduler
        self._round = -1
        #: (label, field) -> lane -> _FieldLog, for the buffered round
        self._accesses: Dict[Tuple[str, str], Dict[int, _FieldLog]] = {}
        self._conflicts: List[Conflict] = []
        self.records = 0

    # -- wrapping -------------------------------------------------------------

    def wrap_dict(self, mapping: Dict[Any, Any], label: str) -> "SanDict":
        """An ownership-asserting view seeded with ``mapping``'s content."""
        wrapped = SanDict(self, label)
        dict.update(wrapped, mapping)
        return wrapped

    # -- recording ------------------------------------------------------------

    def record(self, label: str, fieldname: str, *, write: bool) -> None:
        scheduler = self._scheduler
        context = getattr(scheduler, "current_context", None)
        lane = getattr(context, "index", -1) if context is not None else -1
        if lane < 0:
            return  # control lane / external: barrier-ordered by design
        round_index = getattr(scheduler, "round_index", 0)
        site = _call_site()
        self.records += 1
        if round_index != self._round:
            self._flush()
            self._round = round_index
        log = self._accesses.setdefault(
            (label, fieldname), {}).setdefault(lane, _FieldLog())
        if write:
            if log.write_site is None:
                log.write_site = site
        elif log.read_site is None:
            log.read_site = site

    def _flush(self) -> None:
        """Reduce the buffered round to conflicts, then drop it."""
        star_logs: Dict[str, Dict[int, _FieldLog]] = {}
        for (label, fieldname), lanes in self._accesses.items():
            if fieldname == STAR:
                star_logs[label] = lanes
            self._emit_conflicts(label, fieldname, self._round, lanes)
        # a whole-structure access conflicts with any same-round write to
        # any field of that structure from a different lane
        for (label, fieldname), lanes in self._accesses.items():
            if fieldname == STAR or label not in star_logs:
                continue
            for star_lane, star_log in star_logs[label].items():
                for lane, log in lanes.items():
                    if lane == star_lane or log.write_site is None:
                        continue
                    star_site = star_log.read_site or star_log.write_site
                    kind = "read" if star_log.read_site else "write"
                    self._conflicts.append(Conflict(
                        label=label, fieldname=fieldname,
                        round_index=self._round,
                        first=Access(star_lane, kind, star_site or "?"),
                        second=Access(lane, "write", log.write_site)))
        self._accesses = {}

    def _emit_conflicts(self, label: str, fieldname: str, round_index: int,
                        lanes: Dict[int, _FieldLog]) -> None:
        if len(lanes) < 2:
            return
        writers = [(lane, log) for lane, log in lanes.items()
                   if log.write_site is not None]
        if not writers:
            return
        writer_lane, writer_log = writers[0]
        for lane, log in sorted(lanes.items()):
            if lane == writer_lane:
                continue
            site = log.write_site or log.read_site
            kind = "write" if log.write_site else "read"
            self._conflicts.append(Conflict(
                label=label, fieldname=fieldname, round_index=round_index,
                first=Access(writer_lane, "write",
                             writer_log.write_site or "?"),
                second=Access(lane, kind, site or "?")))

    # -- reporting ------------------------------------------------------------

    def conflicts(self) -> List[Conflict]:
        """All conflicts seen so far (flushes the in-flight round)."""
        self._flush()
        return list(self._conflicts)

    def report(self) -> str:
        found = self.conflicts()
        if not found:
            return "lanesan: clean"
        lines = [f"lanesan: {len(found)} conflict(s)"]
        lines.extend(conflict.format() for conflict in found)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        found = self.conflicts()
        if found:
            raise LaneRaceError(self.report())


class SanDict(dict):
    """A dict that reports every access to its :class:`LaneSan`.

    Subclasses ``dict`` and defers every operation to the base class, so
    contents, ordering, equality and iteration semantics are untouched —
    the overlay only *observes*. Keys are stringified for field names;
    iteration, length and equality record a whole-structure read.
    """

    __slots__ = ("_san", "_label")

    def __init__(self, san: LaneSan, label: str):
        super().__init__()
        self._san = san
        self._label = label

    # -- reads ---------------------------------------------------------------

    def __getitem__(self, key: Any) -> Any:
        self._san.record(self._label, str(key), write=False)
        return dict.__getitem__(self, key)

    def get(self, key: Any, default: Any = None) -> Any:
        self._san.record(self._label, str(key), write=False)
        return dict.get(self, key, default)

    def __contains__(self, key: Any) -> bool:
        self._san.record(self._label, str(key), write=False)
        return dict.__contains__(self, key)

    def __iter__(self) -> Any:
        self._san.record(self._label, STAR, write=False)
        return dict.__iter__(self)

    def __len__(self) -> int:
        self._san.record(self._label, STAR, write=False)
        return dict.__len__(self)

    def keys(self) -> Any:
        self._san.record(self._label, STAR, write=False)
        return dict.keys(self)

    def values(self) -> Any:
        self._san.record(self._label, STAR, write=False)
        return dict.values(self)

    def items(self) -> Any:
        self._san.record(self._label, STAR, write=False)
        return dict.items(self)

    def __eq__(self, other: Any) -> bool:
        self._san.record(self._label, STAR, write=False)
        return dict.__eq__(self, other)

    __hash__ = None  # type: ignore[assignment]  # dicts are unhashable

    # -- writes --------------------------------------------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        self._san.record(self._label, str(key), write=True)
        dict.__setitem__(self, key, value)

    def __delitem__(self, key: Any) -> None:
        self._san.record(self._label, str(key), write=True)
        dict.__delitem__(self, key)

    def pop(self, key: Any, *default: Any) -> Any:
        self._san.record(self._label, str(key), write=True)
        return dict.pop(self, key, *default)

    def popitem(self, *args: Any, **kwargs: Any) -> Any:
        self._san.record(self._label, STAR, write=True)
        return dict.popitem(self, *args, **kwargs)

    def setdefault(self, key: Any, default: Any = None) -> Any:
        write = not dict.__contains__(self, key)
        self._san.record(self._label, str(key), write=write)
        return dict.setdefault(self, key, default)

    def update(self, *args: Any, **kwargs: Any) -> None:
        staged: Dict[Any, Any] = dict(*args, **kwargs)
        for key in staged:
            self._san.record(self._label, str(key), write=True)
        dict.update(self, staged)

    def clear(self) -> None:
        self._san.record(self._label, STAR, write=True)
        dict.clear(self)


def iter_quiet(mapping: Dict[Any, Any]) -> Iterable[Tuple[Any, Any]]:
    """Items of a possibly-sanitized mapping without recording — for
    barrier-context bulk operations that would otherwise flood the log."""
    return dict.items(mapping) if isinstance(mapping, SanDict) \
        else mapping.items()
