"""Span recording around each layer's public entry points.

Tracing lives in the benchmark, not in the program: ``WRAP_TABLE`` lists
``(layer, dotted path)`` pairs that are resolved when a traced run starts.
Each resolved callable is replaced by a wrapper that records one span —
path, start, end, parent (a stack suffices: the simulator is single-threaded)
and, where the call carries one, the event or query id. A path that no
longer resolves is reported as *absent*, never as an error, so deleting an
engine cannot break the benchmark. ``SpanRecorder.unwrap`` puts every
original back.

A layer's *self time* is the time inside its spans minus the time inside
their child spans. The wrappers themselves cost time; ``calibrate`` measures
that cost on an empty function — the part that falls inside the span and the
part that falls into the caller — and ``summarise`` subtracts ``count x cost``
from each layer.
"""

from __future__ import annotations

import importlib
import json
from array import array
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

LAYERS = ("net", "obs", "events", "query", "composition", "server", "ledger",
          "overlay", "entities", "location")


def _query_id(args: tuple) -> Optional[str]:
    return getattr(args[1], "query_id", None) if len(args) > 1 else None


def _wire_query_id(args: tuple) -> Optional[str]:
    data = args[1] if len(args) > 1 else None
    return data.get("query_id") if isinstance(data, dict) else None


def _event_seq(args: tuple) -> Optional[str]:
    seq = getattr(args[1], "seq", None) if len(args) > 1 else None
    return None if seq is None else f"e{seq}"


#: (layer, dotted path[, id extractor]) — the layer boundaries of src/repro
WRAP_TABLE: List[tuple] = [
    ("net", "repro.net.transport.Network.send"),
    ("net", "repro.net.transport.Process.deliver"),
    ("net", "repro.net.sim.Scheduler.schedule_at"),
    ("net", "repro.net.sim.Scheduler.run_until_idle"),
    ("net", "repro.net.rpc.RequestManager.request"),
    ("net", "repro.net.rpc.RequestManager.dispatch_reply"),
    ("obs", "repro.obs.metrics.Counter.inc"),
    ("obs", "repro.obs.metrics.Histogram.observe"),
    ("obs", "repro.obs.tracing.Tracer.start"),
    ("obs", "repro.obs.tracing.Tracer.end"),
    ("events", "repro.events.mediator.EventMediator.on_message"),
    ("events", "repro.events.mediator.EventMediator.publish", _event_seq),
    ("events", "repro.events.mediator.EventMediator.add_subscription"),
    ("events", "repro.events.mediator.EventMediator.remove_subscription"),
    ("events", "repro.events.mediator.EventMediator.remove_subscriber"),
    ("events", "repro.events.stream.StreamReassembler.offer"),
    ("query", "repro.query.model.Query.from_wire", _wire_query_id),
    ("query", "repro.query.model.QueryBuilder.build"),
    ("query", "repro.query.selection.WhichClause.parse"),
    ("query", "repro.query.selection.WhichClause.select"),
    ("query", "repro.query.temporal.WhenClause.parse"),
    ("query", "repro.query.opgraph.engine.OperatorGraph.publish"),
    ("query", "repro.query.opgraph.engine.OperatorGraph.attach"),
    ("query", "repro.query.opgraph.engine.OperatorGraph.detach"),
    ("composition", "repro.composition.resolver.QueryResolver.resolve"),
    ("composition", "repro.composition.resolver.QueryResolver.note_profile_added"),
    ("composition", "repro.composition.resolver.QueryResolver.note_profile_removed"),
    ("composition", "repro.composition.manager.ConfigurationManager.deliver"),
    ("composition", "repro.composition.manager.ConfigurationManager.teardown"),
    ("composition", "repro.composition.manager.ConfigurationManager.cancel_query"),
    ("composition",
     "repro.composition.manager.ConfigurationManager.handle_entity_departure"),
    ("server", "repro.core.api.SCI.__init__"),
    ("server", "repro.core.api.SCI.create_range"),
    ("server", "repro.server.context_server.ContextServer.on_message"),
    ("server", "repro.server.context_server.ContextServer.accept_query", _query_id),
    ("server", "repro.server.context_server.ContextServer.execute_query", _query_id),
    ("server", "repro.server.context_server.ContextServer.admit_host"),
    ("server", "repro.server.registrar.Registrar.on_message"),
    ("server", "repro.server.registrar.Registrar._sweep_leases"),
    ("server", "repro.server.range_service.RangeService.on_message"),
    ("ledger", "repro.ledger.ledger.ContextLedger.append"),
    ("ledger", "repro.ledger.ledger.ContextLedger.verify"),
    ("ledger", "repro.ledger.ledger.merge_entries"),
    ("ledger", "repro.ledger.replay.ReplayProjector.from_entries"),
    ("ledger", "repro.ledger.replay.live_snapshot"),
    ("ledger", "repro.ledger.replay.projection_snapshot"),
    ("ledger", "repro.ledger.replay.snapshot_digest"),
    ("overlay", "repro.overlay.scinet.SCINet.join"),
    ("overlay", "repro.overlay.scinet.SCINet.leave"),
    ("overlay", "repro.overlay.scinet.SCINet.fail"),
    ("overlay", "repro.overlay.node.OverlayNode.on_message"),
    ("overlay", "repro.overlay.node.OverlayNode.lookup_place"),
    ("entities", "repro.entities.entity.BaseComponent.__init__"),
    ("entities", "repro.entities.entity.BaseComponent.start"),
    ("entities", "repro.entities.entity.BaseComponent.stop"),
    ("entities", "repro.entities.entity.BaseComponent.on_message"),
    ("entities", "repro.entities.entity.BaseComponent._send_heartbeat"),
    ("entities", "repro.entities.entity.ContextEntity.publish"),
    ("entities", "repro.entities.entity.ContextAwareApplication.submit_query"),
    ("location", "repro.location.service.LocationService.on_message"),
    ("location", "repro.location.service.LocationService.update"),
    ("location", "repro.location.service.LocationService.resolve_rooms"),
    ("location", "repro.mobility.handoff.HandoffCoordinator.carry"),
    ("location", "repro.mobility.detection.BoundaryMonitor.scan"),
    ("location", "repro.mobility.world.World.walk_to"),
]


def resolve(path: str) -> Optional[Tuple[Any, str]]:
    """``(owner, attribute)`` for a dotted path, or None when it is absent.

    The owner is the module or class that holds the attribute: the longest
    importable prefix names the module, the rest is an attribute chain.
    """
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        return (owner, parts[-1]) if hasattr(owner, parts[-1]) else None
    return None


class SpanRecorder:
    """Records spans from wrapped callables; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = perf_counter):
        self.clock = clock
        self.paths: List[str] = []
        self.path_layer: List[str] = []
        self.absent: List[str] = []
        #: one entry per span, in start order
        self.span_path = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_ident: Dict[int, str] = {}
        self._stack: List[int] = []
        #: (owner, attribute, had own entry, original entry) for unwrap
        self._patched: List[Tuple[Any, str, bool, Any]] = []
        self.root_start = self.root_end = 0.0
        #: seconds one wrapped call adds inside its span / to its caller
        self.cost_inside = self.cost_outside = 0.0

    # -- wrapping -------------------------------------------------------------

    def _path_index(self, layer: str, path: str) -> int:
        self.paths.append(path)
        self.path_layer.append(layer)
        return len(self.paths) - 1

    def wrapper(self, fn: Callable, layer: str, path: str,
                ident: Optional[Callable[[tuple], Optional[str]]] = None) -> Callable:
        index = self._path_index(layer, path)
        clock, stack = self.clock, self._stack
        span_path, span_parent = self.span_path, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        idents = self.span_ident

        @wraps(fn)
        def traced(*args, **kwargs):
            span = len(span_path)
            span_path.append(index)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(span)
            if ident is not None:
                found = ident(args)
                if found is not None:
                    idents[span] = found
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()

        return traced

    def wrap(self, table: Iterable[tuple] = WRAP_TABLE) -> None:
        """Install a wrapper on every row that resolves; list the rest."""
        for row in table:
            layer, path = row[0], row[1]
            ident = row[2] if len(row) > 2 else None
            found = resolve(path)
            if found is None:
                self.absent.append(path)
                continue
            owner, name = found
            own = vars(owner).get(name) if hasattr(owner, "__dict__") else None
            entry = own if own is not None else getattr(owner, name)
            if isinstance(entry, (classmethod, staticmethod)):
                replacement: Any = type(entry)(
                    self.wrapper(entry.__func__, layer, path, ident))
            elif callable(entry):
                replacement = self.wrapper(entry, layer, path, ident)
            else:
                self.absent.append(path)
                continue
            self._patched.append((owner, name, own is not None, own))
            setattr(owner, name, replacement)

    def unwrap(self) -> None:
        """Restore every original (inherited entries are simply removed)."""
        while self._patched:
            owner, name, had_own, original = self._patched.pop()
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # -- measuring ------------------------------------------------------------

    def begin(self) -> None:
        self.root_start = self.clock()

    def end(self) -> None:
        self.root_end = self.clock()

    def reset(self) -> None:
        for column in (self.span_path, self.span_parent, self.span_start,
                       self.span_end):
            del column[:]
        self.span_ident.clear()
        del self._stack[:]

    def calibrate(self, calls: int = 50_000) -> None:
        """Measure the wrapper's own cost on an empty function."""

        def empty() -> None:
            return None

        self.reset()
        traced = self.wrapper(empty, "harness", "trace.calibrate")
        for _ in range(1000):
            traced()
        self.reset()
        started = self.clock()
        for _ in range(calls):
            empty()
        bare = self.clock() - started
        started = self.clock()
        for _ in range(calls):
            traced()
        wrapped = self.clock() - started
        inside = sum(end - start for start, end
                     in zip(self.span_start, self.span_end)) / calls
        per_call = max(0.0, (wrapped - bare) / calls)
        self.cost_inside = min(inside, per_call)
        self.cost_outside = per_call - self.cost_inside
        self.reset()
        self.paths.pop()
        self.path_layer.pop()

    # -- reading --------------------------------------------------------------

    def summarise(self) -> Dict[str, Any]:
        """Per-path and per-layer calls and self time, wrapper cost removed."""
        count = len(self.span_path)
        child_time = [0.0] * count
        child_calls = [0] * count
        top_time, top_calls = 0.0, 0
        for span in range(count):
            duration = self.span_end[span] - self.span_start[span]
            parent = self.span_parent[span]
            if parent < 0:
                top_time += duration
                top_calls += 1
            else:
                child_time[parent] += duration
                child_calls[parent] += 1
        paths = {path: {"layer": self.path_layer[i], "calls": 0,
                        "total_s": 0.0, "self_s": 0.0}
                 for i, path in enumerate(self.paths)}
        layers = {layer: {"calls": 0, "self_s": 0.0}
                  for layer in dict.fromkeys(self.path_layer)}
        for span in range(count):
            index = self.span_path[span]
            duration = self.span_end[span] - self.span_start[span]
            own = (duration - child_time[span] - self.cost_inside
                   - child_calls[span] * self.cost_outside)
            row = paths[self.paths[index]]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += own
            layer = layers[self.path_layer[index]]
            layer["calls"] += 1
            layer["self_s"] += own
        for row in list(paths.values()) + list(layers.values()):
            row["self_s"] = max(0.0, row["self_s"])
        root = self.root_end - self.root_start
        unattributed = max(0.0, root - top_time - top_calls * self.cost_outside)
        return {"root_s": root, "unattributed_s": unattributed,
                "spans": count, "layers": layers, "paths": paths,
                "absent": list(self.absent)}

    def durations(self, path: str) -> List[float]:
        """Every span duration (seconds) recorded for one path."""
        if path not in self.paths:
            return []
        index = self.paths.index(path)
        return [self.span_end[span] - self.span_start[span]
                for span in range(len(self.span_path))
                if self.span_path[span] == index]

    def write_jsonl(self, target) -> int:
        """One JSON object per span: name, layer, start, end, parent, id."""
        names = [".".join(path.split(".")[-2:]) for path in self.paths]
        with open(target, "w", encoding="utf-8") as handle:
            for span in range(len(self.span_path)):
                index = self.span_path[span]
                record = {"span": span, "name": names[index],
                          "layer": self.path_layer[index],
                          "start": round(self.span_start[span]
                                         - self.root_start, 7),
                          "end": round(self.span_end[span]
                                       - self.root_start, 7),
                          "parent": self.span_parent[span]}
                if span in self.span_ident:
                    record["id"] = self.span_ident[span]
                handle.write(json.dumps(record) + "\n")
        return len(self.span_path)
