"""Structured tracing over simulated time.

A **span** is one named piece of work with a start and end in *simulated*
time, attributes, and a parent link; a **trace** is the tree of spans that
one operation (a query, an overlay route, a repair) produced, possibly
across many processes and hosts.

Propagation is ambient: the :class:`Tracer` keeps a stack of active span
contexts. When a :class:`~repro.net.transport.Process` sends a message, the
transport stamps the current context onto the message; when the message is
delivered, the transport re-activates that context around ``on_message``.
Components therefore never thread context by hand — they only open spans at
the points worth naming (query handling, overlay hops, resolution, repair,
delivery) and parentage falls out of the message flow, exactly like W3C
trace-context headers would carry it over HTTP.

Ids are sequential, not random: the simulation is deterministic and the
trace store should be too.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager, nullcontext
from typing import (Any, Callable, ContextManager, Dict, Iterator, List,
                    Optional)

#: wire keys used on Message.trace
TRACE_KEY = "trace"
SPAN_KEY = "span"

#: what :meth:`Tracer.span_if_active` returns outside a trace: it yields
#: ``None`` and, holding no state, is shared by every call
_IDLE: ContextManager[None] = nullcontext()


class Span:
    """One timed, attributed unit of work inside a trace."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name",
                 "start", "end", "attributes")

    def __init__(self, trace_id: str, span_id: str, parent_id: Optional[str],
                 name: str, start: float,
                 attributes: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes or {}

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        """Simulated-time length; None while the span is still open."""
        return None if self.end is None else self.end - self.start

    def set(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def context(self) -> Dict[str, str]:
        return {TRACE_KEY: self.trace_id, SPAN_KEY: self.span_id}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        status = f"{self.duration:.3f}s" if self.closed else "open"
        return (f"<Span {self.name} {self.span_id} "
                f"trace={self.trace_id} {status}>")


class Trace:
    """Read-only view over the spans of one trace id."""

    def __init__(self, trace_id: str, spans: List[Span]):
        self.trace_id = trace_id
        self.spans = list(spans)
        self._by_id = {span.span_id: span for span in self.spans}

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def roots(self) -> List[Span]:
        """Spans with no parent *within this trace* (normally exactly one)."""
        return [span for span in self.spans
                if span.parent_id is None or span.parent_id not in self._by_id]

    def root(self) -> Optional[Span]:
        roots = self.roots()
        return roots[0] if len(roots) == 1 else None

    def children(self, span_id: str) -> List[Span]:
        return [span for span in self.spans if span.parent_id == span_id]

    def is_connected(self) -> bool:
        """True when every span is reachable from a single root."""
        roots = self.roots()
        if len(roots) != 1:
            return False
        seen = set()
        frontier = [roots[0].span_id]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(child.span_id for child in self.children(current))
        return len(seen) == len(self.spans)

    def depth(self) -> int:
        """Longest root-to-leaf chain length (1 = root only)."""
        def deep(span: Span) -> int:
            kids = self.children(span.span_id)
            return 1 + (max(deep(kid) for kid in kids) if kids else 0)
        roots = self.roots()
        return max((deep(root) for root in roots), default=0)

    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def duration(self) -> float:
        """Simulated-time extent of the whole trace (closed spans only)."""
        closed = [span for span in self.spans if span.closed]
        if not closed:
            return 0.0
        return (max(span.end for span in closed)
                - min(span.start for span in closed))

class _Frame:
    """One stack entry: either a local span or a resumed remote context."""

    __slots__ = ("trace_id", "span_id", "span")

    def __init__(self, trace_id: str, span_id: str, span: Optional[Span]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.span = span


class Tracer:
    """Creates spans, keeps the ambient context stack, stores finished traces.

    ``clock`` supplies the current simulated time. The store is bounded:
    at most ``max_traces`` traces are kept (oldest evicted first) and at
    most ``max_spans_per_trace`` spans are recorded per trace — a runaway
    loop degrades the trace, not the process.
    """

    def __init__(self, clock: Callable[[], float],
                 max_traces: int = 1024,
                 max_spans_per_trace: int = 10_000):
        self.clock = clock
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        #: the context stack of a tracer no scheduler drives
        self.ambient: List[_Frame] = []
        #: what holds the current context stack as its ``ambient``: this
        #: tracer, or the scheduler a Network's Observability points it at,
        #: which swaps its in-loop and external stacks so context around a
        #: run call never leaks into the callbacks
        self.home: Any = self
        #: trace id -> spans, in insertion order (dicts preserve it)
        self._traces: Dict[str, List[Span]] = {}
        self.dropped_spans = 0
        self.evicted_traces = 0

    # -- span lifecycle -------------------------------------------------------

    def start(self, name: str, **attributes: Any) -> Span:
        """Open a span under the current context and make it current."""
        stack = self.home.ambient
        parent = stack[-1] if stack else None
        if parent is None:
            trace_id = f"t{next(self._trace_ids):06d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(trace_id, f"s{next(self._span_ids):06d}", parent_id,
                    name, self.clock(), attributes)
        self._record(span)
        stack.append(_Frame(trace_id, span.span_id, span))
        return span

    def end(self, span: Optional[Span]) -> None:
        """Close a span (idempotent; safe on None)."""
        if span is not None and span.end is None:
            span.end = self.clock()

    def leave(self, span: Optional[Span]) -> None:
        """Pop a span from the context stack WITHOUT closing it.

        For operations that stay open across scheduled callbacks (a query
        awaiting its ack): the caller keeps the span and calls :meth:`end`
        later.
        """
        self._pop(span)

    def finish(self, span: Optional[Span]) -> None:
        """Close a span and remove it from the context stack."""
        self.end(span)
        self._pop(span)

    def _pop(self, span: Optional[Span]) -> None:
        if span is None:
            return
        stack = self.home.ambient
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].span is span:
                del stack[index]
                return

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """``with tracer.span("cs.query", query=qid) as span: ...``"""
        span = self.start(name, **attributes)
        try:
            yield span
        finally:
            self.finish(span)

    def span_if_active(self, name: str, **attributes: Any
                       ) -> ContextManager[Optional[Span]]:
        """Open a span only when already inside a trace.

        High-frequency sites (event fan-out, per-message hooks) use this so
        untraced background chatter does not mint a root trace per call.
        Outside a trace it returns one shared context that yields ``None``
        and records nothing, so an idle call builds no generator.
        """
        if not self.home.ambient:
            return _IDLE
        return self.span(name, **attributes)

    # -- ambient context ------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self.home.ambient)

    def current_context(self) -> Optional[Dict[str, str]]:
        """The context to stamp onto an outgoing message (None = untraced)."""
        stack = self.home.ambient
        if not stack:
            return None
        top = stack[-1]
        return {TRACE_KEY: top.trace_id, SPAN_KEY: top.span_id}

    def push_remote(self, context: Optional[Dict[str, str]]) -> Optional[_Frame]:
        """Adopt an inbound message's context; returns the frame to pass to
        :meth:`pop_remote` (None when nothing was pushed).

        This is :meth:`activate` without the contextmanager machinery — the
        transport's delivery path calls it once per message, so the
        generator overhead is worth skipping.
        """
        if not context or TRACE_KEY not in context or SPAN_KEY not in context:
            return None
        frame = _Frame(str(context[TRACE_KEY]), str(context[SPAN_KEY]), None)
        self.home.ambient.append(frame)
        return frame

    def pop_remote(self, frame: Optional[_Frame]) -> None:
        """Undo :meth:`push_remote` (tolerates None and unbalanced stacks)."""
        if frame is None:
            return
        stack = self.home.ambient
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)

    @contextmanager
    def activate(self, context: Optional[Dict[str, str]]) -> Iterator[None]:
        """Adopt a context carried by an inbound message (None = no-op)."""
        frame = self.push_remote(context)
        try:
            yield None
        finally:
            self.pop_remote(frame)

    # -- storage --------------------------------------------------------------

    def _record(self, span: Span) -> None:
        spans = self._traces.get(span.trace_id)
        if spans is None:
            while len(self._traces) >= self.max_traces:
                oldest = next(iter(self._traces))
                del self._traces[oldest]
                self.evicted_traces += 1
            spans = self._traces[span.trace_id] = []
        if len(spans) >= self.max_spans_per_trace:
            self.dropped_spans += 1
            return
        spans.append(span)

    def trace(self, trace_id: str) -> Optional[Trace]:
        spans = self._traces.get(trace_id)
        return Trace(trace_id, spans) if spans is not None else None

    def traces(self) -> List[Trace]:
        return [Trace(trace_id, spans)
                for trace_id, spans in self._traces.items()]

    def find_spans(self, name: str) -> List[Span]:
        """Every stored span with this name, across all traces."""
        return [span for spans in self._traces.values()
                for span in spans if span.name == name]

    def trace_of(self, span: Span) -> Optional[Trace]:
        return self.trace(span.trace_id)

    def __repr__(self) -> str:
        return (f"Tracer(traces={len(self._traces)}, "
                f"active_depth={len(self.home.ambient)})")
