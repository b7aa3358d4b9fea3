"""The default deployment runs on the scheduler's per-message fast path.

``Network()`` with no arguments builds the one scheduler there is, so every
send is a bare heap tuple (no ``Timer``, no closure). These tests pin that
the fast path is what a default deployment executes, that a default
``SCI()`` is deterministic and that no module under ``src/repro`` reads
the host clock, that an untraced hot path builds no span machinery and
leaves no GC-tracked dedup keys behind, and that nothing selects another
way to run.
"""

import gc
import importlib
import inspect
import pathlib

import pytest

from repro import SCI
from repro.analysis import runner as analysis_runner
from repro.analysis.determinism import CHECK_WALL_CLOCK, DeterminismChecker
from repro.analysis.source import SourceFile
from repro.net.message import Message
from repro.net import sim as sim_module
from repro.net.sim import Scheduler, Timer
from repro.net.transport import (FixedLatency, FunctionProcess, LatencyModel,
                                 Network)
from repro.obs import tracing as tracing_module
from repro.obs.experiments import run_overlay_instrumented
from repro.overlay.node import OverlayNode
from repro.overlay.scinet import SCINet
from tests.net.eventlog import attach
from tests.recording import RecordingApp


def test_default_send_is_a_bare_heap_tuple():
    net = Network(latency_model=FixedLatency(1.0))
    assert isinstance(net.scheduler, Scheduler)
    net.add_host("a")
    net.add_host("b")
    got = []
    sender = FunctionProcess(net.guids.mint(), "a", net, got.append)
    receiver = FunctionProcess(net.guids.mint(), "b", net, got.append)
    sender.send(receiver.guid, "ping", {})
    (entry,) = net.scheduler._heap
    when, _rank, _seq, _owner, timer, fn, args = entry
    assert when == 1.0
    assert timer is None, "a delivery must not mint a Timer"
    assert fn == net._deliver and args[0].kind == "ping"
    assert net.scheduler.pending == 1
    net.run_until_idle()
    assert [message.kind for message in got] == ["ping"]
    assert net.stats.sent == net.stats.delivered == 1


def test_one_execution_mode_no_selecting_options():
    """There is one executor and one overlay path: nothing to select."""
    for target in (Scheduler, Network, SCINet, OverlayNode.broadcast):
        options = set(inspect.signature(target).parameters)
        assert not options & {"parallel", "incremental", "flood"}, target
    source = inspect.getsource(sim_module)
    assert "threading" not in source and "concurrent.futures" not in source


def test_one_heap_no_lane_options():
    """There is one heap: no lanes to count, no lookahead to promise, no
    race detector for a concurrency that cannot occur."""
    for target in (Scheduler, Network, run_overlay_instrumented):
        options = set(inspect.signature(target).parameters)
        assert not options & {"partitions", "lookahead", "sanitize"}, target
    assert not inspect.signature(Scheduler).parameters
    with pytest.raises(TypeError):
        Network(partitions=1)
    for name in ("CausalityError", "_Lane"):
        assert not hasattr(sim_module, name)
    for name in ("_lanes", "_rank_lane", "lane_of", "round_index"):
        assert not hasattr(Scheduler(), name)
    assert not hasattr(LatencyModel, "min_latency")
    assert analysis_runner.FAMILIES == ("determinism", "verbs", "catalog")
    for module in ("repro.analysis.lanesan", "repro.analysis.races"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)


def test_timer_carries_arguments_without_a_closure():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, seen.append, "x")
    (entry,) = sched._heap
    assert isinstance(entry[4], Timer)
    assert entry[5] == seen.append and entry[6] == ("x",)
    sched.schedule(2.0, lambda *, tag: seen.append(tag), tag="y")
    sched.run_until_idle()
    assert seen == ["x", "y"]


# -- default SCI(): deterministic ----------------------------------------------

def _sci_digest():
    """Event-log digest of a small facade-driven run. Every id a payload
    carries is minted inside the run, so two runs in one process match."""
    sci = SCI()
    log = attach(sci.network)
    sci.create_range("livingstone", places=["livingstone"], hosts=["lab-pc"])
    sci.add_door_sensors("livingstone")
    sci.add_person("bob", room="corridor")
    app = sci.create_application("whereIsBob", host="lab-pc",
                                 app_class=RecordingApp)
    sci.run(5)
    query = sci.query("bob").subscribe("location", "topological",
                                       subject="bob").build()
    app.submit_query(query)
    sci.run(5)
    sci.walk("bob", "L10.01")
    sci.run(30)
    assert app.last_event_value() == "L10.01"
    return log.digest(), len(log)


def test_default_sci_is_repeatable():
    first = _sci_digest()
    assert first[1] > 50
    assert _sci_digest() == first


# -- no host clock: no scheduler profiler, no wall-clock read in src/ -----------


def test_default_sci_attaches_no_profiler():
    sci = SCI()
    assert not hasattr(sci.network.scheduler, "profiler")
    assert not hasattr(sci.network.obs, "profiler")
    for name in ("created_at", "site", "_site"):
        assert not hasattr(Timer(1.0), name)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.profiling")


def test_no_module_in_src_reads_the_host_clock():
    """Every module, the run loop included, is clocked by ``scheduler.now``:
    the raw checker (before any pragma) finds no host-clock read."""
    package = pathlib.Path(sim_module.__file__).resolve().parents[1]
    paths = sorted(package.rglob("*.py"))
    assert len(paths) > 50
    checker = DeterminismChecker()
    reads = [f"{finding.path}:{finding.line}"
             for path in paths
             for finding in checker.check(SourceFile.from_text(
                 path.read_text(encoding="utf-8"), path.as_posix()))
             if finding.check == CHECK_WALL_CLOCK]
    assert reads == []


# -- untraced hot path: no span machinery, no tracked dedup keys -----------------


def test_idle_span_if_active_is_one_shared_null_context():
    net = Network()
    tracer = net.obs.tracer
    first = tracer.span_if_active("mediator.publish", event=1)
    assert first is tracer.span_if_active("overlay.route", hops=0)
    assert first is tracing_module._IDLE
    with first as span:
        assert span is None
    assert tracer.traces() == [] and tracer.find_spans("mediator.publish") == []
    with tracer.span("root") as root:
        inner = tracer.span_if_active("mediator.publish")
        assert inner is not tracing_module._IDLE
        with inner as span:
            assert span is not None and span.parent_id == root.span_id
    assert [s.name for s in tracer.find_spans("mediator.publish")] == \
        ["mediator.publish"]


def test_dedup_keys_are_untracked_and_still_replay():
    net = Network(latency_model=FixedLatency(1.0))
    net.add_host("a")
    net.add_host("b")
    handled, replies = [], []

    def echo(message):
        handled.append(message)
        server.reply(message, "pong", {"n": len(handled)})

    server = FunctionProcess(net.guids.mint(), "a", net, echo)
    client = FunctionProcess(net.guids.mint(), "b", net, replies.append)
    request = client.send(server.guid, "ping", {})
    net.run_until_idle()
    gc.collect()
    keys = list(server._seen_messages) + list(client._seen_messages)
    assert keys and not any(gc.is_tracked(key) for key in keys)
    assert (client.guid.value, request.msg_id) in server._seen_messages
    # a retransmitted copy (same sender, same msg_id) is suppressed, and the
    # cached reply is sent again without re-running the handler (the
    # client's own dedup then collapses the second copy)
    net.send(Message(client.guid, server.guid, "ping", {},
                     msg_id=request.msg_id))
    net.run_until_idle()
    assert len(handled) == 1
    assert net.stats.by_kind["pong"] == 2
    metrics = net.obs.metrics
    assert metrics.get("net.dedup.replayed_replies").total() == 1
    assert metrics.get("net.dedup.suppressed").total() == 2
    assert [(reply.kind, reply.payload) for reply in replies] == \
        [("pong", {"n": 1})]
