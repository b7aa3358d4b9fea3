"""A caller's fresh registry is the one a component records into.

An empty ``MetricsRegistry`` is falsy (it defines ``__len__``), so a
constructor that picks its registry with ``metrics or MetricsRegistry()``
swaps a fresh one for a private registry nobody can read. Each
constructor here is handed a fresh registry and its counter is read back
from it.
"""

from repro.composition.resolver import QueryResolver
from repro.core.ids import GuidFactory
from repro.core.types import TypeSpec
from repro.entities.profile import EntityClass, Profile
from repro.events.stream import StreamReassembler
from repro.ledger.ledger import ContextLedger
from repro.net.sim import Scheduler
from repro.obs.metrics import MetricsRegistry


def test_the_resolver_records_into_a_fresh_registry(registry):
    metrics = MetricsRegistry()
    assert not metrics  # the trap: empty means falsy
    sensor = Profile(GuidFactory(seed=3).mint(), "door", EntityClass.DEVICE,
                     outputs=[TypeSpec("presence", "tag-read")])
    resolver = QueryResolver(registry, live_profiles=lambda: [sensor],
                             metrics=metrics, range_name="r")
    resolver.resolve(TypeSpec("presence", "tag-read"))
    assert metrics.counter("resolver.index.rebuilds").total() == 1
    assert metrics.counter("resolver.index.hits").total() >= 1


def test_the_ledger_records_into_a_fresh_registry():
    metrics = MetricsRegistry()
    ledger = ContextLedger("cs:r", metrics=metrics, range_name="r")
    ledger.append(1.0, "depart", {"entity": "00", "reason": "test"})
    assert metrics.counter("cs.ledger.appends").total() == 1


def test_the_reassembler_records_into_a_fresh_registry():
    metrics = MetricsRegistry()
    streams = StreamReassembler(Scheduler(), lambda key, item: None,
                                lambda key: None, metrics=metrics)
    streams.offer((1, 1), 1, "a")
    streams.offer((1, 1), 1, "a")  # a duplicate
    assert metrics.counter("mediator.seq.dup_dropped").total() == 1
