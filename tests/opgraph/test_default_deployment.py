"""One dispatch engine and one server per range.

A guard on the engine and server collapses: the constructors that used to
select an engine, an index or a shard count carry no such parameter, nor
the options nothing set (the range mediator's ``reliable_events``, the
request manager's timeout, retry and backoff defaults), and the sharded
modules are gone, so none of them can quietly come back.
"""

from __future__ import annotations

import importlib.util
import inspect

import pytest

from repro.composition.profile_index import ProfileIndex
from repro.composition.resolver import QueryResolver
from repro.events.mediator import EventMediator
from repro.ledger.ledger import ContextLedger
from repro.net.rpc import RequestManager
from repro.server.context_server import ContextServer

#: constructor parameters that once selected an engine, an index, a
#: shard count or a shard's chain
GONE_SWITCHES = {"engine", "indexed", "shards", "owns", "mediator_shards",
                 "resolver_shards", "shard_hosts", "shard_rank",
                 "reliable_events", "default_timeout", "max_retries",
                 "backoff_factor", "jitter"}
#: constructors whose whole parameter list is pinned
EXACT = {RequestManager: ["owner"]}


@pytest.mark.parametrize("constructor", [EventMediator, QueryResolver,
                                         ProfileIndex, ContextServer,
                                         ContextLedger, RequestManager])
def test_no_engine_switch_on_constructors(constructor):
    parameters = inspect.signature(constructor).parameters
    assert not GONE_SWITCHES & set(parameters)
    assert list(parameters) == EXACT.get(constructor, list(parameters))


@pytest.mark.parametrize("module", ["repro.events.sharding",
                                    "repro.server.shard",
                                    "repro.composition.shard_index"])
def test_sharded_modules_are_gone(module):
    assert importlib.util.find_spec(module) is None
