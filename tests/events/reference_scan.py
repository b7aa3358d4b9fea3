"""The linear-scan mediator, kept as the dispatch equivalence reference.

Every publish evaluates every live subscription's filter, in subscription
table (insertion) order, and hands the matches to the production
``_deliver`` as one batch; retained replay scans the whole retained store.
This was ``EventMediator(engine="classic")`` before the shared filter
table became the only dispatch engine in ``src/``; the
differential suites (``tests/opgraph``, ``tests/parallel``) and the
Hypothesis property (``tests/properties/test_prop_dispatch.py``)
hold the production mediator to it entry for entry.

Only *matching* is swapped. Subscription bookkeeping, delivery, reliable
sequencing, one-time arbitration, the retained store and the wire protocol
are the production mediator's own, so a divergence can only come from how
candidates are found and ordered. It keeps no ledger of its publishes: the ``publish`` entry is
written by the production ``_fan_out`` this class replaces.
"""

from __future__ import annotations

from typing import List, Optional

from repro.events.event import ContextEvent
from repro.events.mediator import EventMediator


class ReferenceScanMediator(EventMediator):
    """:class:`EventMediator` with matching done by exhaustive scan."""

    def _fan_out(self, event: ContextEvent) -> int:
        self._store_retained(event)
        matches = [subscription
                   for subscription in self._subscriptions.values()
                   if subscription.active and subscription.filter.matches(event)]
        if matches:
            self._deliver(matches, event)
        for subscription in matches:
            if not subscription.active:
                self._drop_subscription(subscription)
        return len(matches)

    def _replay_events(self, type_name: Optional[str]) -> List[ContextEvent]:
        return list(self._retained.values())
