"""Deterministic fault injection for the simulated deployment.

Episodes overlap. A chaos schedule routinely starts a second loss episode
while the first is still running, nests a host outage inside a partition, or
lets two outages of the same host interleave. Restoring by "put back the
value I saw when I started" is wrong under overlap — the value seen mid-way
through another episode is the *degraded* one, and whichever restore fires
last wins, leaving the network permanently degraded (or healed too early).

The injector therefore tracks every active episode in a ledger and derives
the network state from the ledger on every change:

* loss episodes: the effective drop rate is ``max(base, active episodes)``;
  the base rate is whatever the network had when the ledger was empty.
* partitions: a stack — the most recently started episode still active
  defines the partition map; when the last one ends the network heals.
* host outages: refcounted per host — a host comes back only when *every*
  outage covering it has ended.
"""

from __future__ import annotations

import itertools
import logging
import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.entities.entity import BaseComponent
from repro.net.transport import Network

logger = logging.getLogger(__name__)


class FaultInjector:
    """Crashes components and degrades the network, reproducibly."""

    def __init__(self, network: Network, seed: int = 0):
        self.network = network
        self.rng = random.Random(seed)
        self.crashes: List[str] = []
        self._tokens = itertools.count(1)
        #: active loss episodes: token -> episode drop rate
        self._loss_active: Dict[int, float] = {}
        self._loss_base = 0.0
        #: active partition episodes, oldest first: (token, groups)
        self._partition_active: List[Tuple[int, List[List[str]]]] = []
        #: downed hosts: host_id -> number of covering outages
        self._outage_counts: Dict[str, int] = {}

    # -- component failure ---------------------------------------------------------

    def crash(self, component: BaseComponent) -> None:
        """Fail-stop one component: it vanishes without deregistering.

        The range notices through lease expiry (the Registrar's lease
        timer), which is what triggers configuration repair.
        """
        logger.info("fault: crashing %s at t=%.2f", component.name,
                    self.network.scheduler.now)
        self.crashes.append(component.name)
        component.crash()

    def crash_random(self, components: Iterable[BaseComponent]) -> Optional[BaseComponent]:
        pool = [component for component in components
                if component.network.process(component.guid) is not None]
        if not pool:
            return None
        victim = self.rng.choice(sorted(pool, key=lambda c: c.name))
        self.crash(victim)
        return victim

    # -- network degradation ------------------------------------------------------------

    def loss_episode(self, drop_rate: float, duration: float) -> int:
        """Raise the drop rate for ``duration``, then restore it.

        Overlap-safe: concurrent episodes compose as ``max`` and the base
        rate returns only when the last episode ends.
        """
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate out of range: {drop_rate}")
        if not self._loss_active:
            self._loss_base = self.network.drop_rate
        token = next(self._tokens)
        self._loss_active[token] = drop_rate
        self._apply_loss()
        logger.info("fault: loss episode %.0f%% for %.1f", drop_rate * 100, duration)
        self.network.scheduler.schedule(duration, self._end_loss, token)
        return token

    def _end_loss(self, token: int) -> None:
        self._loss_active.pop(token, None)
        self._apply_loss()

    def _apply_loss(self) -> None:
        self.network.drop_rate = max([self._loss_base,
                                      *self._loss_active.values()])

    def partition_episode(self, groups: List[List[str]], duration: float) -> int:
        """Partition host groups for ``duration``, then heal.

        Overlap-safe: the most recently started episode still active defines
        the partition map; the network heals when the last one ends.
        """
        token = next(self._tokens)
        self._partition_active.append((token, [list(group) for group in groups]))
        self.network.set_partitions(groups)
        logger.info("fault: partition %s for %.1f", groups, duration)
        self.network.scheduler.schedule(duration, self._end_partition, token)
        return token

    def _end_partition(self, token: int) -> None:
        self._partition_active = [(active, groups)
                                  for active, groups in self._partition_active
                                  if active != token]
        if self._partition_active:
            self.network.set_partitions(self._partition_active[-1][1])
        else:
            self.network.heal_partitions()

    def host_outage(self, host_id: str, duration: float) -> int:
        """Take one machine down for ``duration``.

        Overlap-safe: interleaved outages of the same host are refcounted,
        so the host comes back only when every covering outage has ended.
        """
        token = next(self._tokens)
        self._outage_counts[host_id] = self._outage_counts.get(host_id, 0) + 1
        self.network.fail_host(host_id)
        logger.info("fault: host %s down for %.1f", host_id, duration)
        self.network.scheduler.schedule(duration, self._end_outage, host_id)
        return token

    def _end_outage(self, host_id: str) -> None:
        remaining = self._outage_counts.get(host_id, 0) - 1
        if remaining > 0:
            self._outage_counts[host_id] = remaining
            return
        self._outage_counts.pop(host_id, None)
        self.network.restore_host(host_id)

    # -- introspection -------------------------------------------------------------------

    def active_faults(self) -> Dict[str, int]:
        """Counts of currently active episodes, by kind (for assertions)."""
        return {
            "loss": len(self._loss_active),
            "partition": len(self._partition_active),
            "outage": sum(self._outage_counts.values()),
        }
