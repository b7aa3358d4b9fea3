"""Subscription record semantics."""

from repro.core.ids import GuidFactory
from repro.events.filters import MatchAll
from repro.events.mediator import EventMediator
from repro.events.subscription import Subscription
from repro.net.transport import FixedLatency, Network

GUIDS = GuidFactory(seed=51)


class TestSubscription:
    def test_ids_unique(self):
        """A mediator numbers its subscriptions from 1; another mediator
        has its own numbers."""
        network = Network(latency_model=FixedLatency(1.0))
        network.add_host("h")
        first, second = (EventMediator(GUIDS.mint(), "h", network, name)
                         for name in ("a", "b"))
        ids = [first.add_subscription(GUIDS.mint(), MatchAll()).sub_id
               for _ in range(3)]
        assert ids == [1, 2, 3]
        assert second.add_subscription(GUIDS.mint(), MatchAll()).sub_id == 1

    def test_durable_stays_active(self):
        sub = Subscription(1, GUIDS.mint())
        for _ in range(5):
            sub.record_delivery()
        assert sub.active
        assert sub.seq == 5

    def test_one_time_deactivates_after_first(self):
        sub = Subscription(1, GUIDS.mint(), one_time=True)
        sub.record_delivery()
        assert not sub.active
        assert sub.seq == 1

    def test_default_filter_matches_all(self):
        assert isinstance(Subscription(1, GUIDS.mint()).filter, MatchAll)

    def test_owner_tagging(self):
        sub = Subscription(1, GUIDS.mint(), owner="cfg-7")
        assert sub.owner == "cfg-7"

    def test_str_shows_mode(self):
        durable = Subscription(1, GUIDS.mint())
        once = Subscription(1, GUIDS.mint(), one_time=True)
        assert "durable" in str(durable)
        assert "one-time" in str(once)
