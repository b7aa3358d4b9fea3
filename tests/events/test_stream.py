"""StreamReassembler: in-order, exactly-once reassembly of sequenced streams."""

import pytest

from repro.entities.profile import EntityClass, Profile
from repro.events import mediator as mediator_module
from repro.events import stream as stream_module
from repro.events.stream import StreamReassembler
from repro.net import rpc
from repro.net.sim import Scheduler
from repro.net.transport import FunctionProcess
from tests.recording import RecordingApp

#: the resync request's waits, first and retransmissions, at the least and
#: the most jitter they can draw
_WAITS = [stream_module.RESYNC_TIMEOUT * rpc.BACKOFF_FACTOR ** attempt
          for attempt in range(stream_module.RESYNC_RETRIES + 1)]
RESYNC_BUDGET_MIN = sum(_WAITS)
RESYNC_BUDGET_MAX = _WAITS[0] + (1 + rpc.JITTER) * sum(_WAITS[1:])

#: stream keys, ``(mediator, sub_id)``: one stream, then two of one mediator
KEY = (1, 7)
KEY_A, KEY_B = (1, 1), (1, 2)


def test_resync_after_falls_between_the_fourth_and_fifth_round():
    """``DEFAULT_RESYNC_AFTER``'s comment, computed from the mediator's
    constants: retuning either module moves these bounds."""
    waits = [mediator_module.DEFAULT_ACK_TIMEOUT
             * mediator_module.DELIVERY_BACKOFF ** attempt
             for attempt in range(5)]
    stretch = 1 + mediator_module.DELIVERY_JITTER  # the first wait has none
    fourth_latest = waits[0] + stretch * sum(waits[1:4])
    fifth_earliest = sum(waits)
    assert (fourth_latest, fifth_earliest) == pytest.approx((59.4375, 79.125))
    assert fourth_latest < stream_module.DEFAULT_RESYNC_AFTER < fifth_earliest


@pytest.fixture
def scheduler():
    return Scheduler()


@pytest.fixture
def delivered():
    return []


@pytest.fixture
def resyncs():
    return []


@pytest.fixture
def stream(scheduler, delivered, resyncs, monkeypatch):
    monkeypatch.setattr(stream_module, "DEFAULT_RESYNC_AFTER", 10.0)
    return StreamReassembler(scheduler,
                             lambda key, item: delivered.append(item),
                             request_resync=resyncs.append)


class TestOrdering:
    def test_in_order_passthrough(self, stream, delivered):
        for seq in (1, 2, 3):
            assert stream.offer(KEY, seq, f"e{seq}") is True
        assert delivered == ["e1", "e2", "e3"]

    def test_duplicate_dropped(self, stream, delivered):
        stream.offer(KEY, 1, "e1")
        assert stream.offer(KEY, 1, "dup") is False
        assert stream.offer(KEY, 1, "dup") is False
        assert delivered == ["e1"]
        assert stream.dup_dropped == 2

    def test_stale_seq_dropped_after_fast_forward(self, stream, delivered):
        stream.offer(KEY, 1, "e1")
        stream.offer(KEY, 2, "e2")
        assert stream.offer(KEY, 1, "retransmit") is False
        assert delivered == ["e1", "e2"]

    def test_hole_buffers_until_filled(self, stream, delivered):
        stream.offer(KEY, 1, "e1")
        assert stream.offer(KEY, 3, "e3") is False  # hole at 2
        assert delivered == ["e1"]
        assert stream.open_holes(KEY) == 1
        stream.offer(KEY, 2, "e2")                  # fill -> flush
        assert delivered == ["e1", "e2", "e3"]
        assert stream.open_holes(KEY) == 0

    def test_streams_are_independent(self, stream, delivered):
        stream.offer(KEY_A, 1, "a1")
        stream.offer(KEY_B, 1, "b1")
        stream.offer(KEY_A, 2, "a2")
        assert delivered == ["a1", "b1", "a2"]
        assert stream.last_seq(KEY_A) == 2 and stream.last_seq(KEY_B) == 1


class TestResync:
    def test_open_hole_requests_resync(self, scheduler, stream, resyncs):
        stream.offer(KEY, 1, "e1")
        stream.offer(KEY, 3, "e3")
        scheduler.run_for(9.0)
        assert resyncs == []            # retransmission window still open
        scheduler.run_for(2.0)
        assert resyncs == [KEY]
        assert stream.resyncs_requested == 1

    def test_filled_hole_cancels_resync(self, scheduler, stream, resyncs):
        stream.offer(KEY, 1, "e1")
        stream.offer(KEY, 3, "e3")
        scheduler.run_for(5.0)
        stream.offer(KEY, 2, "e2")
        scheduler.run_for(20.0)
        assert resyncs == []

    def test_resync_done_fast_forwards(self, scheduler, stream, delivered):
        stream.offer(KEY, 1, "e1")
        stream.offer(KEY, 4, "e4")      # 2 and 3 lost for good
        # the mediator replays retained state as seqs 5.. and names
        # baseline 4: drain the buffered arrival, skip the dead hole
        stream.resync_done(KEY, baseline=4)
        assert delivered == ["e1", "e4"]
        assert stream.last_seq(KEY) == 4
        stream.offer(KEY, 5, "replayed")
        assert delivered == ["e1", "e4", "replayed"]

    def test_resync_failed_rearms(self, scheduler, stream, resyncs):
        stream.offer(KEY, 2, "e2")      # hole at 1
        scheduler.run_for(11.0)
        assert resyncs == [KEY]
        stream.resync_failed(KEY)
        scheduler.run_for(11.0)
        assert resyncs == [KEY, KEY]    # retried after the RPC expired

    @pytest.mark.parametrize("payload", [
        {"ok": True, "sub_id": 7, "seq": "7"},
        {"ok": True, "sub_id": 7, "seq": None},
        [True, 4],
        {"ok": True, "sub_id": 7, "seq": 2.5},
    ], ids=["str-seq", "null-seq", "list", "float-seq"])
    def test_malformed_resync_ack_rearms(self, network, guids, monkeypatch,
                                         payload):
        """A ``resync-ack`` that fails its wire row is a lost reply: the
        resync runs out its budget, then re-arms like any expired one."""
        monkeypatch.setattr(stream_module, "DEFAULT_RESYNC_AFTER", 10.0)
        resyncs = []

        def answer(message):
            if message.kind == "resync":
                resyncs.append(message.fields["sub_id"])
                mediator.reply(message, "resync-ack", payload)

        mediator = FunctionProcess(guids.mint(), "host-a", network, answer)
        app = RecordingApp(
            Profile(guids.mint(), "app", EntityClass.SOFTWARE), "host-b",
            network)
        app.attach_to_range(guids.mint(), guids.mint(), mediator.guid, "stub")
        key = (mediator.guid.value, 7)  # the stream: (mediator, sub_id)
        app.streams.offer(key, 1, "e1")
        app.streams.offer(key, 3, "e3")   # hole at 2: a resync at t=10
        network.scheduler.run_for(15.0)
        assert resyncs == [7]
        malformed = network.obs.metrics.get("net.messages.malformed")
        assert malformed.by_label() == {"resync-ack": 1}
        assert app.streams.last_seq(key) == 1
        assert app.streams.open_holes(key) == 1
        network.scheduler.run_for(10.0 + RESYNC_BUDGET_MIN - 15.0)
        assert resyncs == [7]           # still waiting out the budget
        network.scheduler.run_for(RESYNC_BUDGET_MAX - RESYNC_BUDGET_MIN + 15.0)
        assert resyncs == [7, 7]        # handled like an expired resync
        app.streams.offer(key, 2, "e2")
        assert app.events == ["e1", "e2", "e3"]

    def test_forget_drops_state_and_timer(self, scheduler, stream, resyncs):
        pending = scheduler.pending
        stream.offer(KEY, 3, "e3")
        assert scheduler.pending == pending + 1  # the gap timer
        stream.forget(KEY)
        assert scheduler.pending == pending
        scheduler.run_for(20.0)
        assert resyncs == []
        assert stream.last_seq(KEY) == 0

    def test_reset_clears_everything(self, scheduler, stream, resyncs):
        stream.offer(KEY_A, 2, "x")
        stream.offer(KEY_B, 5, "y")
        stream.reset()
        scheduler.run_for(30.0)
        assert resyncs == []
