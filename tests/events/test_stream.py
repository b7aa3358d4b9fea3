"""StreamReassembler: in-order, exactly-once reassembly of sequenced streams."""

import pytest

from repro.events.stream import StreamReassembler
from repro.net.sim import Scheduler


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
def stream(scheduler, delivered, resyncs):
    return StreamReassembler(scheduler,
                             lambda sub_id, item: delivered.append(item),
                             request_resync=resyncs.append,
                             resync_after=10.0)


class TestOrdering:
    def test_in_order_passthrough(self, stream, delivered):
        for seq in (1, 2, 3):
            assert stream.offer(7, seq, f"e{seq}") is True
        assert delivered == ["e1", "e2", "e3"]

    def test_unsequenced_bypasses(self, stream, delivered):
        assert stream.offer(None, None, "raw") is True
        assert delivered == ["raw"]

    def test_duplicate_dropped(self, stream, delivered):
        stream.offer(7, 1, "e1")
        assert stream.offer(7, 1, "dup") is False
        assert stream.offer(7, 1, "dup") is False
        assert delivered == ["e1"]
        assert stream.dup_dropped == 2

    def test_stale_seq_dropped_after_fast_forward(self, stream, delivered):
        stream.offer(7, 1, "e1")
        stream.offer(7, 2, "e2")
        assert stream.offer(7, 1, "retransmit") is False
        assert delivered == ["e1", "e2"]

    def test_hole_buffers_until_filled(self, stream, delivered):
        stream.offer(7, 1, "e1")
        assert stream.offer(7, 3, "e3") is False   # hole at 2
        assert delivered == ["e1"]
        assert stream.open_holes(7) == 1
        stream.offer(7, 2, "e2")                   # fill -> flush
        assert delivered == ["e1", "e2", "e3"]
        assert stream.open_holes(7) == 0

    def test_streams_are_independent(self, stream, delivered):
        stream.offer(1, 1, "a1")
        stream.offer(2, 1, "b1")
        stream.offer(1, 2, "a2")
        assert delivered == ["a1", "b1", "a2"]
        assert stream.last_seq(1) == 2 and stream.last_seq(2) == 1


class TestResync:
    def test_open_hole_requests_resync(self, scheduler, stream, resyncs):
        stream.offer(7, 1, "e1")
        stream.offer(7, 3, "e3")
        scheduler.run_for(9.0)
        assert resyncs == []            # retransmission window still open
        scheduler.run_for(2.0)
        assert resyncs == [7]
        assert stream.resyncs_requested == 1

    def test_filled_hole_cancels_resync(self, scheduler, stream, resyncs):
        stream.offer(7, 1, "e1")
        stream.offer(7, 3, "e3")
        scheduler.run_for(5.0)
        stream.offer(7, 2, "e2")
        scheduler.run_for(20.0)
        assert resyncs == []

    def test_resync_done_fast_forwards(self, scheduler, stream, delivered):
        stream.offer(7, 1, "e1")
        stream.offer(7, 4, "e4")        # 2 and 3 lost for good
        # the mediator replays retained state as seqs 5.. and names
        # baseline 4: drain the buffered arrival, skip the dead hole
        stream.resync_done(7, baseline=4)
        assert delivered == ["e1", "e4"]
        assert stream.last_seq(7) == 4
        stream.offer(7, 5, "replayed")
        assert delivered == ["e1", "e4", "replayed"]

    def test_resync_failed_rearms(self, scheduler, stream, resyncs):
        stream.offer(7, 2, "e2")        # hole at 1
        scheduler.run_for(11.0)
        assert resyncs == [7]
        stream.resync_failed(7)
        scheduler.run_for(11.0)
        assert resyncs == [7, 7]        # retried after the RPC expired

    def test_forget_drops_state_and_timer(self, scheduler, stream, resyncs):
        stream.offer(7, 3, "e3")
        stream.forget(7)
        scheduler.run_for(20.0)
        assert resyncs == []
        assert stream.last_seq(7) == 0

    def test_reset_clears_everything(self, scheduler, stream, resyncs):
        stream.offer(1, 2, "x")
        stream.offer(2, 5, "y")
        stream.reset()
        scheduler.run_for(30.0)
        assert resyncs == []

    def test_non_positive_resync_after_rejected(self, scheduler):
        with pytest.raises(ValueError):
            StreamReassembler(scheduler, lambda sub_id, item: None,
                              resync_after=0.0)
