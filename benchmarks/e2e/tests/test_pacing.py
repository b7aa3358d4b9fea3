"""Calibrated seconds: arithmetic and the sampler's lifetime."""

import time

import pacing


def test_without_a_reference_calibrated_equals_wall():
    pacer = pacing.Pacer()
    before = pacer.reading()
    time.sleep(0.01)
    pacer.tick()
    calibrated, work = pacer.calibrated(before, pacer.reading())
    assert calibrated == work >= 0.01 and pacer.slice_times == []


def test_slice_time_is_not_work_and_a_slow_machine_is_scaled_away():
    class HalfSpeed:
        def slice(self):
            time.sleep(0.002)
            return 2 * pacing.NOMINAL_SLICE_S

    pacer = pacing.Pacer(HalfSpeed(), gap=0.0)
    before = pacer.reading()
    started = time.perf_counter()
    for _ in range(3):
        pacer.tick()
    after = pacer.reading()
    elapsed = time.perf_counter() - started
    calibrated, work = pacer.calibrated(before, after)
    assert after[1] - before[1] == 4          # three ticks + the closing one
    assert work < elapsed - 4 * 0.002 + 0.001  # the slices' sleeps are not work
    assert calibrated == work * 0.5


def test_the_median_ignores_one_slice_hit_by_a_hiccup():
    pacer = pacing.Pacer()
    pacer.slice_times = [pacing.NOMINAL_SLICE_S] * 4 + [0.2]
    assert pacer.speed((0.0, 0), (1.0, 5)) == 1.0


def test_speed_may_be_taken_over_a_wider_stretch():
    pacer = pacing.Pacer()
    pacer.slice_times = [4 * pacing.NOMINAL_SLICE_S] * 3
    around = ((0.0, 0), (1.0, 3))
    assert pacer.calibrated((0.5, 3), (0.6, 3))[0] == 0.6 - 0.5
    assert abs(pacer.calibrated((0.5, 3), (0.6, 3), around)[0] - 0.025) < 1e-12


def test_a_slice_runs_only_after_the_gap():
    class Counting:
        calls = 0

        def slice(self):
            Counting.calls += 1
            return pacing.NOMINAL_SLICE_S

    pacer = pacing.Pacer(Counting(), gap=60.0)
    pacer.tick()
    assert Counting.calls == 0
    pacer.reading()
    assert Counting.calls == 1


def test_the_reference_slice_leaves_the_collector_as_it_found_it():
    import gc
    reference = pacing.Reference(objects=1000, steps=50)
    assert gc.isenabled()
    assert reference.slice() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.slice()
        assert not gc.isenabled()
    finally:
        gc.enable()
