"""The open-loop workload generator: profiles, skew, template pool.

Covers the PR's workload satellites — the diurnal piecewise-constant
Poisson profile, the Zipf-skewed resolver query mix, and the look-alike
template tracker pool — plus the determinism the differential benchmarks
depend on: every draw derives from the config seed.
"""

from __future__ import annotations

from random import Random
from types import SimpleNamespace

import pytest

from repro.apps.workload import OpenLoopWorkload, WorkloadConfig, ZipfSampler
from repro.core.ids import GuidFactory
from repro.events.mediator import EventMediator
from repro.net.transport import FixedLatency, Network
from tests.events.reference_scan import ReferenceScanMediator


def make_workload(**overrides):
    """A workload around a stub mediator: arrival-process tests only."""
    config = WorkloadConfig(**overrides)
    mediator = SimpleNamespace(host_id="h0", guid=None)
    return OpenLoopWorkload(network=None, mediator=mediator, config=config)


class TestZipfSampler:
    def test_deterministic_and_skewed(self):
        sampler = ZipfSampler(100, 1.2)
        draws_a = [sampler.sample(Random(7)) for _ in range(1)]
        draws_b = [sampler.sample(Random(7)) for _ in range(1)]
        assert draws_a == draws_b
        rng = Random(7)
        counts = [0] * 100
        for _ in range(5000):
            counts[sampler.sample(rng)] += 1
        assert counts[0] > counts[10] > counts[90]


class TestDiurnalProfile:
    def test_rejects_non_positive_multipliers(self):
        with pytest.raises(ValueError):
            make_workload(rate_profile=(1.0, 0.0, 2.0))

    def test_rejects_unknown_query_mix(self):
        with pytest.raises(ValueError):
            make_workload(query_mix="pareto")

    def test_unknown_arrival_process_rejected(self):
        workload = make_workload(arrival="bursty")
        with pytest.raises(ValueError):
            workload.interarrival(Random(1), 0.0)

    def test_gaps_are_seed_deterministic(self):
        profile = (0.5, 2.0, 4.0, 1.0)
        gaps = []
        for _ in range(2):
            workload = make_workload(duration=100.0, publish_rate=10.0,
                                     publishers=1, rate_profile=profile)
            rng, now, run = Random(13), 0.0, []
            for _ in range(50):
                gap = workload.interarrival(rng, now)
                assert gap > 0
                now += gap
                run.append(gap)
            gaps.append(run)
        assert gaps[0] == gaps[1]

    def test_arrivals_follow_the_profile_shape(self):
        # quiet morning, heavy midday, quiet night: 1x / 5x / 1x
        profile = (1.0, 5.0, 1.0)
        workload = make_workload(duration=300.0, publish_rate=10.0,
                                 publishers=1, rate_profile=profile)
        rng, now = Random(3), 0.0
        per_slice = [0, 0, 0]
        while True:
            now += workload.interarrival(rng, now)
            if now >= 300.0:
                break
            per_slice[int(now // 100.0)] += 1
        assert per_slice[1] > 3 * per_slice[0]
        assert per_slice[1] > 3 * per_slice[2]
        # the realised aggregate stays near the profiled mean (7/3 * 10/s)
        total_expected = 10.0 * 100.0 * sum(profile)
        assert 0.85 * total_expected < sum(per_slice) < 1.15 * total_expected

    def test_flat_profile_matches_plain_poisson_rate(self):
        flat = make_workload(duration=200.0, publish_rate=20.0, publishers=1,
                             rate_profile=(1.0, 1.0))
        rng, now, count = Random(11), 0.0, 0
        while now < 200.0:
            now += flat.interarrival(rng, now)
            count += 1
        assert 0.85 * 4000 < count < 1.15 * 4000

    def test_profile_offsets_against_run_start(self):
        # a workload installed at sim-time T slices the window from T,
        # not from zero — the profile must travel with the run
        profile = (1.0, 10.0)
        workload = make_workload(duration=100.0, publish_rate=10.0,
                                 publishers=1, rate_profile=profile)
        workload.start = 1000.0
        gaps = [workload.interarrival(Random(5), 1000.0 + t)
                for t in (0.0, 75.0)]
        # the same draw shrinks by ~10x inside the heavy second slice
        assert gaps[1] < gaps[0]


class TestTemplatePool:
    def test_template_combo_scatters_without_collisions(self):
        config = WorkloadConfig(types=16, floors=8)
        combos = {config.template_combo(rank) for rank in range(128)}
        assert len(combos) == 128  # coprime stride: a bijection
        for type_name, floor in combos:
            assert type_name.startswith("wl-type-")
            assert 0 <= floor < 8

    def test_hot_templates_watch_cold_combos(self):
        config = WorkloadConfig(types=16, floors=8)
        type_name, floor = config.template_combo(0)
        # publish popularity is highest at combo 0 (= type 0, floor 0);
        # the hottest template must not land there
        assert (type_name, floor) != ("wl-type-0", 0)

    def test_floor_varies_within_a_type(self):
        config = WorkloadConfig(types=4, floors=4)
        floors = {config.floor_of(entity) for entity in range(0, 64, 4)}
        assert len(floors) == 4


class TestTemplateWorkloadEndToEnd:
    def _run(self, mediator_class=EventMediator):
        net = Network(latency_model=FixedLatency(0.5), seed=3)
        net.add_host("h0")
        guids = GuidFactory(seed=29)
        mediator = mediator_class(guids.mint(), "h0", net, range_name="wl")
        config = WorkloadConfig(
            entities=200, duration=20.0, publish_rate=20.0, publishers=2,
            trackers=60, tracker_templates=8, monitors=2, types=8, floors=4,
            churn_ops=5, query_ops=0, seed=6, rate_profile=(1.0, 3.0))
        workload = OpenLoopWorkload(net, mediator, config, hosts=["h0"])
        workload.install()
        workload.run()
        return mediator, workload

    def test_template_mode_install_and_churn(self):
        mediator, workload = self._run()
        assert mediator.subscription_count == 62  # 60 trackers + 2 monitors
        assert workload.churned_subs == 5
        assert workload.published() > 0
        assert len(workload.latencies()) > 0

    def test_opgraph_dedups_template_pool(self):
        mediator, workload = self._run()
        stats = mediator.opgraph_stats()
        # ≤ 8 template shapes + 2 monitors live as nodes for 62 subs
        assert stats["nodes"] <= 10
        assert stats["reuse_ratio"] > 0.7

    def test_engines_deliver_identical_volumes(self):
        """The operator graph against the test-side linear scan."""
        _, scan = self._run(ReferenceScanMediator)
        _, graph = self._run()
        assert scan.published() == graph.published()
        assert scan.latencies() == graph.latencies()
