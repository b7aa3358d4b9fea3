"""Whole-stack behaviour under network degradation.

Section 2's open issues include "adaptivity to environmental changes (e.g.
component failure)"; beyond crashed components, a real deployment sees lost
messages, partitions and machine outages. These tests drive full scenarios
through each and check the middleware degrades and recovers sanely.
"""

import pytest

from repro import SCI
from repro.core.api import SCIConfig
from repro.query.model import QueryBuilder
from tests.recording import RecordingApp


def deploy(seed, **config_kwargs):
    sci = SCI(config=SCIConfig(seed=seed, lease_duration=15.0,
                               **config_kwargs))
    sci.create_range("r", places=["livingstone"], hosts=["pc"])
    sci.add_door_sensors("r")
    sci.add_person("bob", room="corridor")
    app = sci.create_application("app", host="pc", app_class=RecordingApp)
    sci.run(5)
    return sci, app


class TestMessageLoss:
    def test_heartbeats_survive_moderate_loss(self):
        """Lease renewal is redundant (3 heartbeats per lease), so moderate
        loss evicts at most a stray component, not the population (losing a
        whole lease window needs 3 consecutive drops: ~0.3% at 15% loss)."""
        sci, app = deploy(seed=61)
        cs = sci.range("r")
        population = cs.registrar.population()
        sci.injector.loss_episode(0.15, duration=60.0)
        sci.run(90)
        assert cs.registrar.population() >= population - 1
        assert cs.registrar.evictions <= 1

    def test_severe_loss_causes_eviction_then_reregistration(self):
        sci, app = deploy(seed=62)
        cs = sci.range("r")
        sci.injector.loss_episode(0.97, duration=60.0)
        sci.run(90)
        assert cs.registrar.evictions > 0
        # after the episode, evicted components re-announce (their
        # deregistered notice resets them; a probe re-registers)
        for sensor_guid in list(sci.door_sensors.values()):
            if not sensor_guid.registered:
                sensor_guid.start()
        sci.run(30)
        assert all(s.registered for s in sci.door_sensors.values())

    def test_stream_delivery_degrades_not_dies(self):
        """At 25% loss some updates vanish, but components keep their
        leases and the stream itself stays up. (At 50%+ the right outcome
        is different: lease evictions eventually tear the stream down —
        see test_severe_loss_causes_eviction_then_reregistration.)"""
        sci, app = deploy(seed=63)
        app.submit_query(QueryBuilder("ops")
                         .subscribe("location", "topological", subject="bob")
                         .build())
        sci.run(5)
        sci.injector.loss_episode(0.25, duration=120.0)
        for target in ("L10.01", "corridor", "L10.02", "corridor"):
            sci.walk("bob", target)
            sci.run(30)
        delivered = len(app.events_of_type("location"))
        assert 0 < delivered <= 4  # lossy but alive


class TestPartitions:
    def test_partitioned_caa_times_out_then_recovers(self):
        sci, app = deploy(seed=64)
        sci.network.set_partitions([["pc"], ["cs-r"]])
        query = QueryBuilder("ops").profiles_of_type("device").build()
        app.submit_query(query)
        sci.run(60)  # request times out silently (UDP-style)
        assert query.query_id not in app.query_acks
        sci.network.heal_partitions()
        app.submit_query(QueryBuilder("ops")
                         .profiles_of_type("device").build())
        sci.run(10)
        assert app.results and app.results[-1]["ok"]

    def test_partition_episode_auto_heals(self):
        """A partition shorter than the lease passes without evictions."""
        sci, app = deploy(seed=65)
        sci.injector.partition_episode([["pc"], ["cs-r"]], duration=10.0)
        sci.run(30)
        assert app.registered  # lease (15) outlived the partition (10)
        query = QueryBuilder("ops").profiles_of_type("device").build()
        app.submit_query(query)
        sci.run(10)
        assert app.query_acks[query.query_id]["ok"]


class TestHostOutage:
    def test_client_host_outage_evicts_its_components(self):
        sci, app = deploy(seed=66)
        cs = sci.range("r")
        assert cs.registrar.registered(app.guid.hex)
        sci.injector.host_outage("pc", duration=60.0)
        sci.run(90)  # heartbeats dropped -> lease expires
        assert not cs.registrar.registered(app.guid.hex)

    def test_server_host_outage_is_total_until_restored(self):
        sci, app = deploy(seed=67)
        sci.network.fail_host("cs-r")
        query = QueryBuilder("ops").profiles_of_type("device").build()
        app.submit_query(query)
        sci.run(60)
        assert query.query_id not in app.query_acks
        sci.network.restore_host("cs-r")
        app.submit_query(QueryBuilder("ops")
                         .profiles_of_type("device").build())
        sci.run(10)
        assert app.results
