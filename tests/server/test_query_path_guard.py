"""Guard: the query path keeps one index each and scans no population.

The provider index is built once and patched from the Registrar's hooks,
and the What clause is answered from the Registrar's index; the code they
replaced must not drift back into ``src/`` (the scans live test-side, in
``tests/composition/reference_scan.py`` and
``tests/server/reference_scan.py``).
"""

import pathlib
import re

from repro import SCI
from repro.core.types import TypeSpec
from repro.entities.devices import PrinterCE
from repro.entities.entity import ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.query.model import WhatClause
from tests.server.reference_scan import scan_matching

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def test_no_second_candidate_path_in_the_resolver():
    source = (SRC / "composition" / "resolver.py").read_text()
    assert not re.search(r"_ensure_index|_index_token|_shard_index", source)


def test_reuse_is_looked_up_by_wanted_spec():
    source = (SRC / "composition" / "manager.py").read_text()
    assert "config.wanted == wanted" not in source


def test_context_server_selects_through_the_registrar():
    source = (SRC / "server" / "context_server.py").read_text()
    assert "_what_matches" not in source
    scans = [line.strip() for line in source.splitlines()
             if "registrar.records()" in line]
    # the one remaining walk is the provider index's build feed
    assert len(scans) == 1 and "record.profile for record" in scans[0]


def test_default_range_builds_its_provider_index_once():
    sci = SCI()
    server = sci.create_range("level10", places=["L10"])
    sci.add_door_sensors("level10")
    sci.run(10)
    status = TypeSpec("printer-status", "record")
    printers = []
    for step in range(50):
        if step % 3 == 2:
            printers.pop(0).stop()
        else:
            printer = PrinterCE(sci.guids.mint(), server.host_id, sci.network,
                                f"P{step}", "L10.03")
            printer.start()
            printers.append(printer)
        sci.run(3)
        plan = server.resolver.resolve(status)
        assert plan.nodes[plan.output_key].kind == "live"
        for what in (WhatClause.entity_type("printer"),
                     WhatClause.for_pattern("printer-status"),
                     WhatClause.named(f"P{step}")):
            assert (server.registrar.matching(what)
                    == scan_matching(server.registrar, what))
    assert server.resolver.index_deltas >= 50
    assert server.resolver.index_rebuilds == 1


def test_subject_bound_resolve_reads_only_its_sub_buckets():
    """300 badges offer one type, each bound to its wearer, beside a few
    unbound offers: a want for one wearer reads its badge and the unbound
    offers, not the 300 badges."""
    sci = SCI()
    server = sci.create_range("level10", places=["L10"])
    badges = [ContextEntity(Profile(
        sci.guids.mint(), f"badge-{index}", EntityClass.DEVICE,
        outputs=[TypeSpec("location", "symbolic", f"person-{index}")]),
        server.host_id, sci.network) for index in range(300)]
    trackers = [ContextEntity(Profile(
        sci.guids.mint(), f"tracker-{index}", EntityClass.DEVICE,
        outputs=[TypeSpec("location", "geometric")]),
        server.host_id, sci.network) for index in range(2)]
    for entity in badges + trackers:
        entity.start()
    sci.run(10)
    server.resolver.resolve(TypeSpec("location", "geometric"))  # the build
    index = server.resolver._provider_index
    served = []
    providers = index.providers

    def counted(wanted):
        entries = providers(wanted)
        served.append(len(entries))
        return entries

    index.providers = counted
    offers = [spec for profile in server._resolver_profiles()
              + [t.prototype for t in server.templates.all_templates()]
              for spec in profile.outputs
              if sci.registry.is_subtype(spec.type_name, "location")]
    unbound = sum(1 for spec in offers if spec.subject is None)
    assert len(offers) == 300 + unbound and unbound >= 2
    plan = server.resolver.resolve(TypeSpec("location", "symbolic",
                                            "person-42"))
    assert plan.nodes[plan.output_key].profile.name == "badge-42"
    assert served == [1 + unbound]
    server.resolver.resolve(TypeSpec("location", "symbolic"))
    assert served == [1 + unbound, len(offers)]
