"""Guard: the query path keeps one index each and scans no population.

The provider index is kept by delta and the What clause is answered from
the Registrar's index; the code they replaced must not drift back into
``src/`` (the scans live test-side, in ``tests/composition/
reference_scan.py`` and ``tests/server/reference_scan.py``).
"""

import pathlib
import re

from repro import SCI
from repro.core.types import TypeSpec
from repro.entities.devices import PrinterCE
from repro.query.model import WhatClause
from tests.server.reference_scan import scan_matching

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def test_no_second_candidate_path_in_the_resolver():
    source = (SRC / "composition" / "resolver.py").read_text()
    assert not re.search(r"_ensure_index|_index_token|_shard_index", source)


def test_context_server_selects_through_the_registrar():
    source = (SRC / "server" / "context_server.py").read_text()
    assert "_what_matches" not in source
    scans = [line.strip() for line in source.splitlines()
             if "registrar.records()" in line]
    # the one remaining walk is the provider index's rebuild feed
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
    assert server.registrar.version >= 50
    assert server.resolver.index_rebuilds == 1
