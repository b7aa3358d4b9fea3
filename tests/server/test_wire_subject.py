"""A profile whose subject is not a scalar is refused at registration.

The provider index files every offered output under its subject, so a
subject must be a string, number, boolean or null. Anything else gets one
``register-ack {"ok": False, "error"}``; the run goes on and neither the
population nor the ledger changes.
"""

import pytest

from repro.core.types import TypeSpec
from repro.entities.profile import EntityClass, Profile
from repro.net.transport import FunctionProcess

BAD_SUBJECTS = {"list": ["a", "b"], "object": {"who": "bob"}}


@pytest.mark.parametrize("side", ["outputs", "inputs"])
@pytest.mark.parametrize("subject", BAD_SUBJECTS.values(),
                         ids=BAD_SUBJECTS.keys())
def test_non_scalar_subject_gets_an_error_ack(network, guids, deployed_range,
                                              side, subject):
    server, _ = deployed_range
    replies = []
    sender = FunctionProcess(guids.mint(), "host-b", network, replies.append)
    wire = Profile(sender.guid, "odd-badge", EntityClass.DEVICE,
                   outputs=[TypeSpec("location", "symbolic")],
                   inputs=[TypeSpec("presence", "tag-read")]).to_wire()
    wire[side][0]["subject"] = subject
    population = len(server.registrar.records())
    entries = len(server.ledger)
    start = network.scheduler.now
    sender.send(server.registrar.guid, "register", {"kind": "ce",
                                                    "profile": wire})
    network.scheduler.run_for(5)
    assert network.scheduler.now >= start + 5
    assert [(reply.kind, reply.payload["ok"]) for reply in replies] == \
        [("register-ack", False)]
    assert "subject" in replies[0].payload["error"]
    assert len(server.registrar.records()) == population
    assert len(server.ledger) == entries
    # the provider index still builds and answers
    plan = server.resolver.resolve(TypeSpec("location", "topological", "bob"))
    assert plan.output_spec.subject == "bob"


@pytest.mark.parametrize("subject", ["bob", 7, 2.5, True, None])
def test_scalar_subjects_round_trip(guids, subject):
    profile = Profile(guids.mint(), "badge",
                      outputs=[TypeSpec("location", "symbolic", subject)])
    assert Profile.from_wire(profile.to_wire()).outputs[0].subject == subject
