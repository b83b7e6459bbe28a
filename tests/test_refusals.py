"""Attach and handover refusals, the same for both architectures: each
raises the shared error with the shared message and changes nothing."""
import random

import pytest

from encorsim import lte, security
from encorsim.control import (
    AttachError, HandoverError, Hop, Inb, Sme, Ue, attach,
    handover_core_assisted, handover_direct,
)

K = bytes(range(16))

# case -> (error, message)
CASES = {
    "not_detached": (AttachError, "ue not detached"),
    "unknown_subscriber": (AttachError, "unknown subscriber"),
    "replayed_sqn": (AttachError, "SQN 2 not the expected 0"),
    "wrong_source": (HandoverError, "ue 1 not connected at b"),
    "own_source": (HandoverError, "ue 1: target a is its source"),
}


class Encor:
    """An SME, base stations "a" and "b", and the relay they share."""

    def __init__(self):
        self.sme = Sme({1: security.SubscriberRecord(imsi=1, k=K)})
        self.rec, self.rng = self.sme.subdb[1], self.sme.rng
        self.inbs = {"a": Inb("a", 1), "b": Inb("b", 2)}
        self.hop = Hop("hop", self.inbs)
        self.ctx = None

    def attach(self, ue):
        self.ctx, _ = attach(ue, self.inbs["a"], self.sme)

    def handovers(self, ue, src, tgt):
        src, tgt = self.inbs[src], self.inbs[tgt]
        return [lambda: handover_core_assisted(self.ctx, ue, src, tgt,
                                               self.sme, self.hop),
                lambda: handover_direct(self.ctx, ue, src, tgt, self.hop)]

    def network(self):
        return {inb.id: ({i: (c.serving_inb, c.keys)
                          for i, c in inb.attached.items()},
                         dict(inb.moved.entries))
                for inb in self.inbs.values()}


class Lte:
    """An LTE core, with base stations named as EnCoR's."""

    def __init__(self):
        self.core = lte.LteCore({1: security.SubscriberRecord(imsi=1, k=K)})
        self.rec, self.rng = self.core.subdb[1], self.core.rng

    def attach(self, ue):
        lte.attach_lte(ue, "a", self.core)

    def handovers(self, ue, src, tgt):
        return [lambda: lte.s1_handover(ue, src, tgt, self.core,
                                        downlink_mid_handover=["p"])]

    def network(self):
        # a counter's repr shows its next value: the IP pool and the TEIDs
        return ({imsi: (a.public_ip, vars(a.tunnel).copy(), a.buffering,
                        list(a.downlink_buffer), a.buffer_drops)
                 for imsi, a in self.core.anchors.items()},
                repr(self.core._ips), repr(self.core._teids))


def refused_calls(world, case):
    """Set `world` up for `case`; return the device and the calls that
    must be refused."""
    ue = Ue(imsi=2 if case == "unknown_subscriber" else 1, k=K)
    if case in ("not_detached", "wrong_source", "own_source"):
        world.attach(ue)
    if case == "replayed_sqn":  # the network's SQN runs ahead of the UE's
        for _ in range(2):
            security.generate_auth_vector(world.rec, bytes(16))
    if case == "wrong_source":
        return ue, world.handovers(ue, "b", "a")
    if case == "own_source":
        return ue, world.handovers(ue, "a", "a")
    return ue, [lambda: world.attach(ue)]


def snapshot(world, ue):
    return {"ue": (ue.state, ue.sqn, ue.keys), "rec_sqn": world.rec.sqn,
            "rng": world.rng.getstate(), "network": world.network()}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("arch", [Encor, Lte], ids=["encor", "lte"])
def test_refusal_raises_the_shared_error_and_changes_nothing(arch, case):
    world = arch()
    ue, calls = refused_calls(world, case)
    before = snapshot(world, ue)
    error, message = CASES[case]
    for call in calls:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
    if case == "replayed_sqn":
        # the failed AKA used up the network's RAND draw and its SQN
        rng = random.Random()
        rng.setstate(before["rng"])
        rng.getrandbits(128)
        before.update(rec_sqn=before["rec_sqn"] + 1, rng=rng.getstate())
    assert snapshot(world, ue) == before
