"""
Edge-routed control plane: SME, stateless handover proxies (HOPs),
extended base stations (iNBs), and the attach / handover procedures.

The SME is the only stateful core element: it authenticates subscribers,
assigns private addresses, and distributes session keys. Handover comes
in two modes: core-assisted (signaled through the SME, which cycles the
session key) and direct (peer-to-peer through a HOP, reusing the key).
A procedure builds one payload per step of its table in ``messages`` and
returns the table, its ids and payloads as a trace; the message counts
derive from the tables and are pinned by tests.

What EnCoR keeps from LTE is stated here once and used by ``lte`` too:
the attach admission (`admit`), the handover preconditions
(`check_move`) and the errors they raise (`AttachError`,
`HandoverError`). The two architectures differ only in where the anchor
lives.
"""
from dataclasses import dataclass
import enum
import random

from . import messages, security
from .addressing import (MASK64, Addr128, RecentlyMovedTable,
                         assign_private_addr)
from .messages import HandoverMode, HandoverTrace


class AttachError(Exception):
    """Attach failed; the message names the cause."""


class HandoverError(Exception):
    """Handover refused before any state changed; the message names the
    cause."""


class ConfigurationError(Exception):
    pass


class RelayError(Exception):
    pass


class UeState(str, enum.Enum):
    DETACHED = "Detached"
    CONNECTED = "Connected"


@dataclass
class UeContext:
    """Network side of an attached device. It is connected while its
    `serving_inb` holds it: no detach procedure exists."""
    imsi: int
    serving_inb: str = None
    private_addr: Addr128 = None
    keys: security.SessionKeys = None
    qci: int = 9


@dataclass
class Ue:
    """Device side: permanent secret, replay counter, radio state."""
    imsi: int
    k: bytes
    sqn: int = 0
    state: UeState = UeState.DETACHED
    keys: security.SessionKeys = None


class Inb:
    """Extended base station: terminates the user plane, holds only the
    contexts of its currently attached devices plus the recently-moved
    forwarding table. No downlink buffering exists here by design."""

    def __init__(self, inb_id, locator, ue_cap=None):
        # the locator is the upper half of the station's addresses, and a
        # negative cap would refuse every attach and handover
        if type(locator) is not int or not 0 <= locator <= MASK64:
            raise ValueError(
                f"locator must be an int in [0, 2**64), got {locator!r}")
        if ue_cap is not None and (type(ue_cap) is not int or ue_cap < 0):
            raise ValueError(
                f"ue_cap must be None or an int of at least 0, got {ue_cap!r}")
        self.id = inb_id
        self.locator = locator
        self.ue_cap = ue_cap
        self.attached = {}  # identifier -> UeContext
        self.moved = RecentlyMovedTable()

    def has_room(self):
        return self.ue_cap is None or len(self.attached) < self.ue_cap

    def attached_ids(self):
        """The identifiers of the attached devices, as a live set-like view
        of `attached`: it follows later attaches and handovers, and costs
        no copy."""
        return self.attached.keys()


class Hop:
    """Stateless handover relay. Deliberately has no per-device fields;
    its entire state is the set of base stations it serves."""

    def __init__(self, hop_id, connected_inbs=()):
        self.id = hop_id
        self.connected = set(connected_inbs)

    def relay(self, msg, dst_inb):
        """Forward `msg` (a step's payload) to `dst_inb` unmodified."""
        if dst_inb not in self.connected:
            raise RelayError(f"{self.id} does not serve {dst_inb}")
        return msg

    def snapshot(self):
        """Serialized state, for statelessness assertions."""
        return repr((self.id, sorted(self.connected))).encode()


class Sme:
    """Minimal stateful core: subscriber DB front end, auth, key escrow."""

    def __init__(self, subdb, seed=0):
        self.subdb = subdb  # imsi -> SubscriberRecord
        self.rng = random.Random(seed)


def admit(ue, subdb, rng):
    """The attach admission of both architectures: refuse a device that is
    not Detached or not subscribed, run AKA, and connect the device with
    its session key. A failed AKA has used up a RAND and the network's
    SQN, and leaves the device Detached.

    Returns (record, vector, RES, keys); raises AttachError.
    """
    if ue.state != UeState.DETACHED:
        raise AttachError("ue not detached")
    rec = subdb.get(ue.imsi)
    if rec is None:
        raise AttachError("unknown subscriber")
    try:
        vector, res, keys = security.authenticate(rec, ue, rng)
    except security.AuthError as exc:
        raise AttachError(str(exc)) from exc
    ue.state = UeState.CONNECTED
    ue.keys = keys
    return rec, vector, res, keys


def attach(ue, inb, sme, now_us=0):
    """Authenticate and connect a device at a base station, at the private
    address its IMSI derives.

    Returns (UeContext, trace). On failure nothing changes but what a
    failed AKA uses up (see `admit`), and AttachError is raised, naming
    the cause. A station at its `ue_cap` refuses before AKA runs.
    """
    try:
        addr = assign_private_addr(ue.imsi)
    except ValueError as exc:
        raise AttachError(str(exc)) from exc
    if not inb.has_room():
        raise AttachError(f"{inb.id} is at its ue cap")
    rec, vector, res, keys = admit(ue, sme.subdb, sme.rng)
    ctx = UeContext(imsi=ue.imsi, serving_inb=inb.id, private_addr=addr,
                    keys=keys, qci=rec.qci_profile)
    inb.attached[addr.identifier] = ctx
    payloads = [{"imsi": ue.imsi, "inb": inb.id},
                {"rand": vector.rand, "autn": vector.autn},
                {"res": res},
                {"k_enb": keys.k_enb, "addr": addr, "qci": rec.qci_profile}]
    return ctx, HandoverTrace(HandoverMode.ATTACH, messages.ATTACH_SEQUENCE,
                              {}, now_us, payloads)


def check_move(imsi, serving, src, tgt):
    """The handover preconditions of both architectures: the network serves
    the device at `src` (`serving` is where it does, None for nowhere),
    and `tgt` is another station. Raises HandoverError."""
    if serving != src:
        raise HandoverError(f"ue {imsi} not connected at {src}")
    if tgt == src:
        raise HandoverError(f"ue {imsi}: target {tgt} is its source")


def handover_core_assisted(ctx, ue, src, tgt, sme, hop, now_us=0):
    """Canonical 7-message handover through the SME, which cycles the
    session key (NCC += 1). Exactly two messages traverse the core."""
    return _handover(HandoverMode.CORE_ASSISTED, ctx, ue, src, tgt, hop,
                     now_us)


def handover_direct(ctx, ue, src, tgt, hop, now_us=0):
    """6-message peer-to-peer handover through a shared HOP. The source
    shares its current session key with the target; no core involvement,
    NCC unchanged."""
    return _handover(HandoverMode.DIRECT, ctx, ue, src, tgt, hop, now_us)


def _handover(mode, ctx, ue, src, tgt, hop, now_us):
    """Run the mode's prefix, the target's admission check and the shared
    tail. Every precondition is checked before any state changes, so a
    refused or misconfigured handover leaves the device at the source."""
    check_move(ctx.imsi, ctx.serving_inb, src.id, tgt.id)
    if src.id not in hop.connected or tgt.id not in hop.connected:
        raise ConfigurationError(
            f"{src.id} and {tgt.id} do not share hop {hop.id}")
    ids = {messages.SRC: src.id, messages.TGT: tgt.id, messages.HOP: hop.id}

    new_keys = (security.chain_k_enb(ctx.keys)
                if mode is HandoverMode.CORE_ASSISTED else ctx.keys)
    prefix = messages.EDGE_PREFIX[mode]
    # a step to the target carries the session key it will use
    payloads = [{"imsi": ctx.imsi, "k_enb": new_keys.k_enb,
                 "ncc": new_keys.ncc, "qci": ctx.qci}
                if step[2] == messages.TGT else
                {"imsi": ctx.imsi, "target": tgt.id, "qci": ctx.qci}
                for step in prefix]
    _relay(hop, prefix, payloads, ids)
    if not tgt.has_room():
        return HandoverTrace(mode, prefix, ids, now_us, payloads, failed=True)

    # opaque blob, forwarded to the device unmodified
    radio_config = f"radio:{tgt.id}:{ctx.imsi}:{ctx.qci}".encode()
    # ack, command, confirm, notify, release; a via-HOP step's payload
    # is a dict, which the relay tags
    tail = [{"radio_config": radio_config}, {"radio_config": radio_config},
            None, {}, {"imsi": ctx.imsi}]
    _relay(hop, messages.EDGE_TAIL, tail, ids)
    ident = ctx.private_addr.identifier
    del src.attached[ident]
    tgt.attached[ident] = ctx
    src.moved.record_move(ident, tgt.locator, now_us)
    ctx.keys = ue.keys = new_keys
    ctx.serving_inb = tgt.id
    return HandoverTrace(mode, messages.EDGE_SEQUENCE[mode], ids, now_us,
                         payloads + tail)


def _relay(hop, steps, payloads, ids):
    """Pass the payload of each via-HOP step through the relay toward the
    step's destination, tagged with the relay's id. Walks only the
    table's `relayed` steps, in order."""
    for i, dst in steps.relayed:
        payload = payloads[i]
        payload["via_hop"] = hop.id
        hop.relay(payload, ids[dst])
