"""
Reference LTE control and user plane used as the comparison baseline.

MME/S-GW/P-GW with GTP tunnel anchoring: the P-GW anchors each device's
public IP for the whole session, every user-plane packet detours through
the anchor, and S1 handover re-points tunnels via the 15-message
``messages.S1_SEQUENCE`` that runs entirely through core-side elements,
buffering downlink traffic at the source until completion.

Attach admission, the handover preconditions and their errors are
EnCoR's (`control.admit`, `control.check_move`): LTE differs only in
anchoring the device at the P-GW.
"""
import itertools
import random
from dataclasses import dataclass, field

from . import messages, security
from .control import admit, check_move
from .messages import HandoverMode, HandoverTrace


@dataclass
class GtpTunnel:
    teid_up: int
    teid_down: int
    enb: str


@dataclass
class AnchorState:
    """Per-device state pinned at the anchor for the session lifetime."""
    imsi: int
    public_ip: int
    tunnel: GtpTunnel
    downlink_buffer: list = field(default_factory=list)
    buffering: bool = False
    buffer_drops: int = 0


class LteCore:
    def __init__(self, subdb, seed=0, buffer_cap=None):
        # a negative cap would drop every buffered packet
        if buffer_cap is not None and (type(buffer_cap) is not int
                                       or buffer_cap < 0):
            raise ValueError("buffer_cap must be None or an int of at least"
                             f" 0, got {buffer_cap!r}")
        self.subdb = subdb
        self.anchors = {}  # imsi -> AnchorState
        self._teids = itertools.count(1)
        self._ips = itertools.count(0x0A00_0001)  # 10.0.0.x pool
        self.buffer_cap = buffer_cap  # None = unbounded
        self.rng = random.Random(seed)

    def new_tunnel(self, enb):
        return GtpTunnel(teid_up=next(self._teids), teid_down=next(self._teids),
                         enb=enb)


def attach_lte(ue, enb, core, now_us=0):
    """LTE attach: EnCoR's admission (`control.admit`, which raises
    AttachError), then a public IP from the anchor's pool and a GTP
    tunnel toward `enb`. Returns the AnchorState."""
    admit(ue, core.subdb, core.rng)
    anchor = AnchorState(imsi=ue.imsi, public_ip=next(core._ips),
                         tunnel=core.new_tunnel(enb))
    core.anchors[ue.imsi] = anchor
    return anchor


def s1_handover(ue, src_enb, tgt_enb, core, now_us=0,
                downlink_mid_handover=()):
    """S1 handover. Tunnels are re-anchored to the target; downlink
    packets arriving mid-procedure are buffered and flushed at the end.

    Returns (trace, flushed_packets); raises HandoverError, with nothing
    changed, unless the device's anchor tunnels to `src_enb` and
    `tgt_enb` is another station.
    """
    anchor = core.anchors.get(ue.imsi)
    check_move(ue.imsi, anchor and anchor.tunnel.enb, src_enb, tgt_enb)

    anchor.buffering = True
    steps = messages.S1_SEQUENCE
    trace = HandoverTrace(HandoverMode.LTE_S1, steps,
                          {messages.SRC: src_enb, messages.TGT: tgt_enb},
                          now_us, [None] * len(steps))
    # the device leaves the source radio at the source's HO_COMMAND to it,
    # so downlink arriving mid-procedure buffers
    for pkt in downlink_mid_handover:
        deliver_downlink(core, ue.imsi, pkt)

    # re-anchor: fresh tunnel toward the target, public IP untouched
    anchor.tunnel = core.new_tunnel(tgt_enb)
    ue.keys = security.chain_k_enb(ue.keys)

    flushed = list(anchor.downlink_buffer)
    anchor.downlink_buffer.clear()
    anchor.buffering = False
    return trace, flushed


def deliver_downlink(core, imsi, pkt):
    """Downlink toward a device: buffered during handover, else delivered.

    Returns 'delivered', 'buffered', or 'dropped'.
    """
    anchor = core.anchors.get(imsi)
    if anchor is None:
        return "dropped"
    if anchor.buffering:
        if core.buffer_cap is not None and \
                len(anchor.downlink_buffer) >= core.buffer_cap:
            anchor.buffer_drops += 1
            return "dropped"
        anchor.downlink_buffer.append(pkt)
        return "buffered"
    return "delivered"
