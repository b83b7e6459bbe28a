import pytest

from encorsim import security
from encorsim.control import Ue, UeState
from encorsim.lte import LteCore, attach_lte, deliver_downlink, s1_handover
from encorsim.messages import count_messages

K = bytes(range(16))


def make_core(buffer_cap=None):
    subdb = {1: security.SubscriberRecord(imsi=1, k=K)}
    return LteCore(subdb, seed=0, buffer_cap=buffer_cap)


def attach_one(core):
    ue = Ue(imsi=1, k=K)
    anchor = attach_lte(ue, "enb_a", core)
    return ue, anchor


def test_attach_builds_anchor_and_tunnel():
    core = make_core()
    ue, anchor = attach_one(core)
    assert ue.state is UeState.CONNECTED
    assert anchor.tunnel.enb == "enb_a"
    assert anchor.tunnel.teid_up != anchor.tunnel.teid_down
    assert core.anchors[1].tunnel.enb == "enb_a"


def test_s1_handover_is_fifteen_messages_all_via_core():
    core = make_core()
    ue, _ = attach_one(core)
    trace, flushed = s1_handover(ue, "enb_a", "enb_b", core)
    kinds, via_core = count_messages(trace)
    assert len(trace) == 15
    assert via_core == 15
    assert flushed == []
    assert core.anchors[1].tunnel.enb == "enb_b"


def test_public_ip_stable_while_tunnel_teids_change():
    core = make_core()
    ue, anchor = attach_one(core)
    ip0 = anchor.public_ip
    old_teids = (anchor.tunnel.teid_up, anchor.tunnel.teid_down)
    s1_handover(ue, "enb_a", "enb_b", core)
    assert anchor.public_ip == ip0
    assert (anchor.tunnel.teid_up, anchor.tunnel.teid_down) != old_teids
    assert anchor.tunnel.enb == "enb_b"


def test_handover_chains_ue_key():
    core = make_core()
    ue, _ = attach_one(core)
    before = ue.keys
    s1_handover(ue, "enb_a", "enb_b", core)
    assert ue.keys.ncc == before.ncc + 1
    assert ue.keys.k_enb != before.k_enb


def test_downlink_mid_handover_buffered_then_flushed_in_order():
    core = make_core()
    ue, anchor = attach_one(core)
    pkts = [f"p{i}" for i in range(5)]
    _, flushed = s1_handover(ue, "enb_a", "enb_b", core,
                             downlink_mid_handover=pkts)
    assert flushed == pkts  # zero loss, original order
    assert anchor.downlink_buffer == []
    assert anchor.buffer_drops == 0


def test_bounded_buffer_drops_overflow():
    core = make_core(buffer_cap=3)
    ue, anchor = attach_one(core)
    pkts = [f"p{i}" for i in range(5)]
    _, flushed = s1_handover(ue, "enb_a", "enb_b", core,
                             downlink_mid_handover=pkts)
    assert flushed == pkts[:3]
    assert anchor.buffer_drops == 2


def test_deliver_downlink_outside_handover_passes_through():
    core = make_core()
    attach_one(core)
    assert deliver_downlink(core, 1, "pkt") == "delivered"
    assert deliver_downlink(core, 99, "pkt") == "dropped"


def test_teids_never_reused_across_handovers():
    core = make_core()
    ue, anchor = attach_one(core)
    seen = {anchor.tunnel.teid_up, anchor.tunnel.teid_down}
    src, tgt = "enb_a", "enb_b"
    for _ in range(10):
        s1_handover(ue, src, tgt, core)
        src, tgt = tgt, src
        for teid in (anchor.tunnel.teid_up, anchor.tunnel.teid_down):
            assert teid not in seen
            seen.add(teid)


@pytest.mark.parametrize("buffer_cap", [-1, 1.5, True, "3"])
def test_core_refuses_a_bad_buffer_cap(buffer_cap):
    # a cap of -1 dropped every buffered packet
    with pytest.raises(ValueError, match="^buffer_cap must be"):
        make_core(buffer_cap)
