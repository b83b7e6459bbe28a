import pytest

from encorsim import security
from encorsim.addressing import PRIVATE_LOCATOR
from encorsim.control import (
    AttachError, ConfigurationError, HandoverError, Hop, Inb, RelayError, Sme,
    Ue, UeState, attach, handover_core_assisted, handover_direct,
)
from encorsim.messages import ControlMessage, Kind, count_messages


def make_world(ue_cap=None, seed=0):
    k = bytes(16)
    subdb = {1: security.SubscriberRecord(imsi=1, k=k, qci_profile=7)}
    sme = Sme(subdb, seed=seed)
    inb_a = Inb("inb_a", 0x2001_0DB8_0000_0001)
    inb_b = Inb("inb_b", 0x2001_0DB8_0000_0002, ue_cap=ue_cap)
    hop = Hop("hop", ["inb_a", "inb_b"])
    ue = Ue(imsi=1, k=k)
    return ue, inb_a, inb_b, sme, hop


def test_attach_connects_with_derived_address_and_qci():
    ue, inb_a, _, sme, _ = make_world()
    ctx, trace = attach(ue, inb_a, sme)
    assert ue.state is UeState.CONNECTED
    assert ctx.private_addr.locator == PRIVATE_LOCATOR
    assert ctx.private_addr.identifier == 1
    assert ctx.qci == 7
    assert ue.keys == ctx.keys
    assert [m.kind for m in trace.messages] == [
        Kind.ATTACH_REQUEST, Kind.AUTH_CHALLENGE,
        Kind.AUTH_RESPONSE, Kind.ATTACH_ACCEPT]
    assert inb_a.attached[1] is ctx


@pytest.mark.parametrize("imsi", [0, 1 << 64])
def test_attach_of_an_imsi_that_is_no_identifier_changes_nothing(imsi):
    k = bytes(16)
    sme = Sme({imsi: security.SubscriberRecord(imsi=imsi, k=k)})
    inb = Inb("inb_a", 0x2001_0DB8_0000_0001)
    ue = Ue(imsi=imsi, k=k)
    rng = sme.rng.getstate()
    with pytest.raises(AttachError, match="subscriber id"):
        attach(ue, inb, sme)
    assert ue.sqn == sme.subdb[imsi].sqn == 0
    assert sme.rng.getstate() == rng
    assert inb.attached == {}
    assert ue.state is UeState.DETACHED and ue.keys is None


def test_attach_at_a_station_at_its_cap_is_refused_and_changes_nothing():
    k = bytes(16)
    sme = Sme({i: security.SubscriberRecord(imsi=i, k=k) for i in (1, 2)})
    inb = Inb("inb_a", 0x2001_0DB8_0000_0001, ue_cap=1)
    first, second = Ue(imsi=1, k=k), Ue(imsi=2, k=k)
    ctx, _ = attach(first, inb, sme)
    rng = sme.rng.getstate()
    with pytest.raises(AttachError, match="^inb_a "):
        attach(second, inb, sme)
    assert second.sqn == sme.subdb[2].sqn == 0
    assert sme.rng.getstate() == rng
    assert inb.attached == {1: ctx}
    assert second.state is UeState.DETACHED and second.keys is None
    assert first.state is UeState.CONNECTED and ctx.serving_inb == "inb_a"


def attach_and_handover(mode, ue_cap=None):
    ue, inb_a, inb_b, sme, hop = make_world(ue_cap=ue_cap)
    ctx, _ = attach(ue, inb_a, sme)
    if mode == "core":
        trace = handover_core_assisted(ctx, ue, inb_a, inb_b, sme, hop)
    else:
        trace = handover_direct(ctx, ue, inb_a, inb_b, hop)
    return ue, ctx, inb_a, inb_b, sme, hop, trace


def test_core_assisted_is_seven_messages_two_via_core():
    _, ctx, inb_a, inb_b, _, _, trace = attach_and_handover("core")
    _, via_core = count_messages(trace)
    assert len(trace) == 7
    assert via_core == 2
    assert trace.messages[-1].kind is Kind.UE_CONTEXT_RELEASE
    assert trace.messages[-1].src == inb_a.id
    assert ctx.serving_inb == inb_b.id
    assert 1 in inb_b.attached and 1 not in inb_a.attached


def test_core_assisted_increments_ncc():
    ue, ctx, inb_a, inb_b, sme, hop, _ = attach_and_handover("core")
    assert ctx.keys.ncc == 1
    trace2 = handover_core_assisted(ctx, ue, inb_b, inb_a, sme, hop)
    assert not trace2.failed
    assert ctx.keys.ncc == 2


def test_core_assisted_refusal_leaves_ue_at_source():
    ue, ctx, inb_a, inb_b, sme, hop, trace = attach_and_handover(
        "core", ue_cap=0)
    assert trace.failed
    assert ue.state is UeState.CONNECTED
    assert ctx.serving_inb == inb_a.id
    assert ctx.keys.ncc == 0
    assert 1 in inb_a.attached and 1 not in inb_b.attached


def test_direct_is_six_messages_zero_via_core():
    _, ctx, _, inb_b, _, _, trace = attach_and_handover("direct")
    _, via_core = count_messages(trace)
    assert len(trace) == 6
    assert via_core == 0
    assert ctx.serving_inb == inb_b.id


def test_direct_reuses_key():
    ue, inb_a, inb_b, sme, hop = (lambda w: (w[0], w[1], w[2], w[3], w[4]))(
        make_world())
    ctx, _ = attach(ue, inb_a, sme)
    before = ctx.keys
    handover_direct(ctx, ue, inb_a, inb_b, hop)
    assert ctx.keys == before  # key reused, NCC unchanged


def test_direct_requires_shared_hop():
    ue, inb_a, inb_b, sme, _ = make_world()
    ctx, _ = attach(ue, inb_a, sme)
    lonely_hop = Hop("hop2", ["inb_a"])
    with pytest.raises(ConfigurationError):
        handover_direct(ctx, ue, inb_a, inb_b, lonely_hop)


@pytest.mark.parametrize("mode", ["core", "direct"])
def test_misconfigured_hop_leaves_ue_at_source(mode):
    ue, inb_a, inb_b, sme, hop = make_world()
    ctx, _ = attach(ue, inb_a, sme)
    lonely_hop = Hop("hop2", ["inb_b"])
    with pytest.raises(ConfigurationError):
        if mode == "core":
            handover_core_assisted(ctx, ue, inb_a, inb_b, sme, lonely_hop)
        else:
            handover_direct(ctx, ue, inb_a, inb_b, lonely_hop)
    assert ue.state is UeState.CONNECTED
    assert ctx.serving_inb == inb_a.id
    assert ctx.keys.ncc == 0
    assert 1 in inb_a.attached and 1 not in inb_b.attached
    trace = handover_core_assisted(ctx, ue, inb_a, inb_b, sme, hop)
    assert not trace.failed and ctx.serving_inb == inb_b.id


@pytest.mark.parametrize("mode", ["core", "direct"])
def test_handover_to_its_own_source_is_refused_and_changes_nothing(mode):
    ue, inb_a, _, sme, hop = make_world()
    ctx, _ = attach(ue, inb_a, sme)
    keys, attached = ctx.keys, dict(inb_a.attached)
    with pytest.raises(HandoverError, match="is its source"):
        if mode == "core":
            handover_core_assisted(ctx, ue, inb_a, inb_a, sme, hop)
        else:
            handover_direct(ctx, ue, inb_a, inb_a, hop)
    assert ctx.keys is keys and ue.keys is keys and keys.ncc == 0
    assert ctx.serving_inb == inb_a.id
    assert inb_a.attached == attached
    assert inb_a.moved.lookup(1, now=1) is None


def test_ho_command_byte_identical_to_target_radio_config():
    for mode in ("core", "direct"):
        _, _, _, _, _, _, trace = attach_and_handover(mode)
        ack = next(m for m in trace.messages if m.kind is Kind.HO_REQUEST_ACK)
        cmd = next(m for m in trace.messages if m.kind is Kind.HO_COMMAND)
        assert cmd.payload["radio_config"] == ack.payload["radio_config"]
        assert isinstance(cmd.payload["radio_config"], bytes)


def test_handover_records_move_at_source():
    _, ctx, inb_a, inb_b, _, _, _ = attach_and_handover("core")
    assert inb_a.moved.lookup(1, now=1) == inb_b.locator


def test_hop_relay_unknown_destination_errors():
    hop = Hop("hop", ["inb_a"])
    msg = ControlMessage(Kind.HO_REQUIRED, "inb_a", "inb_x")
    with pytest.raises(RelayError):
        hop.relay(msg, "inb_x")


def test_hop_relay_preserves_message():
    hop = Hop("hop", ["inb_a", "inb_b"])
    msg = ControlMessage(Kind.HO_REQUIRED, "inb_a", "inb_b",
                         payload={"blob": b"\x01\x02"})
    assert hop.relay(msg, "inb_b") is msg


def test_hop_statelessness_snapshot_identical_after_workload():
    ue, inb_a, inb_b, sme, hop = make_world()
    before = hop.snapshot()
    ctx, _ = attach(ue, inb_a, sme)
    src, dst = inb_a, inb_b
    for _ in range(50):
        handover_core_assisted(ctx, ue, src, dst, sme, hop)
        src, dst = dst, src
    assert hop.snapshot() == before


def test_hop_type_has_no_per_ue_fields():
    hop = Hop("hop", ["inb_a"])
    assert set(vars(hop)) == {"id", "connected"}


def test_relays_leave_hop_state_empty():
    hop = Hop("hop", ["inb_a", "inb_b"])
    msg = ControlMessage(Kind.HO_REQUIRED, "inb_a", "inb_b")
    for _ in range(1000):
        hop.relay(msg, "inb_b")
    assert set(vars(hop)) == {"id", "connected"}


def test_exactly_one_inb_holds_context():
    ue, ctx, inb_a, inb_b, sme, hop, _ = attach_and_handover("core")
    holders = [inb for inb in (inb_a, inb_b) if 1 in inb.attached]
    assert len(holders) == 1


def test_attached_ids_view_follows_attach_and_handover():
    ue, inb_a, inb_b, sme, hop = make_world()
    ids_a, ids_b = inb_a.attached_ids(), inb_b.attached_ids()
    assert 1 not in ids_a and 1 not in ids_b
    ctx, _ = attach(ue, inb_a, sme)
    assert 1 in ids_a and 1 not in ids_b
    handover_core_assisted(ctx, ue, inb_a, inb_b, sme, hop)
    assert 1 not in ids_a and 1 in ids_b
    handover_direct(ctx, ue, inb_b, inb_a, hop)
    assert set(ids_a) == {1} and len(ids_b) == 0


def test_inb_has_no_downlink_buffer():
    inb = Inb("inb", 0x1)
    assert not any("buffer" in name for name in vars(inb))


def test_count_messages_empty_trace():
    from encorsim.messages import HandoverTrace
    kinds, via_core = count_messages(HandoverTrace(mode=None))
    assert sum(kinds.values()) == 0 and via_core == 0


def test_trace_messages_and_chart():
    _, _, _, _, _, _, trace = attach_and_handover("core")
    messages = trace.messages
    assert len(messages) == 7
    assert messages[0].kind.value == "HoRequired"
    chart = trace.sequence_chart()
    assert "HoCommand" in chart and "[core]" in chart


def test_attach_trace_chart():
    ue, inb_a, _, sme, _ = make_world()
    _, trace = attach(ue, inb_a, sme)
    assert trace.sequence_chart().splitlines() == [
        "# Attach",
        " 1. ue -> sme: AttachRequest [core]",
        " 2. sme -> ue: AuthChallenge [core]",
        " 3. ue -> sme: AuthResponse [core]",
        " 4. sme -> ue: AttachAccept [core]",
    ]


@pytest.mark.parametrize("field, value", [
    ("locator", -1), ("locator", 1 << 64), ("locator", 1.5),
    ("locator", True), ("locator", None),
    ("ue_cap", -3), ("ue_cap", 1.5), ("ue_cap", True), ("ue_cap", "2"),
])
def test_inb_refuses_a_bad_locator_or_cap(field, value):
    # a cap of -3 refused every attach and handover
    with pytest.raises(ValueError, match=f"^{field} must be"):
        Inb("inb_a", **{"locator": 1, field: value})
