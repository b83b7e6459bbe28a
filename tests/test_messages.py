"""A trace is the step table its procedure ran: its messages, its length
and its counts all derive from the table, the bound ids and the payloads."""
from collections import Counter

import pytest

from encorsim import control, lte, security
from encorsim.messages import EDGE_PREFIX, HandoverMode, count_messages

NOW_US = 1234
K = bytes(16)


class RecordingHop(control.Hop):
    """A relay that records every (payload, destination) it forwards."""

    def __init__(self, hop_id, connected_inbs=()):
        super().__init__(hop_id, connected_inbs)
        self.relayed = []

    def relay(self, msg, dst_inb):
        self.relayed.append((msg, dst_inb))
        return super().relay(msg, dst_inb)


def run_case(case):
    """(trace, relay) of one procedure at NOW_US; relay is None for the
    procedures that use none."""
    subdb = {1: security.SubscriberRecord(imsi=1, k=K)}
    if case == "s1":
        core = lte.LteCore(subdb, seed=0)
        ue = control.Ue(imsi=1, k=K)
        lte.attach_lte(ue, "enb_a", core)
        trace, _ = lte.s1_handover(ue, "enb_a", "enb_b", core, NOW_US,
                                   downlink_mid_handover=["p0", "p1"])
        return trace, None
    sme = control.Sme(subdb, seed=0)
    src = control.Inb("inb_a", 0x1)
    tgt = control.Inb("inb_b", 0x2, ue_cap=0 if "refused" in case else None)
    hop = RecordingHop("hop", ["inb_a", "inb_b"])
    ue = control.Ue(imsi=1, k=K)
    ctx, trace = control.attach(ue, src, sme, NOW_US)
    if case == "attach":
        return trace, None
    if case.startswith("core_assisted"):
        trace = control.handover_core_assisted(ctx, ue, src, tgt, sme, hop,
                                               NOW_US)
    else:
        trace = control.handover_direct(ctx, ue, src, tgt, hop, NOW_US)
    return trace, hop


CASES = ("attach", "core_assisted", "direct", "core_assisted_refused",
         "direct_refused", "s1")


@pytest.mark.parametrize("case", CASES)
def test_counts_and_length_agree_with_the_messages(case):
    trace, _ = run_case(case)
    msgs = trace.messages
    assert count_messages(trace) == (Counter(m.kind for m in msgs),
                                     sum(1 for m in msgs if m.via_core))
    assert len(trace) == len(msgs) > 0
    assert all(m.time_us == NOW_US for m in msgs)


@pytest.mark.parametrize("case", CASES)
def test_a_returned_counter_or_message_list_is_the_callers_own(case):
    trace, _ = run_case(case)
    kinds, via_core = count_messages(trace)
    expected = kinds.copy()
    kinds[next(iter(kinds))] += 5
    kinds["extra"] = 1
    assert count_messages(trace) == (expected, via_core)

    msgs = trace.messages
    msgs[0].payload["added"] = True
    msgs.pop()
    again = trace.messages
    assert again is not msgs and len(again) == len(trace)
    assert "added" not in again[0].payload


@pytest.mark.parametrize("mode", list(EDGE_PREFIX))
def test_a_refused_trace_is_the_modes_prefix(mode):
    case = {HandoverMode.CORE_ASSISTED: "core_assisted_refused",
            HandoverMode.DIRECT: "direct_refused"}[mode]
    trace, _ = run_case(case)
    assert trace.failed
    assert [m.kind for m in trace.messages] == [
        step[0] for step in EDGE_PREFIX[mode]]


@pytest.mark.parametrize("case, n_relayed", [
    ("core_assisted", 2), ("direct", 3),
    ("core_assisted_refused", 0), ("direct_refused", 1),
])
def test_the_relay_sees_each_via_hop_step_once(case, n_relayed):
    trace, hop = run_case(case)
    via_hop = [m for m in trace.messages if "via_hop" in m.payload]
    assert len(hop.relayed) == len(via_hop) == n_relayed
    assert [dst for _, dst in hop.relayed] == [m.dst for m in via_hop]
    assert [payload for payload, _ in hop.relayed] == [
        m.payload for m in via_hop]
    assert all(m.payload["via_hop"] == hop.id for m in via_hop)
