"""
End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion (visible with
pytest -s or in captured output on failure) and then asserts it.
"""
import math
import random

import pytest

from encorsim import control, security
from encorsim.addressing import (
    Decision, RecentlyMovedTable, assign_private_addr, nat_downlink,
    nat_uplink,
)
from encorsim.charging import Account, ChargingLog, ChargingProxy, InbQuota, Ocs
from encorsim.control import Hop, Inb, Sme, Ue
from encorsim.datasets import generate_synthetic
from encorsim.experiments import LoadScenario, run_load_sweep, run_message_table
from encorsim.mecsweep import GridNetwork, sweep
from encorsim.placement import CostModel, Deployment, cost_compare, coverage, greedy_place
from encorsim.transport import Policy, TransportParams, run_buffered, run_bulk, run_live

US = 1_000_000


def _report(num, name, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_message_count_table():
    ok = True
    for _ in range(3):  # exact, every run
        rows, _ = run_message_table("core-assisted")
        by_arch = {r.arch: r for r in rows}
        ok &= (by_arch["LTE"].network_total, by_arch["LTE"].network_via_core) \
            == (15, 15)
        ok &= (by_arch["EnCoR"].network_total,
               by_arch["EnCoR"].network_via_core) == (7, 2)
        quic = by_arch["EnCoR+modQUIC"]
        ok &= 8 <= quic.total_min and quic.total_max <= 10
    _report(1, "message-count table 15/15, 7/2, transport total in [8,10]", ok)


def test_criterion_2_handover_under_load():
    results = run_load_sweep(LoadScenario())
    ok = all(e.mean_ms <= l.mean_ms
             for e, l in zip(results["encor"], results["lte"]))
    ok &= all(p.core_msgs_per_handover == 15 for p in results["lte"])
    ok &= all(p.core_msgs_per_handover == 2 for p in results["encor"])
    # highest swept rate where the LTE core is at >= 90% utilization
    hot = [i for i, p in enumerate(results["lte"]) if p.core_utilization >= 0.9]
    ok &= bool(hot)
    if hot:
        i = hot[-1]
        ratio = results["lte"][i].mean_ms / results["encor"][i].mean_ms
        ok &= ratio >= 2.0
    _report(2, "load sweep: EnCoR <= LTE everywhere, >= 2x near saturation,"
               " 15 vs 2 core messages", ok)


def test_criterion_3_mec_density_scaling():
    grid = GridNetwork(width=20, height=20, ue_count=8000,
                       handover_rate_per_min=5.0)
    points, ratios = sweep(grid, duration_min=10, seed=0)
    ks = [p.k for p in points]
    ok = ratios[0] == 1.0 and ks[0] == 1 and ks[-1] == 400
    ok &= all(b >= a for a, b in zip(ratios, ratios[1:]))
    ok &= abs(ratios[-1] - 10 / 3) <= 0.05
    _report(3, "anchor-density sweep: ratio(k=1)=1, monotone,"
               " ratio(k=400)=3.33 +/- 0.05", ok)


def test_criterion_4_cost_arithmetic():
    model = CostModel()
    # ten core sites vs border routers at a 33-PoP national footprint
    cost_anchored, cost_edge_all, _ = cost_compare(model, 10, 33)
    ok = cost_anchored == 27_500_000
    ok &= cost_edge_all == 6_600_000
    # a ten-PoP edge-routed deployment
    _, cost_edge_ten, savings = cost_compare(model, 10, 10)
    ok &= cost_edge_ten == 2_000_000
    ok &= savings >= 0.90
    _report(4, "cost arithmetic: $27.5M / $6.6M / $2.0M exact, savings >= 90%",
            ok)


def test_criterion_5_placement_properties():
    import itertools
    optimal_hits = 0
    ok = True
    n_instances = 50
    for seed in range(n_instances):
        counties, pops, cdns = generate_synthetic(
            seed, n_counties=25, n_pops=8, n_cdns=4)
        budget_km, core_budget = 700.0, 3
        dep = greedy_place(counties, pops, cdns, core_budget, budget_km)
        got = coverage(counties, budget_km, dep, pops, cdns)
        best = max(
            coverage(counties, budget_km, Deployment(list(sub)), pops, cdns)
            for sub in itertools.combinations(pops, core_budget))
        if got >= best - 1e-12:
            optimal_hits += 1
        ok &= got >= (1 - 1 / math.e) * best - 1e-9
        # edge-routed dominates at every budget; all-PoP anchored == edge
        for b in (200, 500, 1000, 2500):
            edge = coverage(counties, b, None, pops, cdns)
            ok &= coverage(counties, b, dep, pops, cdns) <= edge + 1e-12
            all_pop = coverage(counties, b, Deployment(list(pops)), pops, cdns)
            ok &= all_pop == pytest.approx(edge, abs=1e-12)
    ok &= optimal_hits >= 45
    _report(5, f"placement: greedy optimal on {optimal_hits}/50 (need >= 45),"
               " within (1-1/e), edge-routed dominates", ok)


def test_criterion_6_transport_behaviors():
    ok = True
    params = TransportParams(forwarding_enabled=False)
    for seed in range(100):
        passive = run_live(30.0, [5 * US], Policy.PASSIVE_ONLY, params,
                           seed=seed)
        ping = run_live(30.0, [5 * US], Policy.PING_ON_IDLE, params, seed=seed)
        ok &= passive.deadlocked
        ok &= not ping.deadlocked
        ok &= ping.pings <= 1  # one migration, at most one extra packet
    buffered = run_buffered(30.0, [5 * US], params, seed=0)
    ok &= buffered.stall_s == 0.0
    ok &= buffered.mean_quality == pytest.approx(5.0)
    _report(6, "live deadlock dichotomy 100/100, ping fix <= 1 packet,"
               " buffered stall 0 / quality 5", ok)


@pytest.mark.slow
def test_criterion_7_loss_ordering():
    ok = True
    params = TransportParams(forwarding_enabled=False)
    fwd = TransportParams(forwarding_enabled=True)
    for seed in range(30):
        bulk_base = run_bulk(4_000_000, [], params, seed=seed)
        bulk_ho = run_bulk(4_000_000, [400_000], params, seed=seed)
        buf_base = run_buffered(30.0, [], params, seed=seed)
        buf_ho = run_buffered(30.0, [5 * US], params, seed=seed)
        bulk_inc = bulk_ho.retx_rate - bulk_base.retx_rate
        buf_inc = buf_ho.retx_rate - buf_base.retx_rate
        ok &= bulk_inc > buf_inc > 0
        bulk_fwd = run_bulk(4_000_000, [400_000], fwd, seed=seed)
        ok &= bulk_fwd.retx_count < bulk_ho.retx_count
    _report(7, "loss ordering 30/30: bulk > buffered > 0, forwarding"
               " strictly reduces bulk retransmissions", ok)


def test_criterion_8_core_invariants():
    ok = True
    # addressing round trip, 1e5 random identifiers/prefixes
    rng = random.Random(0)
    for _ in range(100_000):
        ident = rng.randrange(1, 1 << 64)
        prefix = rng.randrange(1 << 64)
        public = nat_uplink(assign_private_addr(ident), prefix)
        decision, restored = nat_downlink(public, {ident},
                                          RecentlyMovedTable(), 0)
        if decision is not Decision.DELIVER or \
                restored != assign_private_addr(ident):
            ok = False
            break

    # relay statelessness: byte-identical snapshots around a workload
    subdb = {1: security.SubscriberRecord(imsi=1, k=bytes(16))}
    sme = Sme(subdb, seed=0)
    inb_a, inb_b = Inb("inb_a", 1), Inb("inb_b", 2)
    hop = Hop("hop", ["inb_a", "inb_b"])
    snap = hop.snapshot()
    ue = Ue(imsi=1, k=bytes(16))
    ctx, _ = control.attach(ue, inb_a, sme)
    src, dst = inb_a, inb_b
    for _ in range(100):
        control.handover_core_assisted(ctx, ue, src, dst, sme, hop)
        src, dst = dst, src
    ok &= hop.snapshot() == snap

    # charging conservation over randomized 1e3-event workloads
    for seed in range(5):
        wl = random.Random(seed)
        log = ChargingLog()
        balance = wl.randrange(1, 64) * 1024 * 1024
        ocs = Ocs([Account(1, balance)], log=log)
        cp = ChargingProxy("cp", ocs, log=log)
        inb = InbQuota(1, log=log)
        delivered = sum(inb.consume(wl.randrange(1, 200_000), cp)
                        for _ in range(1000))
        granted = sum(e.nbytes for e in log.events
                      if e.actor == "ocs" and e.event == "grant")
        sub = sum(e.nbytes for e in log.events
                  if e.actor == "cp" and e.event == "subquota")
        ok &= delivered <= sub <= granted <= balance

    # replay rejection and key chaining
    rec = security.SubscriberRecord(imsi=1, k=bytes(range(16)))
    rand = bytes(16)
    vector = security.generate_auth_vector(rec, rand)
    _, ue_sqn = security.ue_process_challenge(rec.k, 0, rand, vector.autn)
    try:
        security.ue_process_challenge(rec.k, ue_sqn, rand, vector.autn)
        ok = False
    except security.ReplayError:
        pass
    keys = security.derive_k_enb(vector.k_asme)
    chained = security.chain_k_enb(keys)
    ok &= chained.ncc == keys.ncc + 1 and chained.k_enb != keys.k_enb

    _report(8, "core invariants: address round trip, relay statelessness,"
               " charging conservation, replay + key chaining", ok)
