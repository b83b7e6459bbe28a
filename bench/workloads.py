"""
The benchmark's three workloads, each a set-up step that makes the inputs
from the seed and a round that drives encorsim's public API with them.

A round is closed-loop from one thread: each call starts after the
previous one returns. Every call into the program goes through
``Ops.call`` and every output check through ``Ops.check``; a round
returns its result rows, whose digest pins the simulated output.
"""
import random
import signal
import time
import types

from encorsim import (addressing, charging, control, datasets, experiments,
                      kernel, lte, mecsweep, placement, security, transport)
from encorsim.messages import count_messages

US = 1_000_000
MIB = 1024 * 1024

# Per-operation timeout: a hang fails the operation, not the run.
OP_TIMEOUT_S = 60.0

SIZES = {
    "full": {
        "mobility_apps": {"bulk_bytes": 16_000_000, "bulk_handovers": 2,
                          "video_s": 40.0, "video_handovers": 3,
                          "live_s": 240.0},
        "handover_signalling": {"load_duration_s": 40.0, "ues": 1500,
                                "inbs": 16, "handovers_per_ue": 5,
                                "s1_per_ue": 2},
        # Sixty clusters keep greedy from running out of coverable counties
        # before the core budget, so the work does not swing with the seed.
        "anchor_planning": {"grid": 20, "ue_count": 6000, "counties": 100,
                            "pops": 24, "cdns": 12, "clusters": 60,
                            "budget_km": 800.0, "core_budget": 4},
    },
    "tiny": {
        "mobility_apps": {"bulk_bytes": 1_000_000, "bulk_handovers": 1,
                          "video_s": 20.0, "video_handovers": 1,
                          "live_s": 30.0},
        "handover_signalling": {"load_duration_s": 2.0, "ues": 40,
                                "inbs": 4, "handovers_per_ue": 3,
                                "s1_per_ue": 1},
        "anchor_planning": {"grid": 4, "ue_count": 100, "counties": 30,
                            "pops": 8, "cdns": 4, "clusters": 10,
                            "budget_km": 800.0, "core_budget": 3},
    },
}


class OperationTimeout(Exception):
    """An operation ran past its timeout."""


def _raise_timeout(signum, frame):
    raise OperationTimeout(
        f"operation exceeded its {OP_TIMEOUT_S:.0f} s timeout")


class Ops:
    """Counts operations (calls into the program and output checks) and
    their failures. ``step`` runs a group of calls under one SIGALRM
    timeout; an exception or a timeout fails the call in progress and
    skips the rest of the step, and the run goes on."""

    MAX_ERRORS = 20

    def __init__(self, hard_deadline):
        self.hard_deadline = hard_deadline
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.step_id = 0
        self.tracer = None
        signal.signal(signal.SIGALRM, _raise_timeout)

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < self.MAX_ERRORS:
            self.errors.append(message)

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {name}")
        return ok

    def step(self, name, fn, *args):
        self.step_id += 1
        if self.tracer is not None:
            self.tracer.op_id = self.step_id
        timeout = min(OP_TIMEOUT_S, self.hard_deadline - time.perf_counter())
        if timeout <= 0:
            self.attempted += 1
            self.fail(f"{name}: not run, the run is out of time")
            return
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            fn(*args)
        except Exception as exc:  # counted as failed; the run goes on
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


class KernelCheck:
    """Checks every RunStats that Simulator.run and run_until return:
    sent == delivered + dropped + in_flight with nothing negative, one
    latency sample per delivery, per-category counts that add up, and
    nothing in flight once run() has drained the queue."""

    def __init__(self, ops):
        self.ops = ops
        self._saved = {}

    def __enter__(self):
        for attr in ("run", "run_until"):
            orig = kernel.Simulator.__dict__[attr]
            self._saved[attr] = orig
            setattr(kernel.Simulator, attr, self._wrap(orig, attr == "run"))
        return self

    def __exit__(self, *exc):
        for attr, orig in self._saved.items():
            setattr(kernel.Simulator, attr, orig)
        return False

    def _wrap(self, orig, drains):
        ops = self.ops

        def checked(sim, *args, **kwargs):
            stats = orig(sim, *args, **kwargs)
            ops.check("RunStats sent == delivered + dropped + in_flight",
                      stats.sent == stats.delivered + stats.dropped
                      + stats.in_flight
                      and min(stats.delivered, stats.dropped,
                              stats.in_flight) >= 0
                      and len(stats.latencies_us) == stats.delivered
                      and sum(stats.delivered_by_category.values())
                      == stats.delivered
                      and (stats.in_flight == 0 or not drains))
            return stats
        return checked


# -- mobility_apps ----------------------------------------------------------

LIVE_FRAME_US = 41_667  # 24 frames/s

def setup_mobility_apps(seed, size):
    rng = random.Random(f"mobility_apps:{seed}")
    params = transport.TransportParams()
    bulk_us = size["bulk_bytes"] * 8 / params.bandwidth_mbps
    video_us = size["video_s"] * US
    frames = round(size["live_s"] * US) // LIVE_FRAME_US
    return {
        "size": size,
        "sim_seed": rng.randrange(1 << 31),
        "bulk_ho": sorted(rng.randrange(round(0.05 * bulk_us),
                                        round(0.9 * bulk_us))
                          for _ in range(size["bulk_handovers"])),
        "video_ho": sorted(rng.randrange(round(0.05 * video_us),
                                         round(0.95 * video_us))
                           for _ in range(size["video_handovers"])),
        # Early enough that a stale path outlives the give-up horizon, and
        # after the ack of the last frame that arrived has left: an ack
        # sent after the move carries the new address and heals the path,
        # and the deadlock dichotomy is about handovers outside that window.
        "live_ho": [rng.randrange(frames // 10, frames // 2) * LIVE_FRAME_US
                    + params.one_way_us + params.ack_delay_us
                    + rng.randrange(1_000, LIVE_FRAME_US // 2)],
    }


def round_mobility_apps(inp, ops):
    size, seed = inp["size"], inp["sim_seed"]
    rows = []

    def record(fwd, m):
        rows.append([int(fwd), *m.to_csv_row(), m.retx_count, m.pings,
                     m.frames_delivered])

    def bulk(fwd):
        params = ops.call(transport.TransportParams, forwarding_enabled=fwd)
        record(fwd, ops.call(transport.run_bulk, size["bulk_bytes"],
                             inp["bulk_ho"], params, seed=seed))

    def buffered(fwd):
        params = ops.call(transport.TransportParams, forwarding_enabled=fwd)
        record(fwd, ops.call(transport.run_buffered, size["video_s"],
                             inp["video_ho"], params, seed=seed))

    def live(fwd):
        params = ops.call(transport.TransportParams, forwarding_enabled=fwd)
        deadlocked = {}
        for policy in transport.Policy:
            m = ops.call(transport.run_live, size["live_s"], inp["live_ho"],
                         policy, params, seed=seed,
                         frame_interval_us=LIVE_FRAME_US)
            record(fwd, m)
            deadlocked[policy] = m.deadlocked
        if not fwd:
            ops.check("live stream without forwarding: PassiveOnly deadlocks,"
                      " PingOnIdle does not",
                      deadlocked[transport.Policy.PASSIVE_ONLY]
                      and not deadlocked[transport.Policy.PING_ON_IDLE])

    for fwd in (False, True):
        ops.step("bulk", bulk, fwd)
        ops.step("buffered", buffered, fwd)
        ops.step("live", live, fwd)
    return rows


# -- handover_signalling ----------------------------------------------------

LOCATOR_BASE = 0x2001_0db8_0000_0000
S1_BUFFER_CAP = 4
EXPECTED_MESSAGES = {  # (messages, of which via the core) per handover
    "core_assisted": (7, 2),
    "direct": (6, 0),
    "s1": (15, 15),
}


def setup_handover_signalling(seed, size):
    rng = random.Random(f"handover_signalling:{seed}")
    n_ues, n_inbs = size["ues"], size["inbs"]
    ttl = addressing.RecentlyMovedTable.DEFAULT_TTL_US
    subs = []
    for i, imsi in enumerate(rng.sample(range(1, 1 << 60), n_ues)):
        subs.append({
            "imsi": imsi,
            "k": rng.getrandbits(128).to_bytes(16, "big"),
            "balance": rng.randrange(4, 48) * MIB,
            "home": i % n_inbs,
            "start_us": rng.randrange(10 * US),
            # (mode, target offset, gap to the next handover, bytes after)
            "handovers": [
                (rng.choice(("core_assisted", "direct")),
                 rng.randrange(1, n_inbs),
                 ttl + rng.randrange(1, 30 * US),
                 rng.randrange(50_000, 3_000_000))
                for _ in range(size["handovers_per_ue"])],
            # (target offset, downlink packets arriving mid-handover)
            "s1": [(rng.randrange(1, n_inbs),
                    rng.randrange(0, 2 * S1_BUFFER_CAP))
                   for _ in range(size["s1_per_ue"])],
        })
    per_inb = n_ues // n_inbs
    return {"size": size, "seed": seed, "subs": subs,
            "ue_cap": per_inb + max(2, per_inb // 10)}


class _Sub:
    __slots__ = ("spec", "ue", "ctx", "lte_ue", "quota", "inb", "enb", "now",
                 "delivered", "refused", "expected_drops")

    def __init__(self, spec):
        self.spec = spec
        self.ue = self.ctx = self.lte_ue = self.quota = None
        self.inb = self.enb = spec["home"]
        self.now = spec["start_us"]
        self.delivered = self.refused = self.expected_drops = 0


def round_handover_signalling(inp, ops):
    size, seed = inp["size"], inp["seed"]
    rows = []

    def message_table(mode):
        table, _ = ops.call(experiments.run_message_table, mode, seed)
        got = {r.arch: (r.network_total, r.network_via_core) for r in table}
        want = EXPECTED_MESSAGES["direct" if mode == "direct"
                                 else "core_assisted"]
        ops.check(f"message table ({mode}): LTE 15/15, EnCoR {want}",
                  got["LTE"] == (15, 15) and got["EnCoR"] == want)
        rows.extend(r.to_csv_row() for r in table)

    def load_sweep():
        scenario = experiments.LoadScenario(duration_s=size["load_duration_s"],
                                            seed=seed)
        result = ops.call(experiments.run_load_sweep, scenario)
        for arch in ("encor", "lte"):
            rows.extend(p.to_csv_row() for p in result[arch])
        ops.check("load sweep: 2 vs 15 core messages, EnCoR no slower",
                  all(p.core_msgs_per_handover == 2 for p in result["encor"])
                  and all(p.core_msgs_per_handover == 15
                          for p in result["lte"])
                  and all(e.mean_ms <= l.mean_ms for e, l in
                          zip(result["encor"], result["lte"])))

    ops.step("message table", message_table, "core-assisted")
    ops.step("message table", message_table, "direct")
    ops.step("load sweep", load_sweep)
    rows.extend(_storm(inp, ops))
    return rows


def _storm_network(inp):
    """SME, LTE core, base stations, one relay and the charging tiers."""
    specs = inp["subs"]

    def records():
        return {s["imsi"]: security.SubscriberRecord(imsi=s["imsi"], k=s["k"])
                for s in specs}

    net = types.SimpleNamespace()
    net.sme = control.Sme(records(), seed=inp["seed"])
    net.core = lte.LteCore(records(), seed=inp["seed"],
                           buffer_cap=S1_BUFFER_CAP)
    net.inbs = [control.Inb(f"inb{i}", LOCATOR_BASE + i, ue_cap=inp["ue_cap"])
                for i in range(inp["size"]["inbs"])]
    net.hop = control.Hop("hop", [inb.id for inb in net.inbs])
    net.snapshot = net.hop.snapshot()
    net.log = charging.ChargingLog()
    ocs = charging.Ocs([charging.Account(s["imsi"], s["balance"])
                        for s in specs], log=net.log)
    net.cp = charging.ChargingProxy("cp", ocs, log=net.log)
    return net


def _storm(inp, ops):
    """Attach every subscriber on both architectures, then hand them all
    over in turns, each EnCoR handover followed by NAT and charging."""
    n_inbs = inp["size"]["inbs"]
    ttl = addressing.RecentlyMovedTable.DEFAULT_TTL_US
    subs = [_Sub(spec) for spec in inp["subs"]]
    rows = []
    net = None

    def build():
        nonlocal net
        net = ops.call(_storm_network, inp)

    def attach(sub):
        imsi, k = sub.spec["imsi"], sub.spec["k"]
        sub.ue = control.Ue(imsi=imsi, k=k)
        sub.ctx, _ = ops.call(control.attach, sub.ue, net.inbs[sub.inb],
                              net.sme, sub.now)
        sub.lte_ue = control.Ue(imsi=imsi, k=k)
        ops.call(lte.attach_lte, sub.lte_ue, f"enb{sub.enb}", net.core,
                 sub.now)
        sub.quota = charging.InbQuota(imsi, log=net.log)

    def handover(sub, r):
        mode, offset, gap, nbytes = sub.spec["handovers"][r]
        src, tgt = net.inbs[sub.inb], net.inbs[(sub.inb + offset) % n_inbs]
        now = sub.now
        sub.now += gap
        room = tgt.has_room()
        if mode == "core_assisted":
            trace = ops.call(control.handover_core_assisted, sub.ctx, sub.ue,
                             src, tgt, net.sme, net.hop, now)
        else:
            trace = ops.call(control.handover_direct, sub.ctx, sub.ue, src,
                             tgt, net.hop, now)
        ops.check("handover refused exactly when the target is full",
                  trace.failed == (not room))
        if trace.failed:
            sub.refused += 1
            return
        _, via_core = count_messages(trace)
        ops.check(f"{mode} handover message count",
                  (len(trace), via_core) == EXPECTED_MESSAGES[mode])
        sub.inb = (sub.inb + offset) % n_inbs

        private = sub.ctx.private_addr
        public = ops.call(addressing.nat_uplink, private, tgt.locator)
        decision, restored = ops.call(addressing.nat_downlink, public,
                                      tgt.attached_ids(), tgt.moved, now)
        ops.check("NAT uplink then downlink restores the private address",
                  decision is addressing.Decision.DELIVER
                  and restored == private)
        stale = addressing.Addr128(src.locator, private.identifier)
        decision, forwarded = ops.call(addressing.nat_downlink, stale,
                                       src.attached_ids(), src.moved, now + 1)
        ops.check("old base station forwards to the new locator",
                  decision is addressing.Decision.FORWARD
                  and forwarded.locator == tgt.locator)
        decision, _ = ops.call(addressing.nat_downlink, stale,
                               src.attached_ids(), src.moved, now + ttl)
        ops.check("expired forwarding entry drops",
                  decision is addressing.Decision.DROP)
        sub.delivered += ops.call(sub.quota.consume, nbytes, net.cp, now)

    def s1(sub, r):
        offset, n_pkts = sub.spec["s1"][r]
        src, tgt = f"enb{sub.enb}", f"enb{(sub.enb + offset) % n_inbs}"
        packets = [(sub.spec["imsi"], r, j) for j in range(n_pkts)]
        trace, flushed = ops.call(lte.s1_handover, sub.lte_ue, src, tgt,
                                  net.core, sub.now,
                                  downlink_mid_handover=packets)
        sub.enb = (sub.enb + offset) % n_inbs
        sub.expected_drops += max(0, n_pkts - S1_BUFFER_CAP)
        _, via_core = count_messages(trace)
        ops.check("S1 handover message count",
                  (len(trace), via_core) == EXPECTED_MESSAGES["s1"])
        ops.check("S1 flushes the buffered downlink in order",
                  flushed == packets[:S1_BUFFER_CAP])

    def outcome():
        ops.check("relay snapshot unchanged across the storm",
                  ops.call(net.hop.snapshot) == net.snapshot)
        tiers = {}  # subscriber -> [inb deliver, proxy subquota, ocs grant]
        for e in net.log.events:
            t = tiers.setdefault(e.subscriber, [0, 0, 0])
            if e.event == "deliver":
                t[0] += e.nbytes
            elif e.event == "subquota":
                t[1] += e.nbytes
            elif e.event == "grant":
                t[2] += e.nbytes
        for sub in subs:
            imsi = sub.spec["imsi"]
            deliver, subquota, granted = tiers.get(imsi, (0, 0, 0))
            ops.check("charging conservation: deliver <= subquota <= grants"
                      " <= balance",
                      sub.delivered == deliver
                      and deliver <= subquota <= granted
                      <= sub.spec["balance"])
            anchor = net.core.anchors[imsi]
            ops.check("S1 buffer drops beyond the cap",
                      anchor.buffer_drops == sub.expected_drops)
            rows.append([imsi, sub.refused, sub.ctx.serving_inb,
                         sub.ctx.keys.ncc, sub.ctx.keys.k_enb.hex(),
                         sub.delivered, int(sub.quota.cut_off),
                         sub.lte_ue.keys.k_enb.hex(), anchor.buffer_drops,
                         anchor.tunnel.teid_up])

    ops.step("storm set-up", build)
    for sub in subs:
        ops.step("attach", attach, sub)
    for r in range(inp["size"]["handovers_per_ue"]):
        for sub in subs:
            ops.step("handover", handover, sub, r)
    for r in range(inp["size"]["s1_per_ue"]):
        for sub in subs:
            ops.step("s1 handover", s1, sub, r)
    ops.step("storm outcome", outcome)
    return rows


# -- anchor_planning --------------------------------------------------------

def setup_anchor_planning(seed, size):
    counties, pops, cdns = datasets.generate_synthetic(
        seed, n_counties=size["counties"], n_pops=size["pops"],
        n_cdns=size["cdns"], n_clusters=size["clusters"])
    return {"size": size, "seed": seed, "counties": counties, "pops": pops,
            "cdns": cdns}


def round_anchor_planning(inp, ops):
    size, seed = inp["size"], inp["seed"]
    rows = []

    def mec():
        side = size["grid"]
        grid = mecsweep.GridNetwork(width=side, height=side,
                                    ue_count=size["ue_count"])
        points, ratios = ops.call(mecsweep.sweep, grid, None, 10, seed)
        rows.extend(mecsweep.to_csv_rows(points, ratios))
        ops.check("density sweep: ratio 1 at one anchor, monotone,"
                  " c_inter/c_intra at one anchor per station",
                  points[0].k == 1 and ratios[0] == 1.0
                  and points[-1].k == side * side
                  and abs(ratios[-1] - mecsweep.DEFAULT_C_INTER
                          / mecsweep.DEFAULT_C_INTRA) < 1e-9
                  and all(a <= b for a, b in zip(ratios, ratios[1:]))
                  and len({p.total_handovers for p in points}) == 1)

    def place():
        counties, pops, cdns = inp["counties"], inp["pops"], inp["cdns"]
        budget_km, core_budget = size["budget_km"], size["core_budget"]
        dep = ops.call(placement.greedy_place, counties, pops, cdns,
                       core_budget, budget_km)
        chosen = [site.id for site in dep.core_sites]
        rows.extend([rank + 1, sid, marginal] for rank, (sid, marginal)
                    in enumerate(zip(chosen, dep.marginal_populations)))
        curve = []
        for n in range(1, core_budget + 1):
            d = ops.call(placement.greedy_place, counties, pops, cdns, n,
                         budget_km)
            ops.check("greedy placement is prefix-stable",
                      [site.id for site in d.core_sites] == chosen[:n])
            curve.append(ops.call(placement.coverage, counties, budget_km,
                                  d, pops, cdns))
        edge = ops.call(placement.coverage, counties, budget_km, None, pops,
                        cdns)
        ops.check("coverage curve rises and stays under edge-routed coverage",
                  all(a <= b for a, b in zip(curve, curve[1:]))
                  and all(c <= edge + 1e-12 for c in curve))
        rows.extend([budget_km, n + 1, "3gpp", round(c, 6)]
                    for n, c in enumerate(curve))
        rows.append([budget_km, len(pops), "encor", round(edge, 6)])
        model = placement.CostModel()
        cost = ops.call(placement.cost_compare, model, core_budget, len(pops))
        ops.check("cost arithmetic",
                  cost[0] == core_budget * model.core_site_cost
                  and cost[1] == len(pops) * model.border_router_cost)
        rows.append([cost[0], cost[1], round(cost[2], 6)])

    ops.step("mec sweep", mec)
    ops.step("placement", place)
    return rows


WORKLOADS = {
    "mobility_apps": (setup_mobility_apps, round_mobility_apps),
    "handover_signalling": (setup_handover_signalling,
                            round_handover_signalling),
    "anchor_planning": (setup_anchor_planning, round_anchor_planning),
}
