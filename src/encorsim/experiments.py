"""
The two headline experiments: per-handover message accounting for both
architectures, and handover completion time under control-plane load with
a throttled core.
"""
import math
import random
from dataclasses import dataclass

from . import control, lte, security
from .control import Hop, Inb, Sme, Ue
from .kernel import Simulator, US_PER_S
from .messages import EDGE_SEQUENCE, S1_SEQUENCE, HandoverMode, count_messages

# passive connection migration costs at most this many transport-layer
# control packets; the ping fix adds exactly one more
PASSIVE_MIGRATION_PACKETS_MAX = 2
PING_FIX_PACKETS = 1


def make_subdb(imsis, seed=0):
    rng = random.Random(seed)
    return {imsi: security.SubscriberRecord(
        imsi=imsi, k=rng.getrandbits(128).to_bytes(16, "big"))
        for imsi in imsis}


def _fresh_encor(seed=0):
    subdb = make_subdb([1], seed)
    sme = Sme(subdb, seed=seed)
    inb_a = Inb("inb_a", 0x2001_0db8_0000_0001)
    inb_b = Inb("inb_b", 0x2001_0db8_0000_0002)
    hop = Hop("hop", ["inb_a", "inb_b"])
    ue = Ue(imsi=1, k=subdb[1].k)
    ctx, _ = control.attach(ue, inb_a, sme)
    return ue, ctx, inb_a, inb_b, sme, hop


@dataclass
class TableRow:
    arch: str
    quic_min: int
    quic_max: int
    network_total: int
    network_via_core: int

    @property
    def total_min(self):
        return self.network_total + self.quic_min

    @property
    def total_max(self):
        return self.network_total + self.quic_max

    def to_csv_row(self):
        return (self.arch, self.quic_min, self.quic_max, self.network_total,
                self.network_via_core, self.total_min, self.total_max)


def run_message_table(mode="core-assisted", seed=0):
    """One canonical handover per architecture, tallied from its trace."""
    # LTE baseline
    subdb = make_subdb([1], seed)
    core = lte.LteCore(subdb, seed=seed)
    lte_ue = Ue(imsi=1, k=subdb[1].k)
    lte.attach_lte(lte_ue, "enb_a", core)
    lte_trace, _ = lte.s1_handover(lte_ue, "enb_a", "enb_b", core)
    _, lte_core_count = count_messages(lte_trace)

    # edge-routed architecture
    ue, ctx, inb_a, inb_b, sme, hop = _fresh_encor(seed)
    if mode == "direct":
        trace = control.handover_direct(ctx, ue, inb_a, inb_b, hop)
    else:
        trace = control.handover_core_assisted(ctx, ue, inb_a, inb_b, sme, hop)
    _, via_core = count_messages(trace)

    rows = [
        TableRow("LTE", 0, 0, len(lte_trace), lte_core_count),
        TableRow("EnCoR", 0, PASSIVE_MIGRATION_PACKETS_MAX,
                 len(trace), via_core),
        TableRow("EnCoR+modQUIC", PING_FIX_PACKETS,
                 PASSIVE_MIGRATION_PACKETS_MAX + PING_FIX_PACKETS,
                 len(trace), via_core),
    ]
    return rows, {"lte": lte_trace, "encor": trace}


# -- handover under load --------------------------------------------------

# every arrival of a load point is scheduled before the run, so the
# expected handover count max(rates_per_s) * duration_s bounds its memory
MAX_HANDOVERS_PER_POINT = 1_000_000


@dataclass
class LoadScenario:
    rates_per_s: tuple = (2, 4, 8, 16, 24, 30)
    core_service_rate: float = 500.0    # the CPU throttle
    edge_service_rate: float = 100_000.0
    link_latency_us: int = 1_000
    duration_s: float = 20.0
    seed: int = 0

    def __post_init__(self):
        positive = [("core_service_rate", self.core_service_rate),
                    ("edge_service_rate", self.edge_service_rate),
                    ("duration_s", self.duration_s)]
        positive += [("rates_per_s", r) for r in self.rates_per_s]
        for key, value in positive:
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite,"
                                 f" got {value}")
        # a mean gap under the 1 µs clock rounds every gap to 0 µs, and the
        # arrival loop would never reach the horizon
        fastest = max(self.rates_per_s, default=0)
        if fastest > US_PER_S:
            raise ValueError(f"rates_per_s must be at most {US_PER_S} per s"
                             f" (a mean gap of 1 µs), got {fastest}")
        expected = fastest * self.duration_s
        if expected > MAX_HANDOVERS_PER_POINT:
            raise ValueError(f"duration_s must keep max(rates_per_s) *"
                             f" duration_s at most {MAX_HANDOVERS_PER_POINT},"
                             f" got {fastest} * {self.duration_s}")
        latency = self.link_latency_us
        if not (type(latency) is int and latency >= 0):
            raise ValueError("link_latency_us must be a nonnegative whole"
                             f" number of us, got {latency!r}")
        if list(self.rates_per_s) != sorted(self.rates_per_s):
            raise ValueError("rates_per_s must be ascending")


@dataclass
class LoadPoint:
    arch: str
    rate_per_s: float
    mean_ms: float
    p95_ms: float
    core_msgs_per_handover: int
    core_utilization: float
    saturated: bool
    completions: int

    def to_csv_row(self):
        return (self.arch, self.rate_per_s, round(self.mean_ms, 3),
                round(self.p95_ms, 3), self.core_msgs_per_handover,
                round(self.core_utilization, 4), int(self.saturated),
                self.completions)


# the handover each architecture's load point replays, message by message
LOAD_SEQUENCES = {"encor": EDGE_SEQUENCE[HandoverMode.CORE_ASSISTED],
                  "lte": S1_SEQUENCE}


def _run_load_point(arch, rate_per_s, scenario):
    steps = LOAD_SEQUENCES[arch]
    arch_bit = 0 if arch == "encor" else 1
    sim = Simulator(seed=(scenario.seed << 20) ^ (arch_bit << 19)
                    ^ int(rate_per_s * 100))
    latency = scenario.link_latency_us
    core = sim.add_node("core", scenario.core_service_rate, latency)
    edge = sim.add_node("edge", scenario.edge_service_rate, latency)

    completions = []
    dsts = [core if via_core else edge for _, _, _, via_core, _ in steps]
    n_steps = len(dsts)

    def advance(sim, msg):
        """Send the handover's next step, or record its completion; msg is
        (handover start, index of the next step)."""
        start, i = msg
        if i == n_steps:
            completions.append(sim.now - start)
            return
        sim.send(dsts[i], (start, i + 1), advance)

    # Poisson handover arrivals over the run horizon, made in time order
    horizon = round(scenario.duration_s * US_PER_S)
    arrivals = sim.lane()
    t = 0
    while True:
        t += round(sim.rng.expovariate(rate_per_s) * US_PER_S)
        if t >= horizon:
            break
        arrivals.schedule(t, advance, (t, 0))
    sim.run()
    sim.close()
    del advance  # it passes itself as on_delivered, a cycle through its cell

    times_ms = sorted(c / 1000 for c in completions)
    n = len(times_ms)
    mean_ms = sum(times_ms) / n if n else 0.0
    p95_ms = times_ms[min(n - 1, math.ceil(0.95 * n) - 1)] if n else 0.0
    core_msgs = steps.via_core
    util = rate_per_s * core_msgs / scenario.core_service_rate
    return LoadPoint(arch=arch, rate_per_s=rate_per_s, mean_ms=mean_ms,
                     p95_ms=p95_ms, core_msgs_per_handover=core_msgs,
                     core_utilization=util, saturated=util >= 1.0,
                     completions=n)


def run_load_sweep(scenario=None):
    """Both architectures on the same topology and core throttle; returns
    {arch: [LoadPoint per swept rate]}."""
    scenario = scenario or LoadScenario()
    results = {}
    for arch in ("encor", "lte"):
        results[arch] = [_run_load_point(arch, r, scenario)
                         for r in scenario.rates_per_s]
    return results
