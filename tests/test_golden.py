"""
Golden outputs: the CSVs of every CLI command at seeds 0-2, the
per-message rows of attach and of every handover mode, every app's
unrounded metrics over a seeded sweep of transport parameters, and every
load point's over a seeded sweep of load scenarios, compared byte for
byte with the files under tests/golden/.

A refactor that keeps these passing keeps the observable behaviour. To
record new goldens after an intended behaviour change, run
``PYTHONPATH=src python3 tests/test_golden.py`` and review the diff.
"""
import csv
import dataclasses
import io
import math
import os
import random

import pytest

from encorsim import cli, control, experiments, lte, security, transport
from encorsim.kernel import Node

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEEDS = (0, 1, 2)
LOAD_CONFIG = "[load]\nrates_per_s = 4,16\nduration_s = 3\n"
# The handover lands mid-train: bulk retransmits and PassiveOnly deadlocks.
APPS_CONFIG = ("[apps]\nfile_mb = 4\nvideo_s = 20\nlive_s = 10\n"
               "handover_at_s = 0.4\nforwarding = {}\n")
MEC_CONFIG = "[mec]\ngrid = 4x4\nue_count = 200\n"
PLACE_CONFIG = "[place]\nbudget_km = 1500\ncore_budget = 4\n"
# (golden prefix, config, argv, the files the command writes)
COMMANDS = [
    ("table_core-assisted", "", ["table", "--mode", "core-assisted"],
     ["table.csv"]),
    ("table_direct", "", ["table", "--mode", "direct"], ["table.csv"]),
    ("load", LOAD_CONFIG, ["load"], ["load.csv"]),
    ("apps_nofwd", APPS_CONFIG.format("false"), ["apps"], ["apps.csv"]),
    ("apps_fwd", APPS_CONFIG.format("true"), ["apps"], ["apps.csv"]),
    ("mec", MEC_CONFIG, ["mec"], ["mec.csv"]),
    ("place", PLACE_CONFIG, ["place", "--synthetic"],
     ["placement.csv", "coverage.csv", "cost.csv"]),
    ("gen", "", ["gen"], ["counties.csv", "pops.csv", "cdns.csv"]),
]


def _case(prefix, config, argv, files, seed):
    """One run of a command; a command that writes one file is named
    after its golden, one that writes several after its prefix."""
    if len(files) == 1:
        goldens = {files[0]: f"{prefix}_seed{seed}.csv"}
        case_id = goldens[files[0]]
    else:
        goldens = {f: f"{prefix}_{f[:-len('.csv')]}_seed{seed}.csv"
                   for f in files}
        case_id = f"{prefix}_seed{seed}"
    return pytest.param(config, argv, seed, goldens, id=case_id)


CLI_CASES = [_case(*command, seed) for seed in SEEDS for command in COMMANDS]


def run_cli(config_text, argv, seed, workdir):
    """Run one command with --out in a fresh directory; return the bytes
    of every file it wrote, by name."""
    config = os.path.join(workdir, "case.ini")
    with open(config, "w") as f:
        f.write(config_text)
    out_dir = os.path.join(workdir, "out")
    code = cli.main(["--config", config, "--seed", str(seed), "--format",
                     "csv", "--out", out_dir] + argv)
    assert code == cli.EXIT_OK
    written = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as f:
            written[name] = f.read()
        os.remove(os.path.join(out_dir, name))
    return written


def sequences():
    """Traces of attach, S1 and both edge-routed handovers, accepted and
    refused by a full target."""
    k = bytes(range(16))

    def edge_world(tgt_cap=None):
        sme = control.Sme({1: security.SubscriberRecord(imsi=1, k=k)}, seed=0)
        src = control.Inb("inb_a", 0x2001_0DB8_0000_0001)
        tgt = control.Inb("inb_b", 0x2001_0DB8_0000_0002, ue_cap=tgt_cap)
        hop = control.Hop("hop_ab", ["inb_a", "inb_b"])
        ue = control.Ue(imsi=1, k=k)
        ctx, attach_trace = control.attach(ue, src, sme)
        return ue, ctx, src, tgt, sme, hop, attach_trace

    out = {}
    *_, out["attach"] = edge_world()
    for cap, suffix in ((None, ""), (0, "_refused")):
        ue, ctx, src, tgt, sme, hop, _ = edge_world(cap)
        out["core_assisted" + suffix] = control.handover_core_assisted(
            ctx, ue, src, tgt, sme, hop)
        ue, ctx, src, tgt, sme, hop, _ = edge_world(cap)
        out["direct" + suffix] = control.handover_direct(
            ctx, ue, src, tgt, hop)
    core = lte.LteCore({1: security.SubscriberRecord(imsi=1, k=k)}, seed=0)
    lte_ue = control.Ue(imsi=1, k=k)
    lte.attach_lte(lte_ue, "enb_a", core)
    out["s1"], _ = lte.s1_handover(lte_ue, "enb_a", "enb_b", core)
    return out


def sequences_text():
    """One section per trace, one kind,src,dst,via_core,via_hop line per
    message."""
    lines = []
    for name, trace in sequences().items():
        lines.append(f"# {name} failed={int(trace.failed)}")
        lines += [f"{m.kind.value},{m.src},{m.dst},{int(m.via_core)},"
                  f"{m.payload.get('via_hop', '')}" for m in trace.messages]
    return "\n".join(lines) + "\n"


def read_golden(name):
    with open(os.path.join(GOLDEN, name), "rb") as f:
        return f.read()


# The CLI goldens run only the defaults, where one_way_us >= ack_delay_us.
# Tie orders between sends, acks, timeouts, keepalive ticks and moves
# change outside that region, so the sweep draws parameter sets around
# those ties. 60 sets of 4 runs take about 2 s on a 2-CPU x86-64 host.
SWEEP_SETS = 60
SWEEP_SEED = 16
SWEEP_FILE_BYTES = 500_000
SWEEP_DURATION_S = 4.0
SWEEP_PARAMS = ("one_way_us", "ack_delay_us", "bandwidth_mbps",
                "packet_bytes", "keepalive_interval_us", "forwarding_enabled",
                "give_up_us")


def _send_grid(app, params, frame_interval_us):
    """(start, interval, count) of the sends of a bulk run, of a buffered
    run's first chunk, or of a live run."""
    if app == "bulk":
        return (0, params.packet_interval_us(),
                math.ceil(SWEEP_FILE_BYTES / params.packet_bytes))
    if app == "buffered":  # sent once the first request reaches the server
        return (params.one_way_us, params.packet_interval_us(
            transport.PACE_MBPS), math.ceil(transport.buffered_packets(
                transport.CHUNK_DURATION_S, params)))
    return (0, frame_interval_us,
            round(SWEEP_DURATION_S * transport.US_PER_S) // frame_interval_us)


def sweep_sets():
    """Yield (params, frame_interval_us, moves) from one seeded generator.

    Each set aims at one app's send grid: bulk packets, the first chunk's
    paced packets, or live frames. one_way_us is log-uniform over 1 µs-30
    ms; ack_delay_us is 0, one_way_us, a multiple of the grid's interval,
    or the delay that makes rtt_us one, so acks arrive on the grid. Frame
    intervals are multiples of the packet interval; the keepalive interval
    is at or just under a first RTO of 2 ms or more; forwarding is on or
    off; a give-up horizon of 1 s lets a 4 s live stream deadlock."""
    rng = random.Random(SWEEP_SEED)
    for i in range(SWEEP_SETS):
        one_way = round(math.exp(rng.uniform(0, math.log(30_000))))
        params = transport.TransportParams(
            one_way_us=one_way, bandwidth_mbps=rng.choice((20.0, 40.0)),
            packet_bytes=rng.choice((1000, 1200)),
            forwarding_enabled=i % 2 == 0,
            give_up_us=rng.choice((1_000_000, 5_000_000)))
        interval = params.packet_interval_us()
        frame_us = interval * rng.randint(max(1, 5_000 // interval),
                                          50_000 // interval)
        app = ("bulk", "buffered", "live")[i % 3]
        start, grid, count = _send_grid(app, params, frame_us)
        params = dataclasses.replace(params, ack_delay_us=(
            0, one_way, rng.randint(1, 4) * grid,
            (-2 * one_way) % grid + rng.randrange(4) * grid)[i // 6 % 4])
        rto = params.rto_us
        if rto >= 2_000:  # a shorter tick would cost most of the sweep
            params = dataclasses.replace(
                params, keepalive_interval_us=rng.choice(
                    (params.keepalive_interval_us, rto,
                     rto - rng.randint(0, one_way))))
        # the first move falls between a delivery and its ack's leave: of
        # a random send, or of the first chunk's last, after which the
        # next chunk's sends start; later ones on the grid after it
        k = count - 1 if app == "buffered" else rng.randrange(count)
        moves = [start + k * grid + one_way
                 + rng.randint(0, params.ack_delay_us)]
        for _ in range(rng.randint(0, 2)):
            j = k + 1 + rng.randrange(count)
            moves.append(start + j * grid + rng.choice((-1, 0, 0, 1)))
        yield params, frame_us, sorted(moves)


def transport_sweep_text():
    """One row per run: the set's index and inputs, then every AppMetrics
    field unrounded. Bulk, buffered and live under both policies run on
    each set, at the set's index as seed."""
    fields = [f.name for f in dataclasses.fields(transport.AppMetrics)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("set",) + SWEEP_PARAMS
                    + ("frame_interval_us", "moves_us") + tuple(fields))
    for i, (params, frame_us, moves) in enumerate(sweep_sets()):
        runs = [transport.run_bulk(SWEEP_FILE_BYTES, moves, params, seed=i),
                transport.run_buffered(SWEEP_DURATION_S, moves, params,
                                       seed=i)]
        runs += [transport.run_live(SWEEP_DURATION_S, moves, policy, params,
                                    seed=i, frame_interval_us=frame_us)
                 for policy in transport.Policy]
        inputs = ((i,) + tuple(getattr(params, name) for name in SWEEP_PARAMS)
                  + (frame_us, " ".join(map(str, moves))))
        for m in runs:
            writer.writerow(inputs + tuple(getattr(m, f) for f in fields))
    return out.getvalue()


# The load goldens run one scenario at seeds 0-2. Completions due in the
# same µs at the two nodes fire in send order, and the next message of
# each takes its service slot in that order, so the load sweep draws
# scenarios where such ties are common: round service times, link
# latencies of 0 or a few µs, and loads from idle to past saturation.
# 40 scenarios take 0.35-0.5 s on a 2-CPU x86-64 host.
LOAD_SWEEP_SETS = 40
LOAD_SWEEP_SEED = 18
LOAD_SWEEP_INPUTS = ("rates_per_s", "core_service_rate", "edge_service_rate",
                     "link_latency_us", "duration_s", "seed")


def load_scenarios():
    """Yield LoadScenarios from one seeded generator.

    Each service rate is a round number (a service time that is a
    multiple of 10 µs) or uniform over its range: 50-2,000/s at the core and
    1,000-200,000/s at the edge. The link latency is 0, 1 µs, the core's
    service time, or log-uniform over 1 µs-10 ms. A run lasts 0.5-2 s at
    2 or 3 ascending rates of 1-120 handovers/s, below and above the
    core's saturation for both architectures."""
    rng = random.Random(LOAD_SWEEP_SEED)
    for i in range(LOAD_SWEEP_SETS):
        core = rng.choice((rng.choice((100.0, 250.0, 500.0, 1000.0)),
                           round(rng.uniform(50, 2000), 1)))
        edge = rng.choice((rng.choice((1000.0, 10_000.0, 100_000.0)),
                           round(rng.uniform(1000, 200_000), 1)))
        latency = (0, 1, round(1e6 / core),
                   round(math.exp(rng.uniform(0, math.log(10_000)))))[i % 4]
        rates = sorted(rng.sample(range(1, 121), rng.randint(2, 3)))
        yield experiments.LoadScenario(
            rates_per_s=tuple(rates), core_service_rate=core,
            edge_service_rate=edge, link_latency_us=latency,
            duration_s=rng.choice((0.5, 1.0, 2.0)), seed=i)


def load_sweep():
    """[(scenario, {arch: [LoadPoint per rate]})] over load_scenarios."""
    return [(scenario, experiments.run_load_sweep(scenario))
            for scenario in load_scenarios()]


def load_sweep_text(sweep):
    """One row per LoadPoint: the scenario's index and inputs, then every
    LoadPoint field unrounded."""
    fields = [f.name for f in dataclasses.fields(experiments.LoadPoint)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("set",) + LOAD_SWEEP_INPUTS + tuple(fields))
    for i, (scenario, results) in enumerate(sweep):
        inputs = [getattr(scenario, name) for name in LOAD_SWEEP_INPUTS]
        inputs[0] = " ".join(map(str, scenario.rates_per_s))
        for points in results.values():
            for p in points:
                writer.writerow([i] + inputs
                                + [getattr(p, f) for f in fields])
    return out.getvalue()


@pytest.fixture(scope="module")
def swept_load():
    return load_sweep()


def zero_load_ms(arch, scenario):
    """The latency of a handover that never waits: over its steps, the
    node's latency plus its service time."""
    service_us = {via_core: Node(None, rate).service_us
                  for via_core, rate in ((True, scenario.core_service_rate),
                                         (False, scenario.edge_service_rate))}
    return sum(scenario.link_latency_us + service_us[via_core]
               for _, _, _, via_core, _ in experiments.LOAD_SEQUENCES[arch]
               ) / 1000


@pytest.mark.parametrize("config,argv,seed,goldens", CLI_CASES)
def test_cli_csv_matches_golden(config, argv, seed, goldens, tmp_path,
                                capsys):
    written = run_cli(config, argv, seed, str(tmp_path))
    assert sorted(written) == sorted(goldens)
    for name, golden in goldens.items():
        assert written[name] == read_golden(golden), golden


def test_message_sequences_match_golden():
    assert sequences_text() == read_golden("sequences.txt").decode()


def test_transport_sweep_matches_golden():
    # row by row, so a failure names the first run that differs
    assert (transport_sweep_text().splitlines()
            == read_golden("transport_sweep.csv").decode().splitlines())


def test_load_sweep_matches_golden(swept_load):
    assert (load_sweep_text(swept_load).splitlines()
            == read_golden("load_sweep.csv").decode().splitlines())


def test_no_load_point_beats_the_zero_load_latency(swept_load):
    # a step completes at max(busy_until, now + latency) + service, so no
    # completion is faster than the zero-load latency, and one that never
    # waits takes exactly that. The sweep has no point with one completion:
    # at 1/s for 1 s, seed 1 makes one handover per architecture.
    assert [zero_load_ms(arch, experiments.LoadScenario())
            for arch in ("encor", "lte")] == [11.05, 45.0]
    lone = experiments.LoadScenario(rates_per_s=(1,), duration_s=1.0, seed=1)
    lone_results = experiments.run_load_sweep(lone)
    assert [p.completions for p, in lone_results.values()] == [1, 1]
    for scenario, results in swept_load + [(lone, lone_results)]:
        for arch, points in results.items():
            floor_ms = zero_load_ms(arch, scenario)
            for p in points:
                if p.completions == 1:
                    assert p.mean_ms == p.p95_ms == floor_ms
                elif p.completions:
                    # p95 is a sample; the mean of n equal samples may
                    # round below them
                    assert p.p95_ms >= floor_ms
                    assert p.mean_ms >= floor_ms * (1 - 1e-12)


if __name__ == "__main__":
    import tempfile
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CLI_CASES:
            config, argv, seed, goldens = case.values
            for name, data in run_cli(config, argv, seed, tmp).items():
                with open(os.path.join(GOLDEN, goldens[name]), "wb") as f:
                    f.write(data)
    with open(os.path.join(GOLDEN, "sequences.txt"), "w") as f:
        f.write(sequences_text())
    with open(os.path.join(GOLDEN, "transport_sweep.csv"), "w") as f:
        f.write(transport_sweep_text())
    with open(os.path.join(GOLDEN, "load_sweep.csv"), "w") as f:
        f.write(load_sweep_text(load_sweep()))
