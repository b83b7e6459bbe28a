#!/usr/bin/env python3
"""
Benchmark of encorsim: one workload per run, closed-loop from one thread.

    python3 bench/run.py --workload mobility_apps --seed 0 --seconds 35 \
        --trace 0

The run makes the workload's inputs from ``--seed``, then repeats the
workload's round (a fixed amount of work) until ``--seconds`` have passed,
checking every output. With ``--trace 0`` it reports the end-to-end
metrics: ``wall_s`` (median seconds of a round, scaled to a reference
host speed by a calibration run before and after each round; see
ScaledTimer), ``setup_s`` (median host seconds of a fresh process from
start through the imports and input generation, over several processes)
and ``peak_rss_mb`` (peak resident memory of this process). With
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the
spans of the last traced round are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the digest of the result rows, ``fail_frac`` and a ``meta`` block.
See bench/README.md.
"""
import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_PROCESSES = 9
# calibration seconds of the reference host speed (this host when idle)
REFERENCE_S = 0.05
# No operation starts after this, so a run ends well within 180 s.
HARD_LIMIT_S = 150.0

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mobility_apps", "handover_signalling",
                            "anchor_planning"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit (used to time setup_s)")
    return p.parse_args(argv)


def git_commit():
    """The commit of the checkout, read from .git, or 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest(rows):
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def calibration_s():
    """Host seconds of a fixed interpreter workload that does not use
    encorsim: heap pushes and pops of tuples, dict updates, random draws."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    heap, counts = [], {}
    for i in range(40_000):
        heapq.heappush(heap, (rng.random(), i, (i, i)))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.perf_counter() - t0


class ScaledTimer:
    """Times rounds and scales each to the reference host speed.

    A shared host's speed drifts by up to 2x over tens of seconds. Each
    round is bracketed by calibration runs, and its host seconds are
    scaled by REFERENCE_S / (mean of the two calibration seconds)."""

    def __init__(self):
        self.raw = []
        self.scaled = []
        self.calibration = []
        self._last = calibration_s()

    @contextlib.contextmanager
    def interval(self):
        before = self._last
        t0 = time.perf_counter()
        yield
        raw = time.perf_counter() - t0
        self._last = calibration_s()
        cal = (before + self._last) / 2
        self.raw.append(raw)
        self.calibration.append(cal)
        self.scaled.append(raw * REFERENCE_S / cal)


def time_setup(args, ops):
    """Host seconds of fresh processes that import and set up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size,
           "--setup-only"]
    times = []

    def one():
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        try:
            # a blocking wait: a polling one rounds to its 50 ms naps; the
            # step's SIGALRM timeout still bounds it
            code = proc.wait()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"setup process exited with {code}")
        times.append(time.perf_counter() - t0)

    for _ in range(SETUP_PROCESSES):
        ops.step("setup process", ops.call, one)
    return times


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import encorsim
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import encorsim from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if os.path.dirname(os.path.abspath(encorsim.__file__)) != \
            os.path.join(SRC, "encorsim"):
        print(f"error: imported encorsim from {encorsim.__file__},"
              f" not from {SRC}", file=sys.stderr)
        return 2

    size = workloads.SIZES[args.size][args.workload]
    setup, run_round = workloads.WORKLOADS[args.workload]
    setup_tracer = tracing.Tracer() if args.trace else None
    with setup_tracer or contextlib.nullcontext():
        inputs = setup(args.seed, size)
    if args.setup_only:
        return 0

    ops = workloads.Ops(hard_deadline=T_START + HARD_LIMIT_S)
    setup_times = None if args.trace else time_setup(args, ops)

    recorded_path = os.path.join(BENCH_DIR, "digests.json")
    with open(recorded_path) as f:
        recorded = json.load(f)
    recorded = recorded.get(args.size, {}).get(args.workload, {})

    rounds = ScaledTimer()
    traced_rounds = []
    layer_rounds = []
    first_digest = None
    last_tracer = None
    start = time.perf_counter()
    with workloads.KernelCheck(ops):
        traced = False
        while True:
            gc.collect()
            tracer = tracing.Tracer() if traced else None
            ops.tracer = tracer
            with rounds.interval(), tracer or contextlib.nullcontext():
                rows = run_round(inputs, ops)
            traced_rounds.append(traced)
            ops.tracer = None
            d = digest(rows)
            if first_digest is None:
                first_digest = d
                if str(args.seed) in recorded:
                    ops.check("digest equals the recorded digest",
                              d == recorded[str(args.seed)])
            else:
                ops.check("digest equals the first round's", d == first_digest)
            if tracer is not None:
                layer_rounds.append(tracer.metrics())
                last_tracer = tracer
            done = time.perf_counter() - start >= args.seconds
            if args.trace:
                if done and traced:
                    break
                traced = not traced
            elif done:
                break

    def median_wall(traced):
        return statistics.median(
            s for s, t in zip(rounds.scaled, traced_rounds) if t == traced)

    if args.trace:
        metrics = {name: statistics.median(r[name] for r in layer_rounds)
                   for name in layer_rounds[0]}
        metrics["datasets.generate_s"] = setup_tracer.metrics()[
            "datasets.generate_s"]
        untraced = median_wall(False)
        traced_wall = median_wall(True)
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.traced_wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced
        metrics["trace.overhead_frac"] = (traced_wall - untraced) / untraced
        units = dict(tracing.LAYER_METRICS)
        metrics = {name: metrics[name] for name in units}
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        last_tracer.write_spans(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        unmeasured = sorted(set(setup_tracer.missing)
                            | set(last_tracer.missing))
    else:
        metrics = {
            "wall_s": median_wall(False),
            "setup_s": (statistics.median(setup_times)
                        if setup_times else 0.0),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
        unmeasured = []

    fail_frac = ops.failed / max(1, ops.attempted)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {fail_frac:.6g} ratio"
          f" ({ops.failed} of {ops.attempted} operations)")
    for err in ops.errors:
        print(f"failed: {err}")
    info = {
        "workload": args.workload,
        "digest": first_digest,
        "fail_frac": fail_frac,
        "rounds": {"traced": traced_rounds, "wall_s": rounds.scaled,
                   "host_s": rounds.raw,
                   "calibration_s": rounds.calibration},
        "setup_processes_s": setup_times,
        "unmeasured": unmeasured,
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "git_commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "sizes": size,
        },
    }
    print(json.dumps(info))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
