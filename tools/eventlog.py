"""
Event log: record every kernel event of one bench round, and compare the
logs of two source trees.

Usage:
    python3 tools/eventlog.py [--tree DIR] [--workload W] [--seed N]
                              [--size full|tiny] [--stream FILE]
    python3 tools/eventlog.py --diff A B [--workload W] [--seed N]
                              [--size full|tiny]

A tree is a directory that holds `src/encorsim` and `bench/`: the working
copy (the default), or a commit extracted with
`git archive REV | tar -x -C DIR`. The tool imports the tree's encorsim
and bench workloads with `tools/reach.py`'s `import_tree`, sets up the
workload's inputs from the seed and runs one round of it (`bench/run.py`
repeats that round).

During the round, `encorsim.kernel.heappop` and `heapreplace` are
wrapped from outside, so the program itself is not changed. The kernel's
drain fires each event through exactly one of them, and the entry each
call returns is the event fired. Each is recorded as (time, seq, action
`__qualname__`). The tool exits with an error unless the count equals
the sum of `events_processed` over every simulator the round made, so a
kernel that fires events another way fails loudly.

Recording prints the event count, blake2b digests of the (time, seq)
and the (time, action) streams and the count of events per action;
`--stream FILE` also writes the stream, one `time seq action` line per
event. `--diff A B` records each tree in a process of its own and
reports whether the (time, seq) streams are identical, the first
divergence with context, which action names differ at equal keys, and
whether the (time, action) streams are identical. A change that only
shifts the seq counter, and reorders nothing, keeps the (time, action)
stream. When it differs, the diff counts per action name the (time,
action) pairs that only one side has: the events one side inserted or
deleted. It exits 1 if the (time, seq) streams differ.
"""
import argparse
import collections
import hashlib
import os
import subprocess
import sys
import tempfile
import time

from reach import import_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTEXT = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", default=ROOT,
                   help="source tree to record (default: this one)")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                   help="record two trees and compare their streams")
    p.add_argument("--workload", default="mobility_apps",
                   choices=("mobility_apps", "handover_signalling",
                            "anchor_planning"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--stream", help="write the stream to this file")
    return p.parse_args(argv)


def record(tree, workload, seed, size):
    """[(time, seq, action name)] of every event of one round of
    `workload` from `tree`, in firing order."""
    _, workloads = import_tree(tree)
    from encorsim import kernel

    inputs = workloads.WORKLOADS[workload][0](
        seed, workloads.SIZES[size][workload])
    events = []
    runs = []

    def recorded(heap_op):
        def wrapped(queue, *args):
            entry = heap_op(queue, *args)
            events.append((entry[0], entry[1], entry[2].__qualname__))
            return entry
        return wrapped

    init = kernel.Simulator.__init__

    def tracked_init(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        runs.append(sim.stats)

    saved = {name: getattr(kernel, name)
             for name in ("heappop", "heapreplace") if hasattr(kernel, name)}
    for name, heap_op in saved.items():
        setattr(kernel, name, recorded(heap_op))
    kernel.Simulator.__init__ = tracked_init
    ops = workloads.Ops(hard_deadline=time.perf_counter() + 600)
    try:
        workloads.WORKLOADS[workload][1](inputs, ops)
    finally:
        kernel.Simulator.__init__ = init
        for name, heap_op in saved.items():
            setattr(kernel, name, heap_op)
    if ops.failed:
        raise SystemExit(f"error: {ops.failed} operations failed:"
                         f" {ops.errors}")
    processed = sum(stats.events_processed for stats in runs)
    if len(events) != processed:
        raise SystemExit(f"error: {len(events)} events recorded,"
                         f" {processed} processed")
    return events


def key_digest(events):
    blob = "\n".join(f"{t} {s}" for t, s, _ in events).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def time_action_digest(events):
    blob = "\n".join(f"{t} {name}" for t, _, name in events).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def report(events):
    print(f"events: {len(events)}")
    print(f"(time, seq) digest: {key_digest(events)}")
    print(f"(time, action) digest: {time_action_digest(events)}")
    census = collections.Counter(name for _, _, name in events)
    for name, count in census.most_common():
        print(f"  {count:>9}  {name}")


def write_stream(events, path):
    with open(path, "w", encoding="utf-8") as f:
        for t, s, name in events:
            f.write(f"{t} {s} {name}\n")


def read_stream(path):
    with open(path, encoding="utf-8") as f:
        return [(int(t), int(s), name)
                for t, s, name in (line.split(" ", 2)
                                   for line in f.read().splitlines())]


def diff(a, b, args):
    """Record trees a and b in a process each; print how their streams
    compare. Returns 0 if their (time, seq) streams are identical."""
    streams = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate((a, b)):
            path = os.path.join(tmp, f"stream{i}")
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--tree", tree,
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--size", args.size, "--stream", path],
                check=True, stdout=subprocess.DEVNULL)
            streams.append(read_stream(path))
    ea, eb = streams
    for side, tree, events in (("A", a, ea), ("B", b, eb)):
        print(f"{side} {tree}: {len(events)} events, (time, seq) digest"
              f" {key_digest(events)}, (time, action) digest"
              f" {time_action_digest(events)}")
    first = next((i for i, (x, y) in enumerate(zip(ea, eb))
                  if x[:2] != y[:2]), None)
    if first is None and len(ea) != len(eb):
        first = min(len(ea), len(eb))
    renamed = collections.Counter(
        (x[2], y[2]) for x, y in zip(ea, eb)
        if x[:2] == y[:2] and x[2] != y[2])
    if first is None:
        print("(time, seq) streams: identical")
    else:
        print(f"(time, seq) streams: first divergence at event {first}")
        lo = max(0, first - CONTEXT)
        for side, events in (("A", ea), ("B", eb)):
            for i in range(lo, min(len(events), first + CONTEXT + 1)):
                t, s, name = events[i]
                mark = ">" if i == first else " "
                print(f" {mark}{side} {i:>9}  t={t} seq={s}  {name}")
    if renamed:
        print("action names that differ at equal keys (A -> B):")
        for (name_a, name_b), count in renamed.most_common():
            print(f"  {count:>9}  {name_a} -> {name_b}")
    else:
        print("action names at equal keys: identical")
    if [(t, name) for t, _, name in ea] == [(t, name) for t, _, name in eb]:
        print("(time, action) streams: identical")
    else:
        pairs_a = collections.Counter((t, name) for t, _, name in ea)
        pairs_b = collections.Counter((t, name) for t, _, name in eb)
        print("(time, action) streams: differ; (time, action) pairs only"
              " one side has, per action (- A only, + B only):")
        for sign, only in (("-", pairs_a - pairs_b), ("+", pairs_b - pairs_a)):
            per_name = collections.Counter()
            for (_, name), count in only.items():
                per_name[name] += count
            for name, count in sorted(per_name.items()):
                print(f"  {sign}{count} {name}")
        if pairs_a == pairs_b:
            print("  none: the same pairs in another order")
    return 0 if first is None else 1


def main(argv=None):
    args = parse_args(argv)
    if args.diff:
        return diff(*args.diff, args)
    events = record(args.tree, args.workload, args.seed, args.size)
    if args.stream:
        write_stream(events, args.stream)
    report(events)
    return 0


if __name__ == "__main__":
    sys.exit(main())
