"""tools/eventlog.py on a tiny `handover_signalling` round: the count it
records is the kernel's own event count, a tree compared with itself
reads identical, a tree whose `Lane.schedule` takes two seqs per event
reads diverging in (time, seq) but identical in (time, action), and a
tree that inserts an event per lane event reads those insertions per
action name."""
import importlib.util
import os
import shutil
import subprocess
import sys
import time

from encorsim import kernel

ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
TOOL = os.path.join(ROOT, "tools", "eventlog.py")
ROUND = ["--workload", "handover_signalling", "--seed", "0", "--size", "tiny"]


def eventlog(*args):
    return subprocess.run([sys.executable, TOOL, *args, *ROUND],
                          capture_output=True, text=True)


def events_processed(monkeypatch):
    """The sum of `events_processed` over every simulator's `run` in one
    tiny round of the workload, run in this process."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = []
    run = kernel.Simulator.run

    def counted_run(sim):
        runs.append(run(sim).events_processed)
        return sim.stats

    monkeypatch.setattr(kernel.Simulator, "run", counted_run)
    name = "handover_signalling"
    setup, round_ = workloads.WORKLOADS[name]
    ops = workloads.Ops(hard_deadline=time.perf_counter() + 60)
    round_(setup(0, workloads.SIZES["tiny"][name]), ops)
    assert ops.failed == 0
    return sum(runs)


def test_recorded_count_is_the_kernels_event_count(monkeypatch):
    out = eventlog()
    assert out.returncode == 0, out.stderr
    recorded = int(out.stdout.splitlines()[0].removeprefix("events: "))
    assert recorded == events_processed(monkeypatch) > 0


def test_diff_of_a_tree_against_itself_reads_identical():
    out = eventlog("--diff", ROOT, ROOT)
    assert out.returncode == 0, out.stderr
    assert "(time, seq) streams: identical" in out.stdout
    assert "action names at equal keys: identical" in out.stdout
    assert "(time, action) streams: identical" in out.stdout


def _tree_with_lane_schedule(tmp_path, replacement, appended=""):
    """A copy of this tree whose `Lane.schedule` runs `replacement` in
    place of `sim._seq += 1`, and whose kernel module ends with
    `appended`."""
    for part in ("src", "bench"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    path = tmp_path / "src" / "encorsim" / "kernel.py"
    source = path.read_text(encoding="utf-8")
    assert source.count("sim._seq += 1") == 1  # Lane.schedule's
    path.write_text(source.replace("sim._seq += 1", replacement) + appended,
                    encoding="utf-8")
    return str(tmp_path)


def test_diff_against_a_tree_that_shifts_lane_seqs_reads_diverging(
        tmp_path):
    # about 0.3 s (pytest --durations), as each diff below
    out = eventlog("--diff", ROOT,
                   _tree_with_lane_schedule(tmp_path, "sim._seq += 2"))
    assert out.returncode == 1, out.stderr
    assert "(time, seq) streams: first divergence at event" in out.stdout
    # the seqs move, the order does not
    assert "(time, action) streams: identical" in out.stdout


def test_diff_counts_the_events_a_tree_inserts_per_action(tmp_path):
    # every lane event gets a no-op twin in its µs, right after it
    tree = _tree_with_lane_schedule(
        tmp_path, "sim._seq += 1\n        sim.schedule(at, inserted)",
        "\n\ndef inserted(sim):\n    pass\n")
    out = eventlog("--diff", ROOT, tree)
    assert out.returncode == 1, out.stderr
    lines = out.stdout.splitlines()
    start = lines.index("(time, action) streams: differ; (time, action)"
                        " pairs only one side has, per action (- A only,"
                        " + B only):")
    count_a, count_b = (int(line.split(": ")[1].split()[0])
                        for line in lines[:2])
    assert count_b > count_a
    assert lines[start + 1:] == [f"  +{count_b - count_a} inserted"]
