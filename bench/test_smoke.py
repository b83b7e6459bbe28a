"""
Smoke test of the benchmark at tiny sizes:

    python3 -m pytest bench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, root=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=root)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_with_one_digest(workload):
    info, result = run_bench(workload, trace=0)
    traced_info, traced = run_bench(workload, trace=1)
    for res, kind in ((result, "end_to_end"), (traced, "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert list(res["metrics"]) == [m["name"] for m in SPEC[kind]]
        for m in SPEC[kind]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["digest"] == traced_info["digest"]
    assert info["fail_frac"] == 0.0
    assert info["meta"]["seed"] == 3


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("handover_signalling", 0, root=str(tmp_path),
                     check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_hang_fails_its_operation_and_the_run_goes_on(monkeypatch):
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    try:
        import workloads
        from encorsim import charging
    finally:
        del sys.path[:2]
    monkeypatch.setattr(workloads, "OP_TIMEOUT_S", 0.2)
    ops = workloads.Ops(hard_deadline=float("inf"))
    ocs = charging.Ocs([charging.Account(1, 64 * 1024 * 1024)])
    cp = charging.ChargingProxy("cp", ocs)
    # a refill threshold above 1 never refills an exhausted grant
    quota = charging.InbQuota(1, refill_threshold=1.5)
    ops.step("hang", lambda: ops.call(quota.consume, 5 * 1024 * 1024, cp))
    ops.step("raise", lambda: ops.call(int, "not a number"))
    ops.step("fine", lambda: ops.check("true", True))
    assert (ops.attempted, ops.failed) == (3, 2)
    assert "OperationTimeout" in ops.errors[0]
    assert "ValueError" in ops.errors[1]
