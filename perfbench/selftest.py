#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark, so a broken benchmark fails fast.

Run from the repository root (about a minute):

    python3 perfbench/selftest.py

It runs every workload end to end and traced at a tiny size, checks the
result line against ``BENCHMARK.json``, checks that each workload's output
check rejects a corrupted output, and checks that the benchmark refuses to
run where there is no program to measure.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, names):
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    assert set(result["metrics"]) == names, set(result["metrics"]) ^ names
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), (name, entry)
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def check_runs():
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = check_result(run_bench(workload, 0), e2e)
        assert all(v > 0 for v in values.values()), values
        # A traced run is correct only if its spans are consistent with the
        # worker's own item times (see worker.py).
        values = check_result(run_bench(workload, 1), layers)
        assert values["trace.items"] >= 1, values
        assert values["parallel.pool_tasks"] == 0, values
        print(f"ok  {workload}: end-to-end and traced runs")


def check_checks():
    """Each workload's output check must reject a wrong output."""
    os.environ["REPRO_JOBS"] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    for name, make in workloads.WORKLOADS.items():
        workload = make(7)
        workload.setup()
        inputs = workload.next_input(0)
        out = workload.run(inputs)
        assert workload.check(inputs, out)[0], name
        inputs = workload.next_input(1)
        out = workload.run(inputs)
        assert not workload.check(inputs, out * 1.5 + 0.01)[0], name
        if name == "recsys_train":
            assert workload.finish()
            layout = workload._layouts(workload.models[0])[0]
            table = workload.node.read_tensor(layout)
            workload.node.write_tensor(layout, table + 0.01)
            assert not workload.finish()
        print(f"ok  {name}: output check rejects a corrupted output")


def check_bare_directory():
    """With only BENCHMARK.json and perfbench/, the benchmark must fail."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run_bench("fig_sweep", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  bare directory: exits", proc.returncode, "without a result")


if __name__ == "__main__":
    check_bare_directory()
    check_checks()
    check_runs()
    print("selftest passed")
