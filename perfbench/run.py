#!/usr/bin/env python3
"""The repository's benchmark: Fig. 11/12 design points and recsys serving.

Run from the repository root:

    python3 perfbench/run.py --workload fig_sweep --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fig_sweep`` — one new Fig. 11/12 design point per item through
  ``repro.bench.figure11.sweep_grid``;
* ``recsys_infer`` — one inference batch per item through
  ``RecommenderModel.forward_tensordimm`` on a cycle-timed TensorNode;
* ``recsys_train`` — the same forward plus an ``embedding_backward``
  (UPDATE) per table.

Every measured process is a fresh ``worker.py`` with BLAS threads and
``REPRO_JOBS`` pinned to 1 and glibc's mmap threshold and numpy's huge-page
use fixed (see ``child_env``); one closed-loop client runs items one after
the other.

``--trace 0`` reports the end-to-end metrics from four processes that run
the same inputs, each for a quarter of ``--seconds``; their simulated-stat
digests must agree.  Set-up time runs from process start to the end of the
warm-up items and is the median of the four; the item metrics are taken
over the items of all four.  Time metrics are reported at a reference host
speed: between items each process times a fixed probe that does not call
the program, and its times are scaled by ``REFERENCE_PROBE_S`` over its
median probe time.  On a shared host, other tenants' load slowed the
program by up to 1.6x for tens of seconds at a time, and the probe with
it; the scaling cut the spread between runs by half or more.  The unscaled
host-time metrics are printed and saved beside them.

``--trace 1`` runs the first items of the workload twice, untraced and
traced, and reports per-layer metrics in host time and the tracing
overhead at the reference host speed.  Full results and the spans go to
``perfbench/out/``.

The last line of stdout is the JSON result; the exit code is not 0 if any
process failed.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Processes per end-to-end run; each times set-up and then runs items for
#: an equal share of ``--seconds``.
RUNS = 4
#: The worker's host-speed probe time (its median over a process) on the
#: reference host, a 2-CPU x86 VM at 2.1 GHz.  Time metrics are reported
#: at this host speed.
REFERENCE_PROBE_S = 0.0032


def child_env():
    """The environment of every measured process: defaults, one thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "REPRO_JOBS"):
        env[var] = "1"
    # These two pins make allocation repeatable; they are not glibc's and
    # numpy's defaults.  glibc raises its mmap threshold after large frees,
    # so whether a TensorDIMM's multi-MiB store is cleared eagerly (reused
    # heap) or lazily (fresh pages) would depend on what ran before; with
    # the defaults, fig_sweep items took 1.8x as long and peaked at 1.1 GB
    # instead of 92 MB, while recsys_train items were about 10 % faster
    # (a tenth of the page faults).  Fixing the threshold at glibc's
    # initial value makes the cost and the RSS repeatable.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    # Whether numpy's large arrays get transparent huge pages depends on
    # the host's free memory; with them RSS changed by tens of MB per run.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline, **options):
    """Run one worker process; return its JSON result and its start time."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    for key, value in options.items():
        cmd += [f"--{key}", str(value)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker {options} ran past the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker {options} exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def merge(results):
    """Fold the workers' counts and checks into one result.

    The simulated-stat digest covers the items that every worker digested;
    the workers ran the same inputs, so their per-item digests must agree.
    """
    common = min(len(r["item_digests"]) for r in results)
    prefixes = {tuple(r["item_digests"][:common]) for r in results}
    merged = dict(results[0])
    merged["attempted"] = sum(r["attempted"] for r in results)
    merged["failed"] = sum(r["failed"] for r in results)
    merged["final_ok"] = all(r["final_ok"] for r in results)
    merged["digests_agree"] = common > 0 and len(prefixes) == 1
    merged["digest"] = hashlib.sha256(
        "".join(results[0]["item_digests"][:common]).encode()).hexdigest()[:16]
    merged["digest_items"] = common
    return merged


def host_scale(result):
    """REFERENCE_PROBE_S over the process's median probe time."""
    return REFERENCE_PROBE_S / statistics.median(result["probe_s"])


def time_metrics(results, setups, scales):
    """Set-up and item metrics over every item of every process.

    Each process's times are multiplied by its scale (1 for host time).
    """
    times = [t * k for r, k in zip(results, scales) for t in r["item_s"]]
    busy = sum(times)
    if not times or busy <= 0:
        raise ChildFailed("no item completed")
    return {
        "setup_s": statistics.median(s * k for s, k in zip(setups, scales)),
        "items_per_s": len(times) / busy,
        "item_ms_p50": statistics.median(times) * 1e3,
        "item_ms_p90": percentile(times, 90) * 1e3,
        "sim_mreq_per_s": sum(sum(r["retired"]) for r in results) / busy / 1e6,
    }


def end_to_end(args, deadline):
    setups, results = [], []
    for _ in range(RUNS):
        result, started = run_child(args, deadline, mode="measure",
                                    seconds=args.seconds / RUNS)
        setups.append(result["ready"] - started)
        results.append(result)
    scales = [host_scale(r) for r in results]
    metrics = time_metrics(results, setups, scales)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    merged = merge(results)
    merged["item_s"] = [r["item_s"] for r in results]
    info = {
        "setup_runs_s": setups,
        "host_scale": scales,
        "host_time_metrics": time_metrics(results, setups, [1.0] * RUNS),
    }
    return metrics, merged, info


def per_layer(args, deadline):
    # Untraced, then traced over exactly the items the untraced run did.
    plain, _ = run_child(args, deadline, mode="items", seconds=args.seconds)
    n = len(plain["item_s"])
    if n == 0:
        raise ChildFailed("no item completed")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    traced, _ = run_child(args, deadline, mode="items", items=n,
                          seconds=max(1.0, deadline - time.monotonic()),
                          trace=1, spans=spans)
    if len(traced["item_s"]) != n:
        raise ChildFailed(f"traced run did {len(traced['item_s'])} of {n} items")
    metrics = dict(traced["layers"])
    metrics["trace.items"] = n
    # Both processes' item times at the reference host speed.
    metrics["trace_overhead_frac"] = (
        sum(traced["item_s"]) * host_scale(traced)
        / (sum(plain["item_s"]) * host_scale(plain)) - 1.0
    )
    # Tracing must not change what the simulator computes.
    merged = merge([plain, traced])
    merged["digests_agree"] = (merged["digests_agree"]
                               and traced["trace_consistent"])
    merged["memo_hit_rate"] = traced["memo_hit_rate"]
    info = {
        "spans_file": str(spans.relative_to(ROOT)),
        "absent": traced["absent"],
        "trace_consistent": traced["trace_consistent"],
    }
    return metrics, merged, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 175.0
    load_before = os.getloadavg()
    try:
        if args.trace:
            metrics, result, info = per_layer(args, deadline)
        else:
            metrics, result, info = end_to_end(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    failed = result["failed"]
    attempted = result["attempted"]
    correct = failed == 0 and result["final_ok"] and result["digests_agree"]
    report = {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
        for m in SPEC["per_layer" if args.trace else "end_to_end"]
    }
    env = {
        "host_cpus": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "python": platform.python_version(),
        "numpy": result["numpy"],
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted if attempted else 1.0,
        "final_check": result["final_ok"], "digest": result["digest"],
        "digest_items": result["digest_items"],
        "digests_agree": result["digests_agree"],
        "memo_hit_rate": result["memo_hit_rate"], "env": env, **info,
        "metrics": report, "item_s": result["item_s"],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} items={attempted} failed={failed} "
          f"failed_frac={record['failed_frac']:.4f} final_check={result['final_ok']} "
          f"digest={result['digest']} over {result['digest_items']} items")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("memo hit rate: " + " ".join(
        f"{k}={'absent' if v is None else f'{v:.4f}'}"
        for k, v in result["memo_hit_rate"].items()))
    for name, entry in report.items():
        value = entry["value"]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {entry['unit']}")
    if "host_time_metrics" in info:
        print("host time, unscaled: " + " ".join(
            f"{k}={v:.6g}" for k, v in info["host_time_metrics"].items()))
    out_metrics = {
        name: ({"value": 0.0, "unit": e["unit"], "absent": True}
               if e["value"] is None else e)
        for name, e in report.items()
    }
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
