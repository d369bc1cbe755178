"""One measured process of the benchmark (started by ``run.py``).

Modes:

* ``measure`` — set up, then run items for ``--seconds`` seconds, and at
  least the workload's ``trace_items`` so that every process digests the
  same items;
* ``items`` — set up, then run the first ``--items`` items (at most
  ``--seconds`` seconds), with ``--trace 1`` recording layer spans.

In both modes a host-speed probe runs between items.
Prints one JSON object on its last stdout line.  ``run.py`` starts it with
BLAS threads and ``REPRO_JOBS`` pinned to 1 in its environment, so they are
set before numpy is imported.
"""

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

PROBE_EVERY_S = 0.25


def memo_counters():
    """Hits and misses of each memo level, or None for a level that is gone."""
    import repro.dram.memo as memo

    counters = {}
    for level, fn_name in (("instr", "instr_memo_stats"), ("trace", "timing_memo_stats")):
        fn = getattr(memo, fn_name, None)
        stats = fn() if fn is not None else None
        counters[level] = None if stats is None else (stats["hits"], stats["misses"])
    return counters


class SimTotals:
    """Per-item digests and simulated-time totals of the DRAM runs of the first items."""

    def __init__(self):
        from repro.dram.timing import DDR4_3200

        self.timing = DDR4_3200
        self.item_digests = []
        self.bytes = 0
        self.seconds = 0.0
        self.row_hits = 0
        self.accesses = 0

    def add(self, i, result, stats):
        fields = [tuple(getattr(s, f.name) for f in dataclasses.fields(s))
                  for s in stats]
        self.item_digests.append(
            hashlib.sha256(repr((i, result, fields)).encode()).hexdigest()[:16])
        for s in stats:
            self.bytes += s.total_bytes
            self.seconds += self.timing.cycles_to_seconds(s.finish_cycle)
            self.row_hits += s.row_hits
            self.accesses += s.accesses

    def summary(self):
        return {
            "item_digests": self.item_digests,
            "sim_gbps": self.bytes / self.seconds / 1e9 if self.seconds else 0.0,
            "row_hit_rate": self.row_hits / self.accesses if self.accesses else 0.0,
        }


def hit_rates(before, after):
    rates = {}
    for level in ("instr", "trace"):
        if before[level] is None or after[level] is None:
            rates[level] = None
            continue
        hits = after[level][0] - before[level][0]
        misses = after[level][1] - before[level][1]
        rates[level] = hits / (hits + misses) if hits + misses else 0.0
    return rates


def probe():
    """A fixed piece of interpreter work, timed.

    It never calls the program, so its time tracks only how fast the host
    runs this process at the moment: other tenants' load on a shared host
    slows it and the program's items alike.  Of the probes tried (this
    loop, small numpy operations, both), this one tracked the program best.
    """
    t0 = time.perf_counter()
    total = 0
    for k in range(50000):
        total += k * k % 7
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("measure", "items"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--items", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    ready = time.monotonic()

    tracer = None
    absent = []
    if args.trace:
        tracer = tracing.Tracer()
        absent = tracer.install()
    digest_items = args.items or workload.trace_items
    if args.mode == "items":
        def more(i, elapsed):
            return i < digest_items and elapsed < args.seconds
    else:
        def more(i, elapsed):
            return elapsed < args.seconds or i < digest_items
    sim = SimTotals()
    memo_before = memo_counters()
    times, retired, failed = [], [], 0
    # Host-speed probes, between items and outside their timed windows.
    probes = [probe()]
    start = next_probe = time.monotonic()
    i = 0
    while more(i, time.monotonic() - start):
        inputs = workload.next_input(i)
        if inputs is None:
            break  # every design point has been used once
        ok = False
        try:
            t0 = time.perf_counter()
            if tracer is None:
                out = workload.run(inputs)
            else:
                out = tracer.item(i, workload.run, inputs)
            times.append(time.perf_counter() - t0)
            retired.append(0)
            ok, item_result, stats = workload.check(inputs, out)
            retired[-1] = sum(s.accesses for s in stats)
            if i < digest_items:
                sim.add(i, item_result, stats)
        except Exception as exc:  # an item that raises counts as failed
            print(f"item {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        if not ok:
            failed += 1
        i += 1
        if time.monotonic() >= next_probe:
            probes.append(probe())
            next_probe = time.monotonic() + PROBE_EVERY_S
    memo_after = memo_counters()
    final_ok = workload.finish()

    result = {
        "ready": ready,
        "attempted": i,
        "failed": failed,
        "final_ok": bool(final_ok),
        "item_s": times,
        "probe_s": probes,
        "retired": retired,
        **sim.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "memo_hit_rate": hit_rates(memo_before, memo_after),
        "numpy": np.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer, absent)
        # Checked against the worker's own clock: every item's self time is
        # >= 0 and the traced item spans lie inside the timed windows.
        result["trace_consistent"] = bool(
            tracer.min_item_self() >= 0.0
            and layers["trace.item_wall_s"] <= sum(times) * (1 + 1e-9))
        layers["dram.controller.sim_gbps"] = result["sim_gbps"]
        layers["dram.controller.row_hit_rate"] = result["row_hit_rate"]
        layers["dram.memo.instr_hit_rate"] = result["memo_hit_rate"]["instr"]
        layers["dram.memo.trace_hit_rate"] = result["memo_hit_rate"]["trace"]
        result["layers"] = layers
        result["absent"] = absent
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
