"""Span tracing from outside the program, for the benchmark's traced runs.

The tracer wraps public functions of the simulator's layers with timing
code that lives here, not in ``src/``.  Each call made while a benchmark
item is open records one span ``(name, start, end, parent, item)`` in
memory; spans are written out only when the run ends.  A layer's self
time is its spans' durations minus the time their child spans cover.

Wrapping is by object, not by import path: a class method is replaced on
its class, and a module-level function is replaced in every loaded
``repro`` module that holds a reference to it, so callers that imported
the name directly are traced too.  A target that does not exist (the
program moved or deleted it) is skipped, and the metrics that depend on
it are reported as ``absent``.
"""

import functools
import importlib
import inspect
import json
import sys
import time

# (span layer, module, class or None, attribute names).  Without a class the
# names are suffixes: every public function of the module ending in one is
# wrapped (the trace builders, which the program may add or remove).
TARGETS = (
    ("dram.trace", "repro.dram.trace", None, ("_trace", "_buffer")),
    ("dram.system.enqueue", "repro.dram.system", "DramSystem", ("enqueue_trace",)),
    ("dram.system.run", "repro.dram.system", "DramSystem", ("run",)),
    ("dram.controller.drain", "repro.dram.controller", "MemoryController",
     ("run_to_completion",)),
    ("dram.memo.lookup", "repro.dram.memo", "TimingMemo", ("lookup",)),
    ("dram.memo.lookup", "repro.dram.memo", "InstructionMemo", ("lookup",)),
    ("dram.storage", "repro.dram.storage", "WordStorage",
     ("read_word", "write_word", "read_words", "read_range", "write_words",
      "write_scattered", "read_indices", "write_indices")),
    ("core.nmp_core.execute", "repro.core.nmp_core", "NmpCore", ("execute",)),
    ("core.nmp_core.describe", "repro.core.nmp_core", "NmpCore", ("describe",)),
    ("core.tensordimm.execute_timed", "repro.core.tensordimm", "TensorDimm",
     ("execute_timed", "execute_timed_batch")),
    ("core.tensornode.broadcast", "repro.core.tensornode", "TensorNode",
     ("broadcast", "broadcast_timed", "broadcast_timed_batch")),
    ("core.runtime.gather", "repro.core.runtime", "TensorDimmRuntime", ("gather",)),
    ("core.runtime.pool_mean", "repro.core.runtime", "TensorDimmRuntime",
     ("pool_mean",)),
    ("core.runtime.combine", "repro.core.runtime", "TensorDimmRuntime", ("combine",)),
    ("core.runtime.embedding_backward", "repro.core.runtime", "TensorDimmRuntime",
     ("embedding_backward",)),
    ("models.mlp", "repro.models.layers", "Mlp", ("forward",)),
)

#: Layers whose per-layer metric is a self time, as ``(layer, metric)``.
SELF_TIME_METRICS = (
    ("dram.trace", "dram.trace.self_s"),
    ("dram.system.enqueue", "dram.system.enqueue_s"),
    ("dram.system.run", "dram.system.run_s"),
    ("dram.controller.drain", "dram.controller.drain_s"),
    ("dram.memo.lookup", "dram.memo.lookup_s"),
    ("core.nmp_core.execute", "core.nmp_core.execute_s"),
    ("core.nmp_core.describe", "core.nmp_core.describe_s"),
    ("dram.storage", "dram.storage.self_s"),
    ("core.tensordimm.execute_timed", "core.tensordimm.execute_timed_s"),
    ("core.tensornode.broadcast", "core.tensornode.broadcast_s"),
    ("core.runtime.gather", "core.runtime.gather_s"),
    ("core.runtime.pool_mean", "core.runtime.pool_mean_s"),
    ("core.runtime.combine", "core.runtime.combine_s"),
    ("core.runtime.embedding_backward", "core.runtime.embedding_backward_s"),
    ("models.mlp", "models.mlp_s"),
)

ITEM = "item"


class Tracer:
    """Records spans for the calls made inside benchmark items."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id]
        self._stack = []
        self._item = None
        self.installed = set()  # layers with at least one wrapped target
        self.drained_req = 0
        self.pool_tasks = 0
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._item])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def item(self, item_id, fn, *args):
        """Run ``fn(*args)`` as benchmark item ``item_id`` inside an item span."""
        self._item = item_id
        self._open(ITEM)
        try:
            return fn(*args)
        finally:
            self._close()
            self._item = None

    def _wrap(self, layer, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is consumed; run it to the
            # end inside the span so the trace build is charged here.
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if tracer._item is None:
                    return fn(*args, **kwargs)
                tracer._open(layer)
                try:
                    records = list(fn(*args, **kwargs))
                finally:
                    tracer._close()
                return iter(records)

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._item is None:
                return fn(*args, **kwargs)
            tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if layer == "dram.controller.drain":
                tracer.drained_req += getattr(result, "accesses", 0)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target that exists; return the layers that are absent."""
        for layer, module_name, class_name, names in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if class_name is None:
                for name in _matching(module, names):
                    self._wrap_function(layer, module, name)
                continue
            cls = getattr(module, class_name, None)
            if cls is None:
                continue
            for name in names:
                original = cls.__dict__.get(name)
                if original is None or not callable(original):
                    continue
                setattr(cls, name, self._wrap(layer, original))
                self._undo.append((cls, name, original))
                self.installed.add(layer)
        self._count_pool_tasks()
        return sorted({t[0] for t in TARGETS} - self.installed)

    def _wrap_function(self, layer, module, name):
        original = getattr(module, name)
        traced = self._wrap(layer, original)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, original))
        self.installed.add(layer)

    def _count_pool_tasks(self):
        """Count tasks handed to any process pool (``Executor.map`` submits)."""
        from concurrent.futures import ProcessPoolExecutor

        tracer = self
        original = ProcessPoolExecutor.submit

        @functools.wraps(original)
        def submit(self, *args, **kwargs):
            tracer.pool_tasks += 1
            return original(self, *args, **kwargs)

        ProcessPoolExecutor.submit = submit
        self._undo.append((ProcessPoolExecutor, "submit", original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def self_times(self):
        """Per span name: (self seconds, span count)."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own, count = totals.get(name, (0.0, 0))
            totals[name] = (own + (end - start) - child_time[i], count + 1)
        return totals

    def item_wall(self):
        return sum(s[2] - s[1] for s in self.spans if s[0] == ITEM)

    def min_item_self(self):
        """The smallest self time of an item span (< 0 if children overlap)."""
        child_time = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == ITEM:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        return min(
            (s[2] - s[1] - child_time.get(i, 0.0)
             for i, s in enumerate(self.spans) if s[0] == ITEM),
            default=0.0,
        )

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for name, start, end, parent, item in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "item": item}
                ) + "\n")


def _matching(module, suffixes):
    """Public functions defined in ``module`` whose names end in a suffix."""
    return [
        name for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__ and name.endswith(suffixes)
    ]


def layer_metrics(tracer, absent):
    """The traced run's per-layer metrics; absent layers map to ``None``."""
    own = tracer.self_times()
    metrics = {}
    for layer, metric in SELF_TIME_METRICS:
        metrics[metric] = None if layer in absent else own.get(layer, (0.0, 0))[0]
    drain_s = metrics["dram.controller.drain_s"]
    if drain_s is None:
        metrics["dram.controller.drained_req"] = None
        metrics["dram.controller.ns_per_req"] = None
    else:
        metrics["dram.controller.drained_req"] = tracer.drained_req
        metrics["dram.controller.ns_per_req"] = (
            drain_s / tracer.drained_req * 1e9 if tracer.drained_req else 0.0
        )
    metrics["dram.memo.lookups"] = (
        None if "dram.memo.lookup" in absent
        else own.get("dram.memo.lookup", (0.0, 0))[1]
    )
    metrics["parallel.pool_tasks"] = tracer.pool_tasks
    wall = tracer.item_wall()
    layer_sum = sum(metrics[m] or 0.0 for _, m in SELF_TIME_METRICS)
    metrics["trace.item_wall_s"] = wall
    metrics["trace.unattributed_s"] = own.get(ITEM, (0.0, 0))[0]
    metrics["trace.layer_self_frac"] = layer_sum / wall if wall else 0.0
    return metrics
