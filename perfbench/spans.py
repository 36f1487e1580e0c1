"""Span tracer for the traced benchmark run.

`Tracer` wraps the public functions of each ldlab module from outside
the package.  Each wrapper is installed in every `ldlab` namespace that
holds the original object (for example `ldlab.codes.ball_points` as well
as `ldlab.hamming.ball_points`), and removed again on exit.

A span is (name, parent span, start, busy time).  Spans are kept in
compact arrays in memory, and their parents come from a span stack, so
a span's self time is its busy time minus the busy time of its
children.  A generator (`ball_points`) gets one span whose busy time is
the time spent inside its `next` calls, not the time it stays open.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

# (span name, module, attribute); "VecQ.__rmul__" names a method.
TARGETS = (
    ("gfq.payload_add", "ldlab.gfq", "payload_add"),
    ("gfq.payload_weight", "ldlab.gfq", "payload_weight"),
    ("gfq.payload_distance", "ldlab.gfq", "payload_distance"),
    ("gfq.scalar_mul", "ldlab.gfq", "VecQ.__rmul__"),
    ("gfq.rank_of", "ldlab.gfq", "rank_of"),
    ("seeding.derive_stream", "ldlab.seeding", "derive_stream"),
    ("hamming.sample_ball_uniform", "ldlab.hamming", "sample_ball_uniform"),
    ("hamming.ball_points", "ldlab.hamming", "ball_points"),
    ("codes.check_ld_exact", "ldlab.codes", "check_ld_exact"),
    ("codes.span_payloads", "ldlab.codes", "span_payloads"),
    ("codes.random_code", "ldlab.codes", "random_code"),
    ("chains.shatter_find", "ldlab.chains", "shatter_find"),
    ("chains.chain_find", "ldlab.chains", "chain_find"),
    ("chains.longest_chain_oracle", "ldlab.chains", "longest_chain_oracle"),
    ("experiments.runner", "ldlab.experiments", "run_span_experiment"),
    ("experiments.runner", "ldlab.experiments", "run_pair_sum_experiment"),
    ("experiments.runner", "ldlab.experiments", "run_rate_sweep"),
    ("cli.dispatch", "ldlab.cli", "dispatch"),
)
GENERATORS = {"hamming.ball_points"}

# Counters taken from return values: span name -> (counter, value of result).
OBSERVERS = {
    "codes.check_ld_exact": ("codes.check_ld_exact.centers_inspected",
                             lambda v: v.centers_inspected),
    "codes.span_payloads": ("codes.span_payloads.members", len),
    "chains.shatter_find": ("chains.shatter_find.found",
                            lambda w: w is not None),
}


class Tracer:
    """Context manager: installs the wrappers on entry, removes them on exit."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.busy = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- wrappers

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.busy.append(0.0)
        return idx

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        stack, starts, busy = self._stack, self.starts, self.busy
        open_span, clock = self._open, time.perf_counter
        counter, value_of = OBSERVERS.get(name, (None, None))
        counters = self.counters

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                busy[idx] = t1 - t0
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + value_of(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        name_id = self._name_id(name)
        stack, starts, busy = self._stack, self.starts, self.busy
        open_span, clock = self._open, time.perf_counter
        counters = self.counters
        counter = name + ".points"

        def traced(*args, **kwargs):
            idx = open_span(name_id)
            it = fn(*args, **kwargs)
            spent, count = 0.0, 0
            starts[idx] = clock()
            try:
                while True:
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        spent += clock() - t0
                        stack.pop()
                    count += 1
                    yield item
            finally:
                busy[idx] = spent
                counters[counter] = counters.get(counter, 0) + count

        return traced

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # ------------------------------------------------------ installation

    def __enter__(self) -> "Tracer":
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            wrapper = wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != "ldlab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- results

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        child = [0.0] * len(self.busy)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.busy[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_ids):
            calls[nid] += 1
            self_s[nid] += self.busy[i] - child[i]
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [b for i, b in zip(self.name_ids, self.busy) if i == nid]

    def calls_under(self, name: str, parent: str) -> int:
        """Calls of `name` whose parent span is a `parent` span."""
        if name not in self.names or parent not in self.names:
            return 0
        nid, pid = self.names.index(name), self.names.index(parent)
        return sum(1 for i, p in zip(self.name_ids, self.parents)
                   if i == nid and p >= 0 and self.name_ids[p] == pid)

    def write(self, path: Path) -> None:
        """Write the spans: `path` holds the layout, `path.bin` the arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{path}.bin", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.busy):
                arr.tofile(fh)
        meta = {"names": self.names, "spans": len(self.busy),
                "arrays": [["name_id", "H"], ["parent", "l"],
                           ["start_s", "d"], ["busy_s", "d"]],
                "counters": self.counters}
        path.write_text(json.dumps(meta, indent=1) + "\n")


# Per-layer metrics: name -> unit.  Span names that never ran read 0.
LAYER_METRICS = {}
for _span in ("gfq.payload_add", "gfq.payload_weight", "gfq.payload_distance",
              "gfq.scalar_mul", "gfq.rank_of", "seeding.derive_stream",
              "hamming.sample_ball_uniform"):
    LAYER_METRICS[f"{_span}.calls"] = "count"
    LAYER_METRICS[f"{_span}.self_s"] = "s"
LAYER_METRICS.update({
    "hamming.ball_points.points": "count",
    "hamming.ball_points.self_s": "s",
    "codes.check_ld_exact.calls": "count",
    "codes.check_ld_exact.self_s": "s",
    "codes.check_ld_exact.p50_ms": "ms",
    "codes.check_ld_exact.p90_ms": "ms",
    "codes.check_ld_exact.centers_inspected": "count",
    "codes.span_payloads.calls": "count",
    "codes.span_payloads.self_s": "s",
    "codes.span_payloads.members": "count",
    "codes.random_code.calls": "count",
    "codes.random_code.self_s": "s",
    "codes.random_code.accept_ratio": "ratio",
    "chains.shatter_find.calls": "count",
    "chains.shatter_find.self_s": "s",
    "chains.shatter_find.found_ratio": "ratio",
    "chains.chain_find.calls": "count",
    "chains.chain_find.self_s": "s",
    "chains.longest_chain_oracle.calls": "count",
    "chains.longest_chain_oracle.self_s": "s",
    "experiments.runner.self_s": "s",
    "experiments.units": "count",
    "cli.dispatch.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
})
# Per-layer metrics read straight from Tracer.counters.
COUNTERS = {"hamming.ball_points.points",
            "codes.check_ld_exact.centers_inspected",
            "codes.span_payloads.members"}
# Metrics that must read the same in every traced repetition of a seed.
COUNT_METRICS = {m for m, unit in LAYER_METRICS.items()
                 if unit in ("count", "ratio", "bytes")} - {"trace.overhead_frac"}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced job, except the run-level ones:
    `experiments.units`, `cli.output_bytes`, `trace.overhead_frac` and
    the check_ld_exact percentiles, which pool every traced job."""
    spans = tracer.self_times()
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s"):
            calls, self_s = spans.get(span, (0, 0.0))
            out[metric] = calls if kind == "calls" else self_s
        elif metric in COUNTERS:
            out[metric] = tracer.counters.get(metric, 0)
    attempts = tracer.calls_under("gfq.rank_of", "codes.random_code")
    out["codes.random_code.accept_ratio"] = (
        out["codes.random_code.calls"] / attempts if attempts else 0.0)
    finds = out["chains.shatter_find.calls"]
    out["chains.shatter_find.found_ratio"] = (
        tracer.counters.get("chains.shatter_find.found", 0) / finds
        if finds else 0.0)
    return out


def percentile_ms(durations: list[float], pct: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100,
                                method="inclusive")[pct - 1] * 1e3
