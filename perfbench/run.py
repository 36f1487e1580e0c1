"""ldlab benchmark.  Run from the root of a checkout:

    python3 perfbench/run.py --workload span-q3 --seed 12345 --seconds 30 --trace 0

Workloads: span-q3, pair-sum-q2, rate-sweep-q2, chains (see workloads.py).

--trace 0 measures the end-to-end metrics with tracing off.  Rounds of
one job at --workers 1, one job at --workers 2 (clamped to the core
count), one set-up probe in a fresh interpreter and three runs of a
calibration loop repeat until --seconds have passed, so every metric
samples the whole run.

On a 2-vCPU VM shared with other tenants, the speed a process gets
halves for seconds at a time and drifts over minutes, which would swamp
any change worth measuring.  The calibration loop (`calibrate`) is fixed
pure-Python work that shares no code with ldlab, so its times track the
speed the machine gives the run.  Both sides are taken at their best, as
timeit advises: units_per_s and units_per_s_w2 are the fastest job rate
of the run times the run's fastest calibration time / CAL_REFERENCE_S,
that is units per second at the reference speed in the run's quietest
moments.  The unscaled rates are printed too.  setup_s and peak_rss_mb
are not scaled.

--trace 1 runs the same job at --workers 1 untraced and traced,
alternately, and reports the per-layer metrics; the spans of the last
traced job are written to .bench_out/.

Every job's output is checked; a failed or differing operation counts
in `failed`.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give each
metric with its unit, and the interpreter, core count and load average
at the start and end of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checkout import ROOT, require_ldlab

require_ldlab()

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_SETUP_PROBES = 5
# About the fastest time of calibrate() on a 2-vCPU Linux VM with Python
# 3.11.7; it only sets the scale of the rates.
CAL_REFERENCE_S = 0.011
TRACE_DIR = ROOT / ".bench_out"
E2E_UNITS = {"setup_s": "s", "units_per_s": "1/s", "units_per_s_w2": "1/s",
             "peak_rss_mb": "MB"}


class Tally:
    """Operations attempted and failed over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ops: int, failed: int, why: list[str]) -> None:
        self.attempted += ops
        self.failed += failed
        for line in why:
            print(f"perfbench: check failed: {line}", file=sys.stderr)


def timed_job(wl, inputs, workers: int, executor, ref, tally: Tally):
    """Run and check one job; returns (output or None, seconds).

    The output is compared with `ref`, an earlier output of the run; a
    job that raises counts all of its operations as failed.
    """
    t0 = time.perf_counter()
    try:
        out = wl.job(inputs, workers, executor)
    except Exception:
        traceback.print_exc()
        out = None
    elapsed = time.perf_counter() - t0
    if out is None:
        tally.add(inputs.ops, inputs.ops, ["job raised"])
    else:
        failed, why = workloads.failures(wl, inputs, out, ref or out)
        tally.add(inputs.ops, failed, why)
    return out, elapsed


def setup_seconds(name: str, seed: int, scale: str) -> float:
    """Start-to-ready time of a fresh interpreter running probe.py."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), scale]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            status = proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if line != b"ready\n" or status != 0:
        raise SystemExit(f"perfbench: set-up probe failed with status {status}")
    return elapsed


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def calibrate() -> float:
    """Seconds taken by fixed pure-Python work that shares no code with
    ldlab: integer arithmetic, dict updates and small objects."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        pair = _Pair((i * 2654435761) & 0xFFFFF, i)
        counts[pair.key] = counts.get(pair.key, 0) + 1
        acc ^= (pair.key * pair.value) % 65521
    return time.perf_counter() - t0


def measure(wl, inputs, seconds: float, workers: tuple[int, int],
            tally: Tally, probe=None):
    """Repeat rounds until `seconds` have passed.  A round is one job at
    each worker count with a calibration run before, between and after
    them and, if `probe` is given, one call of it.  Returns the per-job
    rates (units per second) for each count, the probe results and the
    calibration times."""
    rates: tuple[list[float], list[float]] = ([], [])
    probes: list[float] = []
    cals: list[float] = []
    ref = None
    with contextlib.ExitStack() as stack:
        executors = [stack.enter_context(wl.executor(inputs, w)) for w in workers]
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            cals.append(calibrate())
            for k, w in enumerate(workers):
                out, elapsed = timed_job(wl, inputs, w, executors[k], ref, tally)
                rates[k].append(inputs.units / elapsed)
                ref = ref or out
                cals.append(calibrate())
            if probe is not None:
                probes.append(probe())
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    while probe is not None and len(probes) < MIN_SETUP_PROBES:
        probes.append(probe())
    return rates, probes, cals


def measure_traced(wl, inputs, seconds: float, tally: Tally) -> dict[str, float]:
    """Alternate untraced and traced jobs at --workers 1 until `seconds`
    have passed; returns the per-layer metrics."""
    reps: list[dict[str, float]] = []
    overheads: list[float] = []
    check_durations: list[float] = []
    ref = tracer = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain, untraced = timed_job(wl, inputs, 1, None, ref, tally)
        ref = ref or plain
        tracer = spans.Tracer()
        with tracer:
            # Checked against the untraced job: tracing must not change output.
            out, traced = timed_job(wl, inputs, 1, None, plain, tally)
        overheads.append(traced / untraced - 1)
        rep = spans.layer_metrics(tracer)
        rep["experiments.units"] = inputs.units if inputs.argv else 0
        rep["cli.output_bytes"] = (len(out.text.encode())
                                   if inputs.argv and out else 0)
        reps.append(rep)
        check_durations += tracer.durations("codes.check_ld_exact")
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    tracer.write(TRACE_DIR / f"spans-{wl.name}.json")
    metrics = {}
    for name in spans.LAYER_METRICS:
        values = [rep.get(name, 0.0) for rep in reps]
        if name in spans.COUNT_METRICS and len(set(values)) > 1:
            tally.add(0, 1, [f"{name} differs between repetitions: {values}"])
        metrics[name] = statistics.median(values)
    metrics["codes.check_ld_exact.p50_ms"] = spans.percentile_ms(check_durations, 50)
    metrics["codes.check_ld_exact.p90_ms"] = spans.percentile_ms(check_durations, 90)
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    print(f"traced {len(reps)} repetitions; "
          f"{len(check_durations)} check_ld_exact calls in the percentiles")
    return metrics


def describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{len(values)} sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}, "
            f"range {min(values):.6g}..{max(values):.6g}")


def env_line(tag: str, workers: tuple[int, int]) -> None:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    print(f"env {tag}: python {platform.python_version()} "
          f"nproc {os.cpu_count()} workers {workers[0]},{workers[1]} "
          f"loadavg {load}")


def child_pids() -> list[int]:
    """Pids of this process's children, running or not yet reaped."""
    me = os.getpid()
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(stat.parent.name))
    return pids


def stop_children() -> list[int]:
    """Kill and reap every child still there; returns their pids.

    Every child the benchmark starts is waited for where it is started,
    so a pid returned here is a defect of the benchmark.  SIGKILL, since
    some children (multiprocessing's resource tracker) ignore SIGTERM.
    """
    pids = child_pids()
    for pid in pids:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
    for pid in pids:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    return pids


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="job size; smoke is for the benchmark's own test")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    workers = (1, max(1, min(2, os.cpu_count() or 1)))
    print(f"workload {wl.name} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}; one unit = one of {wl.unit}")
    env_line("start", workers)
    tally = Tally()
    inputs = wl.inputs(args.seed, args.scale)
    if args.trace:
        values = measure_traced(wl, inputs, args.seconds, tally)
        units = spans.LAYER_METRICS
    else:
        rates, setups, cals = measure(
            wl, inputs, args.seconds, workers, tally,
            lambda: setup_seconds(wl.name, args.seed, args.scale))
        scale = min(cals) / CAL_REFERENCE_S
        values = {"setup_s": statistics.median(setups),
                  "units_per_s": max(rates[0]) * scale,
                  "units_per_s_w2": max(rates[1]) * scale,
                  "peak_rss_mb": peak_rss_mb()}
        units = E2E_UNITS
        print(f"metric setup_s: {describe(setups)}")
        print(f"unscaled units_per_s: {describe(rates[0])}")
        print(f"unscaled units_per_s_w2: {describe(rates[1])}")
        print(f"calibration: {describe(cals)} s, scale {scale:.6g}")
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(f"metric error_rate {tally.failed / max(1, tally.attempted):.6g} "
          f"ratio ({tally.failed} of {tally.attempted} operations)")
    leftover = stop_children()
    tally.add(0, len(leftover), [f"child process {pid} outlived its job"
                                 for pid in leftover])
    env_line("end", workers)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
