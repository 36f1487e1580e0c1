"""The benchmark's own smoke test, at tiny sizes:

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is printed with its
unit, that a corrupted record or a wrong chain is counted as a failure,
that no child process outlives a run, and that the benchmark refuses to
run without the ldlab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's ldlab on sys.path first
import workloads
from checkout import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    proc = bench("--workload", name, "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ") and len(line.split()) >= 4}
    for metric, unit in want.items():
        assert printed.get(metric) == unit, metric
    assert printed["error_rate"] == "ratio"


def corrupt_first_count(text: str) -> str:
    """Add one to the first histogram entry; the record stays valid JSON."""
    rec = json.loads(text)
    rec["histogram"][min(rec["histogram"], key=int)] += 1
    return json.dumps(rec, sort_keys=True) + "\n"


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 7])
def test_corrupted_record_raises_error_rate(monkeypatch, seed):
    wl = workloads.SPAN
    clean_job = workloads.CliWorkload.job
    calls = []

    def corrupted_job(self, inputs, workers, executor=None):
        out = clean_job(self, inputs, workers, executor)
        calls.append(workers)
        if len(calls) == 2:    # the second job of the run
            out.text = corrupt_first_count(out.text)
            out.items = [out.text]
        return out

    monkeypatch.setattr(workloads.CliWorkload, "job", corrupted_job)
    tally = run.Tally()
    run.measure(wl, wl.inputs(seed, "smoke"), 0, (1, 1), tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_wrong_chain_raises_error_rate(monkeypatch):
    chain_find = workloads.ld_chains.chain_find

    def padded_chain_find(S, c, q):
        chain = chain_find(S, c, q)   # repeating a member adds nothing fresh
        return workloads.ld_chains.Chain(chain.ell, chain.c, chain.translate_w,
                                         chain.members + chain.members[-1:])

    monkeypatch.setattr(workloads.ld_chains, "chain_find", padded_chain_find)
    wl = workloads.CHAINS
    inputs = wl.inputs(7, "smoke")
    tally = run.Tally()
    run.measure(wl, inputs, 0, (1, 1), tally)
    assert tally.attempted == 2 * len(inputs.sets)
    assert tally.failed > 0


@pytest.mark.parametrize("name", ["chains", "span-q3"])
def test_no_child_process_outlives_a_run(name):
    wl = workloads.WORKLOADS[name]
    tally = run.Tally()
    run.measure(wl, wl.inputs(7, "smoke"), 0, (1, 2), tally)
    assert tally.failed == 0
    assert run.child_pids() == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "chains", "--scale", "smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_patches_every_namespace_and_self_times_add_up():
    import ldlab.codes
    import ldlab.hamming
    import spans

    original = ldlab.hamming.ball_points
    wl = workloads.RATE_SWEEP
    inputs = wl.inputs(7, "smoke")
    tracer = spans.Tracer()
    with tracer:
        assert ldlab.codes.ball_points is ldlab.hamming.ball_points
        assert ldlab.codes.ball_points is not original
        wl.job(inputs, 1)
    assert ldlab.codes.ball_points is original
    assert ldlab.hamming.ball_points is original
    times = tracer.self_times()
    assert times["hamming.ball_points"][0] > 0
    assert all(self_s >= 0 for _, self_s in times.values())
    # Each job has one root span, cli.dispatch, so the self times of all
    # spans partition its busy time.
    (root,) = tracer.durations("cli.dispatch")
    assert sum(s for _, s in times.values()) == pytest.approx(root, rel=1e-9)
