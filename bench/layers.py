"""Per-layer time, peak memory and output digests of ldlab on fixed inputs.

Run from the root of a checkout:

    python3 bench/layers.py [--repeats 5] [--layer {span,tally,chains,sampling,pair,runner}]

`CASES` is one table of rows, each tagged with its layer; `--layer` runs
one layer's rows, and without it every row runs.  A row is split into
parts, and one run of a part calls its function on all of the row's
inputs:

- span, (q, n, l, p, trials).  Trial t draws its l points of
  B(0, floor(p n)) as `span-exp` does at seed 12345.  Parts, as
  `codes.payload_span_in_ball` runs them: `gfq.span_count_block` of each
  trial's payloads (one member per projective class of the nonzero
  messages, (q^l - 1) / (q - 1) slots, printed as "slots", in one packed
  block; at q = 3 their supports, built on two bit planes);
  `gfq.block_in_balls` of that block at radius 0 (R_0: zeros = 1 +
  (q - 1) R_0 messages give 0, and q^l / zeros is the distinct count)
  and at the ball's radius (R_r: 1 + (q - 1) R_r messages, divided by
  zeros); the rank check, `len(gfq.echelon(...))`;
  `payload_span_in_ball` as the trial job of `experiments._span_job`
  calls it; and that job itself over the row's trials, the whole trial
  with its sampling.  Checked: every block has (q^l - 1) / (q - 1)
  slots, `payload_span_in_ball` and the trial count what the parts
  count, q^l / zeros is q^rank, and no trial fails its rank check.
  Digest: each trial's "size count" line.
- tally, (q, n, k, r).  One full-rank code, random_code(n, k, q, True,
  Random(1000 q + n)), tallied by `codes._coset_tally(code, r)`, the walk
  behind `check_ld_exact`'s default mode.  Digest: the sorted tally.
- chains, (q, l, c).  40 subsets of F_q^l drawn at seed 11, of sizes
  spread over 1 .. min(q^l, 256).  Parts: `shatter_find`, `chain_find`,
  `longest_chain_oracle` on each set moved by its chain's translate (as
  the benchmark's chains workload does) and, where q^l <= 256,
  `oracle_best_translate`.  Digest: the witness and chain texts, the
  oracle values and the best translates.
- sampling, (function, params).  2000 calls from Random(11) of the
  library function (ldlab) and of its plain `randrange`/`sample` form
  kept in tests/oracles.py (stdlib).  Each side has a digest of its
  outputs as digit strings; they are equal when the library draws the
  same stream, and the exit status is 1 when a row's two differ.
- pair, (q, n, p).  `experiments.exact_pair_sum_probability` at one
  center of each weight w = 0 .. n, the first w digits 1.  Digest: the
  n + 1 probabilities as "a/b" lines.
- runner, (shape, ...).  One run of `experiments._run_trials` at
  --workers 2 (fewer on fewer cores) per call, under three fork floors:
  0, so that every chunk is forked before the first job (forked);
  infinite, so that the caller runs every job (serial); and
  `experiments.FORK_FLOOR_S` (lazy), with the runs that forked counted
  over the part's repeats and its traced run.  Shapes: ("spin", jobs,
  ms), `jobs` jobs of one cell that each spin for ms / jobs
  milliseconds.  Ten jobs find the floor: where forked first beats
  serial as ms grows, half that ms is the floor FORK_FLOOR_S should be.
  Two and four jobs of 100 ms show what lazy forking costs a run of a
  few long jobs against forked.  ("rate-sweep-q2",) and ("span-q3",)
  run one --workers 2 job of that perfbench workload
  (perfbench/workloads.py) at its full scale and pinned seed, through
  the CLI.  Checked: the three floors give the same output.  Digest: the
  record as the CLI writes it with --json, which for the workloads is
  the digest perfbench pins.

Each row prints one JSON object: the layer, the row's identifying fields,
the calls (or trials) per run of a part and the repeats; for each part
the median and minimum microseconds per call over the timed runs, and the
peak memory of one more, traced run above what was live before it
(tracemalloc, so Python objects and not the allocator's slack); then the
row's counts and SHA-256 digests, whose texts are those recorded in
BENCH_11, 12, 13 and 18 (the (9, 20, 5) span row's in BENCH_28, the pair
digest in tests/test_bench.py, the runner workloads' in
perfbench/workloads.py).
The runner rows read the module constant `experiments.FORK_FLOOR_S`; a
checkout without it has no runner layer.
The span parts call `span_count_block(field, n, payloads)` and
`payload_span_in_ball`; a checkout older than them, or lacking any name
imported here, needs an edited copy of this file (before them, the
counted block held all q^l members, first `codes._span_block`'s over the
field itself, then `span_count_block`'s).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from ldlab.chains import (chain_find, format_chain,  # noqa: E402
                          format_witness, longest_chain_oracle,
                          oracle_best_translate, shatter_find)
from ldlab.codes import (_coset_tally, payload_span_in_ball,  # noqa: E402
                         random_code)
from ldlab import experiments  # noqa: E402
from ldlab.experiments import (SpanTrialConfig, _run_trials,  # noqa: E402
                               _span_job, exact_pair_sum_probability)
from ldlab.gfq import (VecQ, block_in_balls, echelon,  # noqa: E402
                       field_new, rank_of, span_count_block)
from ldlab.hamming import (BallSpec, sample_ball_uniform,  # noqa: E402
                           uniform_payload)
from ldlab.seeding import derive_stream  # noqa: E402

SPAN_SEED = 12345
CHAINS_SETS, CHAINS_SEED, TRANSLATE_LIMIT = 40, 11, 256
SAMPLING_CALLS, SAMPLING_SEED = 2000, 11


class Case(NamedTuple):
    layer: str
    params: tuple
    max_repeats: int | None = None   # a cap on --repeats for a slow row


CASES = (
    # (q, n, l, p, trials).  (3, 32, 6) is the span-q3 trial; the q = 2,
    # n = 8, l = 10 row has rank below l, so its spans hold duplicates;
    # (5, 20, 8) is the 390,625-member memory row; (9, 20, 5) has 80-bit
    # slots, wider than a machine word; every row from 4096 members up
    # fills one or more slices of gfq._BATCH = 4096 slots.
    *(Case("span", params) for params in (
        (2, 64, 12, "1/4", 4), (2, 8, 10, "1/4", 10), (3, 32, 6, "1/4", 40),
        (3, 20, 9, "1/5", 4), (5, 20, 6, "1/4", 4), (5, 20, 8, "1/4", 1),
        (9, 12, 4, "1/4", 4), (9, 20, 5, "1/4", 2), (16, 10, 3, "1/5", 10))),
    # (q, n, k, r).  The binary n = 40 row is the rate-sweep regime near
    # capacity; the n = 24 row lies far above capacity (2^12 cosets).
    Case("tally", (2, 18, 5, 3)), Case("tally", (2, 30, 10, 5)),
    Case("tally", (2, 40, 10, 6), max_repeats=3),
    *(Case("tally", params) for params in (
        (3, 16, 5, 2), (9, 8, 2, 2), (2, 24, 12, 8), (3, 20, 6, 4),
        (5, 14, 4, 3))),
    # (q, l, c)
    *(Case("chains", (q, ell, c))
      for q, ell in ((2, 6), (3, 3), (2, 10), (4, 4), (7, 3), (16, 3))
      for c in (1, 2, 3) if c <= ell),
    # The cells of the pair-sum-q2 workload and the span-q3 ball, then the
    # rate-sweep-q2 code shapes.
    *(Case("sampling", ("sample_ball_uniform", {"q": q, "n": n, "p": p}))
      for q, n, p in ((2, 20, "1/10"), (2, 40, "1/10"), (2, 80, "1/10"),
                      (3, 32, "1/4"))),
    *(Case("sampling", ("uniform_payload", {"q": 2, "n": n}))
      for n in (20, 40, 80)),
    *(Case("sampling", ("random_code", {"q": 2, "n": 18, "k": k}))
      for k in (5, 4, 2)),
    # (q, n, p), small enough for a brute pair count.
    Case("pair", (2, 12, "1/4")), Case("pair", (3, 8, "1/4")),
    # (jobs, ms).  Ten jobs sharing a total around the crossover of forked
    # and serial, then a few long jobs; then the two workloads on either
    # side of the floor.
    *(Case("runner", ("spin", 10, ms))
      for ms in (1, 2, 4, 6, 8, 10, 12, 16, 32)),
    *(Case("runner", ("spin", jobs, 100 * jobs), max_repeats=5)
      for jobs in (2, 4)),
    Case("runner", ("rate-sweep-q2",)), Case("runner", ("span-q3",)),
)


class Row(NamedTuple):
    key: dict                       # the row's identifying fields
    calls: int                      # calls (or trials) in one run of a part
    parts: dict[str, Callable[[], object]]
    finish: Callable[[dict], dict]  # part outputs -> checked counts, digests


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def span_row(q: int, n: int, ell: int, p: str, trials: int) -> Row:
    field = field_new(q)
    spec = BallSpec.from_p(q, n, Fraction(p))
    points = []
    for t in range(trials):
        rng = derive_stream(SPAN_SEED, "span", t)
        points.append([sample_ball_uniform(spec, rng) for _ in range(ell)])
    payloads = [[v.payload for v in vecs] for vecs in points]
    blocks = [span_count_block(field, n, rows) for rows in payloads]
    job = _span_job(SpanTrialConfig(n, Fraction(p), q, ell, trials, SPAN_SEED),
                    spec)

    def in_ball(radius: int) -> list[int]:
        return [block_in_balls(*counted, (radius,))[0] for counted in blocks]

    def finish(out: dict) -> dict:
        pairs = []
        slots = {counted[-1] for counted in out["span"]}
        assert slots == {(q ** ell - 1) // (q - 1)}
        for at_zero, at_radius, rank, both in zip(
                out["zeros"], out["count"], out["rank"], out["span_in_ball"]):
            zeros = 1 + (q - 1) * at_zero
            assert q ** ell // zeros == q ** rank
            pairs.append((q ** rank, (1 + (q - 1) * at_radius) // zeros))
            assert both == pairs[-1]
        assert out["trial"] == [(count, False) for _, count in pairs]
        return {"members": q ** ell, "slots": slots.pop(), "sha256": sha256(
            "".join(f"{size} {count}\n" for size, count in pairs))}

    return Row({"q_n_l_p": [q, n, ell, p]}, trials, {
        "span": lambda: [span_count_block(field, n, rows)
                         for rows in payloads],
        "zeros": lambda: in_ball(0),
        "count": lambda: in_ball(spec.radius),
        "rank": lambda: [len(echelon(field, rows)) for rows in payloads],
        "span_in_ball": lambda: [
            payload_span_in_ball(field, n, rows, spec.radius)
            for rows in payloads],
        "trial": lambda: [job(0, t) for t in range(trials)]}, finish)


def tally_row(q: int, n: int, k: int, r: int) -> Row:
    code = random_code(n, k, q, True, random.Random(1000 * q + n))

    def finish(out: dict) -> dict:
        tally = out["tally"]
        return {"cosets": len(tally), "points": sum(tally.values()),
                "sha256": sha256("".join(f"{label} {count}\n" for label, count
                                         in sorted(tally.items())))}

    return Row({"q_n_k_r": [q, n, k, r]}, 1,
               {"tally": lambda: _coset_tally(code, r)}, finish)


def chains_row(q: int, ell: int, c: int) -> Row:
    field = field_new(q)
    size = q ** ell
    rng = random.Random(f"{CHAINS_SEED}-{q}-{ell}")
    top = min(size, 256)
    sets = []
    for i in range(CHAINS_SETS):
        picks = rng.sample(range(size), 1 + i * top // CHAINS_SETS)
        sets.append([VecQ.from_digits(field, [x // q ** j % q for j in range(ell)])
                     for x in picks])
    moved = [[v + chain_find(S, c, q).translate_w for v in S] for S in sets]
    parts = {"shatter_find": lambda: [shatter_find(S, c) for S in sets],
             "chain_find": lambda: [chain_find(S, c, q) for S in sets],
             "longest_chain_oracle": lambda: [longest_chain_oracle(T, c)
                                              for T in moved]}
    if size <= TRANSLATE_LIMIT:
        parts["oracle_best_translate"] = lambda: [oracle_best_translate(S, c)
                                                  for S in sets]

    def finish(out: dict) -> dict:
        texts = ["-" if w is None else format_witness(w)
                 for w in out["shatter_find"]]
        texts += map(format_chain, out["chain_find"])
        texts += map(str, out["longest_chain_oracle"])
        texts += ["%d %s" % best for best in out.get("oracle_best_translate", ())]
        return {"sha256": sha256("\n".join(texts))}

    return Row({"q": q, "ell": ell, "c": c}, CHAINS_SETS, parts, finish)


def stdlib_random_code(n: int, k: int, q: int, rng: random.Random):
    """random_code(n, k, q, True, rng) with randrange(q) digit draws."""
    field = field_new(q)
    while True:
        rows = tuple(VecQ.from_digits(field, oracles.stdlib_uniform_digits(q, n, rng))
                     for _ in range(k))
        if rank_of(rows) == k:
            return rows


def _digit_text(out) -> str:
    """A vector or a digit tuple as a digit string; a tuple of vectors
    as their strings joined by '|'."""
    if isinstance(out, VecQ):
        out = out.digits()
    elif isinstance(out[0], VecQ):
        return "|".join(map(_digit_text, out))
    return "".join(map(str, out))


def sampling_row(function: str, params: dict) -> Row:
    q, n = params["q"], params["n"]
    if function == "sample_ball_uniform":
        spec = BallSpec.from_p(q, n, params["p"])
        stdlib = lambda rng: oracles.stdlib_ball_digits(n, spec.radius, q, rng)
        ldlab = lambda rng: sample_ball_uniform(spec, rng)
    elif function == "uniform_payload":
        field = field_new(q)
        stdlib = lambda rng: oracles.stdlib_uniform_digits(q, n, rng)
        ldlab = lambda rng: VecQ(field, n, uniform_payload(field, n, rng))
    else:
        stdlib = lambda rng: stdlib_random_code(n, params["k"], q, rng)
        ldlab = lambda rng: random_code(n, params["k"], q, True, rng).generator

    def draws(fn: Callable) -> Callable[[], list]:
        def run() -> list:
            rng = random.Random(SAMPLING_SEED)
            return [fn(rng) for _ in range(SAMPLING_CALLS)]
        return run

    def finish(out: dict) -> dict:
        digests = {f"{side}_sha256": sha256("\n".join(map(_digit_text, out[side])))
                   for side in ("stdlib", "ldlab")}
        return {**digests,
                "equal": digests["stdlib_sha256"] == digests["ldlab_sha256"]}

    return Row({"function": function, **params}, SAMPLING_CALLS,
               {"stdlib": draws(stdlib), "ldlab": draws(ldlab)}, finish)


def pair_row(q: int, n: int, p: str) -> Row:
    b = field_new(q).bits_per_digit
    centers = [sum(1 << i * b for i in range(w)) for w in range(n + 1)]

    def finish(out: dict) -> dict:
        return {"sha256": sha256("".join(f"{x}\n" for x in out["pair"]))}

    return Row({"q_n_p": [q, n, p]}, n + 1, {
        "pair": lambda: [exact_pair_sum_probability(n, Fraction(p), q, x)
                         for x in centers]}, finish)


def spin_job(ms: float) -> Callable[[int, int], int]:
    """A job that keeps the CPU busy for `ms` milliseconds, then gives t."""
    def job(cell: int, t: int) -> int:
        end = time.perf_counter() + ms / 1000
        while time.perf_counter() < end:
            pass
        return t

    return job


def runner_row(shape: str, *params) -> Row:
    if shape == "spin":
        jobs, ms = params
        job = spin_job(ms / jobs)
        run = lambda: _run_trials(job, 1, jobs, 2)
    else:
        workload = workloads.WORKLOADS[shape]
        inputs = workload.inputs(workloads.DEFAULT_SEED, "full")
        run = lambda: workload.job(inputs, 2).text
    forks = Counter()

    def under(floor: float, name: str) -> Callable[[], object]:
        """`run` with the fork floor set to `floor`, its forks counted."""
        def part():
            saved = experiments.FORK_FLOOR_S, experiments._fork_chunk

            def fork_chunk(*args):
                forks[name] += 1
                return saved[1](*args)

            experiments.FORK_FLOOR_S, experiments._fork_chunk = floor, fork_chunk
            try:
                return run()
            finally:
                experiments.FORK_FLOOR_S, experiments._fork_chunk = saved

        return part

    def finish(out: dict) -> dict:
        assert out["forked"] == out["serial"] == out["lazy"]
        text = json.dumps(out["lazy"]) if shape == "spin" else out["lazy"]
        return {"floor_s": experiments.FORK_FLOOR_S,
                "lazy_forks": forks["lazy"], "sha256": sha256(text)}

    return Row({"shape": [shape, *params]}, 1, {
        "forked": under(0, "forked"), "serial": under(float("inf"), "serial"),
        "lazy": under(experiments.FORK_FLOOR_S, "lazy")}, finish)


BUILDERS = {"span": span_row, "tally": tally_row, "chains": chains_row,
            "sampling": sampling_row, "pair": pair_row, "runner": runner_row}


def time_part(run: Callable[[], object], repeats: int) -> tuple[float, float]:
    """Median and minimum seconds of `repeats` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), min(times)


def traced_part(run: Callable[[], object]) -> tuple[object, int]:
    """One run's output and its peak traced bytes above what was live."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def measure(case: Case, repeats: int) -> dict:
    """The printed row of one case."""
    row = BUILDERS[case.layer](*case.params)
    repeats = min(repeats, case.max_repeats or repeats)
    result = {"layer": case.layer, **row.key, "calls": row.calls,
              "repeats": repeats}
    outputs = {}
    for name, run in row.parts.items():
        median, least = time_part(run, repeats)
        outputs[name], peak = traced_part(run)
        result[f"{name}_us"] = round(median / row.calls * 1e6, 3)
        result[f"{name}_min_us"] = round(least / row.calls * 1e6, 3)
        result[f"{name}_peak_mb"] = round(peak / 2 ** 20, 3)
    return {**result, **row.finish(outputs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--layer", choices=BUILDERS,
                        help="run only this layer's rows")
    args = parser.parse_args()
    status = 0
    for case in CASES:
        if args.layer in (None, case.layer):
            result = measure(case, args.repeats)
            print(json.dumps(result), flush=True)
            if not result.get("equal", True):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
