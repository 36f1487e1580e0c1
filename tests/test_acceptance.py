"""Acceptance gate: ten timed criteria, one printed pass/fail line each.

Every stochastic criterion runs on the documented seed 12345.  Asymptotic
probability bounds are out of reach at these sizes, so the gate rests on
exact oracles, exhaustive small-instance sweeps, and monotone-decay checks.
Criterion 10 re-runs every stochastic criterion with --workers 4 and demands
byte-identical result records.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from scipy.stats import chisquare

from ldlab import (
    BallSampleConfig,
    PairSumConfig,
    SpanTrialConfig,
    SweepConfig,
    all_vectors,
    ball_volume,
    ball_weight_class_sizes,
    chain_find,
    chain_length_bound,
    check_ld_exact,
    exact_pair_sum_probability,
    field_new,
    format_code,
    longest_chain_oracle,
    pair_sum_count_closed_form,
    parse_code,
    random_code,
    regenerate_sweep_code,
    run_ball_samples,
    run_pair_sum_experiment,
    run_rate_sweep,
    run_span_experiment,
    shatter_find,
    shatter_threshold,
    shatter_verify,
)

import oracles
from conftest import set_time_limit

SEED = 12345

# Configs shared between a stochastic criterion and the determinism re-run.
BALL_SAMPLE_CONFIG = BallSampleConfig(
    q=2, n=16, p=Fraction(1, 4), count=100_000, seed=SEED
)
PAIR_ANCHOR_CONFIG = PairSumConfig(
    p=Fraction(1, 4), q=2, n_values=(4,), trials=100_000, seed=SEED
)
PAIR_DECAY_CONFIG = PairSumConfig(
    p=Fraction(1, 10), q=2, n_values=(20, 40, 80), trials=10_000, seed=SEED
)
SPAN_CONFIG = SpanTrialConfig(
    n=64, p=Fraction(1, 4), q=2, ell=8, trials=10_000, seed=SEED, c_threshold=64
)
SWEEP_CONFIG = SweepConfig(
    n=14,
    q=2,
    p=Fraction(1, 5),
    eps_grid=(Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)),
    codes_per_point=200,
    seed=SEED,
)
SWEEP_CONFIG_TERNARY = SweepConfig(
    n=9, q=3, p=Fraction(1, 5), eps_grid=(Fraction(1, 10),), codes_per_point=200,
    seed=SEED,
)

STOCHASTIC_RUNNERS = {
    "ball-samples": (run_ball_samples, BALL_SAMPLE_CONFIG),
    "pair-sum-anchor": (run_pair_sum_experiment, PAIR_ANCHOR_CONFIG),
    "pair-sum-decay": (run_pair_sum_experiment, PAIR_DECAY_CONFIG),
    "span": (run_span_experiment, SPAN_CONFIG),
    "rate-sweep": (run_rate_sweep, SWEEP_CONFIG),
    "rate-sweep-ternary": (run_rate_sweep, SWEEP_CONFIG_TERNARY),
}

_baselines: dict[str, object] = {}


def record_of(summary) -> str:
    """Canonical JSON for a summary, with raw samples included when present."""
    record = summary.as_record()
    samples = getattr(summary, "samples", None)
    if samples is not None:
        record = {**record, "samples": list(samples)}
    return json.dumps(record, sort_keys=True)


def baseline(name: str):
    """Serial-run summary for a stochastic config, computed once per session."""
    if name not in _baselines:
        runner, config = STOCHASTIC_RUNNERS[name]
        _baselines[name] = runner(config, workers=1)
    return _baselines[name]


class gate:
    """Times a criterion body and prints its pass/fail line uncaptured.

    The test's time limit (see conftest) becomes the budget, counted from
    the start of the body, so a body that never ends fails at its budget.
    """

    def __init__(self, capsys, number: int, description: str, budget: float):
        self.capsys = capsys
        self.number = number
        self.description = description
        self.budget = budget

    def __enter__(self):
        set_time_limit(self.budget)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        with self.capsys.disabled():
            print(
                f"[{status}] criterion {self.number:2d}: {self.description}"
                f" ({elapsed:.1f}s / budget {self.budget:.0f}s)"
            )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget:.0f}s budget"
            )
        return False


def test_criterion_01_field_axioms(capsys):
    with gate(capsys, 1, "field axioms for all ten prime powers", 5.0):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            f = field_new(q)
            for a in range(q):
                assert f.add(a, 0) == a and f.mul(a, 1) == a
                assert f.add(a, f.neg(a)) == 0
                if a:
                    assert f.mul(a, f.inv(a)) == 1
                for b in range(q):
                    assert f.add(a, b) == f.add(b, a)
                    assert f.mul(a, b) == f.mul(b, a)
                    for c in range(q):
                        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                        assert f.mul(a, f.add(b, c)) == f.add(
                            f.mul(a, b), f.mul(a, c)
                        )


def test_criterion_02_ball_volumes(capsys):
    with gate(capsys, 2, "ball volumes equal brute-force counts", 30.0):
        for q in (2, 3):
            for n in range(1, 11):
                histogram = oracles.brute_weight_histogram(n, q)
                running = 0
                for r in range(n + 1):
                    running += histogram[r]
                    assert ball_volume(n, r, q) == running
                assert ball_volume(n, n, q) == q**n
        for q in (4, 5, 16):
            for n in range(1, 9):
                assert ball_volume(n, n, q) == q**n


def test_criterion_03_uniform_ball_sampling(capsys):
    with gate(capsys, 3, "ball sampling chi-square fit at (n=16, r=4)", 10.0):
        summary = baseline("ball-samples")
        assert summary.radius == 4
        sizes = ball_weight_class_sizes(16, 4, 2)
        volume = sum(sizes)
        observed = [summary.weight_histogram.get(w, 0) for w in range(5)]
        assert sum(observed) == BALL_SAMPLE_CONFIG.count
        expected = [BALL_SAMPLE_CONFIG.count * size / volume for size in sizes]
        result = chisquare(observed, expected)
        assert result.pvalue > 0.01


def test_criterion_04_shattering(capsys):
    def covering_map_valid(S, witness) -> bool:
        return oracles.valid_covering_map(
            [v.digits() for v in S], witness.U, witness.c, witness.q,
            {u: v.digits() for u, v in witness.covering_map.items()})

    with gate(capsys, 4, "everywhere-differing shattering, exhaustive + random", 120.0):
        space = list(all_vectors(field_new(2), 4))
        for mask in range(1, 1 << 16):
            S = [space[i] for i in range(16) if mask >> i & 1]
            for c in (1, 2):
                witness = shatter_find(S, c)
                if witness is None:
                    assert len(S) <= shatter_threshold(4, c, 2)
                else:
                    assert covering_map_valid(S, witness)
                    assert shatter_verify(S, witness.U, 2)
        rng = random.Random(SEED)
        for q in (3, 4):
            threshold = shatter_threshold(3, 2, q)
            pool = list(all_vectors(field_new(q), 3))
            for _ in range(1000):
                S = rng.sample(pool, rng.randrange(1, len(pool) + 1))
                witness = shatter_find(S, 2)
                if witness is None:
                    assert len(S) <= threshold
                else:
                    assert covering_map_valid(S, witness)
                    assert shatter_verify(S, witness.U, q)


def test_criterion_05_increasing_chains(capsys):
    with gate(capsys, 5, "increasing-chain bound, exhaustive + random", 300.0):
        space = list(all_vectors(field_new(2), 4))
        threshold = shatter_threshold(4, 2, 2)
        for mask in range(1, 1 << 16):
            S = [space[i] for i in range(16) if mask >> i & 1]
            chain = chain_find(S, 2, 2)
            assert chain.verify()
            if len(S) > threshold:
                assert chain.d >= math.ceil(chain_length_bound(len(S), 4, 2, 2))
            translated = [v + chain.translate_w for v in S]
            assert longest_chain_oracle(translated, 2) >= chain.d
        rng = random.Random(SEED)
        for q, ell in ((2, 5), (2, 6), (3, 3)):
            pool = list(all_vectors(field_new(q), ell))
            bound_threshold = shatter_threshold(ell, 2, q)
            for _ in range(1000):
                S = rng.sample(pool, rng.randrange(1, len(pool) + 1))
                chain = chain_find(S, 2, q)
                assert chain.verify()
                if len(S) > bound_threshold:
                    assert chain.d >= math.ceil(
                        chain_length_bound(len(S), ell, 2, q)
                    )
                translated = [v + chain.translate_w for v in S]
                assert longest_chain_oracle(translated, 2) >= chain.d


def test_criterion_06_pair_sum(capsys):
    with gate(capsys, 6, "pair-sum exact anchor, 3-SE fit, and decay", 60.0):
        exact = exact_pair_sum_probability(4, Fraction(1, 4), 2)
        assert exact == Fraction(13, 25)
        assert pair_sum_count_closed_form(4, 1, 2) == 13
        anchor = baseline("pair-sum-anchor")
        estimate = next(
            r.estimate for r in anchor.records if r.center == "zero"
        )
        se = math.sqrt(float(exact) * (1 - float(exact)) / PAIR_ANCHOR_CONFIG.trials)
        assert abs(estimate - float(exact)) <= 3 * se
        decay = baseline("pair-sum-decay")
        zero_series = [r.estimate for r in decay.records if r.center == "zero"]
        assert len(zero_series) == 3
        assert all(a > b for a, b in zip(zero_series, zero_series[1:]))
        random_series = [r.estimate for r in decay.records if r.center == "random"]
        assert all(a >= b for a, b in zip(random_series, random_series[1:]))


def test_criterion_07_span_experiment(capsys):
    with gate(capsys, 7, "span of 8 random ball points in F_2^64", 300.0):
        summary = baseline("span")
        assert summary.tail_count == 0
        assert sum(summary.histogram.values()) == SPAN_CONFIG.trials
        assert summary.rank_check_failures == 0


def test_criterion_08_list_decoding_anchors(capsys):
    with gate(capsys, 8, "exact list-decoding anchors and mode agreement", 120.0):
        repetition = parse_code("2 7 1\n1111111\n")
        assert check_ld_exact(repetition, Fraction(1, 5), 1).L_max == 1
        full_space = parse_code(
            "2 8 8\n" + "".join(
                "".join("1" if j == i else "0" for j in range(8)) + "\n"
                for i in range(8)
            )
        )
        verdict = check_ld_exact(full_space, Fraction(1, 4), 1)
        assert verdict.L_max == ball_volume(8, 2, 2) == 37
        rng = random.Random(SEED)
        for _ in range(50):
            n = rng.randrange(4, 13)
            k = rng.randrange(0, min(n, 5) + 1)
            code = random_code(n, k, 2, full_rank=False, rng=rng)
            p = Fraction(rng.randrange(1, 5), 10)
            full = check_ld_exact(code, p, 1, mode="full")
            syndrome = check_ld_exact(code, p, 1, mode="syndrome")
            assert full.L_max == syndrome.L_max
            assert full.witness_center == syndrome.witness_center


def test_criterion_09_rate_sweep(capsys):
    with gate(capsys, 9, "rate sweep with round-trip spot checks", 600.0):
        summary = baseline("rate-sweep")
        assert len(summary.points) == 3
        for point in summary.points:
            if point.degenerate:
                assert point.note
                continue
            assert point.failures_at_code_size == 0
            assert len(point.l_max_values) == 200
        grid_index = 0
        point = summary.points[grid_index]
        for code_index in range(0, 200, 20):
            code = regenerate_sweep_code(SWEEP_CONFIG, grid_index, code_index)
            round_tripped = parse_code(format_code(code))
            verdict = check_ld_exact(
                round_tripped, SWEEP_CONFIG.p, point.L_candidate
            )
            assert verdict.L_max == point.l_max_values[code_index]
        ternary_point = baseline("rate-sweep-ternary").points[0]
        assert not ternary_point.degenerate
        assert ternary_point.failures_at_code_size == 0


def test_criterion_10_determinism(capsys):
    with gate(capsys, 10, "stochastic re-runs with --workers 4 byte-identical", 900.0):
        for name, (runner, config) in STOCHASTIC_RUNNERS.items():
            serial = record_of(baseline(name))
            parallel = record_of(runner(config, workers=4))
            assert parallel == serial, f"worker-count drift in {name}"
