"""Experiment runners: exact oracles, Monte Carlo sanity, worker invariance."""

from __future__ import annotations

import math
import os
from fractions import Fraction

import pytest

from ldlab import (
    BallSampleConfig,
    PairSumConfig,
    ParameterError,
    ResourceBudgetError,
    SpanTrialConfig,
    SweepConfig,
    check_ld_exact,
    exact_pair_sum_probability,
    format_code,
    pair_sum_count_closed_form,
    parse_code,
    radius_of,
    regenerate_sweep_code,
    run_ball_samples,
    run_pair_sum_experiment,
    run_rate_sweep,
    run_span_experiment,
)
from ldlab import experiments
from ldlab.experiments import (_chunk_ranges, _clamp_workers,
                               sweep_candidate_list_size, sweep_dimension)

import oracles


def test_exact_pair_sum_anchor():
    """Radius-1 balls in F_2^4: 13 of the 25 ball pairs sum back into the ball."""
    assert exact_pair_sum_probability(4, Fraction(1, 4), 2) == Fraction(13, 25)
    assert pair_sum_count_closed_form(4, 1, 2) == 13


def test_exact_pair_sum_budget_refusal():
    """volume^2 pair checks are refused up front when over 2^24."""
    # |B(0, 7)| in F_2^30 is 2,804,012, so about 7.9e12 pairs.
    with pytest.raises(ResourceBudgetError):
        exact_pair_sum_probability(30, Fraction(1, 4), 2)
    # |B(0, 6)| in F_2^14 is 6476: the volume fits, its square does not.
    with pytest.raises(ResourceBudgetError):
        exact_pair_sum_probability(14, Fraction(6, 14), 2)


@pytest.mark.parametrize("q", [2, 3])
def test_exact_pair_sum_matches_brute_enumeration(q):
    add, _ = oracles.prime_field_tables(q)
    for n in (3, 4, 5):
        for r in (1, 2):
            p = Fraction(r, n)
            zero = (0,) * n
            assert exact_pair_sum_probability(
                n, p, q
            ) == oracles.brute_pair_sum_probability(n, r, q, zero, add)
            center = tuple((i + 1) % q for i in range(n))
            center_payload = 0
            bits = (q - 1).bit_length()
            for i, d in enumerate(center):
                center_payload |= d << (i * bits)
            assert exact_pair_sum_probability(
                n, p, q, center_payload=center_payload
            ) == oracles.brute_pair_sum_probability(n, r, q, center, add)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_closed_form_counts_match_brute_enumeration(q):
    """The quadruple-sum closed form counts exactly the in-ball pair sums."""
    add, _ = oracles.prime_field_tables(q)
    for n in (2, 3, 4):
        for r in range(n + 1):
            hits, volume = oracles.brute_pair_hits(n, r, q, (0,) * n, add)
            assert pair_sum_count_closed_form(n, r, q) == hits
            assert exact_pair_sum_probability(n, Fraction(r, n), q) == Fraction(
                hits, volume**2
            )


def test_pair_sum_monte_carlo_tracks_exact_value():
    """The zero-center estimate lands within four standard errors of exact."""
    exact = float(exact_pair_sum_probability(6, Fraction(1, 3), 2))
    config = PairSumConfig(
        p=Fraction(1, 3), q=2, n_values=(6,), trials=20_000, seed=12345
    )
    summary = run_pair_sum_experiment(config)
    record = next(r for r in summary.records if r.center == "zero")
    se = math.sqrt(exact * (1 - exact) / config.trials)
    assert abs(record.estimate - exact) <= 4 * se


def test_pair_sum_summary_structure():
    config = PairSumConfig(
        p=Fraction(1, 5), q=2, n_values=(10, 20), trials=2_000, seed=7
    )
    summary = run_pair_sum_experiment(config)
    assert [(r.n, r.center) for r in summary.records] == [
        (10, "zero"),
        (10, "random"),
        (20, "zero"),
        (20, "random"),
    ]
    for record in summary.records:
        assert record.trials == 2_000
        assert record.estimate == record.hit_count / record.trials
        if record.hit_count:
            assert record.log2_estimate_per_n == pytest.approx(
                math.log2(record.estimate) / record.n
            )
    if summary.slope_zero is not None:
        assert summary.delta_p_zero == pytest.approx(-summary.slope_zero)


def test_pair_sum_single_n_has_no_slope():
    config = PairSumConfig(p=Fraction(1, 4), q=2, n_values=(8,), trials=500, seed=1)
    summary = run_pair_sum_experiment(config)
    assert summary.slope_zero is None
    assert summary.delta_p_zero is None
    assert summary.notes


def test_pair_sum_worker_invariance():
    config = PairSumConfig(
        p=Fraction(1, 4), q=3, n_values=(6, 9), trials=3_000, seed=99
    )
    serial = run_pair_sum_experiment(config, workers=1)
    parallel = run_pair_sum_experiment(config, workers=3)
    assert serial.as_record() == parallel.as_record()


def test_span_experiment_summary():
    config = SpanTrialConfig(
        n=16, p=Fraction(1, 4), q=2, ell=4, trials=200, seed=5, c_threshold=64
    )
    summary = run_span_experiment(config)
    assert sum(summary.histogram.values()) == config.trials
    assert summary.rank_check_failures == 0
    assert summary.tail_count == 0
    assert summary.tail_frequency == 0.0
    assert summary.radius == radius_of(config.p, config.n)
    assert summary.ell_squared_at_least_n is True
    assert all(count >= 1 for count in summary.histogram)
    record = summary.as_record()
    assert record["schema_version"] == 1
    assert record["kind"] == "span-summary"


def test_span_tail_counting_uses_the_threshold():
    """With C_threshold=1 the tail cut sits at ell, so counts above ell register."""
    config = SpanTrialConfig(
        n=16, p=Fraction(1, 4), q=2, ell=4, trials=200, seed=5, c_threshold=1
    )
    summary = run_span_experiment(config)
    expected_tail = sum(
        trials for count, trials in summary.histogram.items() if count > 4
    )
    assert summary.tail_count == expected_tail
    assert summary.tail_count > 0
    assert summary.tail_frequency == summary.tail_count / config.trials


def test_span_config_refuses_threshold_below_one():
    """Every span holds 0, which lies in the ball, so with C < 1 every trial
    would be a tail event; the config refuses it."""
    for c in (0, -1):
        with pytest.raises(ParameterError):
            SpanTrialConfig(n=16, p=Fraction(1, 4), q=2, ell=4, trials=10,
                            seed=5, c_threshold=c)


def test_span_flags_small_dimension():
    config = SpanTrialConfig(
        n=26, p=Fraction(1, 4), q=2, ell=5, trials=10, seed=5, c_threshold=64
    )
    assert run_span_experiment(config).ell_squared_at_least_n is False


def test_span_worker_invariance():
    config = SpanTrialConfig(
        n=20, p=Fraction(1, 4), q=3, ell=4, trials=400, seed=21, c_threshold=64
    )
    serial = run_span_experiment(config, workers=1)
    parallel = run_span_experiment(config, workers=4)
    assert serial.as_record() == parallel.as_record()


def test_span_budget_refusal():
    config = SpanTrialConfig(
        n=40, p=Fraction(1, 4), q=2, ell=30, trials=1, seed=0, c_threshold=64
    )
    with pytest.raises(ResourceBudgetError):
        run_span_experiment(config)


def sweep_config(**overrides):
    base = dict(
        n=14,
        q=2,
        p=Fraction(1, 5),
        eps_grid=(Fraction(1, 10), Fraction(3, 10)),
        codes_per_point=8,
        seed=12345,
        c_constant=1.0,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_points_follow_the_dimension_formula():
    config = sweep_config()
    summary = run_rate_sweep(config)
    assert len(summary.points) == 2
    good, degenerate = summary.points
    assert good.k == sweep_dimension(config, Fraction(1, 10)) == 2
    assert good.L_candidate == sweep_candidate_list_size(config, Fraction(1, 10)) == 10
    assert not good.degenerate
    assert len(good.l_max_values) == config.codes_per_point
    assert good.failures_at_code_size == 0
    assert good.failure_frequency == good.failure_count / config.codes_per_point
    assert degenerate.degenerate
    assert degenerate.k < 1
    assert degenerate.note is not None
    assert degenerate.l_max_values == ()


def test_sweep_codes_are_regenerable_and_round_trip():
    """Recorded L_max values reproduce from the per-code stream after file I/O."""
    config = sweep_config()
    summary = run_rate_sweep(config)
    point = summary.points[0]
    for code_index in range(config.codes_per_point):
        code = regenerate_sweep_code(config, 0, code_index)
        assert code.full_rank
        recovered = parse_code(format_code(code))
        verdict = check_ld_exact(recovered, config.p, point.L_candidate)
        assert verdict.L_max == point.l_max_values[code_index]


def test_sweep_candidate_list_size_scales_with_constant():
    config_small = sweep_config(c_constant=1.0)
    config_large = sweep_config(c_constant=4.0)
    eps = Fraction(1, 10)
    assert sweep_candidate_list_size(config_small, eps) == 10
    assert sweep_candidate_list_size(config_large, eps) == 40
    small = run_rate_sweep(config_small).points[0]
    large = run_rate_sweep(config_large).points[0]
    assert large.failure_count <= small.failure_count
    assert small.l_max_values == large.l_max_values


def test_sweep_rejects_nonpositive_eps_and_bad_constant(monkeypatch):
    """eps <= 0 and a constant that is not a finite number > 0 are refused
    before any code is drawn."""
    def no_work(*args, **kwargs):
        raise AssertionError("trials started")

    monkeypatch.setattr(experiments, "_run_trials", no_work)
    for overrides in (dict(eps_grid=(Fraction(1, 10), Fraction(0))),
                      dict(eps_grid=(Fraction(-1, 10),)),
                      dict(c_constant=0.0), dict(c_constant=-1.0),
                      dict(c_constant=math.nan), dict(c_constant=math.inf)):
        with pytest.raises(ParameterError):
            run_rate_sweep(sweep_config(**overrides))


def test_sweep_config_refuses_bad_grid_codes_and_constant():
    """The config itself refuses what would break the sweep or its readout,
    so a library caller gets a ParameterError at construction."""
    for overrides in (dict(eps_grid=()), dict(eps_grid=(Fraction(0),)),
                      dict(eps_grid=(Fraction(1, 10), Fraction(-1, 5))),
                      dict(codes_per_point=0),
                      dict(c_constant=0.0), dict(c_constant=-2.0),
                      dict(c_constant=math.nan), dict(c_constant=math.inf),
                      dict(c_constant=-math.inf)):
        with pytest.raises(ParameterError):
            sweep_config(**overrides)


def test_sweep_candidate_list_size_refuses_nonpositive_eps():
    config = sweep_config()
    for eps in (Fraction(0), Fraction(-1, 10)):
        with pytest.raises(ParameterError):
            sweep_candidate_list_size(config, eps)


def test_sweep_ternary_point():
    config = sweep_config(n=9, q=3, eps_grid=(Fraction(1, 10),), codes_per_point=6)
    point = run_rate_sweep(config).points[0]
    assert point.k == 2
    assert point.failures_at_code_size == 0
    assert len(point.l_max_values) == 6


def test_sweep_worker_invariance():
    config = sweep_config(codes_per_point=12)
    serial = run_rate_sweep(config, workers=1)
    parallel = run_rate_sweep(config, workers=4)
    assert serial.as_record() == parallel.as_record()


def test_ball_sample_batch_consistency():
    config = BallSampleConfig(q=2, n=12, p=Fraction(1, 4), count=300, seed=4)
    summary = run_ball_samples(config)
    assert len(summary.samples) == config.count
    recount: dict[int, int] = {}
    for text in summary.samples:
        w = sum(1 for ch in text if ch != "0")
        assert w <= summary.radius
        recount[w] = recount.get(w, 0) + 1
    assert recount == summary.weight_histogram
    parallel = run_ball_samples(config, workers=4)
    assert parallel.as_record() == summary.as_record()


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children forked during the test, with cpu_count at 2."""
    real_fork = os.fork
    pids = []

    def counting_fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(experiments.os, "fork", counting_fork)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_workers_are_clamped_to_cpu_count(monkeypatch):
    """A huge --workers never asks for more chunks (or processes) than cpus."""
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    assert _clamp_workers(10**9) == 2
    assert _clamp_workers(2) == 2
    assert _clamp_workers(0) == _clamp_workers(-5) == 1
    assert _chunk_ranges(1000, 10**9) == [(0, 500), (500, 1000)]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert _clamp_workers(8) == 1


def test_huge_workers_fork_one_child_on_two_cpus(forks):
    """The caller runs the first chunk, so 2 cpus mean at most 1 child."""
    config = BallSampleConfig(q=2, n=12, p=Fraction(1, 4), count=50, seed=4)
    serial = run_ball_samples(config, workers=1)
    assert forks == []
    assert run_ball_samples(config, workers=10**9) == serial
    assert len(forks) == 1
    assert_no_child_left()


def test_pair_sum_forks_once_per_run(forks):
    """Every (n, center) cell of a pair-sum run shares one set of workers."""
    config = PairSumConfig(
        p=Fraction(1, 4), q=2, n_values=(8, 12, 16), trials=300, seed=3
    )
    serial = run_pair_sum_experiment(config, workers=1)
    assert forks == []
    parallel = run_pair_sum_experiment(config, workers=2)
    assert len(forks) == 1
    assert parallel.as_record() == serial.as_record()


def trial_numbers(config, start, stop):
    return list(range(start, stop))


def child_raises(config, start, stop):
    """config is an exception type; only the forked chunk raises it."""
    if start:
        raise config(f"chunk from trial {start} refused")
    return trial_numbers(config, start, stop)


def child_exits(config, start, stop):
    if start:
        os._exit(1)
    return trial_numbers(config, start, stop)


def caller_raises(config, start, stop):
    """config is an exception; only the caller's own chunk raises it."""
    if not start:
        raise config
    return trial_numbers(config, start, stop)


@pytest.mark.parametrize("error", [ParameterError, ResourceBudgetError])
def test_child_exception_reaches_caller(forks, error):
    with pytest.raises(error) as excinfo:
        experiments._run_trials(child_raises, error, 10, 2)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == "chunk from trial 5 refused"
    assert_no_child_left()


def test_child_exiting_without_result_is_one_clear_error(forks):
    with pytest.raises(RuntimeError,
                       match=r"chunk 1 \(trials 5 to 9\) ended with exit "
                             r"status 1 and no result"):
        experiments._run_trials(child_exits, None, 10, 2)
    assert_no_child_left()


@pytest.mark.parametrize("error", [ParameterError("caller chunk refused"),
                                   KeyboardInterrupt()])
def test_caller_chunk_error_leaves_no_child(forks, error):
    with pytest.raises(type(error)):
        experiments._run_trials(caller_raises, error, 10, 2)
    assert len(forks) == 1
    assert_no_child_left()
