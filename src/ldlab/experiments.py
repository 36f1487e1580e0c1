"""Monte Carlo experiments with exact small-case oracles.

Every stochastic runner is a grid of cells times a trial count (one
cell for span and ball samples, one per (n, center) for pair-sum, one
per live eps point for the rate sweep).  It builds its per-run state
once and hands `_run_trials` a job(cell, t) that closes over it.  A job
draws only from the stream derived from (seed, tag, its indices), so
results are identical for any worker count; summaries serialize to
stable records (exact rationals as "a/b" strings, sorted histograms).
Sizes are refused with `errors.check_budget` before the work starts: the
job count and a span's q^l (with `errors.check_power`) before any job, a
rate sweep's ball (with `hamming.check_ball_volume`) before any code is
drawn, and the pair-count terms of the exact and the closed-form count
before any sum or center.

Experiments:
- span: draw l uniform ball points, enumerate their span, count span
  members inside the ball around 0; tail = trials whose count exceeds
  C * l.
- pair-sum: estimate Pr[w1 + w2 in B(x, p)] for w1, w2 uniform in
  B(0, p), at x = 0 and at uniformly random x, across an n-grid, and
  fit the exponential decay rate; the exact probability, at any center,
  is a sum of Hamming-scheme intersection numbers.  A trial hits when
  d(w1 + w2, x) <= r.
- rate sweep: at rate 1 - H_q(p) - eps, sample full-rank codes and
  record exact L_max per code plus the failure frequency at candidate
  list size ceil(C / eps).
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import statistics
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .codes import (Code, check_generator_size, check_ld_exact,
                    histogram_record, random_code, span_in_ball)
from .errors import ParameterError, check_budget, check_power
from .gfq import field_new, payload_add, payload_distance, rank_of
from .hamming import (BallSpec, RadiusParam, as_fraction, ball_volume,
                      check_ball_volume, check_sample_budget, entropy_q,
                      intersection_number, radius_of, sample_ball_uniform,
                      uniform_payload)
from .seeding import derive_stream

SCHEMA_VERSION = 1


def _clamp_workers(workers: int) -> int:
    """Worker count limited to [1, os.cpu_count()]; results do not depend on it."""
    return max(1, min(workers, os.cpu_count() or 1))


def _chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Split range(total) into at most min(workers, cpus) contiguous chunks,
    the first total % chunks one item longer than the rest."""
    workers = max(1, min(_clamp_workers(workers), total))
    base, extra = divmod(total, workers)
    bounds = [i * base + min(i, extra) for i in range(workers + 1)]
    return list(zip(bounds, bounds[1:]))


def _run_trials(job: Callable[[int, int], object], cells: int, trials: int,
                workers: int) -> list[list]:
    """[[job(cell, t) for t in range(trials)] for cell in range(cells)].

    Jobs run in trial-major order, index t * cells + cell, in the
    contiguous chunks of _chunk_ranges, so every chunk mixes all cells
    evenly even when their costs differ.  The caller runs the first chunk
    and _fork_chunk each further one in a child, so --workers N starts
    at most N - 1 children, N clamped to the core count, and a one-chunk
    run forks nothing.  A child's exception is re-raised here with its
    type and message; a child that ends without a result raises
    RuntimeError.  No child outlives the call: on any exit, interrupts
    included, children not yet reaped are killed and reaped.  Fork copies
    only the calling thread, so callers must not hold locks in other
    threads.  A run of more than ENUMERATION_BUDGET jobs is refused
    before any job starts: it would hold one result per job.
    """
    total = cells * trials
    check_budget("trial jobs", total)

    def run(start: int, stop: int) -> list:
        return [job(i % cells, i // cells) for i in range(start, stop)]

    (start, stop), *rest = _chunk_ranges(total, workers)
    children = {}
    try:
        for index, chunk in enumerate(rest, 1):
            children[index] = _fork_chunk(run, *chunk)
        results = run(start, stop)
        for index, (start, stop) in enumerate(rest, 1):
            pid, pipe = children[index]
            with pipe:
                reply = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[index]
            if status != 0 or not reply:
                raise RuntimeError(
                    f"trial chunk {index} (trials {start // cells} to "
                    f"{(stop - 1) // cells}) ended with exit status {status} "
                    "and no result")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results.extend(value)
        return [results[cell::cells] for cell in range(cells)]
    finally:
        for pid, pipe in children.values():
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork_chunk(run, start: int, stop: int):
    """Fork a child for run(start, stop); returns (pid, read end of its pipe).

    The child writes pickle.dumps((True, results)) or, if the chunk
    raised, pickle.dumps((False, exception)), and always ends with
    os._exit: status 0 only once the whole reply is written.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                reply = (True, run(start, stop))
            except BaseException as exc:  # sent to the parent, which re-raises
                reply = (False, exc)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(reply))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _coerce(config, **values) -> None:
    """Store coerced field values on a frozen config (from __post_init__)."""
    for name, value in values.items():
        object.__setattr__(config, name, value)


# ---------------------------------------------------------------- span

@dataclass(frozen=True)
class SpanTrialConfig:
    """Span experiment: l ball points per trial, tail threshold C * l.

    C must be >= 1: every span holds 0, which lies in the ball, so with
    C < 1 every trial would count as a tail event.
    """

    n: int
    p: Fraction
    q: int
    ell: int
    trials: int
    seed: int
    c_threshold: int = 64

    def __post_init__(self):
        _coerce(self, p=as_fraction(self.p))
        if self.trials < 1:
            raise ParameterError(f"trials={self.trials} must be >= 1")
        if self.ell < 1:
            raise ParameterError(f"ell={self.ell} must be >= 1")
        if self.c_threshold < 1:
            raise ParameterError(
                f"c_threshold={self.c_threshold} must be >= 1")


@dataclass(frozen=True)
class SpanSummary:
    """Histogram of |span ∩ B(0, p)| over trials plus tail statistics."""

    config: SpanTrialConfig
    radius: int
    histogram: dict[int, int]
    tail_count: int
    tail_frequency: float
    rank_check_failures: int
    ell_squared_at_least_n: bool

    def as_record(self) -> dict:
        c = self.config
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "span-summary",
            "n": c.n, "p": str(c.p), "q": c.q, "ell": c.ell,
            "c_threshold": c.c_threshold, "trials": c.trials,
            "seed": c.seed, "radius": self.radius,
            "histogram": histogram_record(self.histogram),
            "tail_count": self.tail_count,
            "tail_frequency": self.tail_frequency,
            "rank_check_failures": self.rank_check_failures,
            "ell_squared_at_least_n": self.ell_squared_at_least_n,
        }


def _span_job(config: SpanTrialConfig,
              spec: BallSpec) -> Callable[[int, int], tuple[int, bool]]:
    """job(0, t) is trial t: (|span ∩ ball|, rank check failed), where the
    check compares the distinct count read off the span's block with
    q^rank from elimination."""
    def job(cell: int, t: int) -> tuple[int, bool]:
        rng = derive_stream(config.seed, "span", t)
        vecs = [sample_ball_uniform(spec, rng) for _ in range(config.ell)]
        size, count = span_in_ball(vecs, spec.radius)
        return count, size != config.q ** rank_of(vecs)

    return job


def run_span_experiment(config: SpanTrialConfig, workers: int = 1) -> SpanSummary:
    """Run the span experiment; deterministic given (config.seed)."""
    # the trials' own q^l check, made once before any child is forked
    check_power("span members q^l", config.q, config.ell)
    spec = BallSpec.from_p(config.q, config.n, config.p)
    check_sample_budget(spec)
    [results] = _run_trials(_span_job(config, spec), 1, config.trials, workers)
    hist = Counter(count for count, _ in results)
    threshold = config.c_threshold * config.ell
    tail = sum(v for count, v in hist.items() if count > threshold)
    return SpanSummary(config, spec.radius, dict(sorted(hist.items())),
                       tail, tail / config.trials,
                       sum(failed for _, failed in results),
                       config.ell ** 2 >= config.n)


# ------------------------------------------------------------ pair sum

@dataclass(frozen=True)
class PairSumConfig:
    """Pair-sum decay experiment across an n-grid."""

    p: Fraction
    q: int
    n_values: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self):
        _coerce(self, p=as_fraction(self.p), n_values=tuple(self.n_values))
        if self.trials < 1:
            raise ParameterError(f"trials={self.trials} must be >= 1")
        if not self.n_values:
            raise ParameterError("n_values must be nonempty")


@dataclass(frozen=True)
class PairSumRecord:
    n: int
    center: str
    trials: int
    hit_count: int
    estimate: float
    log2_estimate_per_n: float | None

    def as_record(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "pair-sum-record",
            "n": self.n, "center": self.center, "trials": self.trials,
            "hit_count": self.hit_count, "estimate": self.estimate,
            "log2_estimate_per_n": self.log2_estimate_per_n,
        }


@dataclass(frozen=True)
class PairSumSummary:
    """Per-(n, center) estimates plus fitted decay slopes.

    slope_* is the least-squares slope of log2(estimate) against n;
    the empirical decay exponent is its negation (delta_p_*).  Grid
    points with zero hits are excluded from the fit, with a note.
    """

    config: PairSumConfig
    records: tuple[PairSumRecord, ...]
    slope_zero: float | None
    slope_random: float | None
    delta_p_zero: float | None
    delta_p_random: float | None
    notes: tuple[str, ...]

    def as_record(self) -> dict:
        c = self.config
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "pair-sum-summary",
            "p": str(c.p), "q": c.q, "n_values": list(c.n_values),
            "trials": c.trials, "seed": c.seed,
            "records": [r.as_record() for r in self.records],
            "slope_zero": self.slope_zero,
            "slope_random": self.slope_random,
            "delta_p_zero": self.delta_p_zero,
            "delta_p_random": self.delta_p_random,
            "notes": list(self.notes),
        }


_PAIR_CENTERS = ("zero", "random")


def run_pair_sum_experiment(config: PairSumConfig,
                            workers: int = 1) -> PairSumSummary:
    """Run the pair-sum experiment; deterministic given (config.seed)."""
    field = field_new(config.q)
    specs = [BallSpec.from_p(config.q, n, config.p) for n in config.n_values]
    for spec in specs:
        check_sample_budget(spec)
    cells = [(ni, mi, spec) for ni, spec in enumerate(specs)
             for mi in range(len(_PAIR_CENTERS))]

    def job(cell: int, t: int) -> bool:
        ni, mi, spec = cells[cell]
        rng = derive_stream(config.seed, "pair", ni, mi, t)
        w1 = sample_ball_uniform(spec, rng)
        w2 = sample_ball_uniform(spec, rng)
        s = payload_add(field, w1.payload, w2.payload)
        x = (uniform_payload(field, spec.n, rng)
             if _PAIR_CENTERS[mi] == "random" else 0)
        return payload_distance(field, spec.n, s, x) <= spec.radius

    hits_by_cell = _run_trials(job, len(cells), config.trials, workers)
    records = []
    notes = []
    for (_, mi, spec), cell_hits in zip(cells, hits_by_cell):
        n, center = spec.n, _PAIR_CENTERS[mi]
        hits = sum(cell_hits)
        estimate = hits / config.trials
        log2_per_n = math.log2(estimate) / n if hits else None
        if not hits:
            notes.append(f"zero hits at n={n}, center={center}; "
                         "excluded from slope fit")
        records.append(PairSumRecord(n, center, config.trials, hits,
                                     estimate, log2_per_n))
    slopes: dict[str, float | None] = {}
    for center in _PAIR_CENTERS:
        pts = [(r.n, math.log2(r.estimate)) for r in records
               if r.center == center and r.hit_count > 0]
        if len(pts) >= 2 and len({n for n, _ in pts}) >= 2:
            fit = statistics.linear_regression([n for n, _ in pts],
                                               [y for _, y in pts])
            slopes[center] = fit.slope
        else:
            slopes[center] = None
            notes.append(f"fewer than two usable grid points for "
                         f"center={center}; slope not fitted")
    return PairSumSummary(
        config, tuple(records), slopes["zero"], slopes["random"],
        None if slopes["zero"] is None else -slopes["zero"],
        None if slopes["random"] is None else -slopes["random"],
        tuple(notes))


def _pair_counter(n: int, r: int, q: int) -> Callable[[int], int]:
    """A function of w that counts the pairs (w1, w2) in B(0, r)^2 with
    w1 + w2 within r of a center of weight w: over the weight u of the sum
    s, the s of weight u within r of the center times the pairs summing to
    one such s.  The first factor vanishes unless |u - w| <= r, the second
    unless u <= 2r.  Its terms are refused here, before any center is
    read."""
    if n < 0 or q < 2:
        raise ParameterError(f"no vectors of length n={n} over q={q}")
    check_budget(f"pair count terms (n={n}, r={r})",
                 (min(n, 2 * r) + 1) * (r + 1) ** 3)

    def count(w: int) -> int:
        return sum(sum(intersection_number(n, q, w, u, t) for t in range(r + 1))
                   * sum(intersection_number(n, q, u, i, j)
                         for i in range(r + 1) for j in range(r + 1))
                   for u in range(max(0, w - r), min(n, 2 * r, w + r) + 1))

    return count


def exact_pair_sum_probability(n: int, p: RadiusParam, q: int,
                               center_payload: int = 0) -> Fraction:
    """Pr[w1 + w2 in B(x, p)] for w1, w2 uniform in B(0, p), x the vector
    of F_q^n packed as `center_payload`; an exact rational.

    The count depends on x only through its weight.  `_pair_counter`
    refuses its (min(n, 2r) + 1)(r + 1)^3 terms past ENUMERATION_BUDGET
    before the center's digits are read, here and in the closed form
    alike.
    """
    field = field_new(q)
    radius = BallSpec.from_p(q, n, p).radius
    count = _pair_counter(n, radius, q)
    b = field.bits_per_digit
    digits = [center_payload >> i * b & (1 << b) - 1 for i in range(n)]
    if center_payload < 0 or center_payload >> n * b or max(digits) >= q:
        raise ParameterError(
            f"center_payload={center_payload} is not a vector of F_{q}^{n}")
    return Fraction(count(n - digits.count(0)), ball_volume(n, radius, q) ** 2)


def pair_sum_count_closed_form(n: int, r: int, q: int) -> int:
    """Number of pairs (w1, w2) in B(0,r)^2 with w1 + w2 in B(0,r);
    refused as `exact_pair_sum_probability`."""
    return _pair_counter(n, r, q)(0)


# ----------------------------------------------------------- rate sweep

@dataclass(frozen=True)
class SweepConfig:
    """Rate sweep: codes at k = floor((1 - H_q(p) - eps) * n) per eps.

    Construction refuses n < 1, a p outside [0, 1], an empty grid,
    eps <= 0, fewer than one code per point, and a constant C that is not
    a finite number > 0.
    The rate and ceil(C / eps) are float arithmetic, so it also refuses
    an eps whose float is 0 or overflows, and a C / eps that overflows.
    """

    n: int
    q: int
    p: Fraction
    eps_grid: tuple[Fraction, ...]
    codes_per_point: int
    seed: int
    c_constant: float = 1.0

    def __post_init__(self):
        _coerce(self, p=as_fraction(self.p),
                eps_grid=tuple(as_fraction(e) for e in self.eps_grid))
        if self.n < 1:
            raise ParameterError(f"block length n={self.n} must be >= 1")
        radius_of(self.p, self.n)
        if self.codes_per_point < 1:
            raise ParameterError(
                f"codes_per_point={self.codes_per_point} must be >= 1")
        if not self.eps_grid:
            raise ParameterError("eps_grid must be nonempty")
        bad = [str(e) for e in self.eps_grid if e <= 0]
        if bad:
            raise ParameterError(f"eps must be > 0, got {', '.join(bad)}")
        if not (math.isfinite(self.c_constant) and self.c_constant > 0):
            raise ParameterError(
                f"c_constant={self.c_constant} must be a finite number > 0")
        for e in self.eps_grid:
            try:
                ratio = self.c_constant / float(e)
            except (OverflowError, ZeroDivisionError):
                raise ParameterError(
                    f"eps={e} rounds to 0 or overflows as a float") from None
            if not math.isfinite(ratio):
                raise ParameterError(
                    f"c_constant={self.c_constant} over eps={e} overflows a float")


@dataclass(frozen=True)
class SweepPoint:
    """One grid point: all codes' exact L_max plus failure frequency at
    the candidate list size ceil(C / eps)."""

    eps: Fraction
    rate: float
    k: int
    degenerate: bool
    note: str | None
    L_candidate: int | None
    l_max_values: tuple[int, ...]
    failure_count: int | None
    failure_frequency: float | None
    failures_at_code_size: int | None

    def as_record(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep-point",
            "eps": str(self.eps), "rate": self.rate, "k": self.k,
            "degenerate": self.degenerate, "note": self.note,
            "L_candidate": self.L_candidate,
            "l_max_histogram": histogram_record(Counter(self.l_max_values)),
            "failure_count": self.failure_count,
            "failure_frequency": self.failure_frequency,
            "failures_at_code_size": self.failures_at_code_size,
        }


@dataclass(frozen=True)
class SweepSummary:
    config: SweepConfig
    points: tuple[SweepPoint, ...]

    def as_record(self) -> dict:
        c = self.config
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "sweep-summary",
            "n": c.n, "q": c.q, "p": str(c.p),
            "eps_grid": [str(e) for e in c.eps_grid],
            "codes_per_point": c.codes_per_point, "seed": c.seed,
            "c_constant": c.c_constant,
            "points": [pt.as_record() for pt in self.points],
        }


def _sweep_rate(config: SweepConfig, eps: Fraction) -> float:
    """The rate 1 - H_q(p) - eps, in float arithmetic."""
    return 1.0 - entropy_q(config.p, config.q) - float(eps)


def sweep_dimension(config: SweepConfig, eps: Fraction) -> int:
    """k = floor((1 - H_q(p) - eps) * n); may be negative."""
    return math.floor(_sweep_rate(config, eps) * config.n)


def sweep_candidate_list_size(config: SweepConfig, eps: Fraction) -> int:
    """Candidate list size ceil(C / eps) for the failure-frequency readout."""
    if eps <= 0:
        raise ParameterError(f"eps must be > 0, got {eps}")
    return max(1, math.ceil(config.c_constant / float(eps)))


def regenerate_sweep_code(config: SweepConfig, grid_index: int,
                          code_index: int) -> Code:
    """The exact code the sweep used at (grid_index, code_index)."""
    if not 0 <= grid_index < len(config.eps_grid):
        raise ParameterError(f"grid_index {grid_index} out of range")
    if not 0 <= code_index < config.codes_per_point:
        raise ParameterError(f"code_index {code_index} out of range")
    eps = config.eps_grid[grid_index]
    k = sweep_dimension(config, eps)
    if k < 1:
        raise ParameterError(f"grid point eps={eps} is degenerate (k={k})")
    rng = derive_stream(config.seed, "sweep", grid_index, code_index)
    return random_code(config.n, k, config.q, True, rng)


def run_rate_sweep(config: SweepConfig, workers: int = 1) -> SweepSummary:
    """Run the rate sweep; deterministic given (config.seed).  Cell j
    runs the codes of the j-th live grid point, at severalfold costs."""
    dims = [sweep_dimension(config, eps) for eps in config.eps_grid]
    live = [gi for gi, k in enumerate(dims) if k >= 1]
    if live:  # the jobs' own checks, made before any code is drawn
        r = radius_of(config.p, config.n)
        check_ball_volume(f"ball walk |B(0, {r})|", config.n, r, config.q)
        check_generator_size(config.n, max(dims))
    l_cands = [sweep_candidate_list_size(config, eps) for eps in config.eps_grid]

    def job(cell: int, ci: int) -> int:
        gi = live[cell]
        code = regenerate_sweep_code(config, gi, ci)
        return check_ld_exact(code, config.p, l_cands[gi]).L_max

    columns = iter(_run_trials(job, len(live), config.codes_per_point, workers))
    points = []
    for eps, k, l_cand in zip(config.eps_grid, dims, l_cands):
        rate = _sweep_rate(config, eps)
        if k < 1:
            points.append(SweepPoint(
                eps, rate, k, True,
                f"degenerate grid point: k={k} < 1 at eps={eps}; skipped",
                None, (), None, None, None))
            continue
        l_max_values = tuple(next(columns))
        failures = sum(1 for v in l_max_values if v > l_cand)
        code_size = config.q ** k
        points.append(SweepPoint(
            eps, rate, k, False, None, l_cand, l_max_values, failures,
            failures / len(l_max_values),
            sum(1 for v in l_max_values if v > code_size)))
    return SweepSummary(config, tuple(points))


# ---------------------------------------------------------- ball batch

@dataclass(frozen=True)
class BallSampleConfig:
    """Batch of independent uniform ball samples (one stream per index)."""

    q: int
    n: int
    p: Fraction
    count: int
    seed: int

    def __post_init__(self):
        _coerce(self, p=as_fraction(self.p))
        if self.count < 1:
            raise ParameterError(f"count={self.count} must be >= 1")


@dataclass(frozen=True)
class BallSampleSummary:
    config: BallSampleConfig
    radius: int
    weight_histogram: dict[int, int]
    samples: tuple[str, ...]

    def as_record(self) -> dict:
        c = self.config
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "ball-sample-summary",
            "q": c.q, "n": c.n, "p": str(c.p), "count": c.count,
            "seed": c.seed, "radius": self.radius,
            "weight_histogram": histogram_record(self.weight_histogram),
        }


def run_ball_samples(config: BallSampleConfig,
                     workers: int = 1) -> BallSampleSummary:
    """Draw `count` independent uniform ball samples; deterministic."""
    spec = BallSpec.from_p(config.q, config.n, config.p)
    check_sample_budget(spec)

    def job(cell: int, i: int) -> str:
        return str(sample_ball_uniform(spec, derive_stream(config.seed, "ball", i)))

    [samples] = _run_trials(job, 1, config.count, workers)
    hist = Counter(sum(1 for ch in s if ch != "0") for s in samples)
    return BallSampleSummary(config, spec.radius, dict(sorted(hist.items())),
                             tuple(samples))
