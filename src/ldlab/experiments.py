"""Monte Carlo experiments with exact small-case oracles.

Every experiment is deterministic given (config, seed): trial t draws
from a stream derived from (seed, tag, t), so results are identical for
any worker count, and summaries serialize to stable records (exact
rationals as "a/b" strings, histograms with sorted keys).  Every runner
goes through _run_trials, which splits the trials into contiguous
chunks: the caller runs the first and one forked child runs each other.

Experiments:
- span: draw l uniform ball points, enumerate their span, count span
  members inside the ball around 0; tail = trials whose count exceeds
  C * l.
- pair-sum: estimate Pr[w1 + w2 in B(x, p)] for w1, w2 uniform in
  B(0, p), at x = 0 and at uniformly random x, across an n-grid, and
  fit the exponential decay rate; exact oracles (closed-form count and
  brute-force pair enumeration) cover small n.
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

from .codes import (ENUMERATION_BUDGET, Code, check_ld_exact, random_code,
                    span_payloads)
from .errors import ParameterError, ResourceBudgetError
from .gfq import (VecQ, field_new, payload_add, payload_weight,
                  payloads_in_ball, rank_of)
from .hamming import (BallSpec, RadiusParam, as_fraction, ball_points, ball_volume,
                      entropy_q, sample_ball_uniform)
from .seeding import derive_stream

SCHEMA_VERSION = 1


def _clamp_workers(workers: int) -> int:
    """Worker count limited to [1, os.cpu_count()]; results do not depend on it."""
    return max(1, min(workers, os.cpu_count() or 1))


def _chunk_ranges(total: int, workers: int) -> list[tuple[int, int]]:
    """Split range(total) into at most min(workers, cpus) contiguous chunks."""
    workers = max(1, min(_clamp_workers(workers), total))
    base, extra = divmod(total, workers)
    chunks = []
    start = 0
    for i in range(workers):
        stop = start + base + (1 if i < extra else 0)
        chunks.append((start, stop))
        start = stop
    return chunks


def _run_trials(chunk_fn, config, total: int, workers: int) -> list:
    """One result per trial of range(total), in trial order.

    chunk_fn(config, start, stop) returns the list of results of trials
    start to stop - 1.  The caller runs the first chunk of _chunk_ranges
    itself and _fork_chunk runs each further one in a child, so
    --workers N starts at most N - 1 children, N clamped to the core
    count, and a one-chunk run forks nothing.  A child's exception is
    re-raised here with its type and message; a child that ends without
    a result raises RuntimeError.  No child outlives the call: on any
    exit, interrupts included, children not yet reaped are killed and
    reaped.  Fork copies only the calling thread, so callers must not
    hold locks in other threads.  A run of more than ENUMERATION_BUDGET
    trials is refused before any chunk starts: it would hold one result
    per trial.
    """
    if total > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"{total} trial jobs exceed the budget of {ENUMERATION_BUDGET} "
            "per run")
    (start, stop), *rest = _chunk_ranges(total, workers)
    children = {}
    try:
        for index, chunk in enumerate(rest, 1):
            children[index] = _fork_chunk(chunk_fn, config, *chunk)
        results = chunk_fn(config, start, stop)
        for index, chunk in enumerate(rest, 1):
            pid, pipe = children[index]
            with pipe:
                reply = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[index]
            if status != 0 or not reply:
                raise RuntimeError(
                    f"trial chunk {index} (trials {chunk[0]} to "
                    f"{chunk[1] - 1}) ended with exit status {status} "
                    "and no result")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)


def _fork_chunk(chunk_fn, config, start: int, stop: int):
    """Fork a child that runs one chunk; returns (pid, read end of its pipe).

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
                reply = (True, chunk_fn(config, start, stop))
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
            "histogram": {str(k): self.histogram[k]
                          for k in sorted(self.histogram)},
            "tail_count": self.tail_count,
            "tail_frequency": self.tail_frequency,
            "rank_check_failures": self.rank_check_failures,
            "ell_squared_at_least_n": self.ell_squared_at_least_n,
        }


def _span_chunk(config: SpanTrialConfig, start: int,
                stop: int) -> list[tuple[int, bool]]:
    """(|span ∩ ball|, rank check failed) per trial."""
    field = field_new(config.q)
    spec = BallSpec.from_p(config.q, config.n, config.p)
    radius = spec.radius
    out = []
    for t in range(start, stop):
        rng = derive_stream(config.seed, "span", t)
        vecs = [sample_ball_uniform(spec, rng) for _ in range(config.ell)]
        span = span_payloads(vecs)
        count = payloads_in_ball(field, config.n, span, radius)
        out.append((count, len(span) != field.q ** rank_of(vecs)))
    return out


def run_span_experiment(config: SpanTrialConfig, workers: int = 1) -> SpanSummary:
    """Run the span experiment; deterministic given (config.seed)."""
    if config.trials < 1:
        raise ParameterError(f"trials={config.trials} must be >= 1")
    if config.ell < 1:
        raise ParameterError(f"ell={config.ell} must be >= 1")
    if config.q ** config.ell > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"span budget q^l = {config.q}^{config.ell} exceeds "
            f"{ENUMERATION_BUDGET}")
    spec = BallSpec.from_p(config.q, config.n, config.p)
    results = _run_trials(_span_chunk, config, config.trials, workers)
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


def _pair_chunk(config: PairSumConfig, start: int, stop: int) -> list[bool]:
    """Hit or miss per trial of the flat index over (trial, n, center).

    The trial is the slowest-varying part, so every chunk mixes all grid
    points evenly and the workers get equal work when the n differ.
    """
    q = config.q
    field = field_new(q)
    specs = [BallSpec.from_p(q, n, config.p) for n in config.n_values]
    b = field.bits_per_digit
    out = []
    for index in range(start, stop):
        t, cell = divmod(index, len(_PAIR_CENTERS) * len(config.n_values))
        ni, mi = divmod(cell, len(_PAIR_CENTERS))
        n, spec = config.n_values[ni], specs[ni]
        rng = derive_stream(config.seed, "pair", ni, mi, t)
        w1 = sample_ball_uniform(spec, rng)
        w2 = sample_ball_uniform(spec, rng)
        s = payload_add(field, w1.payload, w2.payload)
        if _PAIR_CENTERS[mi] == "random":
            x = 0
            for i in range(n):
                x |= rng.randrange(q) << (i * b)
            s = payload_add(field, s, (-VecQ(field, n, x)).payload)
        out.append(payload_weight(field, n, s) <= spec.radius)
    return out


def run_pair_sum_experiment(config: PairSumConfig,
                            workers: int = 1) -> PairSumSummary:
    """Run the pair-sum experiment; deterministic given (config.seed)."""
    if config.trials < 1:
        raise ParameterError(f"trials={config.trials} must be >= 1")
    if not config.n_values:
        raise ParameterError("n_values must be nonempty")
    cells = [(n, center) for n in config.n_values for center in _PAIR_CENTERS]
    hit = _run_trials(_pair_chunk, config, len(cells) * config.trials, workers)
    records = []
    notes = []
    for cell, (n, center) in enumerate(cells):
        hits = sum(hit[cell::len(cells)])
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


def exact_pair_sum_probability(n: int, p: RadiusParam, q: int,
                               center_payload: int = 0) -> Fraction:
    """Pr[w1 + w2 in B(x, p)] by exhaustive enumeration of ball pairs.

    Exact rational; cost volume^2 (guard volume^2 <= 2^24).
    """
    field = field_new(q)
    spec = BallSpec.from_p(q, n, p)
    radius = spec.radius
    volume = ball_volume(n, radius, q)
    if volume ** 2 > ENUMERATION_BUDGET:
        raise ResourceBudgetError(
            f"pair enumeration |B(0, {radius})|^2 = {volume}^2 exceeds budget "
            f"{ENUMERATION_BUDGET}")
    pts = [v.payload for v in ball_points(field, VecQ(field, n, 0), radius)]
    neg_x = (-VecQ(field, n, center_payload)).payload
    count = 0
    for a in pts:
        base = payload_add(field, a, neg_x)
        for bpt in pts:
            if payload_weight(field, n, payload_add(field, base, bpt)) <= radius:
                count += 1
    return Fraction(count, len(pts) ** 2)


def pair_sum_count_closed_form(n: int, r: int, q: int) -> int:
    """Number of pairs (w1, w2) in B(0,r)^2 with w1 + w2 in B(0,r).

    Counts by (weight i of w1, weight j of w2, support overlap s,
    cancelled overlap positions t): the sum's weight is i + j - s - t,
    and each non-cancelling overlap position has q-2 value choices.
    """
    total = 0
    for i in range(r + 1):
        for j in range(r + 1):
            for s in range(min(i, j) + 1):
                for t in range(s + 1):
                    if i + j - s - t > r:
                        continue
                    total += (math.comb(n, i) * (q - 1) ** i
                              * math.comb(i, s) * math.comb(n - i, j - s)
                              * (q - 1) ** (j - s)
                              * math.comb(s, t) * (q - 2) ** (s - t))
    return total


# ----------------------------------------------------------- rate sweep

@dataclass(frozen=True)
class SweepConfig:
    """Rate sweep: codes at k = floor((1 - H_q(p) - eps) * n) per eps.

    Construction refuses an empty grid, eps <= 0, fewer than one code per
    point, and a constant C that is not a finite number > 0.
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
            "l_max_histogram": _int_histogram(self.l_max_values),
            "failure_count": self.failure_count,
            "failure_frequency": self.failure_frequency,
            "failures_at_code_size": self.failures_at_code_size,
        }


def _int_histogram(values: tuple[int, ...]) -> dict[str, int]:
    out: dict[str, int] = {}
    for v in sorted(values):
        out[str(v)] = out.get(str(v), 0) + 1
    return out


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


def sweep_dimension(config: SweepConfig, eps: Fraction) -> int:
    """k = floor((1 - H_q(p) - eps) * n); may be negative."""
    rate = 1.0 - entropy_q(config.p, config.q) - float(eps)
    return math.floor(rate * config.n)


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


def _sweep_chunk(config: SweepConfig, start: int, stop: int) -> list[int]:
    """L_max per job of the flat index over (code, non-degenerate point).

    The code is the slowest-varying part, so every chunk mixes all grid
    points evenly; per-code cost differs severalfold across the grid.
    """
    live = [gi for gi, eps in enumerate(config.eps_grid)
            if sweep_dimension(config, eps) >= 1]
    out = []
    for index in range(start, stop):
        ci, j = divmod(index, len(live))
        gi = live[j]
        code = regenerate_sweep_code(config, gi, ci)
        eps = config.eps_grid[gi]
        verdict = check_ld_exact(code, config.p,
                                 sweep_candidate_list_size(config, eps))
        out.append(verdict.L_max)
    return out


def run_rate_sweep(config: SweepConfig, workers: int = 1) -> SweepSummary:
    """Run the rate sweep; deterministic given (config.seed)."""
    dims = [sweep_dimension(config, eps) for eps in config.eps_grid]
    live = sum(1 for k in dims if k >= 1)
    results = _run_trials(_sweep_chunk, config,
                          live * config.codes_per_point, workers)
    columns = iter([tuple(results[j::live]) for j in range(live)])
    points = []
    for eps, k in zip(config.eps_grid, dims):
        rate = 1.0 - entropy_q(config.p, config.q) - float(eps)
        if k < 1:
            points.append(SweepPoint(
                eps, rate, k, True,
                f"degenerate grid point: k={k} < 1 at eps={eps}; skipped",
                None, (), None, None, None))
            continue
        l_cand = sweep_candidate_list_size(config, eps)
        l_max_values = next(columns)
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
            "weight_histogram": {str(k): self.weight_histogram[k]
                                 for k in sorted(self.weight_histogram)},
        }


def _ball_chunk(config: BallSampleConfig, start: int,
                stop: int) -> list[str]:
    spec = BallSpec.from_p(config.q, config.n, config.p)
    out = []
    for i in range(start, stop):
        rng = derive_stream(config.seed, "ball", i)
        out.append(str(sample_ball_uniform(spec, rng)))
    return out


def run_ball_samples(config: BallSampleConfig,
                     workers: int = 1) -> BallSampleSummary:
    """Draw `count` independent uniform ball samples; deterministic."""
    if config.count < 1:
        raise ParameterError(f"count={config.count} must be >= 1")
    spec = BallSpec.from_p(config.q, config.n, config.p)
    samples = _run_trials(_ball_chunk, config, config.count, workers)
    hist = Counter(sum(1 for ch in s if ch != "0") for s in samples)
    return BallSampleSummary(config, spec.radius, dict(sorted(hist.items())),
                             tuple(samples))
