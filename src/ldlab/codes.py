"""Random linear codes and list-decodability checkers.

A code is given by a k x n generator matrix over F_q; the codeword set
is the row span (q^k messages, q^rank distinct codewords).  The exact
checker reports L_max = max over centers x of |B(x, radius) ∩ C|.  Its
default strategy is a coset tally: |B(x, radius) ∩ C| depends only on
the coset x + C, and equals the number of ball points e ∈ B(0, radius)
in that coset, so labelling every point of B(0, radius) by its coset
tallies every center at once.  The labels come from `hamming.ball_walk`,
the one ball enumerator, run on the labels of a * e_i, which reduce
against the forward `gfq.echelon` basis that `rank_of` also counts (see
`_coset_tally`).  The "full" mode scans every center of F_q^n and is
kept as the exhaustive oracle.  Every checker counts distinct codewords,
also for rank-deficient generators.

One enumerator, `gfq._span_block`, lists both a code's q^k encodings and
the span that `span-exp` counts, in one layout: slot j holds message j's
member in n digits.  It adds a whole block of span members per (row,
scalar) with `gfq.slots_add`, for every q.  Every count reads a block
as it stands.  The map from messages to members is linear, so every member
fills as many slots as 0 does, and a slot count divided by the zero
slots counts distinct members.  `span_in_ball` counts the span's
members, and those in the ball, with one `gfq.block_in_balls` pass on
`gfq.span_count_block`: one member per projective class of the nonzero
messages, whose q - 1 multiples share its support, and at q = 3 only the
members' supports.  A count R over that block stands for 1 + (q - 1) R
messages, the zero one among them.
`full` and the Monte Carlo checker count the codewords within the
radius of a center x with one `gfq.block_in_balls` on the code's block,
x XORed into every slot: d(x, c) is the weight of x ^ c for every q.

Enumeration budgets are hard guards (`errors.check_budget`, or
`check_power` for a q^e), never silent truncations.  The coset tally's
ball is sized by `hamming.check_ball_volume`, which stops at the budget.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Mapping, Sequence

from .errors import ParameterError, check_budget, check_power
from .gfq import (FieldTable, VecQ, _span_block, all_payloads,
                  block_in_balls, echelon, field_new, payload_add,
                  payload_reduce, rank_of, shape_of, slot_ones,
                  span_count_block, unpack_slots)
from .hamming import (BallSpec, RadiusParam, ball_walk, check_ball_volume,
                      check_sample_budget, radius_of, sample_ball_uniform,
                      uniform_payload)
# ball_points is not walked here; the name stays importable from this
# module for callers that patch or read ldlab.codes.ball_points.
from .hamming import ball_points  # noqa: F401


@dataclass(frozen=True)
class Code:
    """Linear code over F_q given by generator rows.

    full_rank records the construction contract: when set, the rows are
    linearly independent and |C| = q^k exactly.
    """

    field: FieldTable
    n: int
    k: int
    generator: tuple[VecQ, ...]
    full_rank: bool

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"block length n={self.n} must be >= 1")
        if self.k < 0 or self.k > self.n:
            raise ParameterError(f"dimension k={self.k} outside [0, {self.n}]")
        if len(self.generator) != self.k:
            raise ParameterError(
                f"{len(self.generator)} generator rows for k={self.k}")
        if self.generator:
            f, n = shape_of(self.generator)
            if (f.q, n) != (self.field.q, self.n):
                raise ParameterError(
                    f"generator rows over (q={f.q}, n={n}) for a code over "
                    f"(q={self.field.q}, n={self.n})")

    @property
    def q(self) -> int:
        return self.field.q

    def rate(self) -> float:
        return self.k / self.n

    def size(self) -> int:
        """|C| = q^rank; equals q^k when full_rank."""
        if self.full_rank:
            return self.field.q ** self.k
        return self.field.q ** rank_of(self.generator)

    def codeword_payloads(self) -> list[int]:
        """All q^k encodings m·G, indexed by message m in base-q order.

        Duplicates appear when the generator is rank-deficient.
        """
        return list(unpack_slots(*_code_block(self)))


def random_code(n: int, k: int, q: int, full_rank: bool,
                rng: random.Random) -> Code:
    """Code with i.i.d. uniform generator entries.

    With full_rank, rejection-resamples the whole matrix until rank k,
    realizing a uniform k-dimensional subspace.  Refused before any draw
    past `check_generator_size`.
    """
    field = field_new(q)
    if n < 1 or k < 0 or k > n:
        raise ParameterError(f"invalid dimensions n={n}, k={k}")
    check_generator_size(n, k)
    while True:
        rows = tuple(VecQ(field, n, uniform_payload(field, n, rng))
                     for _ in range(k))
        if not full_rank or rank_of(rows) == k:
            return Code(field, n, k, rows, full_rank)


def check_generator_size(n: int, k: int) -> None:
    """Refuse a k x n generator of more than ENUMERATION_BUDGET digits:
    drawing and ranking one grows about as n^2.5."""
    check_budget("generator digits k * n", k * n)


def _span_rows(vectors: Sequence[VecQ]) -> tuple[FieldTable, int, list[int]]:
    """The field, length and payloads of a span's generators, refused
    when empty, mismatched or over the q^l <= 2^24 budget."""
    f, n = shape_of(vectors)
    check_power("span members q^l", f.q, len(vectors))
    return f, n, [v.payload for v in vectors]


def span_payloads(vectors: Sequence[VecQ]) -> set[int]:
    """Payload set of {sum a_i v_i : a in F_q^l}, deduplicated.

    Size is q^rank of the input.  Budget: q^l <= 2^24.  An empty list
    names no field, so it is refused.
    """
    return set(unpack_slots(*_span_block(*_span_rows(vectors))))


def span_in_ball(vectors: Sequence[VecQ], radius: int) -> tuple[int, int]:
    """(|S|, |S ∩ B(0, radius)|) for the span S of the vectors, both
    counted over distinct members; refusals as `span_payloads`.  The
    count is `payload_span_in_ball`'s."""
    return payload_span_in_ball(*_span_rows(vectors), radius)


def payload_span_in_ball(field: FieldTable, n: int, payloads: Sequence[int],
                         radius: int) -> tuple[int, int]:
    """`span_in_ball` of l >= 1 payloads of F_q^n, with no shape check and
    no budget: the caller has made both (hot-loop form).

    Both are counted on `gfq.span_count_block`, one member per projective
    class of the nonzero messages a: slot counts R, at q = 3 on the
    members' supports.  a -> sum a_i x_i is linear and c a has the
    member's support for every c != 0, so the q^l messages hold
    1 + (q - 1) R_r members within any radius r >= 0, the zero member and
    the q - 1 multiples of each class.  Every member of S is the image of
    as many messages as 0 is: zeros = 1 + (q - 1) R_0.  So |S| =
    q^l / zeros and |S ∩ B| = (1 + (q - 1) R_radius) / zeros, exact for
    rank-deficient, repeated and zero rows; a radius below 0 holds no
    member.  One `gfq.block_in_balls` call at radii (0, radius) gives R_0
    and R_radius from one count of the block's digit flags.
    """
    q = field.q
    counted = span_count_block(field, n, payloads)
    at_zero, inside = block_in_balls(*counted, (0, radius))
    zeros = 1 + (q - 1) * at_zero
    return (q ** len(payloads) // zeros,
            ((radius >= 0) + (q - 1) * inside) // zeros)


@dataclass(frozen=True)
class LdVerdict:
    """Outcome of an exact list-decodability check.

    L_max is the max over all centers of |B(center, radius) ∩ C|, counting
    distinct codewords.  exhaustive is True when every x in F_q^n was
    scanned (mode "full"); the "syndrome" mode is equally exact, and its
    centers_inspected is the number of ball points it walked.
    decodable = (L_max <= L) for the L that was asked.
    """

    q: int
    n: int
    k: int
    radius: int
    L: int
    L_max: int
    witness_center: VecQ
    centers_inspected: int
    exhaustive: bool
    mode: str

    @property
    def decodable(self) -> bool:
        return self.L_max <= self.L

    def as_record(self) -> dict:
        return {
            "q": self.q, "n": self.n, "k": self.k, "radius": self.radius,
            "L": self.L, "L_max": self.L_max,
            "witness_center": str(self.witness_center),
            "centers_inspected": self.centers_inspected,
            "exhaustive": self.exhaustive, "mode": self.mode,
            "decodable": self.decodable,
        }


def _coset_tally(code: Code, radius: int) -> dict[int, int]:
    """Coset label -> number of points of B(0, radius) in that coset.

    The label of y is y reduced against the `echelon` basis from the
    highest pivot down (`payload_reduce`): the member of y + C that is
    zero at every pivot.  Any other member differs from it by a
    nonzero codeword, whose highest nonzero coordinate is a pivot, so
    the label is the lowest-payload member of its coset.  Reduction is
    linear, so the labels of B(0, radius) are the sums that `ball_walk`
    makes of the labels of a * e_i, a chunk at a time.
    """
    f = code.field
    b = f.bits_per_digit
    basis = sorted(echelon(f, [row.payload for row in code.generator]).items(),
                   reverse=True)
    steps = [[payload_reduce(f, basis, a << (i * b)) for a in range(1, f.q)]
             for i in range(code.n)]
    return Counter(chain.from_iterable(ball_walk(f, steps, radius)))


def _code_block(code: Code) -> tuple[int, int, int]:
    """The `_span_block` of the code's q^k encodings, message j in slot j."""
    return _span_block(code.field, code.n, [row.payload for row in code.generator])


def _codeword_counter(code: Code, blocked: tuple[int, int, int],
                      radius: int) -> Callable[[int], int]:
    """A function that counts the distinct codewords within `radius` of a
    center payload x on the code's block `blocked` from `_code_block` (see
    the module docstring)."""
    f, n = code.field, code.n
    block, width, total = blocked
    ones = slot_ones(width, total)
    zeros = block_in_balls(f, n, block, width, total, (0,))[0]
    radii = (radius,)

    def count(x: int) -> int:
        return block_in_balls(f, n, block ^ x * ones, width, total,
                              radii)[0] // zeros

    return count


def check_ld_exact(code: Code, p: RadiusParam, L: int,
                   mode: str = "auto") -> LdVerdict:
    """Exact (p, L)-list-decodability check with radius floor(p*n).

    mode "syndrome" (what "auto" resolves to) walks B(0, radius) once
    and tallies the ball points per coset of C; the largest tally is
    L_max (guard: ball volume <= 2^24, which also bounds the tally;
    `check_ball_volume` refuses a larger ball from its first shells).
    mode "full" visits every x in F_q^n and counts codewords within the
    radius per center (guard q^n * |C| <= 2^24).  Both count distinct
    codewords and report the same L_max and the same lowest-payload
    witness center.
    """
    if L < 1:
        raise ParameterError(f"list size L={L} must be >= 1")
    if mode not in ("auto", "full", "syndrome"):
        raise ParameterError(f"unknown mode {mode!r}")
    field = code.field
    q, n = field.q, code.n
    radius = radius_of(p, n)
    if mode != "full":
        volume = check_ball_volume(f"ball walk |B(0, {radius})|", n, radius, q)
        tally = _coset_tally(code, radius)
        l_max = max(tally.values())
        witness = min(lab for lab, cnt in tally.items() if cnt == l_max)
        return LdVerdict(q, n, code.k, radius, L, l_max,
                         VecQ(field, n, witness), volume, False, "syndrome")
    centers = check_power("full scan q^n * |C|", q, n, code.size())
    count = _codeword_counter(code, _code_block(code), radius)
    # max returns the first maximum: the lowest-payload center of the top count
    witness = max(all_payloads(field, n), key=count)
    return LdVerdict(q, n, code.k, radius, L, count(witness),
                     VecQ(field, n, witness), centers, True, "full")


@dataclass(frozen=True)
class LdSampleDistribution:
    """List-size samples from the Monte Carlo checker.

    histogram maps an observed |B(x, radius) ∩ C| to how many trials
    produced it; max_count is the largest observed size (a lower bound
    on the true L_max).
    """

    q: int
    n: int
    k: int
    radius: int
    trials: int
    histogram: dict[int, int]
    max_count: int
    witness_center: VecQ

    def as_record(self) -> dict:
        return {
            "q": self.q, "n": self.n, "k": self.k, "radius": self.radius,
            "trials": self.trials,
            "histogram": histogram_record(self.histogram),
            "max_count": self.max_count,
            "witness_center": str(self.witness_center),
        }


def check_ld_montecarlo(code: Code, p: RadiusParam, trials: int,
                        rng: random.Random) -> LdSampleDistribution:
    """Sampled list sizes at centers x = (random codeword) + (ball noise).

    Importance sampling: uniform centers essentially never see two
    codewords, so centers are seeded at a codeword and perturbed within
    the ball, which covers exactly the centers whose count can exceed 0.
    Counts run over the distinct codewords, found by enumerating all q^k
    messages; each trial checks every codeword (guard trials * q^k <= 2^24).
    """
    if trials < 1:
        raise ParameterError(f"trials={trials} must be >= 1")
    field = code.field
    q, n = field.q, code.n
    check_power("trials * q^k", q, code.k, trials)
    spec = BallSpec.from_p(q, n, p)
    check_sample_budget(spec)
    blocked = _code_block(code)
    # distinct codewords in message order, so the seed draws stay fixed
    cws = list(dict.fromkeys(unpack_slots(*blocked)))
    count = _codeword_counter(code, blocked, spec.radius)
    histogram: dict[int, int] = {}
    max_count = -1
    witness = 0
    for _ in range(trials):
        seed_cw = cws[rng.randrange(len(cws))]
        noise = sample_ball_uniform(spec, rng)
        x = payload_add(field, seed_cw, noise.payload)
        cnt = count(x)
        histogram[cnt] = histogram.get(cnt, 0) + 1
        if cnt > max_count:
            max_count = cnt
            witness = x
    return LdSampleDistribution(q, n, code.k, spec.radius, trials, histogram,
                                max_count, VecQ(field, n, witness))


def histogram_record(histogram: Mapping[int, int]) -> dict[str, int]:
    """A histogram as a result record stores it: string keys in
    increasing numeric order."""
    return {str(key): histogram[key] for key in sorted(histogram)}


def read_header(text: str, header: str, names: str, min_lines: int,
                missing: str) -> tuple[list[str], tuple[int, ...]]:
    """The stripped nonblank lines of a text file and the integers of the
    first, one per name in `names`; ParameterError `missing` for fewer
    than min_lines lines, "bad <header> ..." for any other first line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < min_lines:
        raise ParameterError(missing)
    head = lines[0].split()
    if len(head) != len(names.split()):
        raise ParameterError(f"bad {header} {lines[0]!r}; expected {names!r}")
    try:
        return lines, tuple(int(x) for x in head)
    except ValueError:
        raise ParameterError(f"bad {header} {lines[0]!r}") from None


def format_code(code: Code) -> str:
    """Serialize to the text format: header `q n k`, then k digit rows."""
    lines = [f"{code.q} {code.n} {code.k}"]
    lines.extend(str(row) for row in code.generator)
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> Code:
    """Inverse of format_code; round-trips bit-exactly."""
    lines, (q, n, k) = read_header(text, "code header", "q n k", 1,
                                   "empty code file")
    if len(lines) - 1 != k:
        raise ParameterError(f"expected {k} generator rows, found {len(lines) - 1}")
    field = field_new(q)
    rows = []
    for ln in lines[1:]:
        if len(ln) != n:
            raise ParameterError(f"row {ln!r} has length {len(ln)}, expected {n}")
        rows.append(VecQ.from_string(field, ln))
    return Code(field, n, k, tuple(rows), full_rank=rank_of(rows) == k)
