"""Hamming-ball geometry over F_q^n.

Radii are always integers.  A rate-style parameter p enters only through
`radius_of`, which computes floor(p * n) with exact rational arithmetic,
so p given as "0.2", "1/5" or the float 0.2 all give radius 2 at n = 10.

Ball volumes are exact integers: |B(r)| = sum_{i<=r} C(n, i) (q-1)^i.
So are the intersection numbers p^k_ij of the Hamming scheme, which count
the words of weight i at distance j from a word of weight k.
`check_ball_volume` is the one size check on a ball: it sums the shells
from weight 0 up and refuses at the first weight where the sum passes its
budget, so an oversized ball costs at most log2(budget) + 1 shells, never
all of them.
`sample_ball_uniform` draws exactly uniformly: the weight class is chosen
by an integer draw against exact shell sizes, then a uniform support and
uniform nonzero values.

`ball_walk` is the one ball enumerator: `ball_points` runs it on the
steps a * e_i, and the coset tally in `codes` on their coset labels.

Stream contract: the samplers consume the same Mersenne Twister words, in
the same order, as CPython 3.11's `randrange` and `sample` would.  Each
draw is `rng.getrandbits(k)` in an inline rejection loop, as in
`Random._randbelow`, so a seeded stream gives the same vectors and leaves
the generator in the same state as the stdlib calls named in each
docstring (tests/oracles.py keeps those calls as the reference).
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Union

from .errors import (ENUMERATION_BUDGET, ParameterError, check_budget,
                     format_rational, shorten)
from .gfq import (FieldTable, VecQ, field_new, pack_slots, payload_add,
                  slot_ones, slot_width, unpack_slots)

RadiusParam = Union[Fraction, float, int, str]


def as_fraction(p: RadiusParam) -> Fraction:
    """Coerce a radius parameter to an exact Fraction.

    Strings parse exactly ("0.2" -> 1/5, "1/5" -> 1/5); floats go through
    their shortest repr, so the float 0.2 also means exactly 1/5.
    """
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    if isinstance(p, float):
        return Fraction(repr(p))
    if isinstance(p, str):
        try:
            return Fraction(p)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(
                f"cannot parse fraction from {shorten(repr(p))}") from None
    raise ParameterError(f"unsupported fraction parameter {shorten(repr(p))}")


def radius_of(p: RadiusParam, n: int) -> int:
    """floor(p * n) computed exactly."""
    frac = as_fraction(p)
    if frac < 0 or frac > 1:
        raise ParameterError(
            f"error fraction p={format_rational(frac)} outside [0, 1]")
    if n < 1:
        raise ParameterError(f"length n={n} must be >= 1")
    return (frac.numerator * n) // frac.denominator


def entropy_q(x: RadiusParam, q: int) -> float:
    """q-ary entropy H_q(x) = x log_q(q-1) - x log_q x - (1-x) log_q(1-x).

    The x log x terms are taken by continuity at x in {0, 1}.
    """
    if q < 2:
        raise ParameterError(f"entropy base q={q} must be >= 2")
    frac = as_fraction(x)
    if not 0 <= frac <= 1:
        raise ParameterError(
            f"entropy argument x={format_rational(frac)} outside [0, 1]")
    xf = float(frac)
    if xf == 0.0:
        return 0.0
    if xf == 1.0:
        return math.log(q - 1, q)
    lq = math.log(q)
    return (xf * math.log(q - 1) - xf * math.log(xf)
            - (1.0 - xf) * math.log(1.0 - xf)) / lq


def _check_ball_params(n: int, r: int, q: int) -> None:
    if n < 1:
        raise ParameterError(f"length n={n} must be >= 1")
    if q < 2:
        raise ParameterError(f"alphabet size q={q} must be >= 2")
    if r < 0 or r > n:
        raise ParameterError(f"radius r={r} outside [0, {n}]")


def ball_weight_class_sizes(n: int, r: int, q: int) -> list[int]:
    """Exact shell sizes [|S_0|, ..., |S_r|], |S_i| = C(n,i)(q-1)^i.

    Built by S_i = S_{i-1} (n-i+1)(q-1) / i, an exact division at every step.
    """
    _check_ball_params(n, r, q)
    sizes = [1]
    for i in range(1, r + 1):
        sizes.append(sizes[-1] * (n - i + 1) * (q - 1) // i)
    return sizes


def ball_volume(n: int, r: int, q: int) -> int:
    """Exact number of points of F_q^n within Hamming distance r of a point."""
    return sum(ball_weight_class_sizes(n, r, q))


def intersection_number(n: int, q: int, k: int, i: int, j: int) -> int:
    """Intersection number p^k_ij of the Hamming scheme H(n, q): how many z
    have weight i and distance j from a fixed y of weight k.

    One sum over a = |supp z minus supp y|: z meets supp y in i - a
    positions, equals y at e = a + k - j of them and takes one of the
    q - 2 other nonzero values at the rest.  Zero when no such z exists.
    """
    if q < 2 or not 0 <= k <= n:
        raise ParameterError(f"no vector of weight k={k} in F_{q}^{n}")
    return sum(math.comb(n - k, a) * (q - 1) ** a * math.comb(k, i - a)
               * math.comb(i - a, a + k - j) * (q - 2) ** (i + j - k - 2 * a)
               for a in range(max(0, i - k, j - k),
                              min(n - k, i, (i + j - k) // 2) + 1))


def check_ball_volume(what: str, n: int, r: int, q: int,
                      budget: int = ENUMERATION_BUDGET) -> int:
    """The exact |B(r)|, summed shell by shell from weight 0 up with the
    recurrence of `ball_weight_class_sizes`; refused through
    `check_budget` as "<what> through weight t = <sum>" at the first
    weight t where the sum passes `budget`.

    The sum through weight t is at least sum_j C(t, j) = 2^t, so the
    refusal comes by weight t = budget.bit_length().
    """
    _check_ball_params(n, r, q)
    t, shell, total = 0, 1, 1
    while total <= budget and t < r:
        t += 1
        shell = shell * (n - t + 1) * (q - 1) // t
        total += shell
    check_budget(f"{what} through weight {t}", total, budget)
    return total


@dataclass(frozen=True)
class BallSpec:
    """A Hamming ball shape: ambient length n, error fraction p, field
    size q, and the integer radius floor(p * n).

    p is stored as an exact Fraction and the radius invariant is checked
    at construction.  The list-decoding regime of interest is
    p < 1 - 1/q, but any p in [0, 1] is accepted so that degenerate and
    boundary cases stay expressible.
    """

    n: int
    p: Fraction
    q: int
    radius: int

    def __post_init__(self):
        if not isinstance(self.p, Fraction):
            object.__setattr__(self, "p", as_fraction(self.p))
        _check_ball_params(self.n, self.radius, self.q)
        want = radius_of(self.p, self.n)
        if self.radius != want:
            raise ParameterError(
                f"radius {self.radius} != floor(p*n) = {want} for p={self.p}, n={self.n}")

    @classmethod
    def from_p(cls, q: int, n: int, p: RadiusParam) -> "BallSpec":
        frac = as_fraction(p)
        return cls(n, frac, q, radius_of(frac, n))


# Largest shell table a sampler builds, in bits.
SAMPLE_TABLE_BITS = 1 << 27


def check_sample_budget(spec: BallSpec) -> None:
    """Build and cache the shell table that sampling from `spec` needs;
    ResourceBudgetError if it would exceed SAMPLE_TABLE_BITS."""
    _sample_tables(spec.n, spec.radius, spec.q)


@lru_cache(maxsize=None)
def _sample_tables(n: int, r: int, q: int) -> tuple[list[int], list[bool]]:
    """Cumulative shell sizes, and for each weight w whether
    `random.sample(range(n), w)` takes its pool branch (n <= setsize).

    The table holds r + 1 integers of up to n * ceil(log2 q) bits; that
    count is checked against SAMPLE_TABLE_BITS before anything is built.
    """
    check_budget(f"sampling table bits (n={n}, r={r}, q={q})",
                 (r + 1) * n * (q - 1).bit_length(), SAMPLE_TABLE_BITS)
    cum = list(itertools.accumulate(ball_weight_class_sizes(n, r, q)))
    pool = [n <= 21 + (4 ** math.ceil(math.log(w * 3, 4)) if w > 5 else 0)
            for w in range(r + 1)]
    return cum, pool


def sample_ball_uniform(spec: BallSpec, rng: random.Random) -> VecQ:
    """One vector distributed exactly uniformly over B(0, radius) in F_q^n.

    Draw for draw: w = bisect_left(cum, randrange(|B|) + 1), then
    sorted(sample(range(n), w)), then randrange(1, q) for each support
    position in increasing order.
    """
    n, q = spec.n, spec.q
    cum, pool = _sample_tables(n, spec.radius, q)
    field = field_new(q)
    getrandbits = rng.getrandbits
    total = cum[-1]
    k = total.bit_length()
    x = getrandbits(k)
    while x >= total:
        x = getrandbits(k)
    w = bisect_right(cum, x)
    if w == 0:
        return VecQ(field, n, 0)
    if pool[w]:
        # pool[j] = pool[m - 1] after picking pool[j] from the first m;
        # `moved` holds only the entries that differ from range(n).
        moved: dict[int, int] = {}
        support = []
        for m in range(n, n - w, -1):
            k = m.bit_length()
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            support.append(moved.get(j, j))
            moved[j] = moved.get(m - 1, m - 1)
        support.sort()
    else:
        # Redraw on j >= n (randbelow) and on a repeat (the set branch).
        chosen: set[int] = set()
        k = n.bit_length()
        while len(chosen) < w:
            j = getrandbits(k)
            if j < n:
                chosen.add(j)
        support = sorted(chosen)
    b = field.bits_per_digit
    m = q - 1
    k = m.bit_length()
    payload = 0
    for pos in support:
        d = getrandbits(k)
        while d >= m:
            d = getrandbits(k)
        payload |= (d + 1) << (pos * b)
    return VecQ(field, n, payload)


def uniform_payload(field: FieldTable, n: int, rng: random.Random) -> int:
    """n digits uniform over F_q, packed; draw for draw randrange(q) for
    digit 0, 1, ..., n - 1."""
    q = field.q
    b = field.bits_per_digit
    k = q.bit_length()
    getrandbits = rng.getrandbits
    payload = 0
    for shift in range(0, n * b, b):
        d = getrandbits(k)
        while d >= q:
            d = getrandbits(k)
        payload |= d << shift
    return payload


def ball_walk(field: FieldTable, steps: Sequence[Sequence[int]],
              r: int) -> Iterator[Sequence[int]]:
    """Every sum of at most r steps at distinct positions, in chunks.

    steps[i] lists the steps allowed at position i (n = len(steps)), and
    every sum must stay below 2^(n b); steps[i] = [a * e_i for a = 1 ..
    q - 1] gives each point of B(0, r) once.  Chunks come weight-major:
    0 alone, then the steps themselves by decreasing position, then the
    weight-2 sums, and so on.

    Weight d >= 2 is built from weight d - 1, packed once in order of
    decreasing lowest support: position i, from n - 1 down to 0, adds
    each of its steps to the prefix of weight d - 1 whose lowest support
    lies above i, one block `payload_add` per step.  Weight-r chunks are
    yielded and never stored, so the walk holds two weights at a time.
    Each chunk is valid only until the next one is asked for: use it
    before going on.
    """
    n, b = len(steps), field.bits_per_digit
    width = slot_width(b, n * b)
    yield (0,)
    if r == 0:
        return
    sums = [step for i in reversed(range(n)) for step in steps[i]]
    yield sums
    level = pack_slots(sums, width)
    # counts[i]: how many sums of weight d - 1 have lowest support >= i
    counts = [0] * (n + 1)
    for i in reversed(range(n)):
        counts[i] = counts[i + 1] + len(steps[i])
    for d in range(2, r + 1):
        parts, above = [], [0] * (n + 1)
        for i in reversed(range(n - d + 1)):
            count = counts[i + 1]
            prefix = level & ((1 << count * width) - 1)
            ones = slot_ones(width, count)
            for step in steps[i]:
                block = payload_add(field, prefix, step * ones)
                if d < r:
                    parts.append(block.to_bytes(count * width // 8,
                                                sys.byteorder))
                yield unpack_slots(block, width, count)
            above[i] = above[i + 1] + count * len(steps[i])
        level, counts = int.from_bytes(b"".join(parts), sys.byteorder), above


def ball_points(field: FieldTable, center: VecQ, r: int) -> Iterator[VecQ]:
    """Yield every point within distance r of `center`, center first.

    Points come out weight-major, in the order of `ball_walk`: grouped by
    distance from the center, and within a distance by decreasing lowest
    changed position.
    """
    n = center.n
    q = field.q
    _check_ball_params(n, r, q)
    b = field.bits_per_digit
    steps = [[a << (i * b) for a in range(1, q)] for i in range(n)]
    base = center.payload
    for offsets in ball_walk(field, steps, r):
        for offset in offsets:
            yield VecQ(field, n, payload_add(field, base, offset))
