"""Hamming-ball geometry over F_q^n.

Radii are always integers.  A rate-style parameter p enters only through
`radius_of`, which computes floor(p * n) with exact rational arithmetic,
so p given as "0.2", "1/5" or the float 0.2 all give radius 2 at n = 10.

Ball volumes are exact integers: |B(r)| = sum_{i<=r} C(n, i) (q-1)^i.
`sample_ball_uniform` draws exactly uniformly: the weight class is chosen
by an integer draw against exact shell sizes, then a uniform support and
uniform nonzero values.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

from .errors import ParameterError
from .gfq import FieldTable, VecQ, field_new, payload_add

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
            raise ParameterError(f"cannot parse fraction from {p!r}") from None
    raise ParameterError(f"unsupported fraction parameter {p!r}")


def radius_of(p: RadiusParam, n: int) -> int:
    """floor(p * n) computed exactly."""
    frac = as_fraction(p)
    if frac < 0 or frac > 1:
        raise ParameterError(f"error fraction p={frac} outside [0, 1]")
    if n < 1:
        raise ParameterError(f"length n={n} must be >= 1")
    return (frac.numerator * n) // frac.denominator


def entropy_q(x: RadiusParam, q: int) -> float:
    """q-ary entropy H_q(x) = x log_q(q-1) - x log_q x - (1-x) log_q(1-x).

    The x log x terms are taken by continuity at x in {0, 1}.
    """
    if q < 2:
        raise ParameterError(f"entropy base q={q} must be >= 2")
    xf = float(as_fraction(x))
    if not 0.0 <= xf <= 1.0:
        raise ParameterError(f"entropy argument x={xf} outside [0, 1]")
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
    """Exact shell sizes [|S_0|, ..., |S_r|], |S_i| = C(n,i)(q-1)^i."""
    _check_ball_params(n, r, q)
    return [math.comb(n, i) * (q - 1) ** i for i in range(r + 1)]


def ball_volume(n: int, r: int, q: int) -> int:
    """Exact number of points of F_q^n within Hamming distance r of a point."""
    return sum(ball_weight_class_sizes(n, r, q))


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


@lru_cache(maxsize=None)
def _cumulative_shells(n: int, r: int, q: int) -> tuple[int, ...]:
    out = []
    total = 0
    for s in ball_weight_class_sizes(n, r, q):
        total += s
        out.append(total)
    return tuple(out)


def sample_ball_uniform(spec: BallSpec, rng: random.Random) -> VecQ:
    """One vector distributed exactly uniformly over B(0, radius) in F_q^n."""
    field = field_new(spec.q)
    cum = _cumulative_shells(spec.n, spec.radius, spec.q)
    w = bisect_left(cum, rng.randrange(cum[-1]) + 1)
    if w == 0:
        return VecQ(field, spec.n, 0)
    b = field.bits_per_digit
    payload = 0
    for pos in sorted(rng.sample(range(spec.n), w)):
        payload |= rng.randrange(1, spec.q) << (pos * b)
    return VecQ(field, spec.n, payload)


def ball_points(field: FieldTable, center: VecQ, r: int) -> Iterator[VecQ]:
    """Yield every point within distance r of `center`, center first.

    Points come out grouped by distance from the center, each group in
    lexicographic order of (changed positions, replacement values).
    """
    n = center.n
    q = field.q
    _check_ball_params(n, r, q)
    b = field.bits_per_digit
    yield center
    base = center.payload
    for w in range(1, r + 1):
        for positions in itertools.combinations(range(n), w):
            for values in itertools.product(range(1, q), repeat=w):
                offset = 0
                for pos, val in zip(positions, values):
                    offset |= val << (pos * b)
                yield VecQ(field, n, payload_add(field, base, offset))
