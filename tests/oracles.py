"""Brute-force reference implementations used to cross-check the library.

Everything here works on plain digit tuples and deliberately avoids the
library's packed vectors and lookup tables, so agreement between the two
sides is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

Digits = tuple[int, ...]


def prime_field_tables(q: int) -> tuple[dict, dict]:
    """Addition and multiplication tables for F_q, q prime, via modular arithmetic."""
    add = {(a, b): (a + b) % q for a in range(q) for b in range(q)}
    mul = {(a, b): (a * b) % q for a in range(q) for b in range(q)}
    return add, mul


def extension_field_tables(
    char: int, degree: int, irreducible: Sequence[int]
) -> tuple[dict, dict]:
    """Tables for F_{char^degree} via polynomial arithmetic mod an irreducible.

    Elements are indexed by the integer whose base-char digits, least
    significant first, are the polynomial coefficients.  The irreducible is
    given the same way, with ``degree + 1`` coefficients.
    """
    q = char**degree

    def to_poly(a: int) -> list[int]:
        coeffs = []
        for _ in range(degree):
            coeffs.append(a % char)
            a //= char
        return coeffs

    def from_poly(coeffs: Sequence[int]) -> int:
        value = 0
        for c in reversed(coeffs):
            value = value * char + c
        return value

    def poly_add(u: Sequence[int], v: Sequence[int]) -> list[int]:
        return [(a + b) % char for a, b in zip(u, v)]

    def poly_mul(u: Sequence[int], v: Sequence[int]) -> list[int]:
        prod = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                prod[i + j] = (prod[i + j] + a * b) % char
        # Reduce modulo the irreducible, which is monic by construction.
        for top in range(len(prod) - 1, degree - 1, -1):
            factor = prod[top]
            if factor:
                for k in range(len(irreducible)):
                    idx = top - degree + k
                    prod[idx] = (prod[idx] - factor * irreducible[k]) % char
        return prod[:degree]

    add = {}
    mul = {}
    for a in range(q):
        for b in range(q):
            add[(a, b)] = from_poly(poly_add(to_poly(a), to_poly(b)))
            mul[(a, b)] = from_poly(poly_mul(to_poly(a), to_poly(b)))
    return add, mul


PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
# (characteristic, degree, irreducible) of each extension field above.
EXTENSIONS = {
    4: (2, 2, (1, 1, 1)),
    8: (2, 3, (1, 1, 0, 1)),
    9: (3, 2, (2, 2, 1)),
    16: (2, 4, (1, 1, 0, 0, 1)),
}


def field_tables(q: int) -> tuple[dict, dict]:
    """(add, mul) tables of F_q for any q in PRIME_POWERS."""
    if q in EXTENSIONS:
        return extension_field_tables(*EXTENSIONS[q])
    return prime_field_tables(q)


def brute_weight(t: Digits) -> int:
    return sum(1 for d in t if d)


def brute_distance(u: Digits, v: Digits) -> int:
    return sum(1 for a, b in zip(u, v) if a != b)


def brute_in_ball(tuples: Iterable[Digits], r: int) -> int:
    """How many of the tuples have at most r nonzero entries, one by one."""
    return sum(1 for t in tuples if brute_weight(t) <= r)


def tuple_neg(u: Digits, q: int, add: dict) -> Digits:
    """-u entry by entry: the b with a + b = 0 in the supplied table."""
    return tuple(next(b for b in range(q) if add[(a, b)] == 0) for a in u)


def all_tuples(q: int, n: int) -> Iterable[Digits]:
    return itertools.product(range(q), repeat=n)


def tuple_add(u: Digits, v: Digits, add: dict) -> Digits:
    return tuple(add[(a, b)] for a, b in zip(u, v))


def span_in_message_order(rows: Sequence[Digits], q: int, n: int, add: dict,
                          mul: dict) -> list[Digits]:
    """sum_i a_i rows_i for every message a, ascending in base-q order with
    a_1 least significant; duplicates kept."""
    out = []
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        acc = (0,) * n
        for a, row in zip(reversed(coeffs), rows):
            acc = tuple_add(acc, tuple(mul[(a, d)] for d in row), add)
        out.append(acc)
    return out


def brute_span_weights(rows: Sequence[Digits], q: int, n: int, add: dict,
                       mul: dict) -> Counter:
    """Weight -> number of distinct members of the span of the rows, from
    the digit tuple of every coefficient tuple (itertools.product)."""
    span = set(span_in_message_order(rows, q, n, add, mul))
    return Counter(brute_weight(t) for t in span)


def brute_ball_volume(n: int, r: int, q: int) -> int:
    return sum(1 for t in all_tuples(q, n) if brute_weight(t) <= r)


def brute_weight_histogram(n: int, q: int) -> list[int]:
    counts = [0] * (n + 1)
    for t in all_tuples(q, n):
        counts[brute_weight(t)] += 1
    return counts


def brute_rank(rows: Sequence[Digits], q: int, add: dict, mul: dict) -> int:
    """Rank by Gaussian elimination over the supplied field tables."""
    neg = {a: next(b for b in range(q) if add[(a, b)] == 0) for a in range(q)}
    inv = {a: next(b for b in range(q) if mul[(a, b)] == 1) for a in range(1, q)}
    work = [list(row) for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        scale = inv[work[rank][col]]
        work[rank] = [mul[(scale, entry)] for entry in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                factor = neg[work[i][col]]
                work[i] = [
                    add[(entry, mul[(factor, lead)])]
                    for entry, lead in zip(work[i], work[rank])
                ]
        rank += 1
    return rank


def brute_shattered(S: Iterable[Digits], U: Sequence[int], q: int) -> bool:
    """Everywhere-differing covering check; U holds 0-based coordinates."""
    members = list(S)
    for pattern in itertools.product(range(q), repeat=len(U)):
        if not any(
            all(v[coord] != pattern[j] for j, coord in enumerate(U)) for v in members
        ):
            return False
    return True


def valid_covering_map(S: Iterable[Digits], U: Iterable[int], c: int, q: int,
                       covering_map: dict[Digits, Digits]) -> bool:
    """A shattering witness's map is total on F_q^U, |U| = c, and sends each
    pattern to a member of S differing from it on every coordinate of U
    (1-based coordinates, patterns in ascending-U order)."""
    members = set(S)
    cols = sorted(U)
    if len(cols) != c or set(covering_map) != set(all_tuples(q, c)):
        return False
    return all(
        v in members and all(v[j - 1] != u[i] for i, j in enumerate(cols))
        for u, v in covering_map.items()
    )


def binary_chain_length_bound(L: int, ell: int, c: int) -> float:
    """(1/c) log2(L/2) - (1 - 1/c) log2(ell), the chain bound at q = 2."""
    return math.log2(L / 2) / c - (1 - 1 / c) * math.log2(ell)


def brute_longest_chain(vectors: Iterable[Digits], c: int) -> int:
    """Longest chain where each member adds at least c fresh support coordinates."""
    supports = sorted({
        frozenset(i for i, d in enumerate(v) if d) for v in vectors
    })
    memo: dict[frozenset, int] = {}

    def best(covered: frozenset) -> int:
        if covered in memo:
            return memo[covered]
        result = 0
        for supp in supports:
            if len(supp - covered) >= c:
                result = max(result, 1 + best(covered | supp))
        memo[covered] = result
        return result

    return best(frozenset())


def uncut_longest_chain(vectors: Iterable[Digits], c: int) -> int:
    """The chain oracle's memoized search over covered-support masks with
    no cut: from every state it tries every support mask that adds at
    least c fresh coordinates."""
    masks = sorted({sum(1 << i for i, d in enumerate(v) if d) for v in vectors})

    @functools.lru_cache(maxsize=None)
    def best(covered: int) -> int:
        top = 0
        for m in masks:
            if (m & ~covered).bit_count() >= c:
                top = max(top, 1 + best(covered | m))
        return top

    return best(0)


@functools.lru_cache(maxsize=None)
def brute_pair_sums(n: int, r: int, q: int) -> tuple[Counter, int]:
    """How many pairs of ball points sum to each tuple, pair by pair, and
    the ball volume."""
    add, _ = field_tables(q)
    ball = [t for t in all_tuples(q, n) if brute_weight(t) <= r]
    return Counter(tuple_add(z1, z2, add) for z1 in ball for z2 in ball), len(ball)


def brute_pair_hits(n: int, r: int, q: int, center: Digits) -> tuple[int, int]:
    """Count ball pairs whose sum lands within radius r of the center.

    Returns (hits, ball volume); the probability is hits / volume**2.
    """
    sums, volume = brute_pair_sums(n, r, q)
    add, _ = field_tables(q)
    neg = tuple_neg(center, q, add)
    hits = sum(count for s, count in sums.items()
               if brute_weight(tuple_add(s, neg, add)) <= r)
    return hits, volume


def brute_pair_sum_probability(n: int, r: int, q: int, center: Digits) -> Fraction:
    hits, volume = brute_pair_hits(n, r, q, center)
    return Fraction(hits, volume * volume)


def brute_list_decode_l_max(
    codewords: Sequence[Digits], radius: int, q: int, n: int
) -> int:
    """Maximum number of codewords in any radius ball, by scanning all centers."""
    best = 0
    for center in all_tuples(q, n):
        count = sum(1 for w in codewords if brute_distance(center, w) <= radius)
        best = max(best, count)
    return best


def replay_ld_montecarlo(rows: Sequence[Digits], q: int, n: int, r: int,
                         trials: int, rng: random.Random, add: dict,
                         mul: dict) -> tuple[dict[int, int], int, Digits]:
    """The Monte Carlo list-size check replayed on digit tuples:
    (histogram, max count, witness center).

    The distinct codewords are kept in message order.  Each trial draws
    a codeword by rng.randrange over them, adds noise drawn as
    `stdlib_ball_digits` draws it, and counts the codewords within r of
    the sum one by one; the witness is the first center of the largest
    count.
    """
    codewords = list(dict.fromkeys(span_in_message_order(rows, q, n, add, mul)))
    histogram: dict[int, int] = {}
    best, witness = -1, (0,) * n
    for _ in range(trials):
        seed = codewords[rng.randrange(len(codewords))]
        center = tuple_add(seed, stdlib_ball_digits(n, r, q, rng), add)
        count = sum(1 for w in codewords if brute_distance(center, w) <= r)
        histogram[count] = histogram.get(count, 0) + 1
        if count > best:
            best, witness = count, center
    return histogram, best, witness


def brute_ball(n: int, r: int, q: int) -> list[Digits]:
    """Every tuple of F_q^n with at most r nonzero digits."""
    out = []
    for w in range(min(r, n) + 1):
        for support in itertools.combinations(range(n), w):
            for values in itertools.product(range(1, q), repeat=w):
                t = [0] * n
                for i, v in zip(support, values):
                    t[i] = v
                out.append(tuple(t))
    return out


def brute_coset_tally(rows: Sequence[Digits], q: int, n: int, r: int,
                      add: dict, mul: dict) -> dict[Digits, int]:
    """Coset representative -> number of points of B(0, r) in that coset.

    The representative of y is the least member of y + C when a tuple is
    read as a base-2^b number with the last coordinate most significant,
    which is how the library orders packed payloads.  C is enumerated
    with duplicates removed.
    """
    code = set(span_in_message_order(rows, q, n, add, mul))
    tally: dict[Digits, int] = {}
    for y in brute_ball(n, r, q):
        rep = min((tuple_add(y, c, add) for c in code), key=lambda t: t[::-1])
        tally[rep] = tally.get(rep, 0) + 1
    return tally


@functools.lru_cache(maxsize=None)
def _comb_cumulative_shells(n: int, r: int, q: int) -> list[int]:
    return list(itertools.accumulate(
        math.comb(n, i) * (q - 1) ** i for i in range(r + 1)))


def stdlib_ball_digits(n: int, r: int, q: int, rng: random.Random) -> Digits:
    """A uniform point of B(0, r) in F_q^n, drawn with the stdlib calls
    the library's sampler reproduces word for word: randrange over the
    cumulative shell sizes C(n, i)(q-1)^i for the weight, rng.sample for
    the support, and randrange(1, q) per support position in increasing
    order."""
    cum = _comb_cumulative_shells(n, r, q)
    w = bisect.bisect_left(cum, rng.randrange(cum[-1]) + 1)
    digits = [0] * n
    for pos in sorted(rng.sample(range(n), w)):
        digits[pos] = rng.randrange(1, q)
    return tuple(digits)


def stdlib_uniform_digits(q: int, n: int, rng: random.Random) -> Digits:
    """n digits uniform over F_q by rng.randrange(q), digit 0 first."""
    return tuple(rng.randrange(q) for _ in range(n))
