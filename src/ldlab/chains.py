"""Constructive shattering and increasing-chain machinery over F_q^l.

Two facts drive this module, and both finders ship with brute-force
oracles that certify their output.

Everywhere-differing shattering: if |S| > 2((q-1)l)^(c-1), there is a
coordinate set U, |U| = c, such that every pattern u in F_q^U is
avoided coordinatewise by some v in S (v|_U differs from u in every
coordinate of U).  `shatter_find` implements the inductive proof as a
recursion that splits the last coordinate into S1 (prefixes extended by
at least one last digit) and S2 (by at least two) and recurses with
(l-1, c) or (l-1, c-1) respectively.

c-increasing chains: an ordered sequence v_1, ..., v_d is c-increasing
when each v_j contributes >= c support coordinates fresh over the union
of the previous supports.  `chain_find` produces a translate w and a
chain inside S + w of length at least
ceil((1/c) log_q(|S|/2) - (1 - 1/c) log_q((q-1)l)) whenever that bound
is positive: it shatters a size-c set U, restricts to the richest fiber
u0 (the averaging step), recurses on the remaining coordinates, and
appends an element everywhere-differing from u0 on U.

Both finders are deterministic: all ties break to the lexicographically
smallest digit tuple (coordinate 1 most significant).  They work on lex
keys: one int per vector with coordinate 1 in the most significant b-bit
digit, so int order is that tuple order, the last-coordinate split is
key >> b (prefix) and key & (2^b - 1) (last digit), and fibers and
projections are masks and shifts.  Vectors become keys once on entry and
back once on exit.

The brute-force `longest_chain_oracle` certifies results by memoized
search over covered-support masks.  A state with u uncovered coordinates
returns as soon as its chain reaches floor(u / c): every further member
adds at least c fresh coordinates, so no chain from there is longer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

from .codes import read_header
from .errors import ParameterError, check_budget, check_power
from .gfq import (FieldTable, VecQ, all_vectors, field_new, payload_weight,
                   shape_of)

ORACLE_DIM_BUDGET = 20
TRANSLATE_SCAN_BUDGET = 2 ** 16


def shatter_threshold(ell: int, c: int, q: int) -> int:
    """2((q-1)l)^(c-1): shatter_find is guaranteed above this size."""
    return 2 * ((q - 1) * ell) ** (c - 1)


def chain_length_bound(L: int, ell: int, c: int, q: int) -> float:
    """(1/c) log_q(L/2) - (1 - 1/c) log_q((q-1)l).

    chain_find's length is >= ceil of this whenever it is positive.  At
    q = 2 this is (1/c) log2(L/2) - (1 - 1/c) log2(l).
    """
    if L < 1:
        raise ParameterError(f"set size L={L} must be >= 1")
    if ell < 1 or c < 1:
        raise ParameterError(f"need ell>=1 and c>=1, got ell={ell}, c={c}")
    if q < 2:
        raise ParameterError(f"alphabet size q={q} must be >= 2")
    lq = math.log(q)
    return (math.log(L / 2) / c - (1 - 1 / c) * math.log((q - 1) * ell)) / lq


def _reverse_digits(ell: int, b: int, x: int) -> int:
    """x with the order of its ell b-bit digits reversed.

    Maps a payload (coordinate 1 in the least significant digit) to its
    lex key (coordinate 1 in the most significant digit) and back.  Keys
    compare as ints exactly as the digit tuples compare.
    """
    mask = (1 << b) - 1
    out = 0
    for _ in range(ell):
        out = (out << b) | (x & mask)
        x >>= b
    return out


@lru_cache(maxsize=None)
def _reversal(ell: int, b: int) -> Callable[[int], int]:
    """_reverse_digits for length ell: a table lookup when there are at
    most 2^12 payloads, the digit loop beyond."""
    if ell * b > 12:
        return partial(_reverse_digits, ell, b)
    return [_reverse_digits(ell, b, x) for x in range(1 << (ell * b))].__getitem__


def _lex_keys(S: Iterable[VecQ]) -> tuple[FieldTable, int, list[int]]:
    """Field, length and the ascending distinct lex keys of a nonempty set."""
    vecs = list(S)
    field, ell = shape_of(vecs)
    reverse = _reversal(ell, field.bits_per_digit)
    return field, ell, sorted({reverse(v.payload) for v in vecs})


@dataclass(frozen=True)
class ShatterWitness:
    """A coordinate set U with a covering map certifying shattering.

    U holds 1-based coordinates, |U| = c.  covering_map sends each
    pattern u in F_q^U (keyed as a digit tuple in ascending-U order) to
    a member of S whose restriction to U differs from u everywhere.
    """

    q: int
    ell: int
    c: int
    U: frozenset[int]
    covering_map: dict[tuple[int, ...], VecQ]


def shatter_verify(S: Iterable[VecQ], U: Iterable[int], q: int) -> bool:
    """Direct check: every u in F_q^U is avoided coordinatewise by some v in S.

    Cost q^|U| * |S|; independent of how U was found.
    """
    members = list(S)
    if not members:
        return False
    field, ell = shape_of(members)
    cols = sorted(set(U))
    if any(j < 1 or j > ell for j in cols):
        raise ParameterError(f"U={cols} not within [1, {ell}]")
    if field.q != q:
        raise ParameterError(f"q={q} does not match vector field q={field.q}")
    restrictions = {tuple(v.digit(j - 1) for j in cols) for v in members}
    for u in itertools.product(range(q), repeat=len(cols)):
        if not any(all(ri != ui for ri, ui in zip(r, u)) for r in restrictions):
            return False
    return True


def _shatter_keys(S: list[int], ell: int, q: int, b: int, c: int,
                  want_cover: bool) -> tuple[tuple[int, ...], dict | None] | None:
    """Recursive finder on ascending lex keys of length ell; returns
    (U 0-based ascending, pattern -> member key) or None.  The map is
    built only when want_cover is set (it is None otherwise).

    S is kept ascending, so the least member with a property is the
    first one found.
    """
    if c > ell or len(S) < 2:
        return None
    mask = (1 << b) - 1
    if c == 1:
        first = S[0]
        for j in range(ell):
            shift = (ell - 1 - j) * b
            d0 = (first >> shift) & mask
            other = next((t for t in S if (t >> shift) & mask != d0), None)
            if other is None:
                continue
            if not want_cover:
                return ((j,), None)
            cover = {(u,): first for u in range(q)}
            cover[(d0,)] = other
            return ((j,), cover)
        return None
    # Split off the last coordinate: prefix key >> b, last digit key & mask;
    # each prefix's last digits arrive in ascending order.
    extensions: dict[int, list[int]] = {}
    for t in S:
        extensions.setdefault(t >> b, []).append(t & mask)
    S1 = list(extensions)
    S2 = [y for y, bs in extensions.items() if len(bs) >= 2]
    thr1 = shatter_threshold(ell - 1, c, q)
    thr2 = 2 * ((q - 1) * (ell - 1)) ** (c - 2)
    # |S| <= |S1| + (q-1)|S2|, so above the (l, c) threshold one of the
    # two cases is above its own threshold; below it, try both anyway.
    order = (2, 1) if len(S2) > thr2 and len(S1) <= thr1 else (1, 2)
    for case in order:
        if case == 1:
            res = _shatter_keys(S1, ell - 1, q, b, c, want_cover)
            if res is not None:
                U, cover1 = res
                if want_cover:
                    cover1 = {u: (y << b) | extensions[y][0]
                              for u, y in cover1.items()}
                return (U, cover1)
        elif S2:
            res = _shatter_keys(S2, ell - 1, q, b, c - 1, want_cover)
            if res is not None:
                U1, cover2 = res
                U = U1 + (ell - 1,)
                if not want_cover:
                    return (U, None)
                cover = {}
                for u in itertools.product(range(q), repeat=c):
                    y = cover2[u[:-1]]
                    bs = extensions[y]
                    cover[u] = (y << b) | (bs[0] if bs[0] != u[-1] else bs[1])
                return (U, cover)
    return None


def shatter_find(S: Iterable[VecQ], c: int) -> ShatterWitness | None:
    """Find a size-c coordinate set shattered by S (everywhere-differing
    form), or None.

    Success is guaranteed when |S| > shatter_threshold(l, c, q); below
    the threshold the recursion is attempted anyway and may still
    succeed.  Output is deterministic in S as a set.
    """
    if c < 1:
        raise ParameterError(f"shattering size c={c} must be >= 1")
    field, ell, keys = _lex_keys(S)
    res = _shatter_keys(keys, ell, field.q, field.bits_per_digit, c, True)
    if res is None:
        return None
    U, cover = res
    reverse = _reversal(ell, field.bits_per_digit)
    covering_map = {u: VecQ(field, ell, reverse(t)) for u, t in sorted(cover.items())}
    return ShatterWitness(field.q, ell, c,
                          frozenset(j + 1 for j in U), covering_map)


@dataclass(frozen=True)
class Chain:
    """A c-increasing chain: translate w plus ordered members from S.

    The defining property (checked by chain_verify) is that each
    translated member v_j + w contributes at least c support
    coordinates outside the union of the previous translated supports.
    """

    ell: int
    c: int
    translate_w: VecQ
    members: tuple[VecQ, ...]

    @property
    def d(self) -> int:
        return len(self.members)

    @property
    def q(self) -> int:
        return self.translate_w.field.q

    def verify(self) -> bool:
        return chain_verify(self.translate_w, self.members, self.c)


def chain_verify(translate_w: VecQ, members: Sequence[VecQ], c: int) -> bool:
    """True iff every member adds >= c fresh support coordinates after
    translation by w (vacuously true for the empty chain)."""
    if c < 1:
        raise ParameterError(f"freshness threshold c={c} must be >= 1")
    shape_of((translate_w, *members))
    covered: frozenset[int] = frozenset()
    for v in members:
        supp = (v + translate_w).support()
        if len(supp - covered) < c:
            return False
        covered |= supp
    return True


def _chain_keys(S: list[int], ell: int, field: FieldTable,
                c: int) -> tuple[int, list[int]]:
    """(translate key, member keys) for ascending lex keys S of length ell."""
    if ell < c:
        return (0, [])
    b = field.bits_per_digit
    mask = (1 << b) - 1
    res = _shatter_keys(S, ell, field.q, b, c, False)
    if res is None:
        # Best effort: one member, translated onto the all-ones vector.
        v1 = S[0]
        w = 0
        for shift in range((ell - 1) * b, -1, -b):
            w |= field.sub(1, (v1 >> shift) & mask) << shift
        return (w, [v1])
    U, _ = res
    col_shifts = [(ell - 1 - j) * b for j in U]
    rest_shifts = [(ell - 1 - j) * b for j in range(ell) if j not in U]
    # A fiber is keyed by its members masked to the digits of U, which
    # orders fibers as their patterns on U.
    col_mask = sum(mask << shift for shift in col_shifts)
    fibers: dict[int, list[int]] = {}
    for t in S:
        fibers.setdefault(t & col_mask, []).append(t)
    u0 = min(fibers, key=lambda u: (-len(fibers[u]), u))
    v_last = next(t for t in S
                  if payload_weight(field, ell, (t ^ u0) & col_mask) == c)
    w = 0
    for shift in col_shifts:
        w |= field.neg((u0 >> shift) & mask) << shift
    if not rest_shifts:
        return (w, [v_last])
    # Project the richest fiber onto the other coordinates; its members
    # agree on U, so the projection keeps their order and identity.
    fiber: dict[int, int] = {}
    for t in fibers[u0]:
        y = 0
        for shift in rest_shifts:
            y = (y << b) | ((t >> shift) & mask)
        fiber[y] = t
    w_prime, chain_prime = _chain_keys(list(fiber), len(rest_shifts), field, c)
    for shift in reversed(rest_shifts):
        w |= (w_prime & mask) << shift
        w_prime >>= b
    return (w, [fiber[y] for y in chain_prime] + [v_last])


def chain_find(S: Iterable[VecQ], c: int, q: int) -> Chain:
    """Construct a translate w and a c-increasing chain in S + w.

    Length is >= ceil(chain_length_bound(|S|, l, c, q)) whenever that
    bound is positive; otherwise a best-effort chain (length 1 when
    l >= c, else empty).  Deterministic in S as a set.
    """
    if c < 1:
        raise ParameterError(f"freshness threshold c={c} must be >= 1")
    field, ell, keys = _lex_keys(S)
    if field.q != q:
        raise ParameterError(f"q={q} does not match vector field q={field.q}")
    w, members = _chain_keys(keys, ell, field, c)
    reverse = _reversal(ell, field.bits_per_digit)
    return Chain(ell, c, VecQ(field, ell, reverse(w)),
                 tuple(VecQ(field, ell, reverse(t)) for t in members))


def longest_chain_oracle(T: Iterable[VecQ], c: int) -> int:
    """Exact maximum c-increasing chain length within T (no translate).

    Memoized search over covered-support masks; requires l <= 20.
    Vectors with equal support are interchangeable here, so the search
    runs on the deduplicated support masks.
    """
    if c < 1:
        raise ParameterError(f"freshness threshold c={c} must be >= 1")
    vecs = list(T)
    if not vecs:
        return 0
    _, ell = shape_of(vecs)
    check_budget("oracle dimension l", ell, ORACLE_DIM_BUDGET)
    # Masks with fewer than c coordinates never join a chain.
    masks = sorted({m for v in vecs if (m := v.support_mask()).bit_count() >= c})

    @lru_cache(maxsize=None)
    def best(covered: int) -> int:
        # Each further member adds >= c fresh coordinates, so no chain
        # from here is longer than cap: stop as soon as one reaches it.
        cap = (ell - covered.bit_count()) // c
        top = 0
        if cap:
            for m in masks:
                if (m & ~covered).bit_count() >= c:
                    cand = 1 + best(covered | m)
                    if cand > top:
                        top = cand
                        if top >= cap:
                            break
        return top

    return best(0)


def oracle_best_translate(S: Iterable[VecQ], c: int) -> tuple[int, VecQ]:
    """Scan all q^l translates w, reporting (max oracle length, first w
    attaining it in payload order).  Budget q^l <= 2^16."""
    vecs = list(S)
    field, ell = shape_of(vecs)
    check_power("translate scan q^l", field.q, ell, budget=TRANSLATE_SCAN_BUDGET)
    best_d = -1
    best_w = None
    for w in all_vectors(field, ell):
        d = longest_chain_oracle([v + w for v in vecs], c)
        if d > best_d:
            best_d = d
            best_w = w
            if best_d >= ell // c:
                break    # no chain in F_q^l is longer
    return best_d, best_w


def format_vector_set(vectors: Iterable[VecQ]) -> str:
    """Text format: header `q ell`, then one digit string per line,
    sorted (string order is digit order, as 0-9 sort before a-f)."""
    vecs = list(vectors)
    field, ell = shape_of(vecs)
    return "\n".join([f"{field.q} {ell}", *sorted(map(str, vecs))]) + "\n"


def parse_vector_set(text: str) -> list[VecQ]:
    """Inverse of format_vector_set (order preserved as listed)."""
    lines, (q, ell) = read_header(text, "header", "q ell", 1,
                                  "empty vector-set file")
    field = field_new(q)
    out = []
    for ln in lines[1:]:
        if len(ln) != ell:
            raise ParameterError(f"vector {ln!r} has length {len(ln)}, expected {ell}")
        out.append(VecQ.from_string(field, ln))
    if not out:
        raise ParameterError("vector-set file lists no vectors")
    return out


def format_chain(chain: Chain) -> str:
    """Text format: header `q ell c`, translate line `w <digits>`, then
    one member per line."""
    lines = [f"{chain.q} {chain.ell} {chain.c}", f"w {chain.translate_w}"]
    lines.extend(str(v) for v in chain.members)
    return "\n".join(lines) + "\n"


def parse_chain(text: str) -> Chain:
    """Inverse of format_chain; round-trips exactly."""
    lines, (q, ell, c) = read_header(
        text, "chain header", "q ell c", 2,
        "chain file needs a header and a translate line")
    if ell < 1 or c < 1:
        raise ParameterError(f"bad chain header {lines[0]!r}; need ell >= 1, c >= 1")
    wparts = lines[1].split()
    if len(wparts) != 2 or wparts[0] != "w":
        raise ParameterError(f"bad translate line {lines[1]!r}; expected 'w <digits>'")
    field = field_new(q)
    w = VecQ.from_string(field, wparts[1])
    if w.n != ell:
        raise ParameterError(f"translate length {w.n} != ell {ell}")
    members = []
    for ln in lines[2:]:
        if len(ln) != ell:
            raise ParameterError(f"member {ln!r} has length {len(ln)}, expected {ell}")
        members.append(VecQ.from_string(field, ln))
    return Chain(ell, c, w, tuple(members))


def format_witness(witness: ShatterWitness) -> str:
    """Text format: header `q ell c`, line `U <1-based coords>`, then one
    `pattern member` pair per line in pattern order."""
    lines = [f"{witness.q} {witness.ell} {witness.c}",
             "U " + " ".join(str(j) for j in sorted(witness.U))]
    for u in sorted(witness.covering_map):
        member = witness.covering_map[u]
        lines.append("".join(format(d, "x") for d in u) + " " + str(member))
    return "\n".join(lines) + "\n"


def parse_witness(text: str) -> ShatterWitness:
    """Inverse of format_witness; round-trips exactly."""
    lines, (q, ell, c) = read_header(
        text, "witness header", "q ell c", 2,
        "witness file needs a header and a U line")
    uparts = lines[1].split()
    if not uparts or uparts[0] != "U":
        raise ParameterError(f"bad U line {lines[1]!r}")
    try:
        U = frozenset(int(x) for x in uparts[1:])
    except ValueError:
        raise ParameterError(f"bad U line {lines[1]!r}") from None
    if len(U) != c:
        raise ParameterError(f"|U|={len(U)} does not match c={c}")
    field = field_new(q)
    covering_map = {}
    if ell < 1 or c < 1 or not all(1 <= u <= ell for u in U):
        raise ParameterError(f"witness coordinates {sorted(U)} outside [1, {ell}]")
    for ln in lines[2:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParameterError(f"bad covering line {ln!r}")
        if len(parts[0]) != c:
            raise ParameterError(f"pattern {parts[0]!r} has length != c={c}")
        try:
            pattern = tuple(int(ch, 16) for ch in parts[0])
        except ValueError:
            raise ParameterError(f"pattern {parts[0]!r} is not hex digits") from None
        if any(not 0 <= d < q for d in pattern):
            raise ParameterError(f"pattern {parts[0]!r} has digits outside F_{q}")
        member = VecQ.from_string(field, parts[1])
        if member.n != ell:
            raise ParameterError(
                f"member {parts[1]!r} has length {member.n}, expected {ell}")
        covering_map[pattern] = member
    if len(covering_map) != q ** c:
        raise ParameterError(
            f"covering map lists {len(covering_map)} patterns, expected {q ** c}")
    return ShatterWitness(q, ell, c, U, covering_map)
