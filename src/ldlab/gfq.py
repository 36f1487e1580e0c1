"""Exact arithmetic over small finite fields and packed vectors over them.

Fields F_q are supported for every prime power q with 2 <= q <= 16.
Field elements are integers in [0, q).  For prime q the integer is the
residue mod q.  For q = p^d the base-p digits of the integer are the
coefficients of a polynomial in x (least significant digit = constant
term) and arithmetic is modulo a fixed irreducible polynomial:

    q = 4    x^2 + x + 1
    q = 8    x^3 + x + 1
    q = 9    x^2 + 2x + 2
    q = 16   x^4 + x + 1

These choices are frozen so that tables, vector payloads and serialized
artifacts are bit-for-bit reproducible.

Vectors (`VecQ`) pack one coordinate per ceil(log2 q) bits of a Python
int, least significant digit = coordinate 1.  All values are immutable
after construction.  Coordinate indices in public APIs (supports,
shattering sets) are 1-based.

The payload kernels (`payload_add`, `payload_scale`, `payload_weight`,
`block_in_balls`, `payload_distance`, `echelon`, `payload_reduce`) are
the single implementation of field arithmetic on packed vectors: `VecQ`
methods, `rank_of` and the other modules wrap them, and no other module
reads the field tables.  `payload_add` picks its kernel by q: XOR for
characteristic 2 (q = 2, 4, 8, 16), the one F_3 plane add `_plane_add`
(six AND/OR/XOR operations) on the two bit planes of every digit for
q = 3 (see `_plane_mask`), SWAR lanes for the other odd primes (5, 7,
11, 13; one integer add across every digit, see `_lane_masks`), and for
q = 9 the F_3 planes of each digit's coefficients c0, c1 (F_9 adds
coefficientwise): one `bytes.translate` turns each byte, two F_9 digits,
into four F_3 digits, and one turns the sum back.  The plane and lane
masks are kept per power-of-two width class of the operands, so a short
add never pays for masks built for a longer one.  `payload_scale`
negates for prime q without a digit loop: at q = 3 by swapping the two
bit planes, for the other odd primes as q * flags - x, flags marking the
nonzero digits, where no digit borrows since each is below q.  At q = 3
every scalar is 0, 1 or -1, so `echelon` (the one elimination, behind
`rank_of` and the coset labels in `codes`) and `payload_reduce` scale
there without a digit loop; other scalars, and q = 4, 8, 9, 16, keep it.

Every add acts on integers of any width, so it also acts on a block:
many payloads of F_q^n side by side in fixed-width slots, each wide
enough for n digits (`slot_width`, `slot_ones`, `pack_slots`,
`unpack_slots`).  One `payload_add` of a block and step * `slot_ones`
adds the step to every slot, for every q; the span enumerator
`_span_block` and the ball walk in `hamming` add whole blocks so.
`span_count_block` gives the block a span is counted on: one member per
projective class of the nonzero messages, (q^l - 1) / (q - 1) slots in
place of q^l, since the nonzero multiples of a member share its support.
At q = 3 it holds only their supports, one bit per coordinate, built on
two blocks of that layout, the low and high bit planes of the members,
with `_plane_add` and no masks, and counted as a block of F_2^n: half
the bits of the interleaved digits.  `block_in_balls` counts the slots
of a block that lie in Hamming balls around 0, one count per radius
asked: it OR-folds every digit onto a flag (`_digit_flags`, which
`payload_weight` shares) and sums the flags per slot, once per slice of
the block: for slots of at most 255 digits by a SWAR popcount of every
byte and one multiply that sums each slot's bytes, for wider ones in a
tree of masked adds.  It then finds the slots over each radius with one
biased add and one `bit_count`.  It
is the one batch count: the span trial and the list-decoding checkers in
`codes` count their packed blocks with it, and nothing counts a ball
payload by payload.  No other module reads a field's characteristic or
degree either, so every choice of kernel by q, the span count's among
them, is made here.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError, shorten

MAX_Q = 16

# Irreducible modulus per extension field, little-endian coefficients.
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
}

_DIGIT_CHARS = "0123456789abcdef"


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, d) with q = p**d and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if any(p % f == 0 for f in range(2, p)):
            continue
        if q % p:
            continue
        d = 0
        m = q
        while m % p == 0:
            m //= p
            d += 1
        return (p, d) if m == 1 else None
    return None


def _poly_mul_mod(a: int, b: int, p: int, modulus: tuple[int, ...]) -> int:
    """Multiply field elements written as base-p digit integers."""
    da = []
    while a:
        da.append(a % p)
        a //= p
    db = []
    while b:
        db.append(b % p)
        b //= p
    prod = [0] * (len(da) + len(db))
    for i, ai in enumerate(da):
        for j, bj in enumerate(db):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg):
                prod[i - deg + j] = (prod[i - deg + j] - c * modulus[j]) % p
    out = 0
    for i in range(min(len(prod), deg) - 1, -1, -1):
        out = out * p + prod[i]
    return out


class FieldTable:
    """Precomputed arithmetic tables for F_q.

    Instances are canonical per q (see :func:`field_new`); equality and
    hashing go by q alone.
    """

    __slots__ = ("q", "characteristic", "degree", "bits_per_digit",
                 "add_table", "mul_table", "neg_table", "inv_table")

    def __init__(self, q: int, characteristic: int, degree: int,
                 add_table, mul_table, neg_table, inv_table):
        self.q = q
        self.characteristic = characteristic
        self.degree = degree
        self.bits_per_digit = (q - 1).bit_length()
        self.add_table = add_table
        self.mul_table = mul_table
        self.neg_table = neg_table
        self.inv_table = inv_table

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    def __eq__(self, other):
        return isinstance(other, FieldTable) and other.q == self.q

    def __hash__(self):
        return hash(("FieldTable", self.q))

    def __repr__(self):
        return f"FieldTable(q={self.q})"


@lru_cache(maxsize=None)
def field_new(q: int) -> FieldTable:
    """Build (or fetch the cached) arithmetic tables for F_q, 2 <= q <= 16."""
    if not isinstance(q, int) or q < 2 or q > MAX_Q:
        raise ParameterError(f"field size q={q!r} outside supported range [2, {MAX_Q}]")
    pd = _prime_power(q)
    if pd is None:
        raise ParameterError(f"field size q={q} is not a prime power")
    p, d = pd
    if d == 1:
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
    else:
        modulus = _IRREDUCIBLE[q]

        def poly_add(a: int, b: int) -> int:
            out, shift = 0, 1
            while a or b:
                out += ((a % p + b % p) % p) * shift
                a //= p
                b //= p
                shift *= p
            return out

        add = tuple(tuple(poly_add(a, b) for b in range(q)) for a in range(q))
        mul = tuple(tuple(_poly_mul_mod(a, b, p, modulus) for b in range(q))
                    for a in range(q))
    neg = tuple(next(b for b in range(q) if add[a][b] == 0) for a in range(q))
    inv = (0,) + tuple(next(b for b in range(1, q) if mul[a][b] == 1)
                       for a in range(1, q))
    return FieldTable(q, p, d, add, mul, neg, inv)


@lru_cache(maxsize=None)
def _ones_mask(bits_per_digit: int, n: int) -> int:
    # bit i*bits_per_digit set for every coordinate i
    return ((1 << (n * bits_per_digit)) - 1) // ((1 << bits_per_digit) - 1)


def slot_ones(width: int, count: int) -> int:
    """Bit j*width set for every j < count (width a multiple of 8): a 1 in
    every slot of a block."""
    return int.from_bytes((1).to_bytes(width // 8, sys.byteorder) * count,
                          sys.byteorder)


# array / memoryview format of an unsigned slot of each machine width
_SLOT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}

# block_in_balls, the one batch count, counts a block at most this many
# slots at a time, so its masks and temporaries stay this size
_BATCH = 4096


def slot_width(b: int, bits: int) -> int:
    """Slot width for a block of payloads below 2**bits, digits b bits wide.

    Every block in ldlab holds vectors of F_q^n and asks for bits = n*b:
    n digits per slot, whatever the payloads in it, so blocks of one n
    share their width.  A block holds payload j in bits [j*width,
    (j+1)*width).  The width is a multiple of b, so every digit of the
    block sits on a digit boundary and the payload kernels act on all
    slots at once.  It is the first of 8, 16, 32 and 64 that is such a
    multiple and wide enough, so that `unpack_slots` is one
    `memoryview.cast`; failing that (b = 3, or more than 64 bits) the
    smallest wide enough multiple of both b and 8.
    """
    need = max(b, -(-bits // b) * b)
    for width in _SLOT_CODES:
        if width >= need and width % b == 0:
            return width
    step = 8 * b // math.gcd(8, b)
    return -(-need // step) * step


def pack_slots(values: Iterable[int], width: int) -> int:
    """The block with the j-th value in slot j (width a multiple of 8):
    the inverse of `unpack_slots`."""
    code = _SLOT_CODES.get(width)
    if code:
        data = array(code, values)
    else:
        step = width // 8
        data = b"".join(v.to_bytes(step, sys.byteorder) for v in values)
    return int.from_bytes(data, sys.byteorder)


def unpack_slots(block: int, width: int, count: int) -> Sequence[int]:
    """The count slots of a block (width a multiple of 8), lowest first."""
    data = block.to_bytes(count * width // 8, sys.byteorder)
    code = _SLOT_CODES.get(width)
    if code:
        return memoryview(data).cast(code)
    step = width // 8
    return [int.from_bytes(data[i:i + step], sys.byteorder)
            for i in range(0, len(data), step)]


def _span_block(field: FieldTable, n: int,
                payloads: Sequence[int]) -> tuple[int, int, int]:
    """(block, width, count): every combination sum a_i x_i of the
    payloads of F_q^n in slot j of a packed block for message j, in
    base-q order (a_1 least significant); duplicates are kept.  It is the
    one enumerator of whole members, behind a code's codeword block and
    `span_payloads`; the span count at q = 3 builds only the members'
    supports (`span_count_block`).

    The members found so far sit in one packed block, member j in slot j
    of n digits (see `slot_width`).  Row x then appends the q^i
    members base + a x for each scalar a = 1 .. q - 1 in turn, each part
    one `payload_add` of the part before it and the step repeated in every
    slot (times the row's one `slot_ones`), so a span of q^l members takes
    l (q - 1) block adds.  The step is (a - (a - 1)) x: x itself for prime
    q, one small `payload_scale` otherwise.
    """
    q = field.q
    width = slot_width(field.bits_per_digit, n * field.bits_per_digit)
    block, count = 0, 1
    for x in payloads:
        part, shift = block, count * width
        ones = slot_ones(width, count)
        for a in range(1, q):
            step = payload_scale(field, field.sub(a, a - 1), x)
            part = payload_add(field, part, step * ones)
            block |= part << (a * shift)
        count *= q
    return block, width, count


def span_count_block(field: FieldTable, n: int, payloads: Sequence[int]
                     ) -> tuple[FieldTable, int, int, int, int]:
    """(field, n, block, width, count) for `block_in_balls`: one member of
    the span of the l >= 1 payloads of F_q^n per projective class of the
    nonzero messages, count = (q^l - 1) / (q - 1) slots, each with the
    weight of its member.

    The nonzero multiples of a message give members of one support, so a
    class is counted once, by its message whose last nonzero coefficient
    is 1.  In `_span_block`'s base-q order these are the slots [q^i, 2 q^i)
    for i < l: x_{i+1} plus each combination of the rows before it.  Part
    i, those q^i members, follows part i - 1 in the block.  Each part is
    one step of x_{i+1} onto the first q^i slots of the full block of the
    first l - 1 rows, so the last row's parts for the scalars 2 .. q - 1
    are never built.  At q = 2 every class is one member, and the block
    is `_span_block`'s without its slot 0.  For q other than 2 and 3 each
    step is one `payload_add` onto that block's prefix.

    At q = 3 the block holds only the members' supports, one bit per
    coordinate in `slot_width(1, n)` slots, and the field returned is
    F_2.  All rows are split into their low and high bit planes from one
    binary text.  The full block is built on two such planes, with the
    steps of `_span_block`, each one `_plane_add` of the row's planes
    repeated in every slot; part i is the OR of the planes of row i + 1's
    first step, base + x_{i+1}, which is the last row's only step.
    """
    q, rows = field.q, len(payloads)
    if q == 2:
        block, width, count = _span_block(field, n, payloads)
        return field, n, block >> width, width, count - 1
    if q != 3:
        block, width, _ = _span_block(field, n, payloads[:-1])
        parts, count = 0, 0
        for i, x in enumerate(payloads):
            prefix = block & (1 << q ** i * width) - 1
            step = x * slot_ones(width, q ** i)
            parts |= payload_add(field, prefix, step) << count * width
            count += q ** i
        return field, n, parts, width, count
    # one text of every row, row i at digits i n ..: even chars are high bits
    joined = 0
    for x in reversed(payloads):
        joined = joined << 2 * n | x
    bits = format(joined, f"0{2 * n * rows}b")
    lows, highs, digits = int(bits[1::2], 2), int(bits[::2], 2), (1 << n) - 1
    width = slot_width(1, n)
    low = high = parts = 0
    count = 1
    for i in range(rows):
        ones, shift = slot_ones(width, count), count * width
        xl = (lows >> i * n & digits) * ones
        xh = (highs >> i * n & digits) * ones
        part_l, part_h = _plane_add(low, high, xl, xh)  # base + x
        parts |= (part_l | part_h) << (count - 1) // 2 * width
        if i == rows - 1:
            break
        low |= part_l << shift
        high |= part_h << shift
        part_l, part_h = _plane_add(part_l, part_h, xl, xh)  # base + 2x
        low |= part_l << 2 * shift
        high |= part_h << 2 * shift
        count *= 3
    return field_new(2), n, parts, width, (3 * count - 1) // 2


# (q, k) -> (even, bias, low) for the SWAR lane branch of payload_add
# (q = 5, 7, 11, 13), and k -> the plane mask of its q = 3 branch, each
# covering payloads below 2**(2**k); filled on first use, never at import.
# Classes above _LANE_CACHE_MAX_K are built per call and not kept: their
# masks cost a few big-int operations against the add's six to twenty,
# and kept they would hold memory in proportion to the largest block ever
# added.
_LANE_MASKS: dict[tuple[int, int], tuple[int, int, int]] = {}
_PLANE_MASKS: dict[int, int] = {}
_LANE_CACHE_MAX_K = 16


def _plane_mask(k: int) -> int:
    """Bit 2i set for every digit i of an F_3 payload below 2**(2**k): the
    low bit plane in place, and the high one after a shift right by 1."""
    bits = 2 * -(-(1 << k) // 2)
    # not _ones_mask, whose cache would keep the classes not kept here
    ones = ((1 << bits) - 1) // 3
    if k <= _LANE_CACHE_MAX_K:
        _PLANE_MASKS[k] = ones
    return ones


def _lane_masks(q: int, b: int, k: int) -> tuple[int, int, int]:
    """SWAR masks for F_q, q an odd prime, covering payloads below 2**(2**k).

    The payload's b-bit digits are split into even- and odd-indexed ones,
    each in a lane of 2b bits.  `even` selects the even digits, `low` is
    bit 0 of every lane and `bias` holds 2^b - q in every lane, so that a
    lane sum s < 2q carries into bit b exactly when s >= q.  Masks are
    chosen by the width class 2**k of the operands, so a short add after
    a long one still works on short masks.
    """
    lane = 2 * b
    lanes = -(-(1 << k) // lane)
    # not _ones_mask, whose cache would keep the classes not kept here
    low = ((1 << (lanes * lane)) - 1) // ((1 << lane) - 1)
    masks = (low * ((1 << b) - 1), low * ((1 << b) - q), low)
    if k <= _LANE_CACHE_MAX_K:
        _LANE_MASKS[q, k] = masks
    return masks


class VecQ:
    """Immutable length-n vector over F_q with packed digit storage."""

    __slots__ = ("field", "n", "payload")

    def __init__(self, field: FieldTable, n: int, payload: int):
        self.field = field
        self.n = n
        self.payload = payload

    @classmethod
    def zero(cls, field: FieldTable, n: int) -> "VecQ":
        if n < 1:
            raise ParameterError(f"vector length n={n} must be >= 1")
        return cls(field, n, 0)

    @classmethod
    def from_digits(cls, field: FieldTable, digits: Sequence[int]) -> "VecQ":
        n = len(digits)
        if n < 1:
            raise ParameterError("vector needs at least one coordinate")
        b = field.bits_per_digit
        payload = 0
        for i, dgt in enumerate(digits):
            if not 0 <= dgt < field.q:
                raise ParameterError(f"digit {dgt!r} not in [0, {field.q})")
            payload |= dgt << (i * b)
        return cls(field, n, payload)

    @classmethod
    def from_string(cls, field: FieldTable, text: str) -> "VecQ":
        """Parse a digit string; digits are base-16 characters 0-9a-f."""
        try:
            digits = [int(ch, 16) for ch in text.strip()]
        except ValueError:
            raise ParameterError(
                f"bad digit in vector string {shorten(repr(text))}") from None
        return cls.from_digits(field, digits)

    def digit(self, i: int) -> int:
        """Digit at 0-based index i."""
        b = self.field.bits_per_digit
        return (self.payload >> (i * b)) & ((1 << b) - 1)

    def digits(self) -> tuple[int, ...]:
        b = self.field.bits_per_digit
        mask = (1 << b) - 1
        x = self.payload
        out = []
        for _ in range(self.n):
            out.append(x & mask)
            x >>= b
        return tuple(out)

    def weight(self) -> int:
        """Number of nonzero coordinates."""
        return payload_weight(self.field, self.n, self.payload)

    def support(self) -> frozenset[int]:
        """1-based indices of the nonzero coordinates."""
        mask = self.support_mask()
        return frozenset(i + 1 for i in range(self.n) if mask >> i & 1)

    def support_mask(self) -> int:
        """Bit i set iff coordinate i+1 is nonzero."""
        b = self.field.bits_per_digit
        if b == 1:
            return self.payload
        flags = _digit_flags(b, self.payload, _ones_mask(b, self.n))
        # Keep every b-th bit of the flags, from bit 0 up.
        return int(format(flags, "b")[::-b][::-1], 2)

    def distance(self, other: "VecQ") -> int:
        """Hamming distance; requires matching field and length."""
        self._check_mate(other)
        return payload_distance(self.field, self.n, self.payload, other.payload)

    def _check_mate(self, other: "VecQ") -> None:
        if type(other) is VecQ and other.field is self.field and other.n == self.n:
            return
        if not isinstance(other, VecQ):
            raise ParameterError(f"expected VecQ, got {type(other).__name__}")
        if other.field.q != self.field.q or other.n != self.n:
            raise ParameterError(
                f"mismatched vectors: (q={self.field.q}, n={self.n}) vs "
                f"(q={other.field.q}, n={other.n})")

    def __add__(self, other: "VecQ") -> "VecQ":
        self._check_mate(other)
        return VecQ(self.field, self.n,
                    payload_add(self.field, self.payload, other.payload))

    def __neg__(self) -> "VecQ":
        # -v = (-1) * v in any field
        f = self.field
        return VecQ(f, self.n, payload_scale(f, f.neg_table[1], self.payload))

    def __sub__(self, other: "VecQ") -> "VecQ":
        self._check_mate(other)
        return self + (-other)

    def __rmul__(self, coeff: int) -> "VecQ":
        """Scalar multiple ``a * v`` with a a field element in [0, q)."""
        f = self.field
        if not 0 <= coeff < f.q:
            raise ParameterError(f"scalar {coeff!r} not in [0, {f.q})")
        return VecQ(f, self.n, payload_scale(f, coeff, self.payload))

    def __eq__(self, other):
        return (isinstance(other, VecQ) and other.field.q == self.field.q
                and other.n == self.n and other.payload == self.payload)

    def __hash__(self):
        return hash((self.field.q, self.n, self.payload))

    def __str__(self):
        return "".join(_DIGIT_CHARS[d] for d in self.digits())

    def __repr__(self):
        return f"<VecQ q={self.field.q} {self}>"

    def __len__(self):
        return self.n


def payload_add(field: FieldTable, x: int, y: int) -> int:
    """Coordinatewise sum of two packed payloads (hot-loop form)."""
    if field.characteristic == 2:
        return x ^ y
    q = field.q
    if q == 3 or q == 9:
        if q == 9:  # each digit c0 + 3 c1 as the two F_3 digits c0, c1
            size = ((x | y).bit_length() + 7) // 8
            x = int.from_bytes(x.to_bytes(size, "little").translate(_F9_AS_F3),
                               "little")
            y = int.from_bytes(y.to_bytes(size, "little").translate(_F9_AS_F3),
                               "little")
        k = ((x | y).bit_length() - 1).bit_length()
        ones = _PLANE_MASKS.get(k) or _plane_mask(k)
        low, high = _plane_add(x & ones, (x >> 1) & ones,
                               y & ones, (y >> 1) & ones)
        if q == 3:
            return low | high << 1
        return int.from_bytes((low | high << 1).to_bytes(size, "little")
                              .translate(_F3_AS_F9), "little")
    b = field.bits_per_digit
    k = ((x | y).bit_length() - 1).bit_length()
    even, bias, low = _LANE_MASKS.get((q, k)) or _lane_masks(q, b, k)
    # Each lane sum is < 2q; subtract q where adding the bias carried.
    s = (x & even) + (y & even)
    s -= q * (((s + bias) >> b) & low)
    t = ((x >> b) & even) + ((y >> b) & even)
    t -= q * (((t + bias) >> b) & low)
    return s | (t << b)


# payload_add's q = 9 recoding: a byte of two F_9 digits c0 + 3 c1 as four
# F_3 digits (c0, c1 of each), and back.  Nibbles above 8 never occur.
_F9_AS_F3 = bytes((lo % 3 | lo // 3 << 2 | hi % 3 << 4 | hi // 3 << 6) & 255
                  for hi in range(16) for lo in range(16))
_F3_AS_F9 = bytes((v & 3) + 3 * (v >> 2 & 3) | (v >> 4 & 3) + 3 * (v >> 6) << 4
                  for v in range(256))


def _plane_add(xl: int, xh: int, yl: int, yh: int) -> tuple[int, int]:
    """The low and high bit planes of x + y over F_3, from those of x and
    y, with six logic operations (Kawahara, Aoki and Takagi, Pairing
    2008): digits 0, 1, 2 are (low, high) = (0, 0), (1, 0), (0, 1), one
    bit of each plane per digit, at any spacing and in any width."""
    t = (xl | yh) ^ (xh | yl)
    return (xh | yh) ^ t, (xl | yl) ^ t


def payload_scale(field: FieldTable, a: int, x: int) -> int:
    """Every digit of a packed payload times the field element a (hot-loop form)."""
    if a <= 1:
        return x if a else 0
    if field.q == 3:
        # a = 2 = -1: swap the two bit planes, 01 <-> 10
        k = (x.bit_length() - 1).bit_length()
        ones = _PLANE_MASKS.get(k) or _plane_mask(k)
        return (x & ones) << 1 | (x >> 1) & ones
    b = field.bits_per_digit
    if field.degree == 1 and a == field.q - 1:
        # -x for prime q: q - d at every nonzero digit d, which never
        # borrows from the digit above.  The flag mask covers the
        # power-of-two width class of x, so one is cached per class.
        k = (x.bit_length() - 1).bit_length()
        return _digit_flags(b, x, _ones_mask(b, -(-(1 << k) // b))) * field.q - x
    mask = (1 << b) - 1
    row = field.mul_table[a]
    out, shift = 0, 0
    while x:
        d = x & mask
        if d:
            out |= row[d] << shift
        x >>= b
        shift += b
    return out


def _digit_flags(b: int, x: int, ones: int) -> int:
    """Bit i*b set where digit i of x is nonzero, for the digits `ones` marks.

    OR-folds the b bits of every digit onto its lowest bit; x may be one
    payload or a block of payloads in slots of at least n*b bits.
    """
    acc = x
    for s in range(1, b):
        acc |= x >> s
    return acc & ones


def payload_weight(field: FieldTable, n: int, x: int) -> int:
    """Number of nonzero digits in a packed payload (hot-loop form)."""
    b = field.bits_per_digit
    if b == 1:
        return x.bit_count()
    return _digit_flags(b, x, _ones_mask(b, n)).bit_count()


def block_in_balls(field: FieldTable, n: int, block: int, width: int,
                   count: int, radii: Sequence[int]) -> tuple[int, ...]:
    """For each of the radii, in their order, the number of the count
    slots of a block (slot j in bits [j*width, (j+1)*width), width a
    multiple of 8) whose payload of F_q^n has at most that many nonzero
    digits; digits past the slot width count as 0.

    The digit flags of every slot are summed, which leaves each slot's
    weight in its low bits: for n <= 255 by bytes (`_byte_masks`), for
    more in a tree of masked adds (`_count_masks`).
    Adding 2^m - 1 - radius to every slot, m the bit length of n, then
    carries into bit m exactly in the slots whose weight exceeds the
    radius, and one `bit_count` counts them: the weights are summed once and
    each radius costs one biased add.  A radius below 0 counts no slot
    and one of n or more every slot; neither takes an add.  A block of
    more slots than the masks cover is counted in slices, read from one
    byte copy of its first count slots, so the masks and the tree's
    temporaries stay slice-sized.
    """
    b = field.bits_per_digit
    n = min(n, width // b)
    m = n.bit_length()
    counts = []
    for r in radii:
        counts.append(0 if r < 0 else count)
    flag_ones, levels, ones, slots = _count_masks(b, n, width)
    by_bytes = n <= _BYTE_SUM_MAX
    if by_bytes:
        fives, threes, nibbles, slot_bytes, low_bytes = _byte_masks(width, slots)
    if count > slots:
        bits = count * width
        if block.bit_length() > bits:  # slots past count: not in the copy
            block &= (1 << bits) - 1
        data = memoryview(block.to_bytes(bits // 8, sys.byteorder))
        step = slots * width // 8
        parts = (int.from_bytes(data[i:i + step], sys.byteorder)
                 for i in range(0, len(data), step))
    else:
        parts = (block,)
    for left, x in zip(range(count, 0, -slots), parts):
        # a one-bit digit is its own flag
        x = x & flag_ones if b == 1 else _digit_flags(b, x, flag_ones)
        if by_bytes:
            # flags b apart: with b even no flag is at an odd bit, and with
            # b = 4 none at bits 1 to 3 of a nibble, so the first steps of
            # the popcount change nothing there
            if b & 1:
                x -= x >> 1 & fives
            if b < 4:
                x = (x & threes) + (x >> 2 & threes)
            x = x + (x >> 4) & nibbles
            if width > 8:  # a slot of one byte holds its sum already
                x = x * slot_bytes >> width - 8 & low_bytes
        else:
            for shift, even, odd in levels:
                x = (x & even) + ((x >> shift) & odd)
        here = ones if left >= slots else ones >> (slots - left) * width
        i = 0  # by hand: enumerate slows one-radius calls on small blocks
        for r in radii:
            if 0 <= r < n:
                bias = (1 << m) - 1 - r
                counts[i] -= ((x + bias * here) >> m & ones).bit_count()
            i += 1
    return tuple(counts)


# block_in_balls sums a slot's flags by bytes when n is at most this: no
# byte of the sum can then carry
_BYTE_SUM_MAX = 255


@lru_cache(maxsize=8)
def _byte_masks(width: int, slots: int) -> tuple[int, int, int, int, int]:
    """Masks of the byte sum over a slice of `slots` slots of `width` bits:
    0x55, 0x33 and 0x0f in every byte, the multiplier 0x01 in every byte
    of one slot, and 0xff in the low byte of every slot.

    The first three count the flags of each byte (a SWAR popcount).  Then
    byte i of a slot, times byte j of the multiplier, lands in byte i + j,
    so the slot's top byte sums all its bytes, and every other byte of the
    product sums the flags of one slot's worth of consecutive bytes: none
    exceeds n <= 255, so no byte carries into the next.  A shift by width
    - 8 and the last mask bring each slot's weight to its low byte.
    """
    every = slot_ones(8, slots * width // 8)
    return (every * 0x55, every * 0x33, every * 0x0f, slot_ones(8, width // 8),
            slot_ones(width, slots) * 0xff)


@lru_cache(maxsize=8)
def _count_masks(b: int, n: int, width: int) -> tuple[int, tuple, int, int]:
    """Masks over a slice of slots of `width` bits, each holding n digits
    of b bits: the digit flags, the tree levels (shift, even, odd), bit 0
    of every slot, and the number of slots.  A slice holds _BATCH slots,
    fewer when they are wider than 64 bits, so a mask is at most
    _BATCH * 64 bits long.

    After level j the count at slot bit i*s, s = b*2^j, is the number of
    nonzero digits among digits i*2^j .. (i+1)*2^j - 1.  The next level
    adds the count at (i+1)*s, shifted down by s, to the one at i*s for
    even i.  Each mask covers just the bits its count can fill, and
    `odd` only the counts that exist, so no level reads the next slot.
    """
    levels = []
    digits, counts = 1, n
    while counts > 1:
        shift = b * digits
        even = odd = 0
        for i in range(0, counts, 2):
            even |= ((1 << min(digits, n - i * digits).bit_length()) - 1) << i * shift
            if i + 1 < counts:
                top = min(digits, n - (i + 1) * digits)
                odd |= ((1 << top.bit_length()) - 1) << i * shift
        digits *= 2
        counts = -(-n // digits)
        levels.append((shift, even, odd))
    slots = max(1, min(_BATCH, _BATCH * 64 // width))
    ones = slot_ones(width, slots)
    return (_ones_mask(b, n) * ones,
            tuple((s, even * ones, odd * ones) for s, even, odd in levels),
            ones, slots)


def payload_distance(field: FieldTable, n: int, x: int, y: int) -> int:
    """Hamming distance between two packed payloads (hot-loop form).

    Two digits differ exactly when their bit patterns differ, so for
    every q this is the number of nonzero digits of x ^ y.
    """
    return payload_weight(field, n, x ^ y)


def all_payloads(field: FieldTable, n: int) -> Iterator[int]:
    """Yield the payload of every vector of F_q^n, ascending."""
    q = field.q
    b = field.bits_per_digit
    if q == (1 << b):
        yield from range(1 << (n * b))
        return
    digits = [0] * n
    payload = 0
    top = q - 1
    while True:
        yield payload
        i = 0
        while i < n and digits[i] == top:
            payload -= top << (i * b)
            digits[i] = 0
            i += 1
        if i == n:
            return
        digits[i] += 1
        payload += 1 << (i * b)


def all_vectors(field: FieldTable, n: int) -> Iterator[VecQ]:
    """Yield every vector of F_q^n in ascending payload order."""
    for payload in all_payloads(field, n):
        yield VecQ(field, n, payload)


def payload_reduce(field: FieldTable, basis: Sequence[tuple[int, int]],
                   y: int) -> int:
    """y minus the combination of `basis` rows that zeroes y at every pivot.

    `basis` lists the (pivot, row) items of an :func:`echelon` basis from
    the highest pivot down.  A row's digits lie at or below its pivot, so
    a pivot cleared stays clear.
    """
    b = field.bits_per_digit
    mask = (1 << b) - 1
    for col, row in basis:
        d = (y >> (col * b)) & mask
        if d:
            y = payload_add(field, y, payload_scale(field, field.neg_table[d], row))
    return y


def echelon(field: FieldTable, payloads: Iterable[int]) -> dict[int, int]:
    """Echelon basis of the span of packed rows, as {pivot: row}, by
    forward elimination: each row loses its leading digit to the kept row
    of that pivot until it is 0 or its pivot is new.

    A kept row's pivot is its highest nonzero coordinate, and its digit
    there is 1.  Dependent rows reduce to zero and drop, so the basis
    length is the rank.
    """
    b = field.bits_per_digit
    basis: dict[int, int] = {}
    for y in payloads:
        while y and (col := (y.bit_length() - 1) // b) in basis:
            y = payload_add(field, y, payload_scale(
                field, field.neg_table[y >> (col * b)], basis[col]))
        if y:
            basis[col] = payload_scale(field, field.inv_table[y >> (col * b)], y)
    return basis


def shape_of(vectors: Sequence[VecQ]) -> tuple[FieldTable, int]:
    """Field and length of a nonempty list of vectors, each checked
    against the first; `ParameterError` when empty, mismatched or holding
    a non-vector."""
    if not vectors:
        raise ParameterError("vector set must be nonempty")
    first = vectors[0]
    if not isinstance(first, VecQ):
        raise ParameterError(f"expected VecQ, got {type(first).__name__}")
    for v in vectors:
        first._check_mate(v)
    return first.field, first.n


def rank_of(vectors: Iterable[VecQ]) -> int:
    """Rank of the given vectors as rows of a matrix over their field: the
    length of their `echelon` basis."""
    vecs = list(vectors)
    if not vecs:
        return 0
    return len(echelon(shape_of(vecs)[0], [v.payload for v in vecs]))
