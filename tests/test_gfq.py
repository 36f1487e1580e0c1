"""Field tables, packed vectors, and rank: exhaustive axioms plus property tests."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, strategies as st

from ldlab import (
    ParameterError,
    VecQ,
    all_vectors,
    field_new,
    rank_of,
)
from ldlab import gfq
from ldlab.gfq import (MAX_Q, all_payloads, echelon, payload_add, payload_distance,
                       payload_scale, payload_weight)

import oracles
from oracles import EXTENSIONS, PRIME_POWERS, field_tables

PRIMES = (2, 3, 5, 7, 11, 13)

fields = st.sampled_from([field_new(q) for q in PRIME_POWERS])


def pack(q, digits):
    """Payload of a digit tuple, packed by plain shifts."""
    b = (q - 1).bit_length()
    return sum(d << (i * b) for i, d in enumerate(digits))


def unpack(q, n, payload):
    b = (q - 1).bit_length()
    return tuple((payload >> (i * b)) & ((1 << b) - 1) for i in range(n))


def assert_add_matches_oracle(q, pairs):
    """payload_add of each packed pair equals the oracle's tuple sum."""
    field = field_new(q)
    add, _ = field_tables(q)
    for u, v in pairs:
        got = payload_add(field, pack(q, u), pack(q, v))
        assert unpack(q, len(u), got) == oracles.tuple_add(u, v, add), (q, u, v)
        assert got >> (len(u) * field.bits_per_digit) == 0


@st.composite
def field_and_digits(draw, min_size=1, max_size=12):
    field = draw(fields)
    digits = draw(
        st.lists(st.integers(0, field.q - 1), min_size=min_size, max_size=max_size)
    )
    return field, digits


@st.composite
def field_and_digit_pair(draw, max_size=12):
    field = draw(fields)
    n = draw(st.integers(1, max_size))
    u = draw(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n))
    v = draw(st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n))
    return field, u, v


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms_exhaustive(q):
    """Every field table satisfies the field axioms over all element triples."""
    f = field_new(q)
    elements = range(q)
    for a in elements:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in elements:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert 0 <= f.add(a, b) < q and 0 <= f.mul(a, b) < q
            for c in elements:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", PRIMES)
def test_prime_fields_match_modular_arithmetic(q):
    """Prime fields agree with plain modular arithmetic."""
    f = field_new(q)
    add, mul = oracles.prime_field_tables(q)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == add[(a, b)]
            assert f.mul(a, b) == mul[(a, b)]


@pytest.mark.parametrize("q", sorted(EXTENSIONS))
def test_extension_fields_match_polynomial_oracle(q):
    """Extension fields agree with an independent polynomial construction."""
    char, degree, irreducible = EXTENSIONS[q]
    f = field_new(q)
    assert f.characteristic == char
    assert f.degree == degree
    add, mul = oracles.extension_field_tables(char, degree, irreducible)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == add[(a, b)]
            assert f.mul(a, b) == mul[(a, b)]


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 14, 15, 17, 25, -3])
def test_field_new_rejects_bad_orders(q):
    """Non-prime-power or out-of-range orders are invalid parameters."""
    with pytest.raises(ParameterError):
        field_new(q)


def test_field_new_caches_and_compares():
    assert field_new(4) is field_new(4)
    assert field_new(4) == field_new(4)
    assert field_new(4) != field_new(8)
    assert MAX_Q == 16


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_zero_has_no_inverse(q):
    with pytest.raises(ZeroDivisionError):
        field_new(q).inv(0)


@given(field_and_digits())
def test_pack_round_trip(fd):
    """Digits survive the round trip through the packed representation."""
    field, digits = fd
    v = VecQ.from_digits(field, digits)
    assert v.digits() == tuple(digits)
    assert len(v) == len(digits)
    for i, d in enumerate(digits):
        assert v.digit(i) == d


def test_empty_vector_is_rejected():
    """A vector needs at least one coordinate."""
    with pytest.raises(ParameterError):
        VecQ.from_digits(field_new(2), [])


@given(field_and_digits())
def test_string_round_trip(fd):
    field, digits = fd
    v = VecQ.from_digits(field, digits)
    assert VecQ.from_string(field, str(v)) == v


@given(field_and_digits())
def test_weight_and_support_match_brute(fd):
    field, digits = fd
    v = VecQ.from_digits(field, digits)
    assert v.weight() == oracles.brute_weight(tuple(digits))
    assert v.support() == frozenset(i + 1 for i, d in enumerate(digits) if d)
    assert v.support_mask() == sum(1 << i for i, d in enumerate(digits) if d)


@given(field_and_digit_pair())
def test_add_is_digitwise_field_add(fd):
    field, u_digits, v_digits = fd
    u = VecQ.from_digits(field, u_digits)
    v = VecQ.from_digits(field, v_digits)
    expected = tuple(field.add(a, b) for a, b in zip(u_digits, v_digits))
    assert (u + v).digits() == expected
    assert (u + (-u)).weight() == 0
    assert u - v == u + (-v)


@given(field_and_digit_pair())
def test_distance_axioms(fd):
    field, u_digits, v_digits = fd
    u = VecQ.from_digits(field, u_digits)
    v = VecQ.from_digits(field, v_digits)
    d = u.distance(v)
    assert d == oracles.brute_distance(tuple(u_digits), tuple(v_digits))
    assert d == v.distance(u)
    assert u.distance(u) == 0
    assert (d == 0) == (u == v)
    assert d == (u - v).weight()


@given(field_and_digit_pair(), field_and_digit_pair())
def test_triangle_inequality(fd1, fd2):
    field, u_digits, v_digits = fd1
    _, w_digits, _ = fd2
    w_digits = (w_digits * len(u_digits))[: len(u_digits)]
    w_digits = [d % field.q for d in w_digits]
    u = VecQ.from_digits(field, u_digits)
    v = VecQ.from_digits(field, v_digits)
    w = VecQ.from_digits(field, w_digits)
    assert u.distance(v) <= u.distance(w) + w.distance(v)


@given(field_and_digit_pair())
def test_scalar_multiplication(fd):
    field, u_digits, _ = fd
    u = VecQ.from_digits(field, u_digits)
    for a in range(field.q):
        expected = tuple(field.mul(a, d) for d in u_digits)
        assert (a * u).digits() == expected
    assert (1 * u) == u
    assert (0 * u).weight() == 0


@given(field_and_digit_pair())
def test_payload_helpers_match_vector_ops(fd):
    field, u_digits, v_digits = fd
    u = VecQ.from_digits(field, u_digits)
    v = VecQ.from_digits(field, v_digits)
    assert payload_add(field, u.payload, v.payload) == (u + v).payload
    add, _ = field_tables(field.q)
    assert (unpack(field.q, len(u), payload_add(field, u.payload, v.payload))
            == oracles.tuple_add(tuple(u_digits), tuple(v_digits), add))
    for a in range(field.q):
        assert payload_scale(field, a, u.payload) == (a * u).payload
    assert payload_weight(field, len(u), u.payload) == u.weight()
    assert payload_distance(field, len(u), u.payload, v.payload) == u.distance(v)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_distance_matches_oracle_for_every_field(q):
    """Both distance kernels agree with the digit-tuple oracle for every q.

    Exhaustive over pairs at n = 2, then random pairs at n = 64, where the
    packed payload spans several machine words.
    """
    field = field_new(q)
    rng = random.Random(q)
    pairs = [(u, v) for u in oracles.all_tuples(q, 2)
             for v in oracles.all_tuples(q, 2)]
    pairs += [(tuple(rng.randrange(q) for _ in range(64)),
               tuple(rng.randrange(q) for _ in range(64))) for _ in range(200)]
    for u_digits, v_digits in pairs:
        u = VecQ.from_digits(field, u_digits)
        v = VecQ.from_digits(field, v_digits)
        expected = oracles.brute_distance(u_digits, v_digits)
        assert u.distance(v) == expected
        assert payload_distance(field, len(u), u.payload, v.payload) == expected


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_add_matches_oracle_on_every_pair_at_n2(q):
    """Exhaustive over F_q^2 x F_q^2, for every kernel (XOR, SWAR, table)."""
    assert_add_matches_oracle(q, [(u, v) for u in oracles.all_tuples(q, 2)
                                  for v in oracles.all_tuples(q, 2)])


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64])
def test_swar_add_matches_oracle(q, n):
    """The SWAR lanes of odd prime q, and the bit planes of q = 3, agree
    with digit-tuple addition on random pairs, zero operands, and
    operands whose top digits are 0."""
    rng = random.Random(q * 1000 + n)

    def rand(length):
        return tuple(rng.randrange(q) for _ in range(length)) + (0,) * (n - length)

    zero = (0,) * n
    top = (q - 1,) * n
    pairs = [(rand(n), rand(n)) for _ in range(300)]
    pairs += [(zero, zero), (zero, top), (top, zero), (top, top)]
    pairs += [(rand(rng.randrange(n + 1)), rand(rng.randrange(n + 1)))
              for _ in range(100)]
    pairs += [(rand(n), zero) for _ in range(10)]
    assert_add_matches_oracle(q, pairs)


def width_class(bits):
    """The k of the lane masks that cover payloads of this bit length."""
    return (bits - 1).bit_length()


def test_swar_masks_grow_for_longer_payloads(monkeypatch):
    """Each width class of operands gets masks of its own width; results
    stay exact before and after longer payloads arrive, also past the
    widest class kept in the cache."""
    monkeypatch.setattr(gfq, "_LANE_MASKS", {})
    lengths = (64, 3, 200, 64, 20000, 3)
    for q in (5, 7, 11, 13):
        rng = random.Random(q)
        b = field_new(q).bits_per_digit
        for n in lengths:
            pairs = [(tuple(rng.randrange(q) for _ in range(n)),
                      tuple(rng.randrange(q) for _ in range(n)))
                     for _ in range(50 if n < 1000 else 2)]
            assert_add_matches_oracle(q, pairs + [((q - 1,) * n, (q - 1,) * n)])
        for n in lengths:
            k = width_class(n * b)
            assert ((q, k) in gfq._LANE_MASKS) == (k <= gfq._LANE_CACHE_MAX_K)
    for (q, k), masks in gfq._LANE_MASKS.items():
        lane = 2 * field_new(q).bits_per_digit
        assert k <= gfq._LANE_CACHE_MAX_K
        assert max(m.bit_length() for m in masks) <= (1 << k) + lane
    assert {q for q, _ in gfq._LANE_MASKS} == {5, 7, 11, 13}


def test_plane_masks_grow_for_longer_payloads(monkeypatch):
    """The q = 3 counterpart: each width class gets a plane mask of its
    own width, bit 2i for every digit it covers; results stay exact
    before and after longer payloads arrive, also past the widest class
    kept in the cache, and the classes above it are not kept."""
    monkeypatch.setattr(gfq, "_PLANE_MASKS", {})
    lengths = (64, 3, 200, 64, 40000, 3)
    rng = random.Random(3)
    for n in lengths:
        pairs = [(tuple(rng.randrange(3) for _ in range(n)),
                  tuple(rng.randrange(3) for _ in range(n)))
                 for _ in range(50 if n < 1000 else 2)]
        assert_add_matches_oracle(3, pairs + [((2,) * n, (2,) * n)])
    assert width_class(40000 * 2) > gfq._LANE_CACHE_MAX_K
    for n in lengths:
        k = width_class(n * 2)
        assert (k in gfq._PLANE_MASKS) == (k <= gfq._LANE_CACHE_MAX_K)
    for k, mask in gfq._PLANE_MASKS.items():
        assert k <= gfq._LANE_CACHE_MAX_K
        assert mask == pack(3, (1,) * -(-(1 << k) // 2))


def test_short_add_after_long_uses_short_masks(monkeypatch):
    """After one long add, a short add looks up masks sized to its own
    operands, not to the widest payload the process has added."""
    looked_up = []

    class Recording(dict):
        def get(self, key, default=None):
            found = super().get(key, default)
            if found is not None:
                looked_up.append(found)
            return found

    monkeypatch.setattr(gfq, "_LANE_MASKS", Recording())
    for q in (5, 7, 11, 13):
        f = field_new(q)
        long_payload = pack(q, (q - 1,) * 16000)
        payload_add(f, long_payload, long_payload)
        x, y = pack(q, (q - 1,) * 32), pack(q, (2,) * 32)
        looked_up.clear()
        for _ in range(2):
            assert unpack(q, 32, payload_add(f, x, y)) == (1,) * 32
        assert looked_up
        assert max(m.bit_length() for m in looked_up[-1]) <= 2 * 32 * f.bits_per_digit


def test_short_q3_add_after_long_uses_short_masks(monkeypatch):
    """The q = 3 counterpart: after one long add, a short add looks up
    the plane mask of its own width class."""
    looked_up = []

    class Recording(dict):
        def get(self, key, default=None):
            found = super().get(key, default)
            if found is not None:
                looked_up.append(found)
            return found

    monkeypatch.setattr(gfq, "_PLANE_MASKS", Recording())
    f = field_new(3)
    long_payload = pack(3, (2,) * 16000)
    payload_add(f, long_payload, long_payload)
    x, y = pack(3, (2,) * 32), pack(3, (2,) * 32)
    looked_up.clear()
    for _ in range(2):
        assert unpack(3, 32, payload_add(f, x, y)) == (1,) * 32
    assert looked_up
    assert looked_up[-1].bit_length() <= 2 * 32 * f.bits_per_digit


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65,
                               20000])
def test_plane_add_matches_oracle_on_every_digit_pair(n):
    """The q = 3 bit-plane add agrees with digit-tuple addition with every
    digit pair at every position, at lengths on each side of the width
    class edges: constant operands, and operands whose digits (i + s) % 3
    and (2i + t) % 3 put each pair at each position next to other pairs.
    Also random pairs, pairs of unequal length (the shorter one's top
    digits 0), and zero operands."""
    rng = random.Random(n)

    def rand(length):
        return tuple(rng.randrange(3) for _ in range(length)) + (0,) * (n - length)

    zero = (0,) * n
    pairs = [((a,) * n, (b,) * n) for a in range(3) for b in range(3)]
    pairs += [(tuple((i + s) % 3 for i in range(n)),
               tuple((2 * i + t) % 3 for i in range(n)))
              for s in range(3) for t in range(3)]
    pairs += [(rand(n), rand(n)) for _ in range(5)]
    for _ in range(5):
        short = rand(rng.randrange(n))
        pairs += [(rand(n), short), (short, rand(n))]
    pairs += [(zero, zero), (zero, rand(n)), (rand(n), zero)]
    assert_add_matches_oracle(3, pairs)


def test_q3_add_reads_no_lane_mask(monkeypatch):
    """q = 3 adds on its planes alone: no add of any width class, block
    step, vector sum or rank reads, fills or builds a SWAR lane mask."""
    class Untouchable(dict):
        def get(self, *args):
            raise AssertionError("q = 3 read the lane masks")
        __getitem__ = __contains__ = __setitem__ = get

    def no_lanes(*args):
        raise AssertionError("q = 3 built lane masks")

    monkeypatch.setattr(gfq, "_LANE_MASKS", Untouchable())
    monkeypatch.setattr(gfq, "_lane_masks", no_lanes)
    f = field_new(3)
    rng = random.Random(33)
    for n in (1, 3, 32, 33, 20000, 40000):
        u, v = (tuple(rng.randrange(3) for _ in range(n)) for _ in range(2))
        assert_add_matches_oracle(3, [(u, v)])
    width = gfq.slot_width(2, 12)
    block = gfq.pack_slots([pack(3, (1, 2, 0, 2, 1, 1))] * 729, width)
    assert gfq.unpack_slots(gfq.slots_add(f, block, pack(3, (2,) * 6), width,
                                          729), width, 729)[0] \
        == pack(3, (0, 1, 2, 1, 0, 0))
    vecs = [VecQ.from_digits(f, (1, 2, 0)), VecQ.from_digits(f, (2, 1, 1))]
    assert (vecs[0] + vecs[1]).digits() == (0, 0, 1)
    assert rank_of(vecs + [vecs[0] + vecs[1]]) == 2


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_payloads_in_ball_matches_payload_weight(q):
    """The batch count of payloads in a ball, `block_in_balls` at one
    radius on slots of n digits, equals one payload_weight call per payload, at every
    radius, for lengths that fill 8- to 64-bit slots exactly, fall just
    short of them or exceed 64 bits, for more payloads than one slice of
    the count holds, and for an empty block."""
    f = field_new(q)
    rng = random.Random(q + 100)
    b = f.bits_per_digit

    def in_ball(n, payloads, radius):
        width = gfq.slot_width(b, n * b)
        return gfq.block_in_balls(f, n, gfq.pack_slots(payloads, width),
                                  width, len(payloads), (radius,))[0]

    for n in sorted({1, 2, 3, 8 // b, 16 // b, 32 // b, 64 // b, 64 // b + 1,
                     21, 40}):
        n = max(n, 1)
        payloads = [pack(q, [rng.randrange(q) if rng.random() < 0.7 else 0
                             for _ in range(n)]) for _ in range(300)]
        payloads += [0, pack(q, (q - 1,) * n)]
        for radius in range(n + 1):
            expected = sum(payload_weight(f, n, x) <= radius for x in payloads)
            assert in_ball(n, payloads, radius) == expected
    n = 64 // b
    many = [pack(q, [rng.randrange(q) for _ in range(n)])
            for _ in range(gfq._BATCH + 5)]
    assert in_ball(n, many, n // 2) == sum(
        payload_weight(f, n, x) <= n // 2 for x in many)
    assert in_ball(n, [], 0) == 0


COUNT_LENGTHS = (1, 2, 5, 21, 31, 32, 33, 64)


def count_cases(q, n, rng):
    """Digit tuples for the count tests: sparse and dense random ones, 0,
    all q - 1, and a tuple whose only nonzero digit is the last."""
    sparse = [tuple(rng.randrange(1, q) if rng.random() < 0.2 else 0
                    for _ in range(n)) for _ in range(60)]
    dense = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(60)]
    return sparse + dense + [(0,) * n, (q - 1,) * n, (0,) * (n - 1) + (1,)]


def assert_counts_match_oracle(q, n, tuples, radii):
    """block_in_balls on slots of n digits equals the per-member oracle
    at every radius, one radius a call and all of them in one call."""
    f = field_new(q)
    b = f.bits_per_digit
    payloads = [pack(q, t) for t in tuples]
    width = gfq.slot_width(b, n * b)
    block = gfq.pack_slots(payloads, width)
    want = [oracles.brute_in_ball(tuples, radius) for radius in radii]
    for radius, expected in zip(radii, want):
        assert gfq.block_in_balls(f, n, block, width, len(payloads),
                                  (radius,)) == (expected,), \
            (q, n, width, radius)
    assert gfq.block_in_balls(f, n, block, width, len(payloads),
                              tuple(radii)) == tuple(want), (q, n, width)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_counts_match_per_member_oracle(q):
    """The block count agrees with counting digit tuples one by one, at
    every radius from -1 to n + 2, on empty blocks, and on blocks above
    _BATCH slots, which it takes in slices."""
    rng = random.Random(q * 31)
    for n in COUNT_LENGTHS:
        tuples = count_cases(q, n, rng)
        assert_counts_match_oracle(q, n, tuples, range(-1, n + 3))
        assert_counts_match_oracle(q, n, [], range(-1, n + 3))
    for n in (5, 33, 64):
        tuples = count_cases(q, n, rng)
        many = (tuples * (gfq._BATCH // len(tuples) + 2))[:gfq._BATCH + 7]
        assert_counts_match_oracle(q, n, many, (-1, 0, 1, n // 3, n - 1, n))


@pytest.mark.parametrize("q", (2, 3, 5, 16))
def test_count_by_bytes_and_by_tree_around_255_digits(q):
    """Slots of up to 255 digits are summed by bytes, and wider ones by
    the tree: at n = 255 and 256, in slots of 256 digits, the count equals
    the per-member oracle at every radius, with slots whose digits are
    all nonzero, all but one nonzero, or random.  A byte sum of 256 would
    wrap to 0 and count a full slot as within every radius."""
    rng = random.Random(q)
    for n in (255, 256):
        tuples = [(q - 1,) * n, (0,) + (1,) * (n - 1), (0,) * n]
        tuples += [tuple(rng.randrange(q) for _ in range(n)) for _ in range(20)]
        tuples += [tuple(rng.randrange(1, q) for _ in range(n))] * 3
        rng.shuffle(tuples)
        assert_counts_match_oracle(q, n, tuples, (-1, 0, 1, n // 2, n - 2,
                                                  n - 1, n, n + 1))


def test_block_count_stays_inside_each_slot():
    """Slots whose digit count is not a power of two: the tree's last
    unpaired count sits next to the following slot, so a mask that reads
    past it would add that slot's count, at one radius or at many.  q = 5
    at n = 5 in 16-bit slots and at n = 21 in 64- and 72-bit slots; q = 3
    at n = 33 in 72-bit slots; q = 2 at n = 72 in 72-bit slots; q = 16 at
    n = 21 in 88-bit slots.  The slots after each one hold all q - 1, so
    a count that leaks in shows."""
    rng = random.Random(5)
    for q, n, width in ((5, 5, 16), (5, 21, 64), (5, 21, 72), (3, 33, 72),
                        (2, 72, 72), (16, 21, 88)):
        f = field_new(q)
        full = (q - 1,) * n
        tuples = []
        for _ in range(40):
            tuples += [tuple(rng.randrange(q) for _ in range(n)), full]
        block = gfq.pack_slots([pack(q, t) for t in tuples], width)
        radii = tuple(range(-1, n + 2))
        want = tuple(oracles.brute_in_ball(tuples, r) for r in radii)
        for radius, expected in zip(radii, want):
            assert gfq.block_in_balls(f, n, block, width, len(tuples),
                                      (radius,)) == (expected,), \
                (q, n, width, radius)
        assert gfq.block_in_balls(f, n, block, width, len(tuples), radii) \
            == want, (q, n, width)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_multi_radius_count_takes_radii_in_any_order(q):
    """block_in_balls answers each radius in the order asked: unsorted,
    repeated, below 0 and at or above n side by side, and an empty
    tuple, on one slice and on a block above _BATCH slots."""
    rng = random.Random(q * 7)
    n = 9
    f = field_new(q)
    width = gfq.slot_width(f.bits_per_digit, n * f.bits_per_digit)
    for tuples in (count_cases(q, n, rng),
                   count_cases(q, n, rng) * (gfq._BATCH // 60)):
        block = gfq.pack_slots([pack(q, t) for t in tuples], width)
        for radii in ((5, 1, 3), (2, 2, 0, 2), (-1, n, 4, n + 3, -5, 0),
                      (n - 1, -1, n, 0, n - 1), (n + 1, 3), (-2,), ()):
            assert gfq.block_in_balls(f, n, block, width, len(tuples), radii) \
                == tuple(oracles.brute_in_ball(tuples, r) for r in radii), \
                (q, len(tuples), radii)


def test_count_reads_only_the_first_count_slots():
    """Slots of a block from `count` on are not counted, at any radius of
    one call: they hold all q - 1, so a bias added to them carries at
    every radius below n.  Blocks of one slice, and blocks of 4106
    one-byte slots at a count of 4101, which takes two slices."""
    rng = random.Random(11)
    for q, n, count in ((2, 16, 20), (3, 7, 20), (16, 5, 20),
                        (2, 8, gfq._BATCH + 5), (3, 4, gfq._BATCH + 5)):
        f = field_new(q)
        width = gfq.slot_width(f.bits_per_digit, n * f.bits_per_digit)
        tuples = (count_cases(q, n, rng) * (count // 123 + 1))[:count]
        block = gfq.pack_slots([pack(q, t) for t in tuples]
                               + [pack(q, (q - 1,) * n)] * 5, width)
        radii = tuple(range(-1, n + 2))
        assert gfq.block_in_balls(f, n, block, width, len(tuples), radii) \
            == tuple(oracles.brute_in_ball(tuples, r) for r in radii), q


def test_count_clamps_radius_above_n():
    """A radius above n counts every payload: a bias of 2^m - 1 - radius
    would go negative there."""
    f3 = field_new(3)
    block = gfq.pack_slots([0, 1, 5, 0xff], 8)
    assert [gfq.block_in_balls(f3, 4, block, 8, 4, (r,))[0]
            for r in range(-2, 11)] == [0, 0, 1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4]
    assert gfq.block_in_balls(f3, 4, block, 8, 4, range(10, -3, -1)) \
        == (4, 4, 4, 4, 4, 4, 4, 3, 3, 2, 1, 0, 0)


def test_block_count_caches_masks_for_one_slice():
    """The masks cover at most _BATCH slots of up to 64 bits, whatever
    the size of the block counted."""
    f = field_new(3)
    tuples = count_cases(3, 32, random.Random(2)) * 300
    block = gfq.pack_slots([pack(3, t) for t in tuples], 64)
    assert len(tuples) > 4 * gfq._BATCH
    assert gfq.block_in_balls(f, 32, block, 64, len(tuples), (8,)) \
        == (oracles.brute_in_ball(tuples, 8),)
    for b, n, width in [(2, 32, 64), (4, 64, 256)]:
        _, levels, ones, slots = gfq._count_masks(b, n, width)
        assert slots <= gfq._BATCH and slots * width <= gfq._BATCH * 64
        assert max(m.bit_length() for _, even, odd in levels
                   for m in (even, odd)) <= slots * width
        assert max(m.bit_length() for m in gfq._byte_masks(width, slots)) \
            <= slots * width


@pytest.mark.parametrize("q", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64])
def test_negation_matches_tuple_arithmetic(q, n):
    """payload_scale(q - 1, .) and -VecQ equal entrywise negation of
    digit tuples, for random vectors, zero, all q - 1 and vectors whose
    top digits are 0."""
    f = field_new(q)
    add, _ = field_tables(q)
    rng = random.Random(q * 100 + n)
    cases = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(200)]
    cases += [(0,) * n, (q - 1,) * n, (1,) + (0,) * (n - 1)]
    cases += [tuple(rng.randrange(q) for _ in range(k)) + (0,) * (n - k)
              for k in range(n + 1)]
    for u in cases:
        want = oracles.tuple_neg(u, q, add)
        assert unpack(q, n, payload_scale(f, q - 1, pack(q, u))) == want
        assert (-VecQ.from_digits(f, u)).digits() == want


def test_only_prime_fields_negate_on_flags(monkeypatch):
    """Prime q > 3 negates through the digit flags; q = 3 swaps its two
    bit planes, q = 4, 8, 9 and 16 keep their paths (-1 = 1 in
    characteristic 2, the digit loop for q = 9), and all five stay exact
    with the flag fold taken away."""

    def refuse(*args):
        raise AssertionError("digit flags used")

    monkeypatch.setattr(gfq, "_digit_flags", refuse)
    rng = random.Random(4)
    for q in (3, 4, 8, 9, 16):
        f = field_new(q)
        add, mul = field_tables(q)
        u = tuple(rng.randrange(q) for _ in range(20))
        assert (-VecQ.from_digits(f, u)).digits() == oracles.tuple_neg(u, q, add)
        assert unpack(q, 20, payload_scale(f, q - 1, pack(q, u))) \
            == tuple(mul[(q - 1, d)] for d in u)
    for q in (5, 7, 11, 13):
        with pytest.raises(AssertionError, match="digit flags used"):
            -VecQ.from_digits(field_new(q), [1, 2])


def test_vectors_from_different_fields_do_not_mix():
    u = VecQ.from_digits(field_new(2), [1, 0])
    v = VecQ.from_digits(field_new(3), [1, 0])
    with pytest.raises(ParameterError):
        u + v
    with pytest.raises(ParameterError):
        u + VecQ.from_digits(field_new(2), [1, 0, 1])


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 2), (5, 2)])
def test_all_vectors_enumerates_whole_space_in_counting_order(q, n):
    """all_vectors yields q^n distinct vectors with digit 1 cycling fastest."""
    f = field_new(q)
    seen = list(all_vectors(f, n))
    assert len(seen) == q**n
    assert len(set(seen)) == q**n
    expected = []
    for idx in range(q**n):
        digits = []
        rest = idx
        for _ in range(n):
            digits.append(rest % q)
            rest //= q
        expected.append(tuple(digits))
    assert [v.digits() for v in seen] == expected
    assert list(all_payloads(f, n)) == [v.payload for v in seen]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_rank_matches_independent_elimination(q):
    """rank_of and the echelon basis agree with Gaussian elimination over
    oracle-built tables.  The basis is in forward echelon form: each
    row's pivot is its highest nonzero digit and that digit is 1, and
    its rows are independent and span the given rows.  The edge cases run
    at n = 1 to 65 digits, across machine words and SWAR widths."""
    add, mul = field_tables(q)
    f = field_new(q)
    rng = random.Random(2026)
    for _ in range(60):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 7)
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(m)]
        vectors = [VecQ.from_digits(f, row) for row in rows]
        rank = oracles.brute_rank(rows, q, add, mul)
        assert rank_of(vectors) == rank
        basis = echelon(f, [v.payload for v in vectors])
        assert len(basis) == rank
        basis_rows = [VecQ(f, n, row).digits() for row in basis.values()]
        assert oracles.brute_rank(basis_rows, q, add, mul) == rank
        assert oracles.brute_rank(rows + basis_rows, q, add, mul) == rank
        for col, digits in zip(basis, basis_rows):
            assert digits[col] == 1
            assert max(i for i, d in enumerate(digits) if d) == col
    for n in (1, 31, 32, 33, 64, 65):
        for rows in _rank_edge_cases(q, n, rng, add, mul):
            vectors = [VecQ.from_digits(f, row) for row in rows]
            rank = oracles.brute_rank(rows, q, add, mul)
            assert rank_of(vectors) == rank, (n, rows)
            assert len(echelon(f, [v.payload for v in vectors])) == rank


def _rank_edge_cases(q, n, rng, add, mul):
    """Row lists of n digits at the edges of forward elimination: more rows
    than n, a repeated, a zero and a dependent row, leading digits other
    than 1 (also at one pivot column, so that a row is reduced by a
    leading digit d != 1), and rows whose leading digit sits below n."""
    def rand(top):
        """Random digits below `top`, a nonzero leading digit at `top`."""
        return (tuple(rng.randrange(q) for _ in range(top))
                + (rng.randrange(1, q),) + (0,) * (n - 1 - top))

    def scaled(a, row):
        return tuple(mul[(a, d)] for d in row)

    x, y = rand(n - 1), rand(rng.randrange(n))
    zero = (0,) * n
    # a x + c y + a z with a = q - 1, not 1 for q > 2: reducing it steps
    # through leading digits other than 1
    a, c = q - 1, rng.randrange(1, q)
    z = rand(n // 2)
    dependent = oracles.tuple_add(
        oracles.tuple_add(scaled(a, x), scaled(c, y), add), scaled(a, z), add)
    lead = [rand(n - 1) for _ in range(3)]
    lead = [scaled(a, row) if row[-1] == 1 else row for row in lead]
    return [[x], [zero], [x, x], [x, zero, y, dependent, z],
            [dependent, z, y, x], [scaled(a, x), x, y, scaled(c, y)],
            lead, [rand(rng.randrange(n)) for _ in range(n + 2)],
            [rand(n - 1) for _ in range(n + 1)]]


def test_rank_known_values():
    f = field_new(2)
    e = [VecQ.from_digits(f, row) for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    assert rank_of(e) == 3
    assert rank_of([e[0], e[0]]) == 1
    assert rank_of([e[0], e[1], e[0] + e[1]]) == 2
    assert rank_of([]) == 0
    assert rank_of([VecQ.zero(f, 3)]) == 0


@pytest.mark.parametrize("vectors", [[1, 2], ["011"], [None, VecQ.zero(field_new(2), 3)]])
def test_non_vector_members_are_parameter_errors(vectors):
    """A list whose first member is not a VecQ is refused with
    ParameterError by the shape check and by rank_of."""
    with pytest.raises(ParameterError, match="expected VecQ"):
        gfq.shape_of(vectors)
    with pytest.raises(ParameterError, match="expected VecQ"):
        rank_of(vectors)


@pytest.mark.parametrize("width", [8, 16, 24, 32, 48, 64, 72, 80, 136])
def test_pack_slots_inverts_unpack_slots(width):
    """pack_slots puts value j in bits [j*width, (j+1)*width) and
    unpack_slots reads it back, for machine widths and the others."""
    rng = random.Random(width)
    for count in (0, 1, 2, 7, 300):
        values = [rng.randrange(1 << width) for _ in range(count)]
        block = gfq.pack_slots(iter(values), width)
        assert block == sum(v << (j * width) for j, v in enumerate(values))
        assert list(gfq.unpack_slots(block, width, count)) == values


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_slots_add_adds_the_step_to_every_slot(q):
    """slots_add equals payload_add slot by slot, for machine-word slots
    and wider ones, and an empty block stays empty."""
    f = field_new(q)
    b = f.bits_per_digit
    rng = random.Random(q)
    for n in (1, 5, 16, 30):
        width = gfq.slot_width(b, n * b)
        for count in (0, 1, 3, 257):
            values = [VecQ.from_digits(f, [rng.randrange(q) for _ in range(n)]).payload
                      for _ in range(count + 1)]
            step = values.pop()
            block = gfq.pack_slots(values, width)
            got = gfq.slots_add(f, block, step, width, count)
            assert list(gfq.unpack_slots(got, width, count)) == [
                payload_add(f, v, step) for v in values]


def test_q9_slots_add_goes_slot_by_slot(monkeypatch):
    """For q = 9 no payload_add sees a whole block: its digit loop over a
    block would be quadratic in the block's length."""
    f = field_new(9)
    seen = []
    add = gfq.payload_add

    def recording(field, x, y):
        seen.append(max(x, y).bit_length())
        return add(field, x, y)

    monkeypatch.setattr(gfq, "payload_add", recording)
    width, count = 32, 100
    block = gfq.pack_slots((j % 9 | j // 9 % 9 << 4 for j in range(count)), width)
    gfq.slots_add(f, block, 0x12345678, width, count)
    assert len(seen) == count and max(seen) <= width


def test_mate_mismatch_errors_are_pinned():
    """Vectors over different fields or lengths, or a non-vector, are
    refused with these exact messages; a vector on a copied field table,
    or of a VecQ subclass, with the same q and n is a mate."""
    f2, f3 = field_new(2), field_new(3)
    a = VecQ(f2, 3, 5)
    cases = [
        (VecQ.zero(f3, 3), "mismatched vectors: (q=2, n=3) vs (q=3, n=3)"),
        (VecQ.zero(f2, 4), "mismatched vectors: (q=2, n=3) vs (q=2, n=4)"),
        (5, "expected VecQ, got int"),
    ]
    for other, message in cases:
        for op in (a.__add__, a.__sub__, a.distance):
            with pytest.raises(ParameterError) as exc:
                op(other)
            assert str(exc.value) == message

    class Sub(VecQ):
        __slots__ = ()

    for mate in (VecQ(copy.copy(f2), 3, 6), Sub(f2, 3, 6)):
        assert mate.field is not f2 or type(mate) is not VecQ
        assert (a + mate).payload == 3
        assert a.distance(mate) == 2
