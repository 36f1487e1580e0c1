"""Random codes, spans, and list-decoding checkers against independent oracles."""

from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ldlab import (
    Code,
    ParameterError,
    ResourceBudgetError,
    VecQ,
    ball_volume,
    check_ld_exact,
    check_ld_montecarlo,
    field_new,
    format_code,
    parse_code,
    radius_of,
    random_code,
    rank_of,
)
from ldlab.codes import _coset_tally, _span_block, span_in_ball, span_payloads
from ldlab.errors import check_power, format_rational
from ldlab.gfq import _BATCH, slot_width, span_count_block, unpack_slots

import oracles
from oracles import PRIME_POWERS, field_tables


def identity_code(q: int, n: int, k: int) -> Code:
    f = field_new(q)
    rows = tuple(
        VecQ.from_digits(f, [1 if j == i else 0 for j in range(n)]) for i in range(k)
    )
    return Code(field=f, n=n, k=k, generator=rows, full_rank=True)


def repetition_code(q: int, n: int) -> Code:
    f = field_new(q)
    return Code(
        field=f, n=n, k=1, generator=(VecQ.from_digits(f, [1] * n),), full_rank=True
    )


def codeword_vectors(code: Code) -> set[VecQ]:
    """The distinct codewords of `code` as vectors."""
    return {VecQ(code.field, code.n, p) for p in code.codeword_payloads()}


@pytest.mark.parametrize("q", [2, 3])
def test_random_code_full_rank_contract(q):
    """Full-rank draws always have rank k and exactly q^k distinct codewords."""
    rng = random.Random(2026)
    for _ in range(200):
        code = random_code(12, 6, q, full_rank=True, rng=rng)
        assert code.full_rank
        assert rank_of(code.generator) == 6
        payloads = code.codeword_payloads()
        assert len(payloads) == q**6
        assert len(set(payloads)) == q**6
        assert code.size() == q**6


def test_random_code_iid_reports_actual_size():
    rng = random.Random(5)
    seen_deficient = False
    for _ in range(300):
        code = random_code(4, 3, 2, full_rank=False, rng=rng)
        r = rank_of(code.generator)
        assert code.size() == 2**r
        assert len(code.codeword_payloads()) == 2**3
        assert len(set(code.codeword_payloads())) == 2**r
        if r < 3:
            seen_deficient = True
    assert seen_deficient


def test_random_code_is_deterministic_per_seed():
    a = random_code(10, 4, 3, full_rank=True, rng=random.Random(42))
    b = random_code(10, 4, 3, full_rank=True, rng=random.Random(42))
    assert a == b


def test_random_code_rejects_bad_dimensions():
    with pytest.raises(ParameterError):
        random_code(4, 5, 2, full_rank=True, rng=random.Random(0))
    with pytest.raises(ParameterError):
        random_code(4, -1, 2, full_rank=False, rng=random.Random(0))


@pytest.mark.parametrize("row", [
    1,                                              # not a vector
    "101",                                          # digits, not a vector
    VecQ.from_digits(field_new(3), [1, 0, 1]),      # another q
    VecQ.from_digits(field_new(2), [1, 0, 1, 1]),   # another length
])
def test_code_refuses_a_generator_row_of_another_shape(row):
    with pytest.raises(ParameterError):
        Code(field_new(2), 3, 1, (row,), True)


def test_zero_dimensional_code():
    code = random_code(5, 0, 2, full_rank=True, rng=random.Random(0))
    assert code.size() == 1
    assert code.codeword_payloads() == [0]
    assert check_ld_exact(code, "1/5", 1).L_max == 1


def test_codewords_follow_message_order():
    """Codeword m is the combination with the base-q digits of m as coefficients."""
    q = 3
    f = field_new(q)
    rng = random.Random(8)
    code = random_code(6, 3, q, full_rank=True, rng=rng)
    words = code.codeword_payloads()
    for m in (0, 1, 5, 13, 26):
        digits = [(m // q**i) % q for i in range(3)]
        expected = VecQ.zero(f, 6)
        for a, row in zip(digits, code.generator):
            expected = expected + a * row
        assert words[m] == expected.payload


def test_rate():
    assert identity_code(2, 8, 4).rate() == 0.5
    assert repetition_code(3, 9).rate() == pytest.approx(1 / 9)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_span_matches_exhaustive_combination_set(q):
    """span_payloads equals the set of all coefficient combinations, tried
    exhaustively; every other input has a row dependent on the others."""
    f = field_new(q)
    rng = random.Random(31)
    deficient = 0
    for trial in range(20):
        m = rng.randrange(1, 3)
        n = rng.randrange(2, 5)
        vectors = [
            VecQ.from_digits(f, [rng.randrange(q) for _ in range(n)]) for _ in range(m)
        ]
        if trial % 2:
            vectors.append(rng.randrange(q) * vectors[0] + vectors[-1])
        expected = set()
        for coeffs in oracles.all_tuples(q, len(vectors)):
            v = VecQ.zero(f, n)
            for a, u in zip(coeffs, vectors):
                v = v + a * u
            expected.add(v.payload)
        result = span_payloads(vectors)
        assert result == expected
        rank = rank_of(vectors)
        assert len(result) == q ** rank
        assert 0 in result
        deficient += rank < len(vectors)
    assert deficient >= 10


def rows_ending_at(q, bits, rng):
    """Three random rows whose longest payload has exactly `bits` bits."""
    b = (q - 1).bit_length()
    n = -(-bits // b)
    top = next(d for d in range(1, q) if (n - 1) * b + d.bit_length() == bits)
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(3)]
    rows[0][-1] = top
    rows[1][-1] = rng.randrange(top + 1)
    return n, rows


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_span_list_matches_tuple_enumeration_in_order(q):
    """The slots of _span_block, and codeword_payloads, list sum a_i x_i in
    base-q message order, as digit-tuple arithmetic does.  The lengths n
    sit at the edges of 8-, 16-, 32- and 64-bit slots (for b = 3 no slot
    width is a power of two), and the inputs include zero rows,
    dependent rows and k = 0."""
    f = field_new(q)
    tables = field_tables(q)
    rng = random.Random(q * 7)
    cases = []
    for bits in (8, 16, 32, 33, 64, 65):
        n, rows = rows_ending_at(q, bits, rng)
        cases.append((n, rows))
        cases.append((n, [rows[0], [0] * n, rows[1]]))
        dependent = [tables[0][(tables[1][(2 % q, u)], v)]
                     for u, v in zip(rows[0], rows[1])]
        cases.append((n, [rows[0], rows[1], dependent]))
    cases += [(5, []), (5, [[0] * 5]), (1, [[1], [q - 1]])]
    for n, rows in cases:
        rows = [tuple(r) for r in rows]
        expected = oracles.span_in_message_order(rows, q, n, *tables)
        vectors = tuple(VecQ.from_digits(f, r) for r in rows)
        payloads = [v.payload for v in vectors]
        got = list(unpack_slots(*_span_block(f, n, payloads)))
        assert [VecQ(f, n, x).digits() for x in got] == expected, (n, rows)
        if len(rows) <= n:
            code = Code(f, n, len(rows), vectors, rank_of(vectors) == len(rows))
            assert code.codeword_payloads() == got
        if rows:
            assert span_payloads(vectors) == set(got)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_span_in_ball_matches_brute_distinct_count(q):
    """span_in_ball gives the number of distinct span members and of those
    in the ball, as a set of digit tuples does: on full-rank rows, which
    it counts on the span's block, and on a repeated row, a zero row and
    a dependent row, whose combinations repeat members."""
    f = field_new(q)
    tables = field_tables(q)
    rng = random.Random(q * 11)
    n = 5
    x, y = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(2))
    dependent = oracles.tuple_add(x, y, tables[0])
    cases = [[x], [x, y], [x, x], [x, (0,) * n, y], [(0,) * n],
             [x, y, dependent], [y, x, y, (0,) * n]]
    for rows in cases:
        span = set(oracles.span_in_message_order(rows, q, n, *tables))
        vectors = [VecQ.from_digits(f, r) for r in rows]
        assert len(span) == q ** rank_of(vectors)
        for radius in range(-1, n + 2):
            assert span_in_ball(vectors, radius) == (
                len(span), oracles.brute_in_ball(span, radius)), (rows, radius)


@pytest.mark.parametrize("q,n,ell", [(2, 20, 14), (3, 12, 9), (5, 8, 6),
                                     (16, 6, 4)])
def test_span_in_ball_counts_spans_above_one_slice(q, n, ell):
    """Full-rank spans of 4096 members and more, counted on the block in
    several slices, against digit tuples of span_payloads counted one by
    one."""
    f = field_new(q)
    rng = random.Random(q + n)
    while True:
        vectors = [VecQ.from_digits(f, [rng.randrange(q) for _ in range(n)])
                   for _ in range(ell)]
        if rank_of(vectors) == ell:
            break
    tuples = [VecQ(f, n, x).digits() for x in span_payloads(vectors)]
    assert len(tuples) == q ** ell >= 4096
    for radius in (-1, 0, n // 3, n // 2, n - 1, n):
        assert span_in_ball(vectors, radius) == (
            len(tuples), oracles.brute_in_ball(tuples, radius))


@pytest.mark.parametrize("q,n,ell", [(2, 20, 14), (3, 12, 9)])
def test_span_in_ball_divides_by_zero_slots_across_slices(q, n, ell):
    """A span whose last row repeats an earlier one: every member fills q
    slots of a block of several _BATCH slices, zero among them, and
    span_in_ball divides both slot counts by that.  The first row has
    weight 1, so the slots within radius 1 are more than the zero slots.
    Checked against the digit tuples of every combination, in message
    order."""
    f = field_new(q)
    rng = random.Random(n * ell)
    unit = [0] * n
    unit[rng.randrange(n)] = rng.randrange(1, q)
    rows = [tuple(unit)] + [tuple(rng.randrange(q) for _ in range(n))
                            for _ in range(ell - 2)]
    rows.append(rows[rng.randrange(ell - 1)])
    vectors = [VecQ.from_digits(f, r) for r in rows]
    assert rank_of(vectors) == ell - 1
    combos = oracles.span_in_message_order(rows, q, n, *field_tables(q))
    assert len(combos) == q ** ell > 2 * _BATCH
    assert combos.count((0,) * n) == q
    span = set(combos)
    for radius in (-1, 0, 1, n // 4, n // 2, n):
        assert span_in_ball(vectors, radius) == (
            len(span), oracles.brute_in_ball(span, radius)), radius


@pytest.mark.parametrize("q,n", [(2, 65), (3, 33), (16, 17)])
def test_span_in_ball_with_zero_top_digits(q, n):
    """Rows whose last digit is 0 fit slots narrower than n digits; the
    block count takes the digits past the slot as 0."""
    f = field_new(q)
    rng = random.Random(n)
    rows = [tuple(rng.randrange(q) for _ in range(n - 1)) + (0,)
            for _ in range(3)]
    span = set(oracles.span_in_message_order(rows, q, n, *field_tables(q)))
    vectors = [VecQ.from_digits(f, r) for r in rows]
    for radius in (-1, 0, n // 4, n // 2, n - 2, n - 1, n):
        assert span_in_ball(vectors, radius) == (
            len(span), oracles.brute_in_ball(span, radius))


def test_span_in_ball_refuses_as_span_payloads():
    f = field_new(2)
    with pytest.raises(ParameterError):
        span_in_ball([], 1)
    with pytest.raises(ResourceBudgetError):
        span_in_ball([VecQ.from_digits(f, [1] * 30) for _ in range(30)], 1)


F3_LENGTHS = (1, 2, 31, 32, 33, 63, 64, 65)  # across the plane slot widths


@st.composite
def f3_rows(draw) -> list[tuple[int, ...]]:
    """1 to 5 rows of F_3^n, n in F3_LENGTHS; some sets repeat a row or
    hold a zero row, so that every member fills several slots."""
    n = draw(st.sampled_from(F3_LENGTHS))
    defect = draw(st.sampled_from(("none", "repeat", "zero")))
    digits = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(digits, min_size=1, max_size=5 - (defect != "none")))
    j = draw(st.integers(0, len(rows) - 1))
    if defect == "repeat":
        rows.append(rows[j])
    elif defect == "zero":
        rows.insert(j, (0,) * n)
    return rows


@settings(max_examples=80, deadline=None)
@given(f3_rows())
@example([(1,) + (0,) * 64, (0, 2) + (0,) * 63, (0,) * 65])
@example([(2, 1) * 16, (2, 1) * 16])
def test_span_in_ball_at_q3_matches_brute_span(rows):
    """At q = 3, where span_in_ball counts on two bit planes, it gives the
    distinct members of the span and those within every radius 0 .. n as
    the digit tuples of every coefficient tuple do, with repeated and zero
    rows among the sets."""
    f = field_new(3)
    n = len(rows[0])
    weights = oracles.brute_span_weights(rows, 3, n, *field_tables(3))
    vectors = [VecQ.from_digits(f, r) for r in rows]
    size = sum(weights.values())
    inside = 0
    for radius in range(n + 1):
        inside += weights[radius]
        assert span_in_ball(vectors, radius) == (size, inside), radius


@pytest.mark.parametrize("n", F3_LENGTHS)
def test_q3_span_count_block_holds_supports_in_one_bit_slots(n):
    """At q = 3 the counted block is one of F_2^n: slot j, in
    slot_width(1, n) bits, holds the support of message j's member, in
    the message order of the interleaved `_span_block`."""
    f = field_new(3)
    rng = random.Random(n)
    rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(4)]
    rows.append(rows[0])
    two, length, block, width, count = span_count_block(
        f, n, [VecQ.from_digits(f, r).payload for r in rows])
    assert (two.q, length, width, count) == (2, n, slot_width(1, n), 3 ** 5)
    supports = [sum(1 << i for i, d in enumerate(t) if d)
                for t in oracles.span_in_message_order(rows, 3, n,
                                                       *field_tables(3))]
    assert list(unpack_slots(block, width, count)) == supports


def assert_tally_matches_oracle(q: int, rows: list[tuple[int, ...]], n: int,
                                radius: int) -> None:
    f = field_new(q)
    gen = tuple(VecQ.from_digits(f, row) for row in rows)
    code = Code(f, n, len(gen), gen, full_rank=rank_of(gen) == len(gen))
    got = {VecQ(f, n, label).digits(): count
           for label, count in _coset_tally(code, radius).items()}
    want = oracles.brute_coset_tally(rows, q, n, radius, *field_tables(q))
    assert got == want, (q, rows, radius)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_coset_tally_matches_brute_per_coset_count(q):
    """Level-wise tally against tuple arithmetic: random codes, full and
    deficient rank, every radius up to n, k = 0 and k = n, and n = 1."""
    rng = random.Random(1000 + q)
    n = {2: 7, 3: 5, 4: 4, 5: 3, 7: 3, 8: 3, 9: 3, 11: 2, 13: 2, 16: 2}[q]
    for k in sorted({0, 1, n // 2, n}):
        rows = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        for radius in sorted({0, 1, n // 2, n}):
            assert_tally_matches_oracle(q, rows, n, radius)
    for row in ([], [0], [1], [q - 1]):
        for radius in (0, 1):
            assert_tally_matches_oracle(q, [tuple(row)] if row else [], 1,
                                        radius)


def test_coset_tally_with_slots_wider_than_a_word():
    """q = 3 at n > 32: labels take more than 64 bits, so the levels are
    packed into 72- and 80-bit slots."""
    rng = random.Random(33)
    for n, k, radius in ((33, 2, 2), (34, 1, 2), (40, 2, 2), (36, 0, 3)):
        rows = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(k)]
        assert_tally_matches_oracle(3, rows, n, radius)


def test_span_of_empty_list_is_refused():
    """An empty list names no field, so there is no span to return."""
    with pytest.raises(ParameterError):
        span_payloads([])


def test_span_budget_refusal():
    f = field_new(2)
    vectors = [VecQ.from_digits(f, [1] * 30) for _ in range(30)]
    with pytest.raises(ResourceBudgetError):
        span_payloads(vectors)


def test_repetition_code_is_uniquely_decodable():
    verdict = check_ld_exact(repetition_code(2, 7), "0.2", 1)
    assert verdict.L_max == 1
    assert verdict.radius == 1
    assert verdict.decodable
    assert verdict.witness_center is not None


def test_full_space_ball_volume_anchor():
    """For the whole space, every ball is full of codewords."""
    verdict = check_ld_exact(identity_code(2, 8, 8), "1/4", 1)
    assert verdict.L_max == ball_volume(8, 2, 2) == 37
    assert not verdict.decodable
    small = check_ld_exact(identity_code(2, 2, 2), "1/2", 3)
    assert small.L_max == 3
    assert small.decodable


@pytest.mark.parametrize("mode", ["full", "syndrome"])
def test_exact_checker_matches_independent_center_scan(mode):
    """L_max agrees with a digit-tuple oracle scanning every center."""
    rng = random.Random(77)
    cases = [(2, 6, 3), (2, 5, 2), (3, 4, 2)]
    for q, n, k in cases:
        for _ in range(6):
            code = random_code(n, k, q, full_rank=False, rng=rng)
            p = Fraction(rng.randrange(1, n // 2 + 1), n)
            verdict = check_ld_exact(code, p, 1, mode=mode)
            codewords = {w.digits() for w in codeword_vectors(code)}
            expected = oracles.brute_list_decode_l_max(
                codewords, radius_of(p, n), q, n
            )
            assert verdict.L_max == expected
            assert verdict.mode == mode


def test_witness_center_achieves_l_max():
    """Recounting codewords around the reported witness reproduces L_max."""
    rng = random.Random(13)
    for _ in range(25):
        q = rng.choice([2, 3])
        n = rng.randrange(5, 10)
        k = rng.randrange(1, 4)
        code = random_code(n, k, q, full_rank=False, rng=rng)
        p = Fraction(rng.randrange(1, n), n)
        verdict = check_ld_exact(code, p, 1)
        recount = sum(
            1
            for w in codeword_vectors(code)
            if verdict.witness_center.distance(w) <= verdict.radius
        )
        assert recount == verdict.L_max


def test_syndrome_and_full_modes_agree():
    rng = random.Random(2468)
    for _ in range(20):
        n = rng.randrange(6, 13)
        k = rng.randrange(1, 5)
        code = random_code(n, k, 2, full_rank=False, rng=rng)
        p = Fraction(rng.randrange(1, 4), 10)
        full = check_ld_exact(code, p, 2, mode="full")
        syndrome = check_ld_exact(code, p, 2, mode="syndrome")
        assert full.L_max == syndrome.L_max
        assert full.witness_center == syndrome.witness_center
        assert full.exhaustive and not syndrome.exhaustive
        assert syndrome.centers_inspected == ball_volume(n, syndrome.radius, 2)


@st.composite
def small_codes(draw):
    """I.i.d. generators, rank-deficient ones included, with q^(n+k) <= 9^4."""
    q = draw(st.sampled_from([2, 3, 4, 5, 9]))
    n_max, k_max = {2: (7, 3), 3: (5, 3), 4: (4, 2), 5: (3, 2), 9: (3, 1)}[q]
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(0, min(n, k_max)))
    f = field_new(q)
    rows = tuple(
        VecQ.from_digits(f, draw(st.lists(st.integers(0, q - 1),
                                          min_size=n, max_size=n)))
        for _ in range(k))
    code = Code(field=f, n=n, k=k, generator=rows, full_rank=rank_of(rows) == k)
    return code, Fraction(draw(st.integers(0, n)), n)


# Generator 10000 over F_3 packs into fewer bits than a center of F_3^5:
# codewords counted in slots sized to the rows lose the center's top
# digits, and at radius 0 the full scan then read L_max 2 for the true 1.
@settings(max_examples=60, deadline=None)
@given(small_codes())
@example((parse_code("3 5 1\n10000\n"), Fraction(0)))
def test_exact_modes_match_brute_oracle_on_distinct_codewords(case):
    code, p = case
    syndrome = check_ld_exact(code, p, 1, mode="syndrome")
    full = check_ld_exact(code, p, 1, mode="full")
    codewords = {w.digits() for w in codeword_vectors(code)}
    assert len(codewords) == code.size()
    expected = oracles.brute_list_decode_l_max(
        codewords, radius_of(p, code.n), code.q, code.n)
    assert syndrome.L_max == full.L_max == expected
    assert syndrome.witness_center == full.witness_center


def test_l_max_is_monotone_in_radius():
    rng = random.Random(555)
    code = random_code(10, 3, 2, full_rank=True, rng=rng)
    values = [
        check_ld_exact(code, Fraction(r, 10), 1).L_max for r in range(0, 6)
    ]
    assert values == sorted(values)


def test_exact_checker_rejects_bad_list_size_and_mode():
    code = repetition_code(2, 5)
    with pytest.raises(ParameterError):
        check_ld_exact(code, "1/5", 0)
    with pytest.raises(ParameterError):
        check_ld_exact(code, "1/5", 1, mode="bogus")


@pytest.mark.parametrize("mode", ["auto", "full", "syndrome"])
def test_rank_deficient_code_counts_distinct_codewords(mode):
    """Two equal generator rows give |C| = 2, so no ball holds more than 2."""
    code = parse_code("2 6 2\n110000\n110000\n")
    assert code.size() == 2
    assert check_ld_exact(code, Fraction(1, 3), 1, mode=mode).L_max == 2


def test_rank_deficient_montecarlo_counts_distinct_codewords():
    code = parse_code("2 6 2\n110000\n110000\n")
    mc = check_ld_montecarlo(code, Fraction(1, 3), 200, random.Random(4))
    assert mc.max_count == 2
    assert set(mc.histogram) <= {1, 2}


def test_exact_checker_budget_refusals():
    big = identity_code(2, 30, 26)
    with pytest.raises(ResourceBudgetError):
        check_ld_exact(big, "1/10", 1, mode="full")
    # q^n = 2^20 is in budget, but the scan checks 2^20 codewords per center.
    with pytest.raises(ResourceBudgetError):
        check_ld_exact(identity_code(2, 20, 20), "1/10", 1, mode="full")
    # The coset tally walks B(0, 3) in F_2^30: 4526 points, well in budget.
    verdict = check_ld_exact(big, "1/10", 1)
    assert verdict.mode == "syndrome"
    assert verdict.L_max == ball_volume(26, 3, 2) == 2952
    wide = identity_code(2, 64, 8)
    assert ball_volume(64, 16, 2) > 2**24
    for mode in ("syndrome", "auto"):
        with pytest.raises(ResourceBudgetError):
            check_ld_exact(wide, "1/4", 1, mode=mode)


def test_exact_checker_refuses_a_long_ball_before_summing_it():
    """B(0, 6666) in F_2^20000 is refused from its first shells: the
    checker never builds the thousands of shells of its volume."""
    code = parse_code("2 20000 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            check_ld_exact(code, Fraction(1, 3), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_check_power_refuses_by_the_exponent():
    """q^e is exact up to the budget and refused one past it; a huge
    exponent is refused with a true lower bound >= 2^k, without building
    the power (2^(10^12) alone would take 125 GB)."""
    assert check_power("q^l", 2, 24) == 2**24
    assert check_power("q^l", 16, 4, budget=2**16) == 2**16
    assert check_power("q^n * |C|", 3, 2, 10) == 9
    for args, budget, text in [
            (("q^l", 2, 25), 2**24, "q^l = 33554432 exceeds the budget of 2^24"),
            (("q^l", 16, 5), 2**16, "q^l = 1048576 exceeds the budget of 2^16"),
            (("t * q^k", 2, 20, 17), 2**24,
             "t * q^k = 17825792 exceeds the budget of 2^24"),
            (("q^l", 3, 10**12), 2**24, "q^l >= 2^446 exceeds the budget of 2^24"),
            (("q^l", 2, 10**12), 2**300,
             "q^l >= 2^558 exceeds the budget of 2^300")]:
        with pytest.raises(ResourceBudgetError) as excinfo:
            check_power(*args, budget=budget)
        assert str(excinfo.value) == text


def test_format_rational_rounds_only_past_128_bits():
    """A rational whose numerator and denominator fit in 128 bits prints
    exactly; a longer one to six digits, "~" marking a rounded value."""
    short = Fraction(2**128 - 1, 3)
    assert format_rational(short) == str(short)
    assert format_rational(Fraction(-10**400)) == "-1e+400"
    assert format_rational(Fraction(2 * 10**400, 3)) == "~6.66667e+399"
    assert format_rational(Fraction(1, 2**129)) == "~1.46937e-39"


def test_montecarlo_never_exceeds_exact_and_usually_matches():
    """The sampled maximum is a lower bound that reaches L_max on most codes.

    100 codes at (n=14, k=3, q=2, p=0.2) with 1000 trials each on seed 12345;
    the sampler found the exact maximum on all 100 in calibration, so the
    threshold of 90 leaves wide margin.
    """
    rng = random.Random(12345)
    matches = 0
    for i in range(100):
        code = random_code(14, 3, 2, full_rank=False, rng=rng)
        exact = check_ld_exact(code, Fraction(1, 5), 1)
        mc = check_ld_montecarlo(code, Fraction(1, 5), 1000, random.Random(1000 + i))
        assert mc.max_count <= exact.L_max
        assert sum(mc.histogram.values()) == mc.trials == 1000
        assert min(mc.histogram) >= 1
        if mc.max_count == exact.L_max:
            matches += 1
    assert matches >= 90


def test_montecarlo_histogram_on_repetition_code():
    mc = check_ld_montecarlo(repetition_code(2, 7), "0.2", 300, random.Random(3))
    assert mc.histogram == {1: 300}
    assert mc.max_count == 1
    assert mc.witness_center is not None


def montecarlo_cases(q: int) -> list[Code]:
    """Codes for the Monte Carlo replay at q: a random full-rank code, a
    generator whose last row repeats the first, k = 0, and, at q = 3,
    the generator 10000, whose packed row is shorter than a center."""
    rng = random.Random(700 + q)
    n = 7 if q <= 3 else 5
    f = field_new(q)
    full = random_code(n, 2, q, full_rank=True, rng=rng)
    first, second = full.generator
    cases = [full,
             Code(f, n, 3, (first, second, first), full_rank=False),
             Code(f, n, 0, (), full_rank=True)]
    if q == 3:
        cases.append(parse_code("3 5 1\n10000\n"))
    return cases


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_montecarlo_matches_tuple_replay(q):
    """check_ld_montecarlo reports the histogram, maximum and witness of
    the same draws replayed on digit tuples (`oracles.replay_ld_montecarlo`)
    at two radii per code."""
    add, mul = field_tables(q)
    for code in montecarlo_cases(q):
        rows = [row.digits() for row in code.generator]
        for p in (Fraction(1, code.n), Fraction(2, 5)):
            mc = check_ld_montecarlo(code, p, 150, random.Random(q))
            radius = radius_of(p, code.n)
            want = oracles.replay_ld_montecarlo(
                rows, q, code.n, radius, 150, random.Random(q), add, mul)
            got = (mc.histogram, mc.max_count, mc.witness_center.digits())
            assert got == want, (str(code.generator), p)


def test_montecarlo_budget_refusal():
    with pytest.raises(ResourceBudgetError):
        check_ld_montecarlo(identity_code(2, 26, 26), "1/4", 10, random.Random(0))
    # q^k = 2^18 is in budget, but each of the 1000 trials checks every codeword.
    with pytest.raises(ResourceBudgetError):
        check_ld_montecarlo(identity_code(2, 18, 18), "1/4", 1000, random.Random(0))


def test_code_serialization_round_trip():
    rng = random.Random(17)
    for q in (2, 3, 5, 16):
        for k in (0, 1, 3):
            code = random_code(6, k, q, full_rank=True, rng=rng)
            text = format_code(code)
            lines = text.strip().splitlines()
            assert lines[0] == f"{q} 6 {k}"
            assert len(lines) == k + 1
            assert parse_code(text) == code


def test_parse_code_detects_rank_deficiency():
    text = "2 4 2\n1100\n1100\n"
    code = parse_code(text)
    assert not code.full_rank
    assert code.size() == 2


def test_parse_code_rejects_malformed_input():
    bad_inputs = [
        "",
        "2 4\n",
        "2 4 2\n1100\n",
        "2 4 1\n11000\n",
        "2 4 1\n1120\n",
        "6 4 1\n1100\n",
        "2 4 1\n1100\nextra\n",
    ]
    for text in bad_inputs:
        with pytest.raises(ParameterError):
            parse_code(text)


def test_verdict_record_fields():
    verdict = check_ld_exact(repetition_code(2, 7), "0.2", 1)
    record = verdict.as_record()
    assert record["L_max"] == 1
    assert record["q"] == 2 and record["n"] == 7 and record["k"] == 1
    assert record["decodable"] is True
