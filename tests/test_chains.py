"""Shattering and increasing chains: constructive finders vs brute-force oracles."""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ldlab import (
    Chain,
    ParameterError,
    ResourceBudgetError,
    VecQ,
    all_vectors,
    chain_find,
    chain_length_bound,
    chain_verify,
    field_new,
    format_chain,
    format_vector_set,
    format_witness,
    longest_chain_oracle,
    oracle_best_translate,
    parse_chain,
    parse_code,
    parse_vector_set,
    parse_witness,
    shatter_find,
    shatter_threshold,
    shatter_verify,
)
from ldlab import chains

import oracles

GOLDEN = Path(__file__).parent / "golden" / "chains_12345.jsonl"
FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def subsets_of_space(q: int, ell: int, rng: random.Random, count: int):
    """Yield `count` random nonempty subsets of F_q^ell."""
    space = list(all_vectors(field_new(q), ell))
    for _ in range(count):
        size = rng.randrange(1, len(space) + 1)
        yield rng.sample(space, size)


def vectors(q: int, rows) -> list[VecQ]:
    f = field_new(q)
    return [VecQ.from_digits(f, row) for row in rows]


def witness_is_valid(S, witness) -> bool:
    """The digit-tuple oracle's verdict on the witness's covering map over S."""
    return oracles.valid_covering_map(
        [v.digits() for v in S], witness.U, witness.c, witness.q,
        {u: v.digits() for u, v in witness.covering_map.items()})


def assert_valid_witness(S, witness, q):
    """A witness must verify, name |U| = c coordinates, and cover every pattern."""
    assert witness.q == q
    assert len(witness.U) == witness.c
    assert shatter_verify(S, witness.U, q)
    assert witness_is_valid(S, witness)
    assert len(witness.covering_map) == q**witness.c
    coords = sorted(witness.U)
    member_set = set(S)
    for pattern, member in witness.covering_map.items():
        assert member in member_set
        for j, coord in enumerate(coords):
            assert member.digit(coord - 1) != pattern[j]
    zero_based = [u - 1 for u in coords]
    assert oracles.brute_shattered([v.digits() for v in S], zero_based, q)


def test_shatter_threshold_values():
    assert shatter_threshold(4, 1, 2) == 2
    assert shatter_threshold(4, 2, 2) == 8
    assert shatter_threshold(3, 2, 3) == 12
    assert shatter_threshold(3, 2, 4) == 18
    assert shatter_threshold(5, 3, 2) == 50


def test_base_case_picks_a_separating_coordinate():
    S = vectors(2, [(0, 0), (0, 1), (1, 0)])
    witness = shatter_find(S, 1)
    assert witness is not None
    assert_valid_witness(S, witness, 2)


def test_full_alphabet_line_is_shattered():
    S = vectors(3, [(0,), (1,), (2,)])
    witness = shatter_find(S, 1)
    assert witness is not None
    assert witness.U == frozenset({1})
    assert_valid_witness(S, witness, 3)


def test_constant_sets_yield_no_witness():
    assert shatter_find(vectors(2, [(1, 1, 1)]), 1) is None
    assert shatter_find(vectors(3, [(0, 2), (0, 2)]), 1) is None


def test_shatter_exhaustive_small_space():
    """All nonempty S in F_2^3: above threshold always succeeds; below, any
    returned witness still verifies."""
    space = list(all_vectors(field_new(2), 3))
    for c in (1, 2):
        threshold = shatter_threshold(3, c, 2)
        for mask in range(1, 1 << 8):
            S = [space[i] for i in range(8) if mask >> i & 1]
            witness = shatter_find(S, c)
            if witness is None:
                assert len(S) <= threshold
            else:
                assert_valid_witness(S, witness, 2)


@pytest.mark.parametrize("q", [3, 4])
def test_shatter_randomized_ternary_and_quaternary(q):
    rng = random.Random(12345)
    threshold = shatter_threshold(3, 2, q)
    for S in subsets_of_space(q, 3, rng, 200):
        witness = shatter_find(S, 2)
        if witness is None:
            assert len(S) <= threshold
        else:
            assert_valid_witness(S, witness, q)


def test_shatter_verify_matches_brute_oracle():
    rng = random.Random(31337)
    for q, ell in [(2, 4), (3, 3)]:
        for S in subsets_of_space(q, ell, rng, 60):
            coords = rng.sample(range(1, ell + 1), rng.randrange(1, ell + 1))
            expected = oracles.brute_shattered(
                [v.digits() for v in S], [u - 1 for u in coords], q
            )
            assert shatter_verify(S, coords, q) == expected


def test_shatter_verify_spec_anchors():
    f = field_new(2)
    full = list(all_vectors(f, 3))
    for size in (1, 2, 3):
        assert shatter_verify(full, range(1, size + 1), 2)
    assert not shatter_verify([VecQ.zero(f, 3)], [1], 2)


def test_shatter_verify_refuses_mismatched_members():
    """Every member is shape-checked, not only the first one's q: here
    the F_3 member would otherwise avoid the pattern 1 at coordinate 1."""
    S = [VecQ.from_string(field_new(2), "011"),
         VecQ.from_string(field_new(3), "222")]
    with pytest.raises(ParameterError):
        shatter_verify(S, [1], 2)


def test_witness_validate_rejects_tampering():
    S = list(all_vectors(field_new(2), 3))
    witness = shatter_find(S, 2)
    assert witness is not None
    assert witness_is_valid(S, witness)
    assert not witness_is_valid(S[: len(S) // 2], witness)


def test_shatter_find_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        shatter_find([], 1)
    with pytest.raises(ParameterError):
        shatter_find(vectors(2, [(1, 0)]), 0)


def test_chain_length_bound_matches_binary_formula():
    for L in (2, 4, 8, 16, 32):
        for ell in (3, 4, 5, 6):
            for c in (1, 2, 3):
                assert chain_length_bound(L, ell, c, 2) == pytest.approx(
                    oracles.binary_chain_length_bound(L, ell, c), abs=1e-12
                )


def test_chain_length_bound_positive_iff_above_threshold():
    """The bound crosses zero exactly at the shattering threshold."""
    for q in (2, 3, 4):
        for ell in (2, 3, 4, 5):
            for c in (1, 2, 3):
                threshold = shatter_threshold(ell, c, q)
                for L in range(1, min(q**ell, 4 * threshold) + 1):
                    bound = chain_length_bound(L, ell, c, q)
                    if L > threshold:
                        assert bound > -1e-9
                        assert math.ceil(bound - 1e-9) >= 1 or bound <= 1e-9
                    if bound > 1e-9:
                        assert L > threshold


def test_chain_bound_anchor_half():
    assert oracles.binary_chain_length_bound(16, 4, 2) == pytest.approx(0.5)


def test_singleton_chain():
    """A single vector yields a length-1 chain via a translate of full weight."""
    S = vectors(3, [(0, 2, 0, 1)])
    chain = chain_find(S, 2, 3)
    assert chain.d == 1
    assert chain.verify()
    assert chain.members[0] == S[0]
    assert (S[0] + chain.translate_w).weight() >= 2


def test_chain_members_come_from_the_input_set():
    rng = random.Random(5150)
    for S in subsets_of_space(2, 4, rng, 50):
        chain = chain_find(S, 2, 2)
        assert set(chain.members) <= set(S)
        assert len(set(chain.members)) == chain.d


def test_chain_exhaustive_small_space():
    """All nonempty S in F_2^3, c=2: verified chain, bound met, oracle dominates."""
    space = list(all_vectors(field_new(2), 3))
    threshold = shatter_threshold(3, 2, 2)
    for mask in range(1, 1 << 8):
        S = [space[i] for i in range(8) if mask >> i & 1]
        chain = chain_find(S, 2, 2)
        assert chain.verify()
        if len(S) > threshold:
            bound = chain_length_bound(len(S), 3, 2, 2)
            assert chain.d >= math.ceil(bound)
        translated = [v + chain.translate_w for v in S]
        assert longest_chain_oracle(translated, 2) >= chain.d


@pytest.mark.parametrize("q,ell", [(2, 5), (2, 6), (3, 3)])
def test_chain_randomized(q, ell):
    rng = random.Random(777)
    threshold = shatter_threshold(ell, 2, q)
    for S in subsets_of_space(q, ell, rng, 150):
        chain = chain_find(S, 2, q)
        assert chain.verify()
        if len(S) > threshold:
            assert chain.d >= math.ceil(chain_length_bound(len(S), ell, 2, q))
        translated = [v + chain.translate_w for v in S]
        assert longest_chain_oracle(translated, 2) >= chain.d


def test_chain_verify_accepts_and_rejects():
    f = field_new(2)
    w = VecQ.zero(f, 4)
    good = vectors(2, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert chain_verify(w, good, 2)
    stale = vectors(2, [(1, 1, 0, 0), (1, 0, 0, 0)])
    assert not chain_verify(w, stale, 2)
    overlap = vectors(2, [(1, 1, 1, 0), (0, 1, 1, 1)])
    assert not chain_verify(w, overlap, 2)
    assert chain_verify(w, overlap, 1)
    assert chain_verify(w, [], 2)
    with pytest.raises(ParameterError):
        chain_verify(w, good, 0)


def test_chain_verify_applies_the_translate():
    f = field_new(2)
    w = VecQ.from_digits(f, [1, 1, 1, 1])
    members = vectors(2, [(0, 0, 1, 1), (1, 1, 0, 0)])
    assert chain_verify(w, members, 2)
    assert not chain_verify(VecQ.zero(f, 4), [members[0], members[0]], 2)


def test_longest_chain_oracle_anchors():
    assert longest_chain_oracle(vectors(2, [(1, 0, 0, 0)]), 2) == 0
    basis = vectors(2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert longest_chain_oracle(basis, 1) == 4
    assert longest_chain_oracle(
        vectors(2, [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)]), 2
    ) == 2


def test_longest_chain_oracle_matches_independent_search():
    rng = random.Random(4096)
    for q, ell in [(2, 5), (3, 4), (2, 6)]:
        for S in subsets_of_space(q, ell, rng, 40):
            for c in (1, 2, 3):
                expected = oracles.brute_longest_chain(
                    [v.digits() for v in S], c
                )
                assert longest_chain_oracle(S, c) == expected


@st.composite
def digit_sets(draw, max_ell: int):
    """(q, ell, rows): q <= 16, ell <= max_ell, 1-40 digit tuples with
    about half their digits zero."""
    q = draw(st.sampled_from(FIELDS))
    ell = draw(st.integers(1, max_ell))
    digit = st.one_of(st.just(0), st.integers(1, q - 1))
    rows = draw(st.lists(st.tuples(*[digit] * ell), min_size=1, max_size=40))
    return q, ell, rows


@given(digit_sets(8), st.sampled_from([1, 2, 3]))
def test_cut_oracle_equals_uncut_reference(case, c):
    q, ell, rows = case
    assert longest_chain_oracle(vectors(q, rows), c) == (
        oracles.uncut_longest_chain(rows, c))


@pytest.mark.parametrize("c", [1, 2, 3])
def test_oracle_cut_stops_at_the_upper_bound(c):
    """A search state returns once a chain reaches (l - |covered|) // c.
    For 12/c disjoint blocks of c coordinates that means one path of
    12/c + 1 states, where the uncut search visits every union of blocks."""
    blocks = vectors(2, [tuple(int(j // c == i) for j in range(12))
                         for i in range(12 // c)])
    states = []

    def count(frame, event, arg):
        # lru_cache hits make no frame, so calls of `best` are states searched.
        if event == "call" and frame.f_code is best_code:
            states.append(frame.f_locals["covered"])

    best_code = next(k for k in longest_chain_oracle.__code__.co_consts
                     if getattr(k, "co_name", None) == "best")
    sys.setprofile(count)
    try:
        d = longest_chain_oracle(blocks, c)
    finally:
        sys.setprofile(None)
    assert d == 12 // c
    assert len(states) == 12 // c + 1


@given(digit_sets(10))
def test_lex_keys_round_trip_and_order(case):
    """VecQ -> key -> VecQ is the identity, and the ascending distinct keys
    are the distinct vectors in digits() order, for the table (l*b <= 12)
    and the digit-loop conversions alike."""
    q, ell, rows = case
    S = vectors(q, rows)
    field = S[0].field
    reverse = chains._reversal(ell, field.bits_per_digit)
    assert [VecQ(field, ell, reverse(reverse(v.payload))) for v in S] == S
    _, _, keys = chains._lex_keys(S)
    assert [VecQ(field, ell, reverse(k)).digits() for k in keys] == sorted(
        {v.digits() for v in S})


def test_longest_chain_oracle_budget():
    f = field_new(2)
    with pytest.raises(ResourceBudgetError):
        longest_chain_oracle([VecQ.from_digits(f, [1] * 21)], 1)


def test_best_translate_dominates_chain_find():
    """Scanning all translates with the oracle never loses to the constructive d."""
    rng = random.Random(808)
    for q, ell in [(2, 3), (3, 3), (2, 2)]:
        space = list(all_vectors(field_new(q), ell))
        for S in subsets_of_space(q, ell, rng, 30):
            chain = chain_find(S, 2, q)
            best_d, best_w = oracle_best_translate(S, 2)
            assert best_d >= chain.d
            assert longest_chain_oracle([v + best_w for v in S], 2) == best_d
            exhaustive = max(
                longest_chain_oracle([v + w for v in S], 2) for w in space
            )
            assert best_d == exhaustive


def test_best_translate_budget():
    f = field_new(2)
    with pytest.raises(ResourceBudgetError):
        oracle_best_translate([VecQ.from_digits(f, [1] * 17)], 2)


def test_chain_serialization_round_trip():
    rng = random.Random(99)
    for q, ell in [(2, 4), (3, 3), (4, 3)]:
        for S in subsets_of_space(q, ell, rng, 10):
            chain = chain_find(S, 2, q)
            parsed = parse_chain(format_chain(chain))
            assert parsed == chain
            assert parsed.verify() == chain.verify()


def test_witness_serialization_round_trip():
    S = list(all_vectors(field_new(3), 2))
    witness = shatter_find(S, 2)
    assert witness is not None
    assert parse_witness(format_witness(witness)) == witness


def test_parse_witness_rejects_malformed_input():
    bad_inputs = [
        "",
        "2 4 2\nU 1 3\n00 1010\n",
        "2 4 1\nU 1 3\n00 1010\n01 1000\n10 0010\n11 0000\n",
        "2 4 2\nU 1 3\n00 1010\n01 1000\n10 0010\n11 00100\n",
        "2 4 2\nU 1 5\n00 1010\n01 1000\n10 0010\n11 0000\n",
        "2 4 2\nU 1 3\n00 1010\n01 1000\n12 0010\n11 0000\n",
    ]
    for text in bad_inputs:
        with pytest.raises(ParameterError):
            parse_witness(text)


def test_parse_witness_rejects_non_numeric_fields():
    """Non-integer U entries and non-hex patterns are parameter errors."""
    bad_inputs = [
        "2 4 2\nU 1 x\n00 1010\n01 1000\n10 0010\n11 0000\n",
        "2 4 2\nU 1 3\n00 1010\n0g 1000\n10 0010\n11 0000\n",
    ]
    for text in bad_inputs:
        with pytest.raises(ParameterError):
            parse_witness(text)


def test_vector_set_serialization_round_trip():
    rng = random.Random(123)
    for q, ell in [(2, 5), (3, 3), (16, 2)]:
        for S in subsets_of_space(q, ell, rng, 5):
            text = format_vector_set(S)
            assert text.splitlines()[0] == f"{q} {ell}"
            parsed = parse_vector_set(text)
            assert set(parsed) == set(S)
            assert parsed == sorted(parsed, key=str)


def test_format_vector_set_refuses_mismatched_lengths():
    """format_vector_set writes no file that parse_vector_set refuses."""
    f = field_new(2)
    with pytest.raises(ParameterError):
        format_vector_set([VecQ.from_string(f, "011"), VecQ.from_string(f, "10")])


def test_empty_vector_lists():
    """An empty list names no field: the oracle, shatter_verify and
    chain_verify answer for it, and the rest refuse it."""
    assert longest_chain_oracle([], 1) == 0
    assert shatter_verify([], [1], 2) is False
    assert chain_verify(VecQ.zero(field_new(2), 3), [], 1)
    for call in (lambda: format_vector_set([]), lambda: chain_find([], 1, 2),
                 lambda: oracle_best_translate([], 1)):
        with pytest.raises(ParameterError):
            call()


def test_non_vector_members_are_parameter_errors():
    """Sets whose members are not VecQs are refused with ParameterError by
    every finder, checker and formatter, including format_vector_set's
    sort."""
    w = VecQ.zero(field_new(2), 2)
    for call in (lambda: format_vector_set(["01"]),
                 lambda: format_vector_set([1, 2]),
                 lambda: shatter_find([1, 2], 1),
                 lambda: shatter_verify([1, 2], [1], 2),
                 lambda: chain_find([1, 2], 1, 2),
                 lambda: chain_verify(1, [], 1),
                 lambda: chain_verify(w, ["01"], 1),
                 lambda: longest_chain_oracle([1, 2], 1),
                 lambda: oracle_best_translate([1, 2], 1)):
        with pytest.raises(ParameterError, match="expected VecQ"):
            call()


def test_parse_vector_set_rejects_malformed_input():
    for text in ["", "2\n", "2 3\n12\n", "2 3\n120\n", "6 3\n000\n"]:
        with pytest.raises(ParameterError):
            parse_vector_set(text)


def test_parse_chain_rejects_malformed_input():
    for text in ["", "2 4 2\n0000\n", "2 4 2\nw 000\n", "2 4 0\nw 0000\n"]:
        with pytest.raises(ParameterError):
            parse_chain(text)


@pytest.mark.parametrize("parse,text,message", [
    (parse_code, "", "empty code file"),
    (parse_code, " \n\t\n", "empty code file"),
    (parse_code, "2 4\n", "bad code header '2 4'; expected 'q n k'"),
    (parse_code, "2 4 1 0\n1100\n",
     "bad code header '2 4 1 0'; expected 'q n k'"),
    (parse_code, "2 x 1\n1100\n", "bad code header '2 x 1'"),
    (parse_vector_set, "", "empty vector-set file"),
    (parse_vector_set, "2\n", "bad header '2'; expected 'q ell'"),
    (parse_vector_set, "2 3 1\n101\n", "bad header '2 3 1'; expected 'q ell'"),
    (parse_vector_set, "2 y\n101\n", "bad header '2 y'"),
    (parse_chain, "", "chain file needs a header and a translate line"),
    (parse_chain, "2 3 1\n", "chain file needs a header and a translate line"),
    (parse_chain, "2 3\nw 101\n", "bad chain header '2 3'; expected 'q ell c'"),
    (parse_chain, "2 3 z\nw 101\n", "bad chain header '2 3 z'"),
    (parse_chain, "2 0 1\nw 1\n",
     "bad chain header '2 0 1'; need ell >= 1, c >= 1"),
    (parse_witness, "", "witness file needs a header and a U line"),
    (parse_witness, "2 3 1\n", "witness file needs a header and a U line"),
    (parse_witness, "2 3\nU 1\n", "bad witness header '2 3'; expected 'q ell c'"),
    (parse_witness, "2 3 1.5\nU 1\n", "bad witness header '2 3 1.5'"),
])
def test_parsers_pin_malformed_header_messages(parse, text, message):
    """Each text parser refuses a missing, short, long or non-integer
    header with its own one-line message."""
    with pytest.raises(ParameterError) as excinfo:
        parse(text)
    assert str(excinfo.value) == message


def golden_sets(seed: int):
    """(q, ell, S) for every q <= 16 and ell <= 6: three seeded sets per
    space, of at most 8, 64 and 400 members."""
    rng = random.Random(seed)
    for q in FIELDS:
        field = field_new(q)
        for ell in range(1, 7):
            size = q**ell
            for cap in (8, 64, 400):
                picks = rng.sample(range(size), rng.randint(1, min(size, cap)))
                yield q, ell, [VecQ.from_digits(field, [i // q**j % q for j in range(ell)])
                               for i in picks]


def chains_golden_lines(seed: int):
    """One JSON line per (set, c in {1, 2, 3}): the shattering witness (its
    full text when it covers at most 81 patterns, a SHA-256 always), the
    chain, the oracle on S and on S + w, and the best translate when
    q^ell <= 64."""
    for q, ell, S in golden_sets(seed):
        for c in (1, 2, 3):
            witness = shatter_find(S, c)
            chain = chain_find(S, c, q)
            wtext = None if witness is None else format_witness(witness)
            record = {
                "q": q, "ell": ell, "c": c, "size": len(S),
                "set_sha256": hashlib.sha256(format_vector_set(S).encode()).hexdigest(),
                "witness": wtext if witness is None or q**c <= 81 else None,
                "witness_sha256": wtext and hashlib.sha256(wtext.encode()).hexdigest(),
                "chain": format_chain(chain),
                "oracle": longest_chain_oracle(S, c),
                "oracle_translated": longest_chain_oracle(
                    [v + chain.translate_w for v in S], c),
            }
            if q**ell <= 64:
                d, w = oracle_best_translate(S, c)
                record["best_translate"] = [d, str(w)]
            yield json.dumps(record, sort_keys=True)


def test_chains_golden():
    """Witnesses, chains and oracle values for seeded sets over every
    q <= 16, ell <= 6 and c in {1, 2, 3} match the checked-in file, which
    was taken before the finders moved to packed lex keys."""
    assert "\n".join(chains_golden_lines(12345)) + "\n" == GOLDEN.read_text()
