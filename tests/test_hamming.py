"""Ball geometry: volumes vs enumeration, entropy vs high precision, sampling fits."""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from ldlab import (
    BallSpec,
    ParameterError,
    ResourceBudgetError,
    VecQ,
    ball_points,
    ball_volume,
    ball_weight_class_sizes,
    entropy_q,
    field_new,
    radius_of,
    sample_ball_uniform,
)
from ldlab.hamming import (as_fraction, ball_walk, check_ball_volume,
                           check_sample_budget, intersection_number,
                           uniform_payload)

import oracles


@pytest.mark.parametrize("q", [2, 3])
def test_ball_volume_matches_enumeration(q):
    """ball_volume equals a full enumeration count for every radius."""
    for n in range(1, 8):
        histogram = oracles.brute_weight_histogram(n, q)
        running = 0
        for r in range(n + 1):
            running += histogram[r]
            assert ball_volume(n, r, q) == running


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16])
def test_ball_volume_identities(q):
    for n in range(1, 12):
        assert ball_volume(n, 0, q) == 1
        assert ball_volume(n, n, q) == q**n
        volumes = [ball_volume(n, r, q) for r in range(n + 1)]
        assert volumes == sorted(volumes)
        assert all(a < b for a, b in zip(volumes, volumes[1:]))


def test_ball_volume_rejects_bad_radii():
    for n, r in [(5, -1), (5, 6), (3, 4), (0, 1)]:
        with pytest.raises(ParameterError):
            ball_volume(n, r, 2)


@pytest.mark.parametrize("q", range(2, 17))
def test_check_ball_volume_is_exact_up_to_its_budget(q):
    """At a budget of |B(r)| the check returns |B(r)|; at one less it
    refuses, and the refusal carries the exact volume."""
    for n in range(1, 9):
        for r in range(n + 1):
            volume = ball_volume(n, r, q)
            assert check_ball_volume("ball", n, r, q, volume) == volume
            with pytest.raises(ResourceBudgetError,
                               match=f"^ball through weight {r} = {volume} "):
                check_ball_volume("ball", n, r, q, volume - 1)


@pytest.mark.parametrize("n, r, q, budget", [
    (20000, 10000, 2, 2**24),
    (200000, 66666, 2, 2**24),
    (10**8, 5 * 10**7, 16, 2**24),
    (40, 40, 2, 2**24),
    (30, 30, 3, 1000),
    (12, 12, 2, 1),
])
def test_check_ball_volume_stops_at_the_first_weight_past_the_budget(
        n, r, q, budget):
    """An oversized ball is refused at the first weight t whose partial
    sum passes the budget, t <= budget.bit_length(), with that exact sum."""
    with pytest.raises(ResourceBudgetError) as info:
        check_ball_volume("ball", n, r, q, budget)
    found = re.fullmatch(r"ball through weight (\d+) = (\d+) exceeds .+",
                         str(info.value))
    t, total = int(found[1]), int(found[2])
    partial = [sum(math.comb(n, j) * (q - 1) ** j for j in range(w + 1))
               for w in (t - 1, t)]
    assert t < r and t <= budget.bit_length()
    assert partial[0] <= budget < partial[1] == total


def test_check_ball_volume_rejects_bad_parameters():
    for n, r, q in [(5, -1, 2), (5, 6, 2), (0, 0, 2), (4, 1, 1), (4, 1, 0)]:
        with pytest.raises(ParameterError):
            check_ball_volume("ball", n, r, q)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intersection_numbers_count_the_words(data):
    """p^k_ij is the number of z in F_q^n with weight i and distance j
    from y, counted over all of F_q^n, for any y of weight k."""
    q = data.draw(st.integers(2, 16))
    n = data.draw(st.integers(1, max(1, int(math.log(4096, q)))))
    y = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    counts = Counter(
        (oracles.brute_weight(z),
         sum(1 for a, b in zip(z, y) if a != b))
        for z in itertools.product(range(q), repeat=n))
    k = oracles.brute_weight(y)
    for i in range(-1, n + 2):
        for j in range(-1, n + 2):
            assert intersection_number(n, q, k, i, j) == counts[i, j], (i, j)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16])
def test_intersection_number_identities(q):
    """sum_j p^k_ij = |S_i|, |S_k| p^k_ij = |S_i| p^i_kj and
    p^k_ij = p^k_ji, with |S_i| = C(n, i)(q - 1)^i."""
    for n in (1, 2, 5, 9, 30):
        shell = [math.comb(n, i) * (q - 1) ** i for i in range(n + 1)]
        for k in range(n + 1):
            for i in range(n + 1):
                row = [intersection_number(n, q, k, i, j) for j in range(n + 1)]
                assert sum(row) == shell[i]
                for j, p_kij in enumerate(row):
                    assert shell[k] * p_kij == shell[i] * intersection_number(
                        n, q, i, k, j)
                    assert p_kij == intersection_number(n, q, k, j, i)


def test_intersection_number_refuses_missing_centers():
    """There is no y of weight k outside [0, n], nor any over q < 2."""
    for n, q, k in ((3, 2, 4), (3, 2, -1), (3, 1, 0), (-1, 2, 0)):
        with pytest.raises(ParameterError):
            intersection_number(n, q, k, 0, 0)


@pytest.mark.parametrize("q", [2, 3, 5, 16])
def test_weight_class_sizes(q):
    """Class i has size C(n,i)(q-1)^i and the classes sum to the volume."""
    for n in [*range(1, 9), 64, 201]:
        for r in range(n + 1):
            sizes = ball_weight_class_sizes(n, r, q)
            assert len(sizes) == r + 1
            for i, size in enumerate(sizes):
                assert size == math.comb(n, i) * (q - 1) ** i
            assert sum(sizes) == ball_volume(n, r, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 16])
def test_entropy_against_high_precision(q):
    """entropy_q matches a 50-digit mpmath evaluation on a grid."""
    mpmath.mp.dps = 50
    lnq = mpmath.log(q)
    for k in range(1, 20):
        x = mpmath.mpf(k) / 20
        expected = (
            x * mpmath.log(q - 1) / lnq
            - x * mpmath.log(x) / lnq
            - (1 - x) * mpmath.log(1 - x) / lnq
        )
        assert entropy_q(float(x), q) == pytest.approx(float(expected), abs=1e-13)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 16])
def test_entropy_endpoints_and_maximum(q):
    assert entropy_q(0, q) == 0.0
    assert entropy_q(1, q) == pytest.approx(math.log(q - 1, q) if q > 2 else 0.0)
    peak = Fraction(q - 1, q)
    assert entropy_q(peak, q) == pytest.approx(1.0, abs=1e-12)
    for k in range(1, 10):
        x = Fraction(k, 10)
        if x != peak:
            assert entropy_q(x, q) < 1.0


def test_entropy_binary_symmetry_and_concavity():
    for k in range(1, 10):
        x = k / 10
        assert entropy_q(x, 2) == pytest.approx(entropy_q(1 - x, 2), abs=1e-13)
    xs = [k / 40 for k in range(1, 40)]
    ys = [entropy_q(x, 2) for x in xs]
    for a, b, c in zip(ys, ys[1:], ys[2:]):
        assert b > (a + c) / 2


def test_entropy_rejects_out_of_range():
    for bad in (-0.1, 1.5, "7/5"):
        with pytest.raises(ParameterError):
            entropy_q(bad, 2)
    with pytest.raises(ParameterError):
        entropy_q(0.5, 1)


def test_radius_resolves_rationals_exactly():
    """Decimal, fraction-string, float, and Fraction inputs agree exactly."""
    for n in (7, 10, 16, 100):
        values = [radius_of(p, n) for p in ("0.2", "1/5", 0.2, Fraction(1, 5))]
        assert len(set(values)) == 1
        assert values[0] == n // 5
    assert radius_of(Fraction(1, 3), 100) == 33
    assert radius_of(0, 9) == 0
    assert radius_of(1, 9) == 9
    with pytest.raises(ParameterError):
        radius_of("2/1", 5)
    with pytest.raises(ParameterError):
        radius_of(-0.1, 5)


def test_as_fraction_is_exact_on_decimal_strings():
    assert as_fraction("0.2") == Fraction(1, 5)
    assert as_fraction(0.2) == Fraction(1, 5)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(1) == Fraction(1)


def test_ball_spec_round_trips():
    spec = BallSpec.from_p(q=2, n=16, p="1/4")
    assert spec.radius == 4
    assert spec.p == Fraction(1, 4)
    again = BallSpec(n=16, p=Fraction(4, 16), q=2, radius=4)
    assert again == spec


def test_ball_spec_enforces_radius_invariant():
    with pytest.raises(ParameterError):
        BallSpec(n=10, p=Fraction(1, 5), q=2, radius=3)
    with pytest.raises(ParameterError):
        BallSpec(n=10, p=Fraction(11, 10), q=2, radius=11)


@given(st.integers(1, 40), st.integers(0, 100), st.sampled_from([2, 3, 4, 5]))
def test_sampling_stays_inside_the_ball(n, num, q):
    p = Fraction(num, 100)
    spec = BallSpec.from_p(q=q, n=n, p=p)
    rng = random.Random(7)
    for _ in range(5):
        v = sample_ball_uniform(spec, rng)
        assert len(v) == n
        assert v.weight() <= spec.radius


def test_sampling_is_deterministic_per_seed():
    spec = BallSpec.from_p(q=3, n=12, p="1/4")
    a = [str(sample_ball_uniform(spec, random.Random(99))) for _ in range(3)]
    b = [str(sample_ball_uniform(spec, random.Random(99))) for _ in range(3)]
    assert a == b


def test_sample_table_budget_edge():
    """The shell table of r + 1 integers of n * ceil(log2 q) bits may take
    up to 2^27 bits; one weight class more is refused before any draw."""
    n = 1 << 14
    rng = random.Random(3)
    state = rng.getstate()
    over = BallSpec.from_p(q=2, n=n, p=Fraction(8192, n))
    with pytest.raises(ResourceBudgetError, match="2\\^27"):
        sample_ball_uniform(over, rng)
    assert rng.getstate() == state
    under = BallSpec.from_p(q=2, n=n, p=Fraction(8191, n))
    check_sample_budget(under)
    assert sample_ball_uniform(under, rng).weight() <= 8191
    with pytest.raises(ResourceBudgetError):
        check_sample_budget(BallSpec.from_p(q=16, n=n, p=Fraction(2048, n)))


FIELDS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", FIELDS)
def test_sampler_draws_the_stdlib_stream(q):
    """sample_ball_uniform returns the point the stdlib calls in
    oracles.stdlib_ball_digits return and leaves the generator in the same
    state, after every draw.  n crosses random.sample's pool/set threshold
    at 21/22 and, for w > 5, at 85/86; r = 5 and 6 put most draws on either
    side of w > 5.  At n = 86, r = 43 the ball holds more than 2^32 points,
    so the weight draw takes several words."""
    field = field_new(q)
    for n in (1, 2, 21, 22, 85, 86):
        for r in sorted({0, 1, n // 6, n // 2, n} | ({5, 6} if n > 6 else set())):
            spec = BallSpec.from_p(q=q, n=n, p=Fraction(r, n))
            ours, theirs = random.Random(1000 * n + r), random.Random(1000 * n + r)
            for _ in range(6):
                v = sample_ball_uniform(spec, ours)
                assert v.field == field and v.n == n
                assert v.digits() == oracles.stdlib_ball_digits(n, r, q, theirs)
                assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("q", FIELDS)
def test_uniform_payload_draws_the_stdlib_stream(q):
    """uniform_payload packs the digits of oracles.stdlib_uniform_digits and
    consumes the same words, after every draw."""
    field = field_new(q)
    for n in (1, 2, 21, 22, 85, 86):
        ours, theirs = random.Random(n), random.Random(n)
        for _ in range(4):
            digits = VecQ(field, n, uniform_payload(field, n, ours)).digits()
            assert digits == oracles.stdlib_uniform_digits(q, n, theirs)
            assert ours.getstate() == theirs.getstate()


def test_sampling_uniform_over_individual_points():
    """Every point of a small ball is hit at its exact uniform frequency.

    Ball of radius 2 in F_2^6 has 22 points; 22000 samples on a fixed seed
    give expected count 1000 per point, checked with a chi-square test.
    """
    spec = BallSpec.from_p(q=2, n=6, p=Fraction(1, 3))
    assert spec.radius == 2
    rng = random.Random(12345)
    counts: dict[str, int] = {}
    draws = 22_000
    for _ in range(draws):
        key = str(sample_ball_uniform(spec, rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == ball_volume(spec.n, spec.radius, spec.q) == 22
    result = chisquare(list(counts.values()))
    assert result.pvalue > 0.001


def test_sampling_weight_distribution_ternary():
    """Weight-class frequencies match the exact class probabilities at q=3."""
    spec = BallSpec.from_p(q=3, n=10, p=Fraction(3, 10))
    sizes = ball_weight_class_sizes(spec.n, spec.radius, spec.q)
    volume = ball_volume(spec.n, spec.radius, spec.q)
    rng = random.Random(12345)
    draws = 30_000
    observed = [0] * (spec.radius + 1)
    for _ in range(draws):
        observed[sample_ball_uniform(spec, rng).weight()] += 1
    expected = [draws * size / volume for size in sizes]
    result = chisquare(observed, expected)
    assert result.pvalue > 0.001


@pytest.mark.parametrize(
    "q,n,radii",
    [(2, 5, range(6)), (3, 4, range(3)), (4, 3, range(4)), (5, 3, range(3)),
     (7, 3, range(4)), (8, 3, range(4)), (9, 3, range(4)), (11, 3, range(4)),
     (13, 2, range(3)), (16, 3, range(4))],
)
def test_ball_points_enumerates_exactly_the_ball(q, n, radii):
    """ball_points yields each ball member exactly once, center first and
    weight-major: the distance from the center never decreases."""
    f = field_new(q)
    for r in radii:
        center = VecQ.from_digits(f, [(i + 1) % q for i in range(n)])
        points = list(ball_points(f, center, r))
        assert points[0] == center
        assert len(points) == ball_volume(n, r, q)
        assert len(set(points)) == len(points)
        distances = [p.distance(center) for p in points]
        assert distances == sorted(distances)
        expected = {
            VecQ.from_digits(f, t)
            for t in oracles.all_tuples(q, n)
            if oracles.brute_distance(t, center.digits()) <= r
        }
        assert set(points) == expected


@pytest.mark.parametrize("q", [2, 3, 9])
def test_ball_walk_restricted_to_some_positions(q):
    """ball_walk with an empty step list at some positions lists each
    point of B(0, r) that is zero there exactly once: the walk of the
    sub-ball on the other positions, for r up to 4 and for none, some
    and all of the six positions free."""
    f = field_new(q)
    n, b = 6, f.bits_per_digit
    ball = [t for t in itertools.product(range(q), repeat=n)
            if oracles.brute_weight(t) <= 4]
    for free in (set(), {5}, {1, 4}, {0, 2, 3, 5}, set(range(n))):
        steps = [[a << (i * b) for a in range(1, q)] if i in free else []
                 for i in range(n)]
        inside = [t for t in ball
                  if all(t[i] == 0 for i in range(n) if i not in free)]
        for r in range(5):
            walked = [x for chunk in ball_walk(f, steps, r) for x in chunk]
            want = [VecQ.from_digits(f, t).payload
                    for t in inside if oracles.brute_weight(t) <= r]
            assert sorted(walked) == sorted(want), (sorted(free), r)


def test_ball_points_translation_invariance():
    f = field_new(3)
    center = VecQ.from_digits(f, [1, 2, 0, 1])
    around_zero = set(ball_points(f, VecQ.zero(f, 4), 2))
    around_center = set(ball_points(f, center, 2))
    assert {v + center for v in around_zero} == around_center
