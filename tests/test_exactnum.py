"""Exact quadratic arithmetic: field operations, sign logic, golden ratio."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from entroscope.exactnum import GOLDEN_MEAN_ALPHA, QuadExact, frac_exact


def test_construction_normalizes_square_factors():
    # sqrt(8) = 2 sqrt(2)
    x = QuadExact(0, 1, 8)
    assert (x.b, x.d) == (Fraction(2), 2)
    # sqrt(9) collapses to the rational 3
    y = QuadExact(1, 1, 9)
    assert y.is_rational and y.as_fraction() == 4


def test_rational_values_mix_with_any_radicand():
    r = QuadExact(Fraction(2, 3))
    s = QuadExact(0, 1, 7)
    assert (r + s) - s == r
    assert (r * s) / s == r


def test_mixing_different_irrationals_raises():
    with pytest.raises(ValueError):
        QuadExact(0, 1, 2) + QuadExact(0, 1, 3)
    with pytest.raises(ValueError):
        QuadExact(0, 1, 2) * QuadExact(0, 1, 3)


def test_golden_alpha_identities():
    a = GOLDEN_MEAN_ALPHA
    # (sqrt(5) - 1) / 2 satisfies a^2 = 1 - a and 1/a = a + 1
    assert a * a == 1 - a
    assert 1 / a == a + 1
    assert Fraction(61, 100) < a < Fraction(62, 100)
    assert not a.is_rational
    assert abs(float(a) - (math.sqrt(5) - 1) / 2) < 1e-15


def test_sign_all_quadrants():
    assert QuadExact(0, 1, 2) - 1 > 0
    assert 1 - QuadExact(0, 1, 2) < 0
    assert QuadExact(0, 1, 2) - Fraction(3, 2) < 0
    assert Fraction(3, 2) - QuadExact(0, 1, 2) > 0
    assert QuadExact(0) == 0


def test_floor_and_frac():
    a = GOLDEN_MEAN_ALPHA
    assert math.floor(a) == 0
    assert math.floor(-a) == -1
    assert math.floor(a + 3) == 3
    assert (a + 3).frac() == a
    assert frac_exact(-a) == 1 - a


def test_conjugate_product_is_rational():
    x = QuadExact(3, 2, 7)
    y = QuadExact(3, -2, 7)
    assert (x * y).is_rational
    assert (x * y).as_fraction() == 9 - 4 * 7


fracs = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


@given(fracs, fracs)
def test_rational_embedding_matches_fraction_arithmetic(p, q):
    P, Q = QuadExact(p), QuadExact(q)
    assert (P + Q).as_fraction() == p + q
    assert (P * Q).as_fraction() == p * q
    assert (P - Q).as_fraction() == p - q
    if q != 0:
        assert (P / Q).as_fraction() == p / q
    assert (P < Q) == (p < q)
    assert (P == Q) == (p == q)


@given(fracs)
def test_comparisons_against_golden_match_floats(p):
    # float golden ratio is accurate to ~1e-16; stay away from the knife edge
    a = GOLDEN_MEAN_ALPHA
    if abs(float(p) - float(a)) > 1e-9:
        assert (p < float(a)) == (QuadExact(p) < a)


@given(fracs, st.fractions(min_value=-100, max_value=100, max_denominator=100),
       st.sampled_from([2, 3, 5, 6, 7, 10]))
def test_field_inverse_roundtrip(a, b, d):
    x = QuadExact(a, b, d)
    if x == 0:
        return
    assert x / x == 1
    assert (1 / x) * x == 1


def test_hash_consistent_with_equality():
    assert hash(QuadExact(Fraction(3, 2))) == hash(QuadExact(Fraction(3, 2)))
    s = {QuadExact(0, 1, 5), QuadExact(0, 1, 5), QuadExact(1)}
    assert len(s) == 2


def _near_integer(k, b, d):
    """k + b (sqrt(d) - s) with s a 20-digit truncation of sqrt(d).

    The value sits within |b| * 1e-20 of the integer k, above it for
    b > 0 and below it for b < 0.
    """
    s = Fraction(math.isqrt(d * 10 ** 40), 10 ** 20)
    return QuadExact(k - b * s, b, d)


coefs = st.fractions(min_value=-50, max_value=50, max_denominator=60)
# square-free and not: 8 = 4*2, 12 = 4*3, 18 = 9*2, 50 = 25*2, 72 = 36*2
radicands = st.sampled_from([2, 3, 5, 7, 8, 12, 13, 18, 50, 72, 1001])


@given(coefs, coefs, radicands, st.integers(-5, 5), st.booleans())
def test_floor_brackets_the_value_exactly(a, b, d, k, near):
    if b == 0:
        b = Fraction(-1, 3)
    x = _near_integer(k, b, d) if near else QuadExact(a, b, d)
    if near:
        assert abs(float(x) - k) < 1e-12
    g = math.floor(x)
    assert QuadExact(g) <= x < QuadExact(g + 1)
    f = x.frac()
    assert 0 <= f < 1 and f + g == x


def test_floor_at_both_sides_of_an_integer():
    # 140/99 < sqrt(2) < 99/70, both within 1e-4 of it
    assert math.floor(QuadExact(0, 1, 2) - Fraction(140, 99)) == 0
    assert math.floor(QuadExact(0, 1, 2) - Fraction(99, 70)) == -1
    assert math.floor(_near_integer(3, Fraction(-7, 2), 8)) == 2
    assert math.floor(_near_integer(3, Fraction(7, 2), 8)) == 3


def test_comparisons_stay_in_one_field():
    # comparisons build no difference, yet refuse to mix irrationals
    with pytest.raises(ValueError):
        QuadExact(0, 1, 2) < QuadExact(0, 1, 3)
    with pytest.raises(TypeError):
        QuadExact(1) < 1.5
    assert QuadExact(0, 1, 8) > 2 * QuadExact(0, 1, 2) - Fraction(1, 10 ** 30)
    assert not QuadExact(0, 1, 8) < 2 * QuadExact(0, 1, 2)
    assert Fraction(1) <= QuadExact(0, 1, 2) - Fraction(2, 5)
