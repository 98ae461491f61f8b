"""The rational scalar semantics the package relies on.  `Rational` is
fractions.Fraction, so the comparisons with Fraction below hold by identity;
they pin the contract (reduced form, ordering, hashing, str, int mixing) and
the narrower string and coercion formats of QQ."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypercircles.rationals import QQ, Rational

rat_parts = st.tuples(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**9),
)


def test_normalization():
    r = Rational(2, 4)
    assert (r.numerator, r.denominator) == (1, 2)
    r = Rational(3, -6)
    assert (r.numerator, r.denominator) == (-1, 2)
    r = Rational(0, 17)
    assert (r.numerator, r.denominator) == (0, 1)
    assert Rational(7).denominator == 1


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)
    with pytest.raises(ZeroDivisionError):
        Rational(3, 2) / Rational(0)


@given(rat_parts, rat_parts)
def test_field_ops_match_fraction(ab, cd):
    a, b = ab
    c, d = cd
    x, y = Rational(a, b), Rational(c, d)
    fx, fy = Fraction(a, b), Fraction(c, d)
    for op in ("__add__", "__sub__", "__mul__"):
        got = getattr(x, op)(y)
        want = getattr(fx, op)(fy)
        assert (got.numerator, got.denominator) == (
            want.numerator,
            want.denominator,
        )
    if fy:
        got = x / y
        want = fx / fy
        assert (got.numerator, got.denominator) == (
            want.numerator,
            want.denominator,
        )


@given(rat_parts, rat_parts)
def test_ordering_matches_fraction(ab, cd):
    a, b = ab
    c, d = cd
    x, y = Rational(a, b), Rational(c, d)
    fx, fy = Fraction(a, b), Fraction(c, d)
    assert (x < y) == (fx < fy)
    assert (x <= y) == (fx <= fy)
    assert (x == y) == (fx == fy)
    assert (x > y) == (fx > fy)


@given(rat_parts, st.integers(min_value=-6, max_value=6))
def test_pow(ab, k):
    a, b = ab
    x = Rational(a, b)
    if a == 0 and k < 0:
        with pytest.raises(ZeroDivisionError):
            x**k
        return
    got = x**k
    want = Fraction(a, b) ** k
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(rat_parts)
def test_hash_matches_fraction_and_int(ab):
    a, b = ab
    x = Rational(a, b)
    assert hash(x) == hash(Fraction(a, b))
    assert hash(Rational(a)) == hash(a)


@given(rat_parts)
def test_str_round_trip(ab):
    a, b = ab
    x = Rational(a, b)
    assert QQ.from_str(str(x)) == x


def test_from_str_forms():
    assert QQ.from_str("  -3/6 ") == Rational(-1, 2)
    assert QQ.from_str("14") == Rational(14)
    # int() alone takes underscores and any Unicode digits
    for text in ("1.5", "1e3", "0.5", "1/2.0", "1_000", "1/1_0", "\u0661\u0662", "3/\uff14"):
        with pytest.raises(ValueError):
            QQ.from_str(text)
    with pytest.raises(ZeroDivisionError):
        QQ.from_str("1/0")


def test_int_mixing():
    x = Rational(3, 2)
    assert x + 1 == Rational(5, 2)
    assert 1 + x == Rational(5, 2)
    assert 2 * x == Rational(3)
    assert x - 2 == Rational(-1, 2)
    assert 3 / x == Rational(2)
    assert x / 3 == Rational(1, 2)


def test_coerce_fraction_and_int():
    assert Rational is Fraction
    assert QQ.coerce(Fraction(5, 3)) == Rational(5, 3)
    assert QQ.coerce(Fraction(-4, 2)) == Rational(-2)
    assert QQ.coerce(7) == Rational(7)
    x = Rational(2, 9)
    assert QQ.coerce(x) is x
    for bad in (1.5, Decimal("1.5"), "1/2"):
        with pytest.raises(TypeError):
            QQ.coerce(bad)

