"""Rational scalar semantics, checked against fractions.Fraction."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypercircles import _ratpure
from hypercircles.rationals import QQ, Rational

try:
    from hypercircles import _ratcore
except ImportError:
    _ratcore = None

BACKENDS = [_ratpure] if _ratcore is None else [_ratpure, _ratcore]

rat_parts = st.tuples(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**9),
)


def test_normalization():
    for impl in BACKENDS:
        r = impl.Rational(2, 4)
        assert (r.numerator, r.denominator) == (1, 2)
        r = impl.Rational(3, -6)
        assert (r.numerator, r.denominator) == (-1, 2)
        r = impl.Rational(0, 17)
        assert (r.numerator, r.denominator) == (0, 1)
        assert impl.Rational(7).denominator == 1


def test_zero_denominator_raises():
    for impl in BACKENDS:
        with pytest.raises(ZeroDivisionError):
            impl.Rational(1, 0)
        with pytest.raises(ZeroDivisionError):
            impl.Rational(3, 2) / impl.Rational(0)


@given(rat_parts, rat_parts)
def test_field_ops_match_fraction(ab, cd):
    a, b = ab
    c, d = cd
    for impl in BACKENDS:
        x, y = impl.Rational(a, b), impl.Rational(c, d)
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
    for impl in BACKENDS:
        x, y = impl.Rational(a, b), impl.Rational(c, d)
        fx, fy = Fraction(a, b), Fraction(c, d)
        assert (x < y) == (fx < fy)
        assert (x <= y) == (fx <= fy)
        assert (x == y) == (fx == fy)
        assert (x > y) == (fx > fy)


@given(rat_parts, st.integers(min_value=-6, max_value=6))
def test_pow(ab, k):
    a, b = ab
    for impl in BACKENDS:
        x = impl.Rational(a, b)
        if a == 0 and k < 0:
            with pytest.raises(ZeroDivisionError):
                x**k
            continue
        got = x**k
        want = Fraction(a, b) ** k
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(rat_parts)
def test_hash_matches_fraction_and_int(ab):
    a, b = ab
    for impl in BACKENDS:
        x = impl.Rational(a, b)
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
    with pytest.raises(ValueError):
        QQ.from_str("1.5")
    with pytest.raises(ZeroDivisionError):
        QQ.from_str("1/0")


def test_int_mixing():
    for impl in BACKENDS:
        x = impl.Rational(3, 2)
        assert x + 1 == impl.Rational(5, 2)
        assert 1 + x == impl.Rational(5, 2)
        assert 2 * x == impl.Rational(3)
        assert x - 2 == impl.Rational(-1, 2)
        assert 3 / x == impl.Rational(2)
        assert x / 3 == impl.Rational(1, 2)


def test_coerce_fraction_and_int():
    assert QQ.coerce(Fraction(5, 3)) == Rational(5, 3)
    assert QQ.coerce(Fraction(-4, 2)) == Rational(-2)
    assert QQ.coerce(7) == Rational(7)
    x = Rational(2, 9)
    assert QQ.coerce(x) is x
    with pytest.raises(TypeError):
        QQ.coerce(1.5)


def test_coerce_between_backends():
    if _ratcore is None:
        pytest.skip("compiled kernel not built")
    pure = _ratpure.Rational(5, 3)
    assert QQ.coerce(pure) == Rational(5, 3)


@given(rat_parts)
def test_backend_parity(ab):
    if _ratcore is None:
        pytest.skip("compiled kernel not built")
    a, b = ab
    xp = _ratpure.Rational(a, b)
    xc = _ratcore.Rational(a, b)
    assert (xp.numerator, xp.denominator) == (xc.numerator, xc.denominator)
    assert str(xp) == str(xc)
    assert hash(xp) == hash(xc)
    assert float(xp) == float(xc)
