"""Univariate polynomial arithmetic and gcd, and the Euclidean resultant
that `oracles` uses as a reference."""

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import NumberField, QQ, Rational, UniPoly
from hypercircles.modp import poly_gcd

from oracles import euclid_gcd, is_squarefree, poly_resultant

rats = st.builds(
    Rational,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)
qq_polys = st.lists(rats, min_size=0, max_size=7).map(lambda cs: UniPoly(QQ, cs))


def _naive_mul(f, g):
    if f.is_zero or g.is_zero:
        return UniPoly.zero(QQ)
    out = [QQ.zero] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return UniPoly(QQ, out)


@given(qq_polys, qq_polys)
def test_mul_matches_naive_convolution(f, g):
    assert f * g == _naive_mul(f, g)


@given(qq_polys, qq_polys)
def test_divmod_identity(f, g):
    if g.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(f, g)
        return
    q, r = divmod(f, g)
    assert f == q * g + r
    assert r.is_zero or r.degree < g.degree


@given(qq_polys, qq_polys, qq_polys)
def test_gcd_divides_and_is_monic(f, g, h):
    fh, gh = f * h, g * h
    d = poly_gcd(fh, gh)
    if fh.is_zero and gh.is_zero:
        assert d.is_zero
        return
    assert d.lc == QQ.one
    assert (fh % d).is_zero
    assert (gh % d).is_zero
    if not h.is_zero and not (f.is_zero and g.is_zero):
        assert d.degree >= h.degree  # the planted factor survives


def test_gcd_of_coprime_is_one():
    x = UniPoly.gen(QQ)
    f = x**2 + 1
    g = x**3 - 2
    assert poly_gcd(f, g) == UniPoly.one(QQ)


@given(qq_polys, qq_polys)
def test_gcd_matches_field_euclid(f, g):
    assert poly_gcd(f, g) == euclid_gcd(f, g)


def test_resultant_golden():
    x = UniPoly.gen(QQ)
    # product of f over the roots +/-2 of g
    assert poly_resultant(x**2 - 1, x**2 - 4) == Rational(9)
    assert poly_resultant(x - 3, x - 5) == Rational(-2)


@given(qq_polys, qq_polys)
@settings(max_examples=60)
def test_resultant_detects_common_factor(f, g):
    if f.degree < 1 or g.degree < 1:
        return
    r = poly_resultant(f, g)
    common = poly_gcd(f, g).degree > 0
    assert (not r) == common


def test_is_squarefree():
    x = UniPoly.gen(QQ)
    assert is_squarefree(x**2 + 1)
    assert not is_squarefree((x + 1) ** 2 * (x - 3))


def _quartic_field():
    return NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 1]), "a")


def test_gcd_over_number_field_planted_factor():
    field = _quartic_field()
    a = field.gen
    x = UniPoly.gen(field)
    h = x - a  # planted common factor with algebraic coefficients
    f = h * (x**2 + a * x + 1)
    g = h * (x + a**3)
    d = poly_gcd(f, g)
    assert d == h.monic()
    assert d == euclid_gcd(f, g)
    assert (f % d).is_zero and (g % d).is_zero


def test_gcd_over_number_field_coprime():
    field = _quartic_field()
    a = field.gen
    x = UniPoly.gen(field)
    assert poly_gcd(x**2 + a, x + 1) == euclid_gcd(x**2 + a, x + 1)
    assert poly_gcd(x**2 + a, x + 1).degree == 0


def test_eval():
    x = UniPoly.gen(QQ)
    p = 3 * x**2 + x - 5
    assert p(QQ(2)) == Rational(9)


def test_render():
    x = UniPoly.gen(QQ)
    assert (x**2 - 2 * x + 1).render() == "x^2 - 2*x + 1"
    assert UniPoly.zero(QQ).render() == "0"
