"""Norms and characteristic polynomials, which all come from traces by
Newton's identities, against the references in `oracles.py`: Trager's norm
by evaluation, resultants and Lagrange interpolation, and the
Faddeev-LeVerrier matrix characteristic polynomial."""

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import NumberField, QQ, Rational, UniPoly
from hypercircles.factoring import _norm_poly
from hypercircles.hypercircle import conjugacy_classes
from hypercircles.numberfield import from_power_sums, newton_sums

from oracles import charpoly_by_faddeev_leverrier, interpolate, norm_by_interpolation

rats = st.builds(
    Rational,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=12),
)

FIELDS = {
    "Q(i)": [1, 0, 1],
    "Q(2^(1/3))": [-2, 0, 0, 1],
    "Q(2^(1/6))": [-2, 0, 0, 0, 0, 0, 1],
    "Phi5": [1, 1, 1, 1, 1],
    "Phi7": [1, 1, 1, 1, 1, 1, 1],
}


def _field(minpoly):
    return NumberField(QQ, UniPoly(QQ, minpoly), "a")


CUBIC = _field(FIELDS["Q(2^(1/3))"])


def test_interpolate_golden():
    # through (0,1), (1,2), (2,5): 1 + x^2
    pts = [QQ.zero, QQ.one, QQ(2)]
    vals = [QQ.one, QQ(2), QQ(5)]
    p = interpolate(pts, vals, QQ)
    x = UniPoly.gen(QQ)
    assert p == x**2 + 1


@given(st.lists(rats, min_size=1, max_size=5, unique=True), st.data())
def test_interpolate_hits_samples(xs, data):
    ys = [data.draw(rats) for _ in xs]
    p = interpolate(xs, ys, QQ)
    assert p.is_zero or p.degree < len(xs)
    for x, y in zip(xs, ys):
        assert p(x) == y


qq_polys = st.lists(rats, min_size=1, max_size=7).map(lambda cs: UniPoly(QQ, cs))
cubic_polys = st.lists(
    st.lists(rats, min_size=3, max_size=3).map(CUBIC.element), min_size=1, max_size=5
).map(lambda cs: UniPoly(CUBIC, cs))


@given(st.one_of(qq_polys, cubic_polys))
@settings(max_examples=60, deadline=None)
def test_power_sums_round_trip(f):
    if f.is_zero:
        return
    sums = newton_sums(f, f.degree + 1)
    assert from_power_sums(sums, f.field) == f.monic()


def test_power_sums_count_multiplicity():
    x = UniPoly.gen(QQ)
    f = (x - 1) ** 3 * (x + 2)
    assert newton_sums(f, 4) == [QQ(4), QQ(1), QQ(7), QQ(-5)]
    assert from_power_sums(newton_sums(f, 5), QQ) == f


@pytest.mark.parametrize("name", list(FIELDS))
@pytest.mark.parametrize("k", [0, 1, -1, 2])
def test_norm_matches_interpolation(name, k):
    field = _field(FIELDS[name])
    alpha = field.gen
    mk = field.minpoly.map_into(field)
    h = mk // UniPoly(field, [-alpha, field.one])  # m(alpha, x)
    h = h.compose(UniPoly(field, [-k * alpha, field.one]))  # m(alpha, x + k alpha)
    norm = _norm_poly(h, field)
    assert norm == norm_by_interpolation(h, field)
    assert norm.degree == field.degree * h.degree
    if k == 0:
        # the conjugates of m(alpha, x) share roots: N = M^(n-1)
        assert norm == field.minpoly ** (field.degree - 1)


def _check_charpoly(x):
    cp = x.charpoly()
    assert cp == charpoly_by_faddeev_leverrier(x)
    n = x.field.degree
    assert x.norm() == (-cp.coeff(0) if n % 2 else cp.coeff(0))
    return cp


def test_charpoly_matches_faddeev_leverrier_level1():
    field = _field(FIELDS["Q(2^(1/6))"])
    a = field.gen
    x = UniPoly.gen(QQ)
    assert _check_charpoly(field.zero) == x**6
    assert _check_charpoly(field.one) == (x - 1) ** 6
    assert _check_charpoly(field.coerce(Rational(3, 2))) == (x - Rational(3, 2)) ** 6
    assert _check_charpoly(a**2) == (x**3 - 2) ** 2  # generates Q(2^(1/3))
    assert _check_charpoly(a**3) == (x**2 - 2) ** 3  # generates Q(sqrt 2)
    assert _check_charpoly(a) == field.minpoly
    _check_charpoly(field.element([1, -2, 0, Rational(1, 3), 5, -1]))


def test_charpoly_matches_faddeev_leverrier_level2():
    field = _field([-2, 0, 0, 0, 0, 1])  # x^5 - 2
    alpha = field.gen
    _, classes = conjugacy_classes(field)
    cls = max(classes, key=lambda c: c.size)
    rel = cls.relative_field
    assert rel.degree == 4
    beta = rel.gen  # alpha zeta for a primitive fifth root of unity zeta
    y = UniPoly.gen(field)
    assert _check_charpoly(rel.zero) == y**4
    assert _check_charpoly(rel.one) == (y - 1) ** 4
    base_elem = rel.coerce(alpha + 3)
    assert _check_charpoly(base_elem) == (y - (alpha + 3)) ** 4
    # zeta + 1/zeta lies in K(alpha)(sqrt 5), of degree 2 over K(alpha)
    half = beta / rel.coerce(alpha) + rel.coerce(alpha) / beta
    assert _check_charpoly(half) == (y**2 + y - 1) ** 2
    assert _check_charpoly(beta) == cls.factor
    _check_charpoly(beta**2 + rel.coerce(alpha) * beta + 1)


def test_charpoly_of_degree_one_classes():
    field = _field(FIELDS["Q(2^(1/6))"])
    _, classes = conjugacy_classes(field)
    for cls in classes:
        gen = cls.relative_field.gen
        assert _check_charpoly(gen) == cls.factor
