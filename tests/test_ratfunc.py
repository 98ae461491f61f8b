"""Rational functions, Moebius transforms, and the three-point fit, whose
closed form is the kernel of its linear system."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from hypercircles import (
    MoebiusTransform,
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    Rational,
    UniPoly,
    conjugacy_classes,
    moebius_from_three_points,
)
from hypercircles.errors import InternalInvariantError
from hypercircles.generators import canonical_minpoly
from oracles import POLE, at, moebius_by_kernel, value_at_infinity, values_at_infinity

x = UniPoly.gen(QQ)

small_rats = st.builds(
    Rational,
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=1, max_value=4),
)

ratfuncs = st.builds(
    lambda nc, dc: RatFunc(UniPoly(QQ, nc), UniPoly(QQ, dc)),
    st.lists(small_rats, min_size=1, max_size=4),
    st.lists(small_rats, min_size=1, max_size=4).filter(
        lambda cs: any(cs)
    ),
)

moebius = st.builds(
    lambda a, b, c, d: MoebiusTransform(QQ, a, b, c, d),
    small_rats,
    small_rats,
    small_rats,
    small_rats,
).filter(lambda m: m.is_unit)


def test_normalization():
    f = RatFunc(x**2 - 1, x - 1)
    assert f.num == x + 1 and f.den == UniPoly.one(QQ)
    g = RatFunc(2 * x, 4 * x**2 + 2)
    assert g.den.lc == QQ.one  # monic denominator
    assert g == RatFunc(x, 2 * x**2 + 1)
    z = RatFunc(UniPoly.zero(QQ), x**3 + 5)
    assert z.num.is_zero and z.den == UniPoly.one(QQ)


def test_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(x, UniPoly.zero(QQ))


def test_equality_is_function_equality():
    assert RatFunc(x**2 - 1, x + 1) == RatFunc(3 * x - 3, UniPoly(QQ, [3]))
    assert RatFunc(x, x + 1) != RatFunc(x, x + 2)
    assert RatFunc.constant(QQ, Rational(5)) == Rational(5)


def test_poles_and_infinity():
    f = RatFunc(x + 1, x - 2)
    assert at(f, Rational(2)) is POLE
    assert at(f, Rational(3)) == Rational(4)
    assert value_at_infinity(f) == Rational(1)
    assert value_at_infinity(RatFunc(x**2, x + 1)) is POLE
    assert value_at_infinity(RatFunc(x, x**2 + 1)) == Rational(0)
    assert value_at_infinity(RatFunc(3 * x**2, 2 * x**2 + 1)) == Rational(3, 2)


@given(ratfuncs, ratfuncs, small_rats)
@settings(max_examples=60)
def test_arithmetic_matches_pointwise(f, g, s):
    assume(f.den(s) and g.den(s))
    assert at(f + g, s) == at(f, s) + at(g, s)
    assert at(f * g, s) == at(f, s) * at(g, s)


@given(ratfuncs, moebius, small_rats)
@settings(max_examples=60)
def test_compose_moebius_pointwise(f, m, s):
    v = at(m, s)
    assume(v is not POLE)
    assume(f.den(v))
    assert at(f.compose_moebius(m), s) == at(f, v)


@given(moebius, small_rats)
@settings(max_examples=60)
def test_proportional_ignores_scaling(m, c):
    assume(c)
    scaled = MoebiusTransform(QQ, m.a * c, m.b * c, m.c * c, m.d * c)
    assert m.proportional(scaled)
    assert m == scaled


def test_three_point_fit_golden():
    # u(0) = 1, u(1) = 0, u(2) = 3  ->  u(t) = (-3t + 3)/(-2t + 3)
    u = moebius_from_three_points(
        QQ, [(Rational(0), Rational(1)), (Rational(1), Rational(0)), (Rational(2), Rational(3))]
    )
    want = MoebiusTransform(QQ, -3, 3, -2, 3)
    assert u.proportional(want)
    for t0, s0 in [(0, 1), (1, 0), (2, 3)]:
        assert at(u, Rational(t0)) == Rational(s0)


@given(moebius, st.lists(small_rats, min_size=3, max_size=3, unique=True))
@settings(max_examples=60)
def test_three_point_fit_recovers(m, ts):
    vals = [at(m, t0) for t0 in ts]
    assume(all(v is not POLE for v in vals))
    assume(len({str(v) for v in vals}) == 3)
    fit = moebius_from_three_points(QQ, list(zip(ts, vals)))
    assert fit.proportional(m)
    for t0, v in zip(ts, vals):
        assert at(fit, t0) == v


@pytest.mark.parametrize("n", [3, 5])
def test_three_point_fit_is_the_kernel_of_its_system(n):
    """In the largest class field over Q(alpha), alpha^n = 2, the closed
    form is the kernel vector of a t + b - c s t - d s = 0 that row
    reduction gives, coordinate for coordinate, for maps with c = 0, with
    d = 0 and with neither."""
    field = NumberField(QQ, canonical_minpoly(n), "a")
    rel = max(conjugacy_classes(field)[1], key=lambda cls: cls.size).relative_field
    alpha, gamma = rel.coerce(field.gen), rel.gen
    rng = random.Random(f"three-point fit over x^{n} - 2")

    def element():
        terms = (rng.randint(-3, 3) * alpha**i * gamma**j for i in range(n) for j in range(2))
        return sum(terms, rel.zero)

    for shape in ["c = 0", "d = 0"] + ["c, d != 0"] * 5:
        a, b, c, d = (element() for _ in range(4))
        c = rel.zero if shape == "c = 0" else c
        d = rel.zero if shape == "d = 0" else d
        u = MoebiusTransform._raw(a, b, c, d)
        assert u.is_unit
        ts = rng.sample([t for t in range(-6, 7) if t], 3)
        pairs = [(Rational(t), (a * t + b) / (c * t + d)) for t in ts]
        fit, ref = moebius_from_three_points(rel, pairs), moebius_by_kernel(rel, pairs)
        assert (fit.a, fit.b, fit.c, fit.d) == (ref.a, ref.b, ref.c, ref.d)
        last = (rel.one, rel.zero) if shape == "d = 0" else (fit.c, rel.one)
        assert (fit.c, fit.d) == last
        assert fit.proportional(u)


def test_three_point_fit_refuses_degenerate_samples():
    with pytest.raises(ValueError):
        moebius_from_three_points(QQ, [(Rational(0), Rational(1))] * 2)
    with pytest.raises(InternalInvariantError, match="singular"):
        moebius_from_three_points(QQ, [(Rational(t), Rational(1)) for t in (0, 1, 2)])


def test_parametrization_basics():
    psi = Parametrization([RatFunc(x**2 + 1, 2 * x), RatFunc(x**2 - 1, 2 * x)])
    assert len(psi) == 2
    assert psi.degree == 2
    assert psi.field is QQ
    assert at(psi, Rational(1)) == (Rational(1), Rational(0))
    assert values_at_infinity(psi) == (POLE, POLE)
    m = MoebiusTransform(QQ, 0, 1, 1, 0)  # t -> 1/t
    back = psi.compose_moebius(m).compose_moebius(m)
    assert back == psi


def test_parametrization_equality_and_render():
    p1 = Parametrization([RatFunc(x, x + 1)])
    p2 = Parametrization([RatFunc(2 * x, 2 * x + 2)])
    assert p1 == p2
    assert "t" in p1.render()
