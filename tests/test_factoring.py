"""Univariate factorization over the rationals and over simple extensions."""

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import (
    NumberField,
    QQ,
    Rational,
    UniPoly,
    factor_over_nf,
    factor_rational,
    is_irreducible_rational,
)
from hypercircles.intpoly import primes

x = UniPoly.gen(QQ)

IRREDUCIBLE_POOL = [
    x + 1,
    x - 2,
    x**2 + 1,
    x**2 - 2,
    x**2 + x + 1,
    x**3 - 2,
    x**3 + 2 * x + 2,
    x**4 + 1,
]


def reassemble(unit, factors):
    out = UniPoly(QQ, [unit])
    for f, m in factors:
        for _ in range(m):
            out = out * f
    return out


def test_golden_factorizations():
    unit, fac = factor_rational(x**4 - 1)
    assert unit == Rational(1)
    assert fac == [(x - 1, 1), (x + 1, 1), (x**2 + 1, 1)]

    unit, fac = factor_rational(x**4 - 2)
    assert fac == [(x**4 - 2, 1)]

    unit, fac = factor_rational(6 * x**2 - 6)
    assert unit == Rational(6)
    assert fac == [(x - 1, 1), (x + 1, 1)]

    # multiplicities
    unit, fac = factor_rational((x - 1) ** 3 * (x**2 + 1) ** 2)
    assert fac == [(x - 1, 3), (x**2 + 1, 2)]

    # cyclotomic-style: x^5 - 1
    unit, fac = factor_rational(x**5 - 1)
    assert fac == [(x - 1, 1), (x**4 + x**3 + x**2 + x + 1, 1)]


def test_constant_and_errors():
    unit, fac = factor_rational(UniPoly(QQ, [Rational(5)]))
    assert unit == Rational(5) and fac == []
    with pytest.raises(ValueError):
        factor_rational(UniPoly(QQ, []))


def test_is_irreducible_rational():
    assert is_irreducible_rational(x**4 - 2)
    assert is_irreducible_rational(x + 7)
    assert not is_irreducible_rational(x**2 - 1)
    assert not is_irreducible_rational((x**2 + 1) ** 2)
    assert not is_irreducible_rational(UniPoly(QQ, [Rational(3)]))


@given(
    st.lists(
        st.tuples(
            st.sampled_from(range(len(IRREDUCIBLE_POOL))),
            st.integers(min_value=1, max_value=2),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda t: t[0],
    ),
    st.integers(min_value=-6, max_value=6).filter(bool),
)
@settings(max_examples=30, deadline=None)
def test_random_products_reconstruct(picks, scale):
    want = []
    prod = UniPoly(QQ, [Rational(scale)])
    for idx, mult in picks:
        f = IRREDUCIBLE_POOL[idx]
        want.append((f, mult))
        for _ in range(mult):
            prod = prod * f
    unit, fac = factor_rational(prod)
    assert unit == Rational(scale)
    assert len(fac) == len(want)
    for f, m in want:
        assert sum(1 for g, gm in fac if g == f and gm == m) == 1
    assert reassemble(unit, fac) == prod
    for f, _ in fac:
        assert f.lc == QQ.one


def test_factor_over_nf_golden():
    field = NumberField(QQ, x**4 - 2, "a")
    a = field.gen
    y = UniPoly.gen(field)
    unit, fac = factor_over_nf(x**4 - 2, field)
    assert unit == field.one
    assert sorted(f.degree for f, _ in fac) == [1, 1, 2]
    got = [f for f, _ in fac]
    for want in (y - a, y + a, y**2 + a * a):
        assert want in got
    assert all(m == 1 for _, m in fac)


def test_factor_over_nf_gaussian():
    field = NumberField(QQ, x**2 + 1, "i")
    i = field.gen
    y = UniPoly.gen(field)
    unit, fac = factor_over_nf(x**2 + 1, field)
    got = [f for f, _ in fac]
    assert len(got) == 2 and (y - i) in got and (y + i) in got
    # a polynomial that stays irreducible
    unit, fac = factor_over_nf(x**2 - 2, field)
    assert len(fac) == 1 and fac[0][0].degree == 2


def test_factor_over_nf_multiplicity():
    field = NumberField(QQ, x**2 + 1, "i")
    i = field.gen
    y = UniPoly.gen(field)
    g = (y - i) * (y - i) * (y + i)
    unit, fac = factor_over_nf(g, field)
    assert len(fac) == 2
    mults = {}
    for f, m in fac:
        mults["minus" if f == y - i else "plus"] = m
    assert mults == {"minus": 2, "plus": 1}


def test_factor_over_nf_product_identity():
    field = NumberField(QQ, x**3 - 2, "c")
    y = UniPoly.gen(field)
    f = y**3 - 2
    unit, fac = factor_over_nf(f, field)
    prod = UniPoly(field, [unit])
    for g, m in fac:
        for _ in range(m):
            prod = prod * g
    assert prod == f
    assert sorted(g.degree for g, _ in fac) == [1, 2]


def test_next_prime_walks_the_primes():
    # the Zassenhaus prime search walks primes(3): every prime below 5000,
    # in order
    sieve = [True] * 5000
    sieve[0] = sieve[1] = False
    for i in range(2, 71):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    want = [i for i in range(3, 5000) if sieve[i]]
    got = []
    for p in primes(3):
        if p >= 5000:
            break
        got.append(p)
    assert got == want
    assert next(primes()) == 2 and next(primes(4)) == 5
