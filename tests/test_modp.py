"""Word-size-prime folding of common roots, checked against the exact gcd."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import NumberField, QQ, Rational, UniPoly, poly_gcd
from hypercircles.intpoly import is_prime
from hypercircles.modp import _primes, _rat_rec, _tower_disc, fold_common_root


def make_K():
    return NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 1]), "a")


def make_L():
    K = make_K()
    return NumberField(K, UniPoly(K, [K.gen + K.one, K.zero, K.one]), "b")


def rand_elem(rng, f, bound=9):
    if f is QQ:
        return Rational(rng.randint(-bound, bound), rng.randint(1, 4))
    return f.element([rand_elem(rng, f.base, bound) for _ in range(f.degree)])


def rand_poly(rng, f, deg):
    cs = [rand_elem(rng, f) for _ in range(deg)]
    lc = rand_elem(rng, f)
    while not lc:
        lc = rand_elem(rng, f)
    cs.append(lc)
    return UniPoly(f, cs)


def exact_fold(polys):
    g = polys[0]
    for p in polys[1:]:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    return g


def test_prime_generator_is_prime():
    first = []
    for p in _primes():
        first.append(p)
        if len(first) == 5:
            break
    assert all(p > 2**61 for p in first)
    assert len(set(first)) == 5
    for p in first:
        for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            assert p % q != 0


def test_is_prime_matches_trial_division():
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    for n in list(range(0, 500)) + [10**6 + 3, 2**31 - 1, 2**31 + 1]:
        assert is_prime(n) == trial(n), n


@given(
    st.integers(min_value=-(10**18), max_value=10**18),
    st.integers(min_value=1, max_value=10**18),
)
@settings(max_examples=150)
def test_rational_reconstruction_round_trip(num, den):
    g = math.gcd(abs(num), den)
    num, den = num // g, den // g
    m = (1 << 190) + 1  # > 2 * (10**18)**2, comfortably
    if math.gcd(den, m) != 1:
        return
    a = num * pow(den, -1, m) % m
    r = _rat_rec(a, m)
    assert r is not None
    assert r == Rational(num, den)


def test_rational_reconstruction_rejects_out_of_bounds():
    # a residue whose canonical fraction needs more digits than the bound
    m = 101 * 103
    seen_none = False
    for a in range(2, m, 97):
        r = _rat_rec(a, m)
        if r is None:
            seen_none = True
        else:
            num, den = int(r.numerator), int(r.denominator)
            assert (num * pow(den, -1, m) - a) % m == 0
    assert seen_none


def test_tower_discriminant_positive():
    K, L = make_K(), make_L()
    assert _tower_disc(K) > 0
    assert _tower_disc(L) > 0
    # memoised on the field
    assert _tower_disc(L) is _tower_disc(L)


@pytest.mark.parametrize("label", ["K", "L"])
def test_fold_matches_exact_gcd(label):
    field = make_K() if label == "K" else make_L()
    rng = random.Random(5)
    for trial in range(10):
        polys = [rand_poly(rng, field, rng.randint(2, 5)) for _ in range(3)]
        ex = exact_fold(polys)
        kind, payload = fold_common_root(polys, field)
        if ex.degree == 0:
            assert kind == "empty"
        elif ex.degree == 1:
            assert kind == "root"
            assert payload == -ex.monic().coeff(0)
        else:
            assert kind == "degree"


@pytest.mark.parametrize("label", ["K", "L"])
def test_fold_finds_planted_root(label):
    field = make_K() if label == "K" else make_L()
    rng = random.Random(7)
    for trial in range(10):
        s = rand_elem(rng, field)
        root = UniPoly(field, [-s, field.one])
        polys = [root * rand_poly(rng, field, rng.randint(1, 4)) for _ in range(3)]
        ex = exact_fold(polys)
        kind, payload = fold_common_root(polys, field)
        if ex.degree == 1:
            assert kind == "root" and payload == s
        else:
            assert kind == "degree"


@pytest.mark.parametrize("label", ["K", "L"])
def test_fold_handles_big_coordinates(label):
    # roots whose coordinates need several primes' worth of CRT lifting
    field = make_K() if label == "K" else make_L()
    rng = random.Random(11)
    for trial in range(3):
        s = rand_elem(rng, field, bound=10**12)
        root = UniPoly(field, [-s, field.one])
        polys = [root * rand_poly(rng, field, 2) for _ in range(2)]
        kind, payload = fold_common_root(polys, field)
        assert kind == "root" and payload == s


def test_fold_constant_poly_means_empty():
    field = make_K()
    one = UniPoly(field, [field.one])
    t = UniPoly(field, [field.zero, field.one])
    assert fold_common_root([one, t], field) == ("empty", None)
