"""Univariate factorization over the rationals and over number-field towers."""

import hashlib
import itertools
import signal
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from hypercircles import (
    InternalInvariantError,
    NumberField,
    QQ,
    Rational,
    UniPoly,
    factor_squarefree,
    is_irreducible_rational,
)
from hypercircles import factoring, modp
from hypercircles.generators import cyclotomic_minpoly
from hypercircles.hypercircle import conjugacy_classes
from hypercircles.intpoly import primes, zz_mul

from oracles import squarefree_norm_by_exact_test
from test_minfield import _model, negative_instance, sextic_subfield_instance
from test_numberfield import tower

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


# non-monic irreducibles with large constant terms: as factors of a product
# they exercise the lc scaling of both coefficient tests of the recombination
NONMONIC_POOL = [
    3 * x**2 - 2,
    5 * x**3 + x + 7,
    7 * x**4 - 12,
    6 * x**3 - 35,
    2 * x**5 - 3 * x + 30,
    9 * x**2 + 4 * x - 77,
]


def reassemble(factors, field=QQ):
    out = UniPoly.one(field)
    for f in factors:
        out = out * f
    return out


def test_golden_factorizations():
    # sorted by degree, then by text
    assert factor_squarefree(x**4 - 1, QQ) == [x + 1, x - 1, x**2 + 1]
    assert factor_squarefree(x**4 - 2, QQ) == [x**4 - 2]
    assert factor_squarefree((6 * x**2 - 6).monic(), QQ) == [x + 1, x - 1]
    # cyclotomic-style: x^5 - 1
    assert factor_squarefree(x**5 - 1, QQ) == [x - 1, x**4 + x**3 + x**2 + x + 1]


def test_is_irreducible_rational():
    assert is_irreducible_rational(x**4 - 2)
    assert is_irreducible_rational(x + 7)
    assert not is_irreducible_rational(x**2 - 1)
    assert not is_irreducible_rational((x**2 + 1) ** 2)
    assert not is_irreducible_rational(UniPoly(QQ, [Rational(3)]))
    assert is_irreducible_rational(-3 * x**3 + Rational(1, 2))


@given(
    st.lists(
        st.sampled_from(range(len(IRREDUCIBLE_POOL))),
        min_size=1,
        max_size=3,
        unique=True,
    ),
)
@settings(max_examples=30, deadline=None)
def test_random_products_reconstruct(picks):
    want = [IRREDUCIBLE_POOL[i] for i in picks]
    prod = reassemble(want)
    fac = factor_squarefree(prod, QQ)
    assert fac == sorted(want, key=lambda f: (f.degree, str(f)))
    assert reassemble(fac) == prod


@given(
    st.lists(
        st.sampled_from(range(len(NONMONIC_POOL))),
        min_size=2,
        max_size=4,
        unique=True,
    ),
    st.sampled_from(range(len(IRREDUCIBLE_POOL))),
)
@settings(max_examples=20, deadline=None)
def test_nonmonic_products_reconstruct(picks, monic_idx):
    want = [NONMONIC_POOL[i] for i in picks] + [IRREDUCIBLE_POOL[monic_idx]]
    prod = reassemble(want).monic()
    fac = factor_squarefree(prod, QQ)
    assert sorted(str(f) for f in fac) == sorted(str(f.monic()) for f in want)
    assert reassemble(fac) == prod


def test_coefficient_tests_accept_true_factors():
    # every divisor G of f, as the candidate (lc(f) / lc(G)) * G that its
    # subset of lifted factors would give, passes both coefficient tests.
    # x^30 - 1 has divisors whose x^(d-1) coefficient exceeds ||f||_2, such
    # as Phi2 * Phi3 * Phi5 * Phi30 with 4 there (||f||_2 is sqrt 2).
    cases = [factoring._primitive_ints(norm) for _, norm in _pinned_norms(with_phi13=False)]
    prod = [1]
    for f in NONMONIC_POOL:
        prod = zz_mul(prod, factoring._primitive_ints(f))
    cases.append(prod)
    cases.append([-1] + [0] * 29 + [1])
    for f in cases:
        lc_f = f[-1]
        norm2 = factoring._norm2_ceil(f)
        irreducible = factoring.zz_factor_squarefree(f)
        for size in range(1, len(irreducible)):
            for subset in itertools.combinations(irreducible, size):
                g = [1]
                for fac in subset:
                    g = zz_mul(g, fac)
                scale = lc_f // g[-1]
                top, const = scale * g[-2], scale * g[0]
                assert factoring._coefficients_may_divide(
                    top, const, len(g) - 1, lc_f, f[0], norm2, lc_f
                )
    # a candidate above Mignotte's cap, or whose constant misses f(0), fails
    f = factoring._primitive_ints(NONMONIC_POOL[0] * NONMONIC_POOL[1])
    norm2 = factoring._norm2_ceil(f)
    cap = f[-1] * (norm2 + f[-1])
    assert not factoring._coefficients_may_divide(cap + 1, 1, 2, f[-1], f[0], norm2, f[-1])
    assert not factoring._coefficients_may_divide(0, 0, 2, f[-1], f[0], norm2, f[-1])
    assert not factoring._coefficients_may_divide(0, 11, 2, f[-1], f[0], norm2, f[-1])


def test_hensel_ladder_stops_at_the_target():
    assert factoring._ladder(5, 37) == [5**e for e in (1, 2, 3, 5, 10, 19, 37)]
    assert factoring._ladder(7, 1) == [7]
    # the lifted factors of 3x^2 - 2 mod 23 (roots 4 and -4) multiply back
    # to f / lc(f) mod 23**5
    f = [-2, 0, 3]
    lifted = factoring.hensel_lift(23, f, [[19, 1], [4, 1]], 5)
    pl = 23**5
    inv = pow(3, -1, pl)
    assert [c % pl for c in zz_mul(*lifted)] == [c * inv % pl for c in f]


def _m_alpha(field):
    """m(alpha, x) = M(x) / (x - alpha), the polynomial Trager factors."""
    mk = field.minpoly.map_into(field)
    q, r = divmod(mk, UniPoly(field, [-field.gen, field.one]))
    assert r.is_zero
    return q.monic()


# field, Trager shift and sha256 of `_render_factorization` of the norm's
# factors
PINNED_NORMS = [
    (
        x**6 - 2,
        3,
        "0d63d61606e06a621eee15668aa97bf6e960ab6dce57e52e2ebc5e1b193b3906",
    ),
    (
        cyclotomic_minpoly(5),
        -1,
        "9d34d2b616a1fc9a2ea0197f07b0a6a32ab6500982b7f1e28160871e6ebf7bab",
    ),
    (
        cyclotomic_minpoly(7),
        -1,
        "62393b4c72eefac141a5e72a2a33e7de8c75de84d19f0f9bae8a96a338a3e9d1",
    ),
    (
        cyclotomic_minpoly(13),
        -1,
        "bc9170b61341dd645eb51f78dd9cd5c812240807b14a822cb84b3f32fc5d0dc5",
    ),
]


def _pinned_norms(with_phi13=True):
    """(shift, norm over QQ) for the Trager norm of each pinned field."""
    out = []
    for minpoly, _, _ in PINNED_NORMS[: None if with_phi13 else -1]:
        field = NumberField(QQ, minpoly, "a")
        k, _, norm = factoring._squarefree_norm(_m_alpha(field), field)
        out.append((k, norm))
    return out


def _render_factorization(factors):
    """The monic factors of a monic norm as the digests were taken: the unit
    1, then one line per factor, its multiplicity 1 and its coefficients,
    ordered by degree and then by the coefficients' text."""
    lines = ["1"]
    for f in sorted(factors, key=lambda f: (f.degree, [str(c) for c in f.coeffs])):
        lines.append("1 " + " ".join(str(c) for c in f.coeffs))
    return "\n".join(lines)


def test_trager_norm_factorizations_are_pinned():
    """factor_squarefree on the Trager norms of x^6 - 2, Phi5, Phi7 and Phi13
    hashes to the values the plain first-prime Zassenhaus search gave."""
    for (k, norm), (minpoly, shift, digest) in zip(_pinned_norms(), PINNED_NORMS):
        assert k == shift, minpoly
        text = _render_factorization(factor_squarefree(norm, QQ))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, minpoly


def counted(monkeypatch, module, name):
    """The list of the argument tuples of each call of module.name."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def assert_same_shift(got, want):
    """(k, H, N) triples compared part by part, so that a failure reports
    the shifts without diffing the polynomials' long reprs."""
    assert got[0] == want[0]
    assert got[1] == want[1], "same shift, other shifted polynomial"
    assert got[2] == want[2], "same shift, other norm"


@pytest.mark.parametrize("minpoly, exact_norms", [(x**6 - 2, 6), (x**5 - 2, 3)])
def test_shift_search_builds_one_norm_and_takes_no_gcd(minpoly, exact_norms, monkeypatch):
    # the split prime's image screens every shift, so only the accepted
    # shift's norm is built, where the exact search builds one per shift
    field = NumberField(QQ, minpoly, "a")
    h = _m_alpha(field)
    want = squarefree_norm_by_exact_test(h, field)
    assert [0, 1, -1, 2, -2, 3].index(want[0]) + 1 == exact_norms

    def refuse(*args):
        raise AssertionError("an exact gcd was taken")

    monkeypatch.setattr(factoring, "poly_gcd", refuse)
    monkeypatch.setattr(modp, "_gcd", refuse)
    norms = counted(monkeypatch, factoring, "_norm_poly")
    assert_same_shift(factoring._squarefree_norm(h, field), want)
    assert len(norms) == 1


def _tower_cases():
    """(field, polynomial) pairs over tower bases: those of
    `test_factor_over_nf_over_a_tower`, then m(alpha, x) and alpha's
    minimal polynomial over Q, over the tower model L(alpha) of each
    subfield negative."""
    field = tower()
    cases = [(field, (x**4 - 2).map_into(field)), (field, (x**2 + 1).map_into(field))]
    for make in (
        negative_instance,
        lambda: sextic_subfield_instance(2, 4),
        lambda: sextic_subfield_instance(3, 4),
    ):
        field, _, _, (model, _) = _model(make)
        cases.append((model, _m_alpha(model)))
        cases.append((model, field.minpoly.map_into(model)))
    return cases


def test_shift_over_tower_bases_matches_the_exact_search(monkeypatch):
    # the first shift with a squarefree image is the first with a
    # squarefree norm here, and the factors are those of the exact search
    for field, f in _tower_cases():
        h = f.monic()
        assert_same_shift(
            factoring._squarefree_norm(h, field), squarefree_norm_by_exact_test(h, field)
        )
        got = factor_squarefree(h, field)
        with monkeypatch.context() as m:
            m.setattr(factoring, "_squarefree_norm", squarefree_norm_by_exact_test)
            want = factor_squarefree(h, field)
        assert got == want and sum(g.degree for g in got) == f.degree


def test_shift_search_skips_a_prime_dividing_alpha_denominator():
    # alpha^2 - alpha/q + 1 = 0 with q the first prime the split search
    # tries: theta = q alpha has theta^2 - theta + q^2 mod q, which splits,
    # so q is the field's first split prime, but alpha has no value mod q
    # and the shift is screened at the next one
    q = next(primes(modp._PRIME_START))
    field = NumberField(QQ, UniPoly(QQ, [1, Rational(-1, q), 1]), "a")
    assert next(modp._split_primes(field)).p == q and field.gen.den == q
    f = (x**4 - 2).map_into(field)
    assert factoring._split_images(f, field)[0] != q
    assert_same_shift(
        factoring._squarefree_norm(f, field), squarefree_norm_by_exact_test(f, field)
    )
    assert factor_squarefree(f, field) == [f]


def test_degree_step_keeps_the_factors(monkeypatch):
    # every factor of a Trager norm over K = Q(alpha) has degree a multiple
    # of [K:Q]; a product of norms keeps the gcd of their steps
    sextic, phi5, phi7 = (
        factoring._primitive_ints(norm) for _, norm in _pinned_norms(with_phi13=False)
    )
    cases = [
        (sextic, 6),
        (phi5, 4),
        (phi7, 6),
        (zz_mul(sextic, phi7), 6),
        (zz_mul(sextic, phi5), 2),
    ]
    for f, step in cases:
        want = sorted(factoring.zz_factor_squarefree(f))
        assert sorted(factoring.zz_factor_squarefree(f, step)) == want
    # x^5 - 2's degree-20 norm is P(x^10), and the degree sets at its first
    # admissible prime prove it irreducible with no Hensel lift, before P
    # is factored
    quintic = NumberField(QQ, x**5 - 2, "a")
    f = factoring._primitive_ints(factoring._squarefree_norm(_m_alpha(quintic), quintic)[2])
    assert f[1:10] == [0] * 9
    cores = counted(monkeypatch, factoring, "_zassenhaus")
    lifts = counted(monkeypatch, factoring, "hensel_lift")
    assert factoring.zz_factor_squarefree(f, 5) == [f]
    assert cores == [] and lifts == []
    # at step 1 they do not: P is factored, and Capelli's criterion proves
    # the one piece, which the core would lift
    capelli = counted(monkeypatch, factoring, "_capelli_irreducible")
    assert factoring.zz_factor_squarefree(f) == [f]
    assert capelli == [(f[::10], 10)] and lifts == []
    assert factoring._zassenhaus(f, 1) == [f]
    assert lifts


def test_deflation_gives_the_core_factors(monkeypatch):
    # f = P(x^e) is split as P's factors P_i, then each piece P_i(x^e) by
    # the Zassenhaus core, never deflated again; the factors are the core's
    # on f itself, also where a piece splits again
    pinned = [
        (factoring._primitive_ints(norm), NumberField(QQ, minpoly, "a").degree)
        for (_, norm), (minpoly, _, _) in zip(_pinned_norms(), PINNED_NORMS)
    ]
    for f, step in pinned + [(factoring._primitive_ints((x**2 - 1) * (x**2 - 4)), 1)]:
        assert sorted(factoring.zz_factor_squarefree(f, step)) == sorted(
            factoring._zassenhaus(f, step)
        )
    # x^4 + 4 = P(x^4), P = x + 4, is one piece that splits again
    f = [4, 0, 0, 0, 1]
    calls = counted(monkeypatch, factoring, "_zassenhaus")
    got = factoring.zz_factor_squarefree(f)
    assert sorted(got) == sorted([[2, 2, 1], [2, -2, 1]])
    assert calls == [([4, 1], 1), (f, 1)]
    # (x^2 - 1)(x^2 - 4): P's two factors give two pieces, each split again
    calls.clear()
    got = factoring.zz_factor_squarefree([4, 0, -5, 0, 1], 1)
    assert sorted(got) == sorted([[-1, 1], [1, 1], [-2, 1], [2, 1]])
    assert sorted(calls[1:]) == [([-4, 0, 1], 1), ([-1, 0, 1], 1)]
    # a step s gives P the step s / gcd(s, e): Phi7's norm is P(x^2), and
    # its step 6 leaves P the step 3
    phi7, step = pinned[2]
    calls.clear()
    factoring.zz_factor_squarefree(phi7, step)
    assert calls[0] == (phi7[::2], 3)
    assert all(s == step for _, s in calls[1:])


def _deflated(f):
    """(e, P) with f = P(x^e), e the gcd of the exponents of f's terms."""
    e = 0
    for i, a in enumerate(f):
        if a:
            e = gcd(e, i)
    return e, f[::e]


def test_a_piece_below_twice_the_step_takes_no_prime(monkeypatch):
    # x^6 - 128 at step 6 and Phi7's degree-6 pieces at step 6: each factor
    # has a positive multiple of the step as its degree, so they are
    # irreducible before any prime or any Capelli search
    ddf = counted(monkeypatch, factoring, "gf_ddf")
    capelli = counted(monkeypatch, factoring, "_capelli_irreducible")
    f = [-128, 0, 0, 0, 0, 0, 1]
    assert factoring._zassenhaus(f, 6) == [f] and ddf == []
    sextic, _, phi7 = (
        factoring._primitive_ints(norm) for _, norm in _pinned_norms(with_phi13=False)
    )
    for norm in (sextic, phi7):
        ddf.clear()
        capelli.clear()
        got = factoring.zz_factor_squarefree(norm, 6)
        assert 6 in {len(g) - 1 for g in got}
        e = _deflated(norm)[0]
        assert all(e * (len(g) - 1) >= 12 for g, _ in capelli)
        assert all(len(fp) - 1 != 6 for fp, _ in ddf)
    assert capelli and ddf


def test_capelli_proves_the_sextic_pieces_without_a_lift(monkeypatch):
    # the two degree-12 pieces of x^6 - 2's Trager norm are irreducible:
    # the norm of beta settles l = 3 and a local witness l = 2, so the
    # only Hensel lift is P's (degree 5, factors of degree 1, 2 and 2)
    capelli = counted(monkeypatch, factoring, "_capelli_irreducible")
    lifts = counted(monkeypatch, factoring, "hensel_lift")
    field = NumberField(QQ, x**6 - 2, "a")
    _, classes = conjugacy_classes(field)
    assert sorted(c.factor.degree for c in classes) == [1, 2, 2]
    assert [len(g) - 1 for g, _ in capelli] == [2, 2]
    # hensel_lift recurses on its halves, so P's lift is the largest call
    assert max(len(f) - 1 for _, f, _, _ in lifts) == 5
    assert all(factoring._capelli_irreducible(g, e) for g, e in capelli[:2])
    # the parse check of x^6 - 2 is proven by the norm of beta = 2 alone
    cores = counted(monkeypatch, factoring, "_zassenhaus")
    admissible = counted(monkeypatch, factoring, "_admissible_primes")
    capelli.clear()
    assert is_irreducible_rational(x**6 - 2)
    assert [f for f, _ in cores] == [[-2, 1]]
    assert capelli == [([-2, 1], 6)]
    assert all(len(f) == 7 for f, in admissible)


# reducible pieces P_i(x^e) whose root beta is an l-th power or in -4 Q^4,
# with their irreducible factors
CAPELLI_EXCEPTIONS = [
    (x**4 + 4, [x**2 - 2 * x + 2, x**2 + 2 * x + 2]),
    (4 * x**4 + 1, [2 * x**2 - 2 * x + 1, 2 * x**2 + 2 * x + 1]),
    (x**6 - 8, [x**2 - 2, x**4 + 2 * x**2 + 4]),
    (x**6 + 27, [x**2 + 3, x**2 - 3 * x + 3, x**2 + 3 * x + 3]),
    (x**4 - 4, [x**2 - 2, x**2 + 2]),
    ((x**2 - 1) * (x**2 - 4), [x - 2, x - 1, x + 1, x + 2]),
]


@pytest.mark.parametrize(
    "f, want", CAPELLI_EXCEPTIONS, ids=[str(f) for f, _ in CAPELLI_EXCEPTIONS]
)
def test_capelli_certifies_no_exception(f, want):
    ints = factoring._primitive_ints(f)
    e, p = _deflated(ints)
    for g in factoring._zassenhaus(p, 1):
        assert not factoring._capelli_irreducible(g, e), g
    got = factoring.zz_factor_squarefree(ints)
    assert sorted(got) == sorted(factoring._primitive_ints(g) for g in want)
    assert not is_irreducible_rational(f)


def test_rational_powers():
    assert factoring._is_power(-27, 8, 3) and factoring._is_power(1, 16, 4)
    assert not factoring._is_power(4, -1, 3)
    assert factoring._is_power(-8, -125, 3) and not factoring._is_power(-4, 1, 2)
    assert not factoring._is_power(-1, 16, 4) and not factoring._is_power(1, -16, 4)
    # N(beta) of the sextic pieces is a square but not a cube
    for c in (13, 7):
        assert factoring._is_power(4 * c**6, 1, 2) and not factoring._is_power(4 * c**6, 1, 3)
    big = 3**97 * 10**60
    assert factoring._is_power(big**5, 7**5, 5)
    assert not factoring._is_power(big**5 + 1, 1, 5)
    assert not factoring._is_power(big**5 - 1, 1, 5)


def _quadratic_power(a, b, c, d, l, scale):
    """The primitive integer minimal polynomial of beta = scale * gamma^l,
    gamma = (a + b sqrt d) / c, or None when beta is rational."""
    u, v = Rational(scale), Rational(0)
    for _ in range(l):
        u, v = (u * a + v * b * d) / c, (u * b + v * a) / c
    if v == 0:
        return None
    # x^2 - 2u x + (u^2 - d v^2)
    return factoring._primitive_ints(x**2 - 2 * u * x + (u * u - d * v * v))


@given(
    st.integers(-6, 6),
    st.integers(-6, 6).filter(bool),
    st.integers(1, 3),
    st.sampled_from([-7, -3, -2, -1, 2, 3, 5, 6, 7]),
    st.sampled_from([(2, 1), (3, 1), (4, -4)]),
    st.sampled_from([1, 2, 3]),
)
@settings(max_examples=80, deadline=None)
def test_capelli_never_certifies_a_power(a, b, c, d, power, j):
    # beta = gamma^l, l = 2 or 3, or beta = -4 gamma^4, with
    # gamma = (a + b sqrt d) / c in Q(beta) = Q(sqrt d): x^(jl) - beta is
    # reducible over Q(beta), so no piece g(x^(jl)) is certified, and the
    # factors are the core's
    l, scale = power
    g = _quadratic_power(a, b, c, d, l, scale)
    assume(g is not None)
    e = j * l
    assert not factoring._capelli_irreducible(g, e)
    piece = [0] * (2 * e + 1)
    piece[::e] = g
    got = factoring.zz_factor_squarefree(piece)
    assert len(got) > 1 and sorted(got) == sorted(factoring._zassenhaus(piece, 1))


def test_non_squarefree_input_raises_within_a_second():
    # the admissible-prime search stops after the most primes that can
    # divide lc(f) disc(f) of a squarefree f; the alarm turns a hang into a
    # failure
    def hang(*args):
        raise AssertionError("no answer within a second")

    cases = [
        factoring._primitive_ints((x - 1) ** 2 * (x + 1)),
        factoring._primitive_ints((x**2 - 1) ** 2),
        factoring._primitive_ints(x**2 * (x**2 + 1)),
    ]
    old = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        for f in cases:
            with pytest.raises(InternalInvariantError, match="not squarefree"):
                factoring.zz_factor_squarefree(f)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    # a squarefree f whose lc is divisible by the first 24 odd primes still
    # reaches an admissible prime
    lc = 1
    for p in itertools.islice(primes(3), 24):
        lc *= p
    f = factoring._primitive_ints((lc * x - 1) * (x**2 + 1))
    assert sorted(factoring.zz_factor_squarefree(f)) == [[-1, lc], [1, 0, 1]]


def test_pull_back_shifts_only_the_gcds(monkeypatch):
    # the norm's factors meet h(x - k alpha), and only those gcds are
    # shifted back: on x^6 - 2 (k = 3) the compositions are h's shift and
    # then the factors of degree 1, 2 and 2, not the norm's of degree 6, 12
    # and 12; each factor is gcd(h, F(x + k alpha)) for a norm factor F
    field = NumberField(QQ, x**6 - 2, "a")
    h = _m_alpha(field)
    k, _, norm = factoring._squarefree_norm(h, field)
    nfactors = factor_squarefree(norm, QQ)
    back = UniPoly(field, [field.coerce(k) * field.gen, field.one])
    want = [factoring.poly_gcd(h, fac.map_into(field).compose(back)) for fac in nfactors]
    degrees = []
    compose = UniPoly.compose

    def record(self, other):
        degrees.append(self.degree)
        return compose(self, other)

    monkeypatch.setattr(UniPoly, "compose", record)
    got = factor_squarefree(h, field)
    assert sorted(degrees) == [1, 2, 2, 5] and degrees[0] == 5
    assert sorted(got, key=str) == sorted(want, key=str)


def test_conjugacy_classes_take_no_squarefree_decomposition():
    # m(alpha, x) divides the irreducible M, so it is separable: the classes
    # are its factors by Trager's method, over Q and over a tower base
    tower_model = _model(lambda: sextic_subfield_instance(2, 4))[3][0]
    fields = [NumberField(QQ, x**6 - 2, "a"), tower_model]
    want = [factor_squarefree(_m_alpha(f), f) for f in fields]
    for field, factors in zip(fields, want):
        assert [c.factor for c in conjugacy_classes(field)[1]] == factors


def test_factor_over_nf_golden():
    field = NumberField(QQ, x**4 - 2, "a")
    a = field.gen
    y = UniPoly.gen(field)
    got = factor_squarefree(y**4 - 2, field)
    assert sorted(f.degree for f in got) == [1, 1, 2]
    for want in (y - a, y + a, y**2 + a * a):
        assert want in got


def test_factor_over_nf_over_a_tower(monkeypatch):
    # Q(a)(b) with a^2 = 2, b^2 = -a: the norm of x^4 - 2 one level down is
    # factored over Q(a) by the same method, and pulled back by gcds; its
    # norm down to Q gets the step [K:Q] = 4, since every factor there is
    # the norm of a factor over K
    field = tower()
    a = field.coerce(field.base.gen)
    b = field.gen
    y = UniPoly.gen(field)
    calls = counted(monkeypatch, factoring, "zz_factor_squarefree")
    assert factor_squarefree(y**4 - 2, field) == [y + b, y - b, y**2 - a]
    assert [step for _, step in calls] == [4]
    assert factor_squarefree(y**2 + 1, field) == [y**2 + 1]


def test_factor_over_nf_gaussian():
    field = NumberField(QQ, x**2 + 1, "i")
    i = field.gen
    y = UniPoly.gen(field)
    got = factor_squarefree(y**2 + 1, field)
    assert len(got) == 2 and (y - i) in got and (y + i) in got
    # a polynomial that stays irreducible
    assert factor_squarefree(y**2 - 2, field) == [y**2 - 2]


def test_conjugacy_classes_of_a_quadratic_field_take_no_gcd(monkeypatch):
    # m(alpha, x) = x + alpha over Q(i) has degree 1: it is its own
    # squarefree part and its own class, with no gcd taken
    def refuse(*args):
        raise AssertionError("a gcd was taken")

    monkeypatch.setattr(factoring, "poly_gcd", refuse)
    field = NumberField(QQ, x**2 + 1, "i")
    _, classes = conjugacy_classes(field)
    assert [c.factor for c in classes] == [UniPoly.gen(field) + field.gen]


def test_factor_over_nf_product_identity():
    field = NumberField(QQ, x**3 - 2, "c")
    y = UniPoly.gen(field)
    fac = factor_squarefree(y**3 - 2, field)
    assert reassemble(fac, field) == y**3 - 2
    assert sorted(g.degree for g in fac) == [1, 2]


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
