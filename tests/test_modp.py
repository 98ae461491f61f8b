"""The modular number-field gcd and its common-root summary, checked
against the textbook Euclidean gcd over the field."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import (
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    Rational,
    UniPoly,
    classify_parameter,
    poly_gcd,
)
from hypercircles.generators import cyclotomic_minpoly
from hypercircles.hypercircle import SINGULAR, conjugacy_classes
from hypercircles.intpoly import is_prime, primes
from hypercircles.modp import (
    _build_level,
    _mmul,
    _rat_rec,
    _tower_disc,
    fold_common_root,
    nf_gcd,
)
from hypercircles.numberfield import ConjugacyClass

from oracles import euclid_gcd, mmul_by_nested_convolution, tower_disc_by_resultant


def make_K():
    return NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 1]), "a")


def make_L():
    K = make_K()
    return NumberField(K, UniPoly(K, [K.gen + K.one, K.zero, K.one]), "b")


def make_M():
    """A depth-3 tower: L(c) with c^2 = b."""
    L = make_L()
    return NumberField(L, UniPoly(L, [-L.gen, L.zero, L.one]), "c")


def make_field(label):
    return {"Q": lambda: QQ, "K": make_K, "L": make_L, "M": make_M}[label]()


FIRST_PRIME = next(primes(1 << 61))


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
        g = euclid_gcd(g, p)
        if g.degree == 0:
            break
    return g.monic()


def rand_monic(rng, f, deg, bound=9):
    return UniPoly(f, [rand_elem(rng, f, bound) for _ in range(deg)] + [f.one])


def test_prime_generator_is_prime():
    first = []
    for p in primes(1 << 61):
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


def disc_fields():
    """Fields whose tower discriminant is checked against the resultant."""
    qi = NumberField(QQ, UniPoly(QQ, [1, 0, 1]), "a")
    # x^3 - x/2 + 1/3: the generator is rescaled by 6
    cubic = NumberField(QQ, UniPoly(QQ, [Rational(1, 3), Rational(-1, 2), 0, 1]), "a")
    quintic = NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 0, 1]), "a")
    (size4,) = [c for c in conjugacy_classes(quintic)[1] if c.size == 4]
    phi7 = NumberField(QQ, cyclotomic_minpoly(7), "a")
    phi7_classes = [c.relative_field for c in conjugacy_classes(phi7)[1]]
    return [qi, make_K(), cubic, make_L(), size4.relative_field] + phi7_classes


def test_tower_discriminant_is_the_resultant():
    fields = disc_fields()
    assert fields[2]._scale == 6
    for field in fields:
        assert _tower_disc(field) == tower_disc_by_resultant(field)


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


@pytest.mark.parametrize("label", ["K", "L", "M"])
def test_fold_handles_big_coordinates(label):
    # roots whose coordinates need several primes' worth of CRT lifting, or
    # a p-adic lift of the first image's root
    field = make_field(label)
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


def test_fold_lone_input_is_made_monic():
    # one nonzero polynomial, as when every other component vanishes at t:
    # -g[0] is its root only once the image is monic
    field = make_K()
    a = field.gen
    q = UniPoly(field, [-(a**2 + 3), 2])
    assert fold_common_root([q], field) == ("root", (a**2 + 3) / 2)
    x = UniPoly.gen(field)
    assert fold_common_root([2 * x**2 + a], field) == ("degree", 2)


@pytest.mark.parametrize("label", ["Q", "K", "L"])
@pytest.mark.parametrize("planted", [0, 2, 3])
def test_gcd_matches_euclid(label, planted):
    field = make_field(label)
    rng = random.Random(31 + planted)
    for trial in range(3):
        h = rand_monic(rng, field, planted)
        polys = [h * rand_poly(rng, field, rng.randint(1, 3)) for _ in range(2)]
        g = poly_gcd(*polys)
        assert g == euclid_gcd(*polys)
        assert g.degree >= planted and (g % h).is_zero
        polys.append(h * rand_poly(rng, field, 2))
        assert nf_gcd(polys, field) == exact_fold(polys)


@pytest.mark.parametrize("label", ["Q", "K", "L"])
def test_gcd_lifts_big_coefficients(label):
    # a planted factor whose coordinates need several primes of CRT; over Q
    # also a planted root of height about 10^12, which the p-adic lift finds
    field = make_field(label)
    rng = random.Random(41)
    degs = (1, 2, 3) if field is QQ else (2, 3)
    for deg in degs:
        h = rand_monic(rng, field, deg, bound=10**12)
        f = h * rand_poly(rng, field, 2)
        g = h * rand_poly(rng, field, 1)
        assert nf_gcd([f, g], field) == h
        assert poly_gcd(f, g) == euclid_gcd(f, g)


def test_gcd_with_a_constant_input_is_one():
    field = make_L()
    rng = random.Random(43)
    f = rand_poly(rng, field, 3)
    c = UniPoly(field, [rand_elem(rng, field)])
    assert poly_gcd(f, c) == UniPoly.one(field)
    assert nf_gcd([f, c, f], field) == UniPoly.one(field)


def test_gcd_skips_a_prime_that_kills_a_leading_coefficient():
    # At the first word prime p the leading coefficient p vanishes; the
    # reduced inputs would then be coprime although the gcd is x - 1/p.
    field = make_K()
    a = field.gen
    x = UniPoly.gen(field)
    p = next(primes(1 << 61))
    f = (p * x - 1) * (x - a)
    g = (p * x - 1) * (x + 2)
    assert poly_gcd(f, g) == x - Rational(1, p)


def test_gcd_discards_an_unlucky_prime():
    # x - p and x share a root mod p, so at the prime p the image has a
    # spurious factor: as the first image, which the next prime's lower
    # degree replaces, and after a lucky image, where it is skipped.  A
    # degree-1 lucky first image is lifted p-adically and never meets p1,
    # so the planted quadratic keeps the CRT loop on that path.
    field = make_L()
    b = field.gen
    x = UniPoly.gen(field)
    p0, p1 = itertools.islice(primes(1 << 61), 2)
    assert poly_gcd((x - b) * (x - p0), (x - b) * x) == x - b
    big = b + 10**40  # its coordinates need five primes of CRT
    assert poly_gcd((x - big) * (x - p1), (x - big) * x) == x - big
    h = x**2 + big * x - 3 * big
    assert poly_gcd(h * (x - p1), h * x) == h


def test_lift_detects_an_unlucky_first_prime():
    # mod p0 both inputs are x, so the first image is x - 0; the gcd is 1,
    # and the lifted root of either input stops being a root of the other
    # (with x first the lifted root 0 reconstructs, and only the trial
    # division rejects x)
    field = make_L()
    x = UniPoly.gen(field)
    p0 = FIRST_PRIME
    one = UniPoly.one(field)
    assert nf_gcd([x - p0, x], field) == one
    assert nf_gcd([x, x - p0], field) == one
    assert nf_gcd([x - 1, x - 1 - p0, x - 1], field) == one


def test_lift_skips_an_input_with_a_double_root_mod_p():
    # s and s + p0 meet mod p0, so the first input has a double root there
    # (its derivative vanishes) and the lift must run on the second
    field = make_L()
    b = field.gen
    x = UniPoly.gen(field)
    p0 = FIRST_PRIME
    s = b * 10**40 + Rational(1, 3)
    f = (x - s) * (x - s - p0) * (x + b)
    g = (x - s) * (x - 2)
    assert nf_gcd([f, g], field) == x - s
    assert nf_gcd([g, f], field) == x - s


def parity_fields():
    """Towers whose packed products are checked against nested convolution."""
    quintic = NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 0, 1]), "a")
    (size4,) = [c.relative_field for c in conjugacy_classes(quintic)[1] if c.size == 4]
    sextic = NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 0, 0, 1]), "a")
    classes = conjugacy_classes(sextic)[1]
    size2 = next(c.relative_field for c in classes if c.size == 2)
    size1 = next(c.relative_field for c in classes if c.size == 1)
    over1 = NumberField(size1, UniPoly(size1, [size1.gen, size1.zero, size1.one]), "c")
    return {
        "x5-2 size 4": size4,
        "L": make_L(),
        "x6-2 size 2": size2,
        "x6-2 size 1": size1,
        "depth 3": make_M(),
        "depth 3 over degree 1": over1,
    }


def rand_reduced(rng, lvl, top):
    """A reduced element of lvl with first-level coordinates below top."""
    return tuple(rng.randrange(top) for _ in range(lvl.absolute_degree))


def filled(lvl, v):
    """The element of lvl with every first-level coordinate v."""
    return (v,) * lvl.absolute_degree


@pytest.mark.parametrize("power", [1, 2, 4])
def test_packed_product_matches_nested_convolution(power):
    q = FIRST_PRIME**power
    rng = random.Random(power)
    for name, field in parity_fields().items():
        lvl = _build_level(field, q)

        def rand(top=q):
            return rand_reduced(rng, lvl, top)

        top = filled(lvl, q - 1)  # every slot at its largest
        pairs = [(rand(), rand()) for _ in range(8)]
        pairs += [(rand(3), rand()), (top, top), (top, rand())]
        for a in (rand(), top):
            pairs += [(a, lvl.zero), (lvl.zero, a), (a, lvl.one), (lvl.one, a)]
        for a, b in pairs:
            want = mmul_by_nested_convolution(lvl, a, b)
            assert _mmul(lvl, a, b) == want, name
        assert _mmul(lvl, lvl.one, lvl.one) == lvl.one


def test_classify_parameter_singular_on_a_degree_two_fibre():
    # psi = (a t^2, t^4) is not proper: t = 1 and t = -1 share a point, so
    # the identity class's fibre gcd at t = 1 is s^2 - 1
    field = make_K()
    a = field.gen
    t = UniPoly.gen(field)
    psi = Parametrization([RatFunc(a * t**2), RatFunc(t**4)])
    ident = ConjugacyClass(UniPoly(field, [-a, field.one]), "b")
    psi_id = psi.conjugate(ident)
    rel = ident.relative_field
    s = UniPoly.gen(rel)
    polys = [rel.coerce(a) - rel.coerce(a) * s**2, rel.one - s**4]
    assert fold_common_root(polys, rel) == ("degree", 2)
    assert classify_parameter(psi, psi_id, 1).kind == SINGULAR
