"""The modular number-field gcd and its common-root summary, checked
against the textbook Euclidean gcd over the field; the split test that
picks its primes, and the evaluation at a split prime, inverted by
per-level interpolation mod p and mod p^k as Dixon's digit solve inverts
it, packed against one dot product per value, lifted at precisions that
each take one Newton step with no modular inverse above p, and returned
with the root found there."""

import gc
import itertools
import json
import math
import random
import weakref

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
    factor_squarefree,
    gen_instance,
    parse_instance,
    poly_gcd,
    standard_parametrization,
)
from hypercircles.generators import canonical_minpoly, cyclotomic_minpoly
from hypercircles.hypercircle import GOOD, SINGULAR, conjugacy_classes
from hypercircles import hypercircle, modp
from hypercircles.intpoly import gf_diff, gf_eval, gf_gcd, is_prime, primes
from hypercircles.modp import (
    _PRIME_START,
    _Split,
    _candidate,
    _expand,
    _extend,
    _interpolate,
    _level_poly,
    _rat_rec,
    _split_primes,
    _values,
    fold_common_root,
    nf_gcd,
)
from hypercircles.numberfield import ConjugacyClass, integral_ops

from oracles import euclid_gcd, extend_by_root_finding, solve_by_digits, values_by_dot_products


def make_K():
    return NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 1]), "a")


def make_L():
    K = make_K()
    return NumberField(K, UniPoly(K, [K.gen + K.one, K.zero, K.one]), "b")


def make_M():
    """A depth-3 tower: L(c) with c^2 = b."""
    L = make_L()
    return NumberField(L, UniPoly(L, [-L.gen, L.zero, L.one]), "c")


def make_size4():
    """The relative field of the class of size 4 of x^5 - 2."""
    quintic = NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 0, 1]), "a")
    (size4,) = [c for c in conjugacy_classes(quintic)[1] if c.size == 4]
    return size4.relative_field


def sextic_classes():
    sextic = NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 0, 0, 1]), "a")
    return conjugacy_classes(sextic)[1]


def make_over1():
    """A depth-3 tower over a degree-1 level: c^2 = -b over the relative
    field of the class of size 1 of x^6 - 2."""
    size1 = next(c.relative_field for c in sextic_classes() if c.size == 1)
    return NumberField(size1, UniPoly(size1, [size1.gen, size1.zero, size1.one]), "c")


def make_field(label):
    return {
        "Q": lambda: QQ,
        "K": make_K,
        "L": make_L,
        "M": make_M,
        "over1": make_over1,
        "size4": make_size4,
    }[label]()


def split_primes(field, count=1):
    """The first `count` totally split primes of the field's tower."""
    return [sp.p for sp in itertools.islice(_split_primes(field), count)]


def spy(monkeypatch, name):
    """Record each call of the modp function `name` as (args, result), with
    the result "bad" when it raised BadPrime."""
    calls = []
    inner = getattr(modp, name)

    def recorded(*args):
        try:
            out = inner(*args)
        except modp.BadPrime:
            calls.append((args, "bad"))
            raise
        calls.append((args, out))
        return out

    monkeypatch.setattr(modp, name, recorded)
    return calls


def image_degrees(calls):
    """(prime, image degrees) of each recorded `_image` call."""
    return [
        (args[0].p, out if out == "bad" else sorted({len(g) - 1 for g in out[0]}))
        for args, out in calls
    ]


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


def lifted(polys, field):
    """The polynomials as the coefficient vectors `fold_common_root` takes."""
    ops = integral_ops(field)
    return [ops.lift(q.coeffs) for q in polys]


def fold(polys, field):
    """`fold_common_root` on the polynomials as (kind, payload), once the
    embedding it returns is checked: a root always carries the one it was
    found at (`check_kept`), and the other outcomes carry none."""
    family = lifted(polys, field)
    kind, payload, kept = fold_common_root(family, field)
    if kind == "root":
        check_kept(field, family, payload, kept)
    else:
        assert kept is None
    return kind, payload


def lift_exponents():
    """The exponents e of the precisions p^e that `_Split.lifted` lifts to
    after p: doubling up to 8, then growing by half: 2, 4, 8, 12, 18, ..."""
    e = 1
    while True:
        e = 2 * e if e < 8 else e + e // 2
        yield e


def check_kept(field, family, s, kept):
    """kept is a split record of field at its prime p or at one of the
    lift's precisions q = p^e (`lift_exponents`), its rows agree mod p with
    field's record at p, they send s to a root of every input mod q, and
    its tables give s's coordinates back from its values."""
    p, q, rows, tables = kept.p, kept.q, kept.rows, kept.tables
    assert (kept.levels[-1][0] if kept.levels else QQ) is field
    m = p
    exponents = lift_exponents()
    while m < q:
        m = p ** next(exponents)
    assert m == q == p**kept.e
    sp = next(sp for sp in _split_primes(field) if sp.p >= p)
    assert sp.p == p and [[x % p for x in row] for row in rows] == sp.rows
    (vec,), den = integral_ops(field).lift([s])
    at_s = [v[0] * pow(den, -1, q) % q for v in _values(rows, [vec], q)]
    for vecs, _ in family:
        for f, x in zip(_values(rows, vecs, q), at_s):
            assert gf_eval(f, x, q) == 0
    assert _interpolate(tables, at_s, q) == [x * pow(den, -1, q) % q for x in vec]


def lifts_to(sp, kept):
    """Whether the record kept is sp or one of its lifts (`_Split.lifted`)."""
    at = sp
    while at.q < kept.q:
        at = at.lifted()
    return at.q == kept.q and at.levels == kept.levels and at.rows == kept.rows


def lifted_roots(calls):
    """(prime, gcd) of each recorded `_lift_root` call: x - s0, returned
    with the call's own record or a lift of it, or 1, returned with none."""
    out = []
    for args, (h, kept) in calls:
        sp = args[3]
        if h.degree == 1:
            assert kept is sp or lifts_to(sp, kept)
        else:
            assert h.degree == 0 and kept is None
        out.append((sp.p, h))
    return out


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


def bottom(p):
    """The record of the rationals at p, the base of every level-1 record."""
    return _Split(p, (), [[1]])


def test_split_test_refuses_a_prime_that_splits_only_partly():
    # x^2 + 1 splits mod p exactly when p = 1 mod 4.  Over Q(r), r^2 = 2,
    # which splits when p = +-1 mod 8, the level i^2 = -1 splits only when
    # p = 1 mod 8: at p = 7 mod 8 the tower splits at its first level only.
    qi = NumberField(QQ, UniPoly(QQ, [1, 0, 1]), "i")
    r2 = NumberField(QQ, UniPoly(QQ, [-2, 0, 1]), "r")
    over = NumberField(r2, UniPoly(r2, [r2.one, r2.zero, r2.one]), "i")
    residues = set()
    for p in itertools.islice(primes(_PRIME_START), 40):
        sp = _extend(qi, bottom(p))
        assert (sp is not None) == (p % 4 == 1)
        if sp is not None:
            assert sorted(r * r % p for r in sp.levels[0][1]) == [p - 1] * 2
        below = _extend(r2, bottom(p))
        assert (below is not None) == (p % 8 in (1, 7))
        if below is not None:
            assert (_extend(over, below) is None) == (p % 8 == 7)
        residues.add(p % 8)
    assert residues == {1, 3, 5, 7}
    assert all(p % 4 == 1 for p in split_primes(qi, 5))
    assert all(p % 8 == 1 for p in split_primes(over, 5))


def test_split_test_refuses_a_prime_dividing_a_level_discriminant():
    # (x - 1)^2 - p over Q, and x^2 - p over Q(i), have discriminants 4p:
    # mod p their roots meet, so p is refused although they split there
    p = next(q for q in primes(_PRIME_START) if q % 4 == 1)
    field = NumberField(QQ, UniPoly(QQ, [1 - p, -2, 1]), "a")
    assert _extend(field, bottom(p)) is None
    assert p not in split_primes(field, 4)
    qi = NumberField(QQ, UniPoly(QQ, [1, 0, 1]), "i")
    over = NumberField(qi, UniPoly(qi, [-p, 0, 1]), "b")
    below = _extend(qi, bottom(p))
    assert below is not None and _extend(over, below) is None
    assert p not in split_primes(over, 4)


def levels_of(field):
    """The fields of a tower, bottom-up."""
    out = []
    while isinstance(field, NumberField):
        out.append(field)
        field = field.base
    return out[::-1]


def test_known_roots_give_the_records_of_root_finding():
    # at each level, the record built from the lower levels' roots equals
    # the one of the x^p test and Cantor-Zassenhaus: the same prime, the
    # same sorted roots and the same rows; the first level is tried at
    # split and non-split primes alike, the others at their base's records
    x = UniPoly.gen(QQ)
    fields = list(parity_fields().values())
    for minpoly in (x**5 - 2, x**6 - 2, x**3 - 2, cyclotomic_minpoly(7)):
        field = NumberField(QQ, minpoly, "a")
        fields += [c.relative_field for c in conjugacy_classes(field)[1]]
    for top in fields:
        for level in levels_of(top):
            if level._level1:
                belows = [bottom(p) for p in itertools.islice(primes(_PRIME_START), 6)]
            else:
                belows = itertools.islice(_split_primes(level.base), 3)
            for below in belows:
                got = _extend(level, below)
                want = extend_by_root_finding(level, below)
                if want is None:
                    assert got is None, level
                else:
                    assert (got.p, got.levels, got.rows) == (want.p, want.levels, want.rows)


def rescaled_class_field():
    """The class field of x^3 - x/2 + 1/3: its generator is rescaled by
    36, its base's by 6."""
    field = parity_fields()["rescaled"]
    (cls,) = conjugacy_classes(field)[1]
    assert (field._scale, cls.relative_field._scale) == (6, 36)
    return cls.relative_field


@pytest.mark.parametrize(
    "make, base_degree", [(make_size4, 5), (rescaled_class_field, 3)], ids=["x5-2", "rescaled"]
)
def test_class_field_roots_come_from_the_base(make, base_degree, monkeypatch):
    # a class field's polynomial divides its base's over K(alpha), so its
    # roots at a split prime are among the base's, rescaled: Cantor-
    # Zassenhaus runs only on the first level's polynomial
    field = make()
    degrees = []
    inner = modp.gf_edf

    def recorded(f, *args):
        degrees.append(len(f) - 1)
        return inner(f, *args)

    monkeypatch.setattr(modp, "gf_edf", recorded)
    assert len(split_primes(field, 5)) == 5
    assert degrees and set(degrees) == {base_degree}


def test_partly_known_roots_fall_back_to_root_finding():
    # at K's first split prime p, the cubic (x - s)(x - 1)(x - 2) mod p, s
    # a square root of 2 mod p, lifted to Z: one of its roots is a's value
    # and two are not, so the record comes from root finding, and it
    # splits there
    field = NumberField(QQ, UniPoly(QQ, [-2, 0, 1]), "a")
    below = next(_split_primes(field))
    p = below.p
    s = below.levels[0][1][0]
    cubic = [(-s * 2) % p, (s * 3 + 2) % p, (-s - 3) % p, 1]
    over = NumberField(field, UniPoly(field, cubic), "c")
    assert factor_squarefree(over.minpoly, field) == [over.minpoly]
    got = _extend(over, below)
    assert got is not None and got.levels[-1][1][:2] == [1, 2]
    assert got.levels == extend_by_root_finding(over, below).levels


def test_gcd_skips_a_prime_dividing_a_denominator(monkeypatch):
    # a / p0 reduces at no embedding of the first split prime p0: that
    # image is refused, and the next split prime gives the gcd
    field = make_K()
    x = UniPoly.gen(field)
    p0, p1 = split_primes(field, 2)
    s = field.gen / p0
    images = spy(monkeypatch, "_image")
    assert nf_gcd([(x - s) * (x + 1), (x - s) * (x - 2)], field) == x - s
    assert image_degrees(images) == [(p0, "bad"), (p1, [1])]


@pytest.mark.parametrize("label", ["K", "L"])
def test_fold_matches_exact_gcd(label):
    field = make_K() if label == "K" else make_L()
    rng = random.Random(5)
    for trial in range(10):
        polys = [rand_poly(rng, field, rng.randint(2, 5)) for _ in range(3)]
        ex = exact_fold(polys)
        kind, payload = fold(polys, field)
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
        kind, payload = fold(polys, field)
        if ex.degree == 1:
            assert kind == "root" and payload == s
        else:
            assert kind == "degree"


@pytest.mark.parametrize("label", ["K", "L", "M"])
def test_fold_handles_big_coordinates(label):
    # roots whose coordinates need a p-adic lift of the degree-1 image's
    # root
    field = make_field(label)
    rng = random.Random(11)
    for trial in range(3):
        s = rand_elem(rng, field, bound=10**12)
        root = UniPoly(field, [-s, field.one])
        polys = [root * rand_poly(rng, field, 2) for _ in range(2)]
        kind, payload = fold(polys, field)
        assert kind == "root" and payload == s


def test_fold_constant_poly_means_empty():
    field = make_K()
    one = UniPoly(field, [field.one])
    t = UniPoly(field, [field.zero, field.one])
    assert fold([one, t], field) == ("empty", None)


def test_fold_lone_input_is_made_monic():
    # one nonzero polynomial, as when every other component vanishes at t:
    # -g[0] is its root only once the image is monic
    field = make_K()
    a = field.gen
    q = UniPoly(field, [-(a**2 + 3), 2])
    assert fold([q], field) == ("root", (a**2 + 3) / 2)
    x = UniPoly.gen(field)
    assert fold([2 * x**2 + a], field) == ("degree", 2)


@pytest.mark.parametrize("label", ["Q", "K", "L", "M", "over1", "size4"])
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


def test_gcd_skips_a_prime_that_kills_a_leading_coefficient(monkeypatch):
    # At the first split prime p the leading coefficient p vanishes; the
    # reduced inputs would then be coprime although the gcd is x - 1/p.
    field = make_K()
    a = field.gen
    x = UniPoly.gen(field)
    p, p1 = split_primes(field, 2)
    f = (p * x - 1) * (x - a)
    g = (p * x - 1) * (x + 2)
    images = spy(monkeypatch, "_image")
    assert poly_gcd(f, g) == x - Rational(1, p)
    assert image_degrees(images) == [(p, "bad"), (p1, [1])]


def test_gcd_discards_an_unlucky_prime(monkeypatch):
    # x - p and x share a root mod p, so at the split prime p the image has
    # a spurious factor: as the first image, which the next prime's lower
    # degree replaces, and after a lucky image, where it is skipped.  A
    # degree-1 lucky first image is lifted p-adically and never meets p1,
    # so the planted quadratic keeps the CRT loop on that path.
    field = make_L()
    b = field.gen
    x = UniPoly.gen(field)
    p0, p1 = split_primes(field, 2)
    images = spy(monkeypatch, "_image")
    assert poly_gcd((x - b) * (x - p0), (x - b) * x) == x - b
    assert image_degrees(images) == [(p0, [2]), (p1, [1])]
    big = b + 10**40  # its coordinates need many primes of CRT
    images.clear()
    lifts = spy(monkeypatch, "_lift_root")
    assert poly_gcd((x - big) * (x - p1), (x - big) * x) == x - big
    assert image_degrees(images) == [(p0, [1])]
    assert lifted_roots(lifts) == [(p0, x - big)]
    h = x**2 + big * x - 3 * big
    images.clear()
    crts = spy(monkeypatch, "_crt")
    assert poly_gcd(h * (x - p1), h * x) == h
    assert image_degrees(images)[:2] == [(p0, [2]), (p1, [3])]
    assert [args[3] for args, _ in crts] == [args[0].p for args, _ in images[2:]]


def test_lift_detects_an_unlucky_first_prime(monkeypatch):
    # mod p0 both inputs are x, so the first image is x - 0; the gcd is 1,
    # and the lifted root of either input stops being a root of the other
    # (with x first the lifted root 0 reconstructs, and only the trial
    # division rejects x), which proves the gcd 1 with no second image
    field = make_L()
    x = UniPoly.gen(field)
    (p0,) = split_primes(field, 1)
    one = UniPoly.one(field)
    images = spy(monkeypatch, "_image")
    lifts = spy(monkeypatch, "_lift_root")
    assert nf_gcd([x - p0, x], field) == one
    assert nf_gcd([x, x - p0], field) == one
    assert nf_gcd([x - 1, x - 1 - p0, x - 1], field) == one
    assert lifted_roots(lifts) == [(p0, one)] * 3
    assert image_degrees(images) == [(p0, [1])] * 3


def test_lift_skips_an_input_with_a_double_root_mod_p(monkeypatch):
    # s and s + p0 meet mod p0, so at every embedding the first input has a
    # double root there (its derivative vanishes) and the lift must run on
    # the second
    field = make_L()
    b = field.gen
    x = UniPoly.gen(field)
    sp = next(_split_primes(field))
    p0 = sp.p
    s = b * 10**40 + Rational(1, 3)
    f = (x - s) * (x - s - p0) * (x + b)
    g = (x - s) * (x - 2)
    for fk in _values(sp.rows, integral_ops(field).lift(f.coeffs)[0], p0):
        assert len(gf_gcd(fk, gf_diff(fk, p0), p0)) > 1
    lifts = spy(monkeypatch, "_lift_root")
    assert nf_gcd([f, g], field) == x - s
    assert nf_gcd([g, f], field) == x - s
    assert lifted_roots(lifts) == [(p0, x - s)] * 2


def parity_fields():
    """Towers whose evaluation at a split prime is checked."""
    classes = sextic_classes()
    return {
        "x5-2 size 4": make_size4(),
        "L": make_L(),
        "x6-2 size 2": next(c.relative_field for c in classes if c.size == 2),
        "x6-2 size 1": next(c.relative_field for c in classes if c.size == 1),
        "depth 3": make_M(),
        "depth 3 over degree 1": make_over1(),
        # x^3 - x/2 + 1/3: the generator is rescaled by 6
        "rescaled": NumberField(
            QQ, UniPoly(QQ, [Rational(1, 3), Rational(-1, 2), 0, 1]), "a"
        ),
    }


def summary(g):
    """`fold_common_root`'s summary of the monic gcd g."""
    if g.degree == 0:
        return ("empty", None)
    if g.degree == 1:
        return ("root", -g.coeffs[0])
    return ("degree", g.degree)


def test_vector_fold_agrees_with_nf_gcd():
    # the fold on coefficient vectors and nf_gcd on UniPolys, over Q and
    # every tower of the parity check, for each outcome
    rng = random.Random(61)
    seen = set()
    fields = {"Q": QQ, **parity_fields()}
    for name, field in fields.items():
        for planted in (0, 1, 2):
            h = rand_monic(rng, field, planted)
            polys = [h * rand_poly(rng, field, rng.randint(1, 2)) for _ in range(3)]
            expected = summary(nf_gcd(polys, field))
            assert fold(polys, field) == expected, name
            seen.add((name, expected[0]))
    assert len(seen) == 3 * len(fields)


@pytest.mark.parametrize("label", ["K", "L", "over1", "size4"])
def test_candidate_refuses_a_bumped_root(label):
    # the residues of x - s's lower coefficient give x - s; each one moved
    # by 1 in one coordinate still reconstructs, to a value that is no
    # root, and the integer Horner proof refuses it
    field = make_field(label)
    rng = random.Random(71)
    x = UniPoly.gen(field)
    s = rand_elem(rng, field)
    family = lifted([(x - s) * rand_poly(rng, field, 2) for _ in range(2)], field)
    m = (1 << 127) - 1
    c = -s
    v = [w * pow(c.den, -1, m) % m for w in c.ic]
    assert _candidate(field, family, v, m) == x - s
    for k in range(len(v)):
        bumped = v[:k] + [(v[k] + 1) % m] + v[k + 1 :]
        assert _rat_rec(bumped[k], m) is not None
        assert _candidate(field, family, bumped, m) is None


def values_at(rows, e, q):
    """The values mod q of the element e at the embeddings of rows."""
    dinv = pow(e.den, -1, q)
    return [v[0] * dinv % q for v in _values(rows, [e.ic], q)]


def lifted_at(sp, power):
    """(rows, tables) of sp at p^power: its own at p, and otherwise those
    of its lift there (`_Split.lifted`)."""
    q, at = sp.p**power, sp
    while at.q < q:
        at = at.lifted()
    assert at.q == q
    return at.rows, at.tables


def interpolation_fields():
    """The parity fields with Q, Q(i) and Q(2^(1/5)) as (name, field, split
    record at the first split prime): absolute degrees 1, 2, 3, 5, 6, 8,
    12, 16 and 20, degree-1 levels included."""
    fields = {
        "Q": QQ,
        "x2+1": NumberField(QQ, UniPoly(QQ, [1, 0, 1]), "i"),
        "x5-2": NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 0, 1]), "a"),
        **parity_fields(),
    }
    return [(name, field, next(_split_primes(field))) for name, field in fields.items()]


INTERPOLATION_CASES = interpolation_fields()
INTERPOLATION_POWERS = (1, 2, 12, 18)
_LIFTED = {}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_interpolation_inverts_evaluation(data):
    # at the first split prime p and at the lift's p^2, p^12 and p^18, on
    # every absolute degree of the benchmark's fields and more: the tables
    # give back any coordinates from their values, and any values come
    # from the coordinates they give, which Dixon's digit solve from the
    # Gauss-Jordan inverse mod p gives too
    name, field, sp = data.draw(st.sampled_from(INTERPOLATION_CASES), label="field")
    power = data.draw(st.sampled_from(INTERPOLATION_POWERS), label="power")
    if (name, power) not in _LIFTED:
        _LIFTED[name, power] = lifted_at(sp, power)
    rows, tables = _LIFTED[name, power]
    p = sp.p
    q = p**power
    n = field.absolute_degree
    assert len(rows) == n and [[x % p for x in row] for row in rows] == sp.rows
    vector = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    c = data.draw(vector, label="coordinates")
    assert _interpolate(tables, [v[0] for v in _values(rows, [c], q)], q) == c
    vals = data.draw(vector, label="values")
    got = _interpolate(tables, vals, q)
    assert got == solve_by_digits(p, rows, vals, q)
    assert [v[0] for v in _values(rows, [got], q)] == vals


@pytest.mark.parametrize("power", [1, 2, 4])
def test_evaluation_then_interpolation_round_trips(power):
    # at the first split prime p, the evaluation matrix (power 1) and its
    # lifts mod p^2 and p^4: coordinates come back from their values by
    # the interpolation tables there, and the values of a product are the
    # products of the values, so each row is a ring homomorphism of the
    # tower mod p^power
    rng = random.Random(power)
    fields = parity_fields()
    assert fields["rescaled"]._scale == 6
    for name, field in fields.items():
        sp = next(_split_primes(field))
        p = sp.p
        q = p**power
        rows, tables = lifted_at(sp, power)
        n = field.absolute_degree
        assert len(rows) == n and len({tuple(r) for r in rows}) == n, name
        assert values_at(rows, field.one, q) == [1] * n, name
        for _ in range(4):
            c = [rng.randrange(q) for _ in range(n)]
            vals = [v[0] for v in _values(rows, [c], q)]
            assert _interpolate(tables, vals, q) == c, name
            a, b = rand_elem(rng, field), rand_elem(rng, field)
            ab = [x * y % q for x, y in zip(values_at(rows, a, q), values_at(rows, b, q))]
            assert values_at(rows, a * b, q) == ab, name


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
    assert fold(polys, rel) == ("degree", 2)
    assert classify_parameter(psi, psi_id, 1).kind == SINGULAR


PACKED_DEGREES = (1, 2, 5, 6, 12, 20)
PACKED_POWERS = (1, 2, 16)
PACKED_BITS = (0, 1, 20, 64, 200, 1000, 3000)


def packed_case(n, k, q, r, m, rng, at_bound):
    """(rows, vecs) for `_values`: r rows of n values mod q and k vectors
    of n entries of at most about m in absolute value.  At the slot bound
    every row entry is q - 1 and each vector's entries are all m or all
    -m, so that every value is +-n (q - 1) m; when m >= q, where the
    entries are reduced, they are all m q - 1 or all -m q - 1, whose
    residues are q - 1, so that every value is n (q - 1)^2.  Otherwise
    they are random, with zero vectors."""
    if at_bound:
        ends = (m, -m) if m < q else (m * q - 1, -m * q - 1)
        return [[q - 1] * n for _ in range(r)], [[rng.choice(ends)] * n for _ in range(k)]
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
    vecs = [
        [0] * n if rng.random() < 0.25 else [rng.randint(-m, m) for _ in range(n)]
        for _ in range(k)
    ]
    return rows, vecs


def check_packed(rows, vecs, q):
    want = values_by_dot_products(rows, vecs, q)
    assert modp._packed_values(rows, vecs, q) == want
    assert _values(rows, vecs, q) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_evaluation_matches_the_dot_products(data):
    # `_values`, and its packed path on every shape, against one dot
    # product per value: N the absolute degrees of the benchmark's fields
    # and more, k up to 40, q = p, p^2 and p^16, entries of either sign up
    # to 3000 bits, zero vectors, and entries at the slot bound; M just
    # below q keeps the entries, M = q reduces them
    n = data.draw(st.sampled_from(PACKED_DEGREES), label="N")
    k = data.draw(st.integers(1, 40), label="k")
    q = next(primes(_PRIME_START)) ** data.draw(st.sampled_from(PACKED_POWERS), label="power")
    r = data.draw(st.integers(1, n), label="rows")
    bits = data.draw(st.sampled_from(PACKED_BITS), label="bits")
    m = data.draw(st.sampled_from(((1 << bits) - 1, q - 1, q)), label="M")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    at_bound = data.draw(st.booleans(), label="at the slot bound")
    check_packed(*packed_case(n, k, q, r, m, rng, at_bound), q)


def test_packed_evaluation_at_the_slot_bound():
    # every N, q and entry size of the property test at the slot bound,
    # where a slot one byte too narrow, or a bias that q does not divide,
    # reads a wrong value; also at the prime 2^28 - 57, where (q - 1)^2
    # fills 7 bytes and 20 (q - 1)^2 needs 8
    rng = random.Random(83)
    p = next(primes(_PRIME_START))
    moduli = [p**power for power in PACKED_POWERS] + [(1 << 28) - 57]
    for n, q, bits in itertools.product(PACKED_DEGREES, moduli, PACKED_BITS):
        for m in ((1 << bits) - 1, q - 1, q):
            check_packed(*packed_case(n, 3, q, n, m, rng, True), q)


def test_the_packing_rule_counts_digit_work(monkeypatch):
    # tower5's lift shape at the class field, N = R = 20 and k = 7: packed
    # at q = p^8 and p^12, where it took about 0.7 and 0.86 times the
    # plain loop, and plain at q = p^16, where its wider slots cost more
    # digit work than packing saves in steps
    p = next(primes(_PRIME_START))
    rng = random.Random(16)
    packed = spy(monkeypatch, "_packed_values")
    for power, want in ((8, 1), (12, 1), (16, 0)):
        q = p**power
        rows, vecs = packed_case(20, 7, q, 20, (1 << 200) - 1, rng, False)
        packed.clear()
        assert _values(rows, vecs, q) == values_by_dot_products(rows, vecs, q)
        assert len(packed) == want, power


def spy_lifted(monkeypatch):
    """Record each `_Split.lifted` call as (record, its lift)."""
    calls = []
    inner = modp._Split.lifted

    def recorded(self):
        out = inner(self)
        calls.append((self, out))
        return out

    monkeypatch.setattr(modp._Split, "lifted", recorded)
    return calls


def test_a_class_lifts_its_embedding_once(monkeypatch):
    # the seed-0 defined x^5 - 2, d = 6 instance has one class, of size 4,
    # whose first good sample lifts its root at one split prime, one
    # `_expand` per level and precision, each record lifted from the one
    # before; the GOOD verdict carries the last lift, the record of the
    # last step's levels, rows and tables, and the 2-jet that gives u reads
    # it with no lifting and no `_expand` of its own
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(5), seed=0)
    _, psi = parse_instance(json.dumps(doc))
    lifts = spy(monkeypatch, "_lift_root")
    liftings = spy_lifted(monkeypatch)
    steps = spy(monkeypatch, "_lift_levels")
    expands = spy(monkeypatch, "_expand")
    jet = hypercircle._jet_u
    in_jet = []

    def watched(*args):
        before = len(liftings), len(expands)
        u = jet(*args)
        in_jet.append((len(liftings) - before[0], len(expands) - before[1]))
        return u

    monkeypatch.setattr(hypercircle, "_jet_u", watched)
    res = standard_parametrization(psi)
    (rep,) = res.reports
    assert res.defined and rep.parameters_tried == 1
    (v,) = rep.verdicts
    ((args, (h, kept)),) = lifts
    sp = args[3]
    assert v.kind == GOOD and h == UniPoly(v.s.field, [-v.s, 1])
    # the steps of the lift, not the tables at p, built at q = qq = p
    steps = [out for (_, _, q, qq), out in steps if qq > q]
    levels, rows, (tables, _) = steps[-1]
    assert v.kept is kept and kept is liftings[-1][1]
    assert (kept.levels, kept.rows, kept.tables) == (levels, rows, tables)
    assert [r for r, _ in liftings] == [sp] + [r for _, r in liftings[:-1]]
    assert in_jet == [(0, 0)]
    lifted = [(args[3], args[2]) for args, _ in expands if args[3] > sp.p]
    assert len(lifted) == len(set(lifted))
    assert {n for _, n in lifted} == {5, 4}
    exponents = list(itertools.islice(lift_exponents(), len(steps)))
    assert exponents[:4] == [2, 4, 8, 12]
    assert [q for q, _ in lifted] == [sp.p**e for e in exponents for _ in "ab"]
    assert [r.q for _, r in liftings] == [sp.p**e for e in exponents]


def test_the_tables_at_p_are_built_once_per_record(monkeypatch):
    # over a tower5-shaped decision, the seed-0 defined x^5 - 2, d = 6
    # instance, whose class lifts its root to p^12: each record of a number
    # field builds its tables at p once, and its lifts refine the inverses
    # they were built with instead of building them again (a record of Q
    # is made anew for each gcd over Q)
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(5), seed=0)
    _, psi = parse_instance(json.dumps(doc))
    builds = spy(monkeypatch, "_lift_levels")
    liftings = spy_lifted(monkeypatch)
    assert standard_parametrization(psi).defined
    at_p = [args for args, _ in builds if args[0] and args[-2] == args[-1]]
    keys = [(tuple(id(level[0]) for level in args[0]), args[-1]) for args in at_p]
    assert liftings and at_p and len(keys) == len(set(keys))


def test_a_kept_record_lifts_on():
    # the fixing class's GOOD verdict on the seed-0 defined x^5 - 2, d = 6
    # instance reconstructed its root at p^12: its record lifts on to
    # p^18 and leaves its own roots as they were, and the 2-jet at the
    # lifted record gives the same u
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(5), seed=0)
    _, psi = parse_instance(json.dumps(doc))
    (rep,) = standard_parametrization(psi).reports
    (v,) = rep.verdicts
    kept = v.kept
    p, roots = kept.p, [list(rs) for _, rs in kept.levels]
    assert v.kind == GOOD and kept.q == p**12
    lifted = kept.lifted()
    assert lifted.q == p**18 and lifted.p == p and lifted.e == 18
    assert [list(rs) for _, rs in kept.levels] == roots
    assert [[r % kept.q for r in rs] for _, rs in lifted.levels] == roots
    on = hypercircle.ParameterVerdict(GOOD, v.t, v.s, lifted)
    u = hypercircle._jet_u(psi, psi.conjugate(rep.cls), on)
    assert u is not None and str(u) == str(rep.u)


def test_every_modular_inverse_is_mod_p(monkeypatch):
    # in the seed-0 defined x^5 - 2, d = 6 decision, whose class lifts its
    # root to p^12, modp inverts only mod a split prime: the lift refines
    # each level root's inverse of the derivative by Newton's iteration,
    # and interpolation at every precision inverts nothing
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(5), seed=0)
    _, psi = parse_instance(json.dumps(doc))
    moduli = []

    def counted(x, e, *mod):
        if e == -1:
            moduli.append(*mod)
        return pow(x, e, *mod)

    monkeypatch.setattr(modp, "pow", counted, raising=False)
    res = standard_parametrization(psi)
    (v,) = res.reports[0].verdicts
    p = v.kept.p
    assert res.defined and v.kept.q == p**12
    assert p in moduli
    assert all(m >= _PRIME_START and is_prime(m) for m in moduli)


def test_each_lift_step_is_one_newton_step(monkeypatch):
    # the precisions start at p, double to p^8 and then grow by half, each
    # at most the square of the one before, so every step is one valid
    # Newton step; after each, every level's lifted roots are roots of its
    # polynomial mod the new precision over the lifted embeddings below,
    # they agree with sp's roots mod p, they give the new record's rows,
    # its tables invert those rows, and its inverses are those of f' at
    # its roots; no record's roots change as it is lifted
    inner = modp._lift_levels
    for name, field in parity_fields().items():
        sp = next(_split_primes(field))
        p = sp.p
        seen = []

        def watched(levels, inverses, q, qq):
            out = inner(levels, inverses, q, qq)
            if qq != q:  # a step, not the tables at p
                seen.append((q, out))
            return out

        monkeypatch.setattr(modp, "_lift_levels", watched)
        records = [sp]
        for _ in range(7):
            roots = [list(rs) for _, rs in records[-1].levels]
            records.append(records[-1].lifted())
            assert [list(rs) for _, rs in records[-2].levels] == roots, name
        monkeypatch.undo()
        qs = [r.q for r in records]
        assert qs == [p**e for e in (1, 2, 4, 8, 12, 18, 27, 40)], name
        before = p
        for (q, (levels, rows, (tables, inverses))), rec in zip(seen, records[1:], strict=True):
            qq = rec.q
            assert q == before and before < qq <= before * before, name
            assert (rec.levels, rec.rows, rec.tables) == (levels, rows, tables), name
            before = qq
            prows = [[1]]
            for (lf, rs), (lf_p, rs_p), ws in zip(levels, sp.levels, inverses, strict=True):
                assert lf is lf_p and [r % p for r in rs] == rs_p, name
                n = lf.degree
                for j, prow in enumerate(prows):
                    f = _level_poly(lf, prow, qq)
                    for c in range(j * n, j * n + n):
                        assert gf_eval(f, rs[c], qq) == 0, name
                        assert gf_eval(gf_diff(f, qq), rs[c], qq) * ws[c] % qq == 1, name
                prows = _expand(prows, rs, n, qq)
            assert prows == rows, name
            c = [(k * k + 1) % qq for k in range(len(rows))]
            assert _interpolate(tables, [v[0] for v in _values(rows, [c], qq)], qq) == c, name


def _doubling(self):
    """`_Split.lifted` at the precisions p^(2^k): the lift's schedule before
    it grew by half from p^8 on."""
    levels, rows, built = modp._lift_levels(self.levels, self._interpolation()[1], self.q, self.q**2)
    return _Split(self.p, levels, rows, 2 * self.e, built)


def test_a_tower5_root_and_u_come_back_at_p12(monkeypatch):
    # the seed-0 defined x^5 - 2, d = 6 instance: its one class's first good
    # sample reconstructs its root at p^12, where the doubling lift went on
    # to p^16, and the root, the 2-jet's u and phi are the same
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(5), seed=0)
    _, psi = parse_instance(json.dumps(doc))
    got = standard_parametrization(psi)
    monkeypatch.setattr(_Split, "lifted", _doubling)
    want = standard_parametrization(psi)
    (rep,), (ref,) = got.reports, want.reports
    (v,), (w,) = rep.verdicts, ref.verdicts
    p = v.kept.p
    assert v.kept.q == p**12 and w.kept.q == p**16
    # each decision builds its own class field: compared as printed
    assert v.kind == w.kind == GOOD and str(v.s) == str(w.s)
    assert str(rep.u) == str(ref.u)
    assert got.phi == want.phi


def test_a_root_found_at_p_carries_its_record():
    # a root that reconstructs from one image at p comes back with that
    # image's record at q = p: the field's first split record, or the next
    # one when an input's denominator vanishes at the first
    field = make_K()
    x = UniPoly.gen(field)
    s = field.gen + 1
    sp0, sp1 = itertools.islice(_split_primes(field), 2)
    for c, sp in ((1, sp0), (Rational(1, sp0.p), sp1)):
        family = lifted([(x - s) * (x + c), (x - s) * (x - 2)], field)
        kind, root, kept = fold_common_root(family, field)
        assert (kind, root) == ("root", s)
        assert kept is sp and kept.q == sp.p and kept.e == 1


def test_a_decision_leaves_no_field_alive():
    # once its result is dropped, nothing in the package holds a decision's
    # class field: the embedding a root was found at goes with the verdict
    # that carries it
    def decide():
        doc = gen_instance("defined", 6, minpoly=canonical_minpoly(5), seed=0)
        _, psi = parse_instance(json.dumps(doc))
        res = standard_parametrization(psi)
        assert res.defined
        return weakref.ref(res.reports[0].cls.relative_field)

    field = decide()
    gc.collect()
    assert field() is None


def test_a_coprime_family_is_settled_at_the_first_embedding(monkeypatch):
    # on the seed-0 defined x^5 - 2, d = 6 decision every coprime family
    # (the normalizations of its parse and of phi, and the squarefree check
    # of M) is reduced at one embedding only, its gcds chained once there
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(5), seed=0)
    rows, chains = [], []
    values, gcd, inner = modp._values, modp.gf_gcd, modp._gcd
    monkeypatch.setattr(modp, "_values", lambda r, *a: rows.append(len(r)) or values(r, *a))
    monkeypatch.setattr(modp, "gf_gcd", lambda *a: chains.append(1) or gcd(*a))
    coprime = []

    def watched(family, field):
        rows.clear()
        chains.clear()
        g, kept = inner(family, field)
        if g.degree == 0 and rows:
            coprime.append((len(family), list(rows), len(chains)))
        return g, kept

    monkeypatch.setattr(modp, "_gcd", watched)
    _, psi = parse_instance(json.dumps(doc))
    assert standard_parametrization(psi).defined
    assert len(coprime) >= 3
    for size, made, chained in coprime:
        assert set(made) == {1} and len(made) <= size and chained < size


def test_a_leading_coefficient_vanishing_at_a_later_embedding_spares_the_prime(
    monkeypatch,
):
    # z = a - r, r the value of a at the second embedding of the first split
    # prime p0, is a unit at the first embedding and vanishes at the second:
    # z x + 1 and x are coprime at the first, which proves the gcd 1 at p0
    # although z x + 1 is not admissible at every embedding there
    field = make_K()
    x = UniPoly.gen(field)
    sp = next(_split_primes(field))
    r = sp.rows[1][1]
    assert (sp.rows[0][1] - r) % sp.p
    f = (field.gen - r) * x + 1
    images = spy(monkeypatch, "_image")
    assert nf_gcd([f, x], field) == UniPoly.one(field)
    assert nf_gcd([x, f], field) == UniPoly.one(field)
    assert image_degrees(images) == [(sp.p, [0])] * 2
