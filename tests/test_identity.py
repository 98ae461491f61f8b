"""The exact identity proof psi == psi^sigma o u: the quadratic Moebius
composition on packed integers against the per-element Horner scheme and
the term-by-term reference, its slot widths against the exact
accumulators, its regular-representation and block-by-block products
against `_tmul`, and `verify_identity` (psi o u^-1 against psi^sigma)
against the forward composition psi^sigma o u, cross-multiplication and
evaluation on generated instances, with one composition per distinct
polynomial of psi."""

import functools
import itertools
import json
import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import (
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    Rational,
    UniPoly,
    conjugacy_classes,
    gen_instance,
    parse_instance,
    standard_parametrization,
    verify_identity,
)
from hypercircles import hypercircle
from hypercircles.generators import canonical_minpoly
from hypercircles.hypercircle import compute_u_for_class
from hypercircles.numberfield import NFElement, integral_ops
from hypercircles.ratfunc import (
    MoebiusTransform,
    moebius_compose_pair,
    moebius_composer,
)

from oracles import (
    cubic_compose_pair,
    horner_compose_pair,
    verify_identity_by_cross_multiplication,
    verify_identity_by_evaluation,
    verify_identity_forward,
)
from test_grid import GRID
from test_modp import parity_fields

CHECKS = (
    verify_identity,
    verify_identity_forward,
    verify_identity_by_cross_multiplication,
    verify_identity_by_evaluation,
)

_parity_fields = functools.cache(parity_fields)


@functools.cache
def _class_field(n, size):
    """The relative field of a conjugacy class of the given size of
    Q(alpha), alpha a root of the stock degree-n polynomial."""
    field = NumberField(QQ, canonical_minpoly(n), "a")
    _, classes = conjugacy_classes(field)
    return next(c for c in classes if c.size == size).relative_field


# every tower shape the identity proof meets: Q; first-level fields of
# degree 2 and 3; a degree-1 level over Q(i) (absolute degree 2); degree-1
# and degree-2 levels over x^6 - 2 (6 and 12); the degree-4 level over
# x^5 - 2 (20), where fixed products are integer matrices
FIELDS = {
    "Q": lambda: QQ,
    "Q(i)": lambda: NumberField(QQ, canonical_minpoly(2), "i"),
    "Q(cbrt2)": lambda: NumberField(QQ, canonical_minpoly(3), "a"),
    "Q(i) class 1": lambda: _class_field(2, 1),
    "x^6-2 class 1": lambda: _class_field(6, 1),
    "x^6-2 class 2": lambda: _class_field(6, 2),
    "x^5-2 class": lambda: _class_field(5, 4),
}


def _random_element(rng, field):
    """An element with every coordinate nonzero and a denominator at every
    tower level: each rational leaf is odd over 2, 4 or 8."""
    if not isinstance(field, NumberField):
        return Rational(2 * rng.randint(-6, 5) + 1, rng.choice((2, 4, 8)))
    return field.element(
        [_random_element(rng, field.base) for _ in range(field.degree)]
    )


def _big_element(rng, field, bits):
    """An element whose rational leaves have numerators of up to `bits`
    bits and either sign, over 1, 3 or a power of two of up to `bits`
    bits; a tenth of the leaves are zero."""
    if not isinstance(field, NumberField):
        if rng.random() < 0.1:
            return Rational(0)
        den = rng.choice((1, 3, 1 << rng.randint(1, bits)))
        return Rational(rng.randint(-(1 << bits), 1 << bits), den)
    return field.element([_big_element(rng, field.base, bits) for _ in range(field.degree)])


def _random_poly(rng, field, degree, element=_random_element):
    return UniPoly(field, [element(rng, field) for _ in range(degree + 1)])


def _maps(rng, field, element=_random_element):
    """Generic maps plus the shapes the composition special-cases."""
    r = lambda: element(rng, field)  # noqa: E731
    zero, one = field.zero, field.one
    return [
        MoebiusTransform._raw(r(), r(), r(), r()),
        MoebiusTransform._raw(r(), r(), zero, r()),  # c = 0: affine
        MoebiusTransform._raw(r(), zero, r(), r()),  # b = 0
        MoebiusTransform._raw(zero, r(), r(), one),  # a = 0, d = 1
        MoebiusTransform._raw(r(), zero, r(), one),  # b = 0, d = 1
        MoebiusTransform._raw(one, zero, zero, one),  # identity
        MoebiusTransform._raw(zero, one, one, zero),  # 1/t
        MoebiusTransform._raw(r(), r(), zero, zero),  # singular
    ]


@pytest.mark.parametrize("name", list(FIELDS))
def test_compose_pair_matches_cubic_reference(name):
    """The integer Horner scheme returns exactly the pair of the
    term-by-term reference and of the per-element Horner scheme, with the
    coefficients of u over non-unit denominators at every level."""
    field = FIELDS[name]()
    rng = random.Random(f"compose:{name}")
    shapes = [(3, 3), (2, 4), (4, 1), (0, 3), (-1, 2)]
    for dn, dd in shapes:
        num = (
            UniPoly.zero(field) if dn < 0 else _random_poly(rng, field, dn)
        )
        den = _random_poly(rng, field, dd)
        for mob in _maps(rng, field):
            for pad in (None, max(dn, dd) + 2):
                got = moebius_compose_pair(num, den, mob, pad)
                assert got == cubic_compose_pair(num, den, mob, pad), (dn, dd, mob)
                assert got == horner_compose_pair(num, den, mob, pad), (dn, dd, mob)


# the largest degree drawn at each absolute degree, so that the reference
# on field elements stays within a second or so per example
_MAX_DEGREE = {1: 40, 2: 40, 3: 24, 6: 12, 12: 8, 20: 5}


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_packed_composition_matches_the_horner_reference(data):
    """Coefficients of up to thousands of bits and either sign, some zero,
    degree up to 40, every field of FIELDS and every map shape of `_maps`
    (affine, singular, zero coefficients), padded or not: the packed scheme
    returns exactly the pair of the per-element Horner scheme, whose every
    sum and product is a normalized field element.  The output's entries
    grow by the map's bits at every step, so 1000-bit maps come with
    degrees up to 4."""
    name = data.draw(st.sampled_from(list(FIELDS)), label="field")
    field = FIELDS[name]()
    size = field.absolute_degree if isinstance(field, NumberField) else 1
    poly_bits = data.draw(st.sampled_from((1, 64, 1000, 3000)), label="poly bits")
    map_bits = data.draw(st.sampled_from((1, 64, 1000)), label="map bits")
    top = min(_MAX_DEGREE[size], max(4, 4000 // map_bits))
    degree = data.draw(st.integers(0, top), label="degree")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    element = functools.partial(_big_element, bits=poly_bits)
    num = _random_poly(rng, field, degree, element)
    den = _random_poly(rng, field, rng.randint(0, degree), element)
    if den.is_zero:
        den = UniPoly.one(field)
    maps = _maps(rng, field, functools.partial(_big_element, bits=map_bits))
    mob = maps[data.draw(st.integers(0, len(maps) - 1), label="map")]
    pad = data.draw(st.sampled_from((None, degree + 3)), label="pad")
    got = moebius_compose_pair(num, den, mob, pad)
    assert got == horner_compose_pair(num, den, mob, pad)


def _exact_steps(field, mob, cs, k):
    """The accumulators of `moebius_composer`'s Horner scheme for the
    integral vectors cs = (P_0 .. P_top) over `field`, by field arithmetic:
    {j: the coefficient vectors of
    sum_(i >= j) P_i (A t + B)^(i - j) (C t + D)^(k - i)}, for the integral
    vectors A, B, C, D of mob."""
    ops = integral_ops(field)
    (a, b, c, d), _ = ops.lift((mob.a, mob.b, mob.c, mob.d))
    el = lambda v: ops.make(v, 1)  # noqa: E731
    ab, cd = UniPoly(field, [el(b), el(a)]), UniPoly(field, [el(d), el(c)])
    top = len(cs) - 1
    acc = cd ** (k - top) * el(cs[top])
    out = {top: acc}
    for j in range(top - 1, -1, -1):
        acc = acc * ab + cd ** (k - j) * el(cs[j])
        out[j] = acc
    steps = {}
    for j, acc in out.items():
        vecs, q = ops.lift(acc.coeffs) if acc.coeffs else ([], 1)
        assert q == 1
        steps[j] = vecs
    return steps


def test_packed_widths_hold_every_accumulator():
    """On the seed-0 grid of `test_grid`, every step of every composition
    of the identity proof (psi o u^-1 on the vectors `verify_identity`
    composes, for each class with a fitted u; the twisted instances refuse
    their classes before any fit): the packed ints are the exact
    accumulator's coefficients at t = 2^W, and 2^(W-1) exceeds their
    largest absolute value, so the slots read back exactly."""
    steps = 0
    for kind, (n, d) in itertools.product(("defined", "twisted"), GRID):
        doc = gen_instance(kind, d, ext_degree=n, seed=0)
        _, psi = parse_instance(json.dumps(doc))
        for rep in standard_parametrization(psi).reports:
            if rep.u is None:
                continue
            rel, u = rep.cls.relative_field, rep.u
            ops = integral_ops(rel)
            inverse = MoebiusTransform._raw(u.d, -u.b, -u.c, u.a)
            compose, _ = moebius_composer(ops, inverse, psi.degree)
            pad = (0,) * (rel.absolute_degree - psi.field.absolute_degree)
            for comp, pair in zip(psi, psi.pairs):
                for vecs in (psi.vectors[i] for i in pair):
                    if not vecs:
                        continue
                    cs = [v + pad for v in vecs]
                    trace = []
                    compose([ops.bounded(c) for c in cs], comp.degree, trace)
                    exact = _exact_steps(rel, inverse, cs, comp.degree)
                    assert [j for j, _, _ in trace] == sorted(exact, reverse=True)
                    for j, acc, w in trace:
                        vecs = exact[j]
                        largest = max((abs(z) for v in vecs for z in v), default=0)
                        assert largest < 1 << (8 * w - 1), (n, d, j)
                        packed = tuple(
                            sum(z << (8 * w * i) for i, z in enumerate(col))
                            for col in zip(*vecs)
                        ) or ops.zero
                        assert packed == acc, (n, d, j)
                        steps += 1
    assert steps > 100


def _phi7():
    return NumberField(QQ, UniPoly(QQ, [1] * 7), "z")


@pytest.mark.parametrize("name", [n for n in FIELDS if n != "Q"] + ["phi7"])
def test_regular_representation_matches_tmul(name):
    """The matrix of multiplication by t (`_columns`) times the coordinate
    vector of s is `_tmul(t, s)`, with whichever kernel is loaded; so is
    `integral_ops(field).fixed`, on its own vectors."""
    field = _phi7() if name == "phi7" else FIELDS[name]()
    ops = integral_ops(field)
    rng = random.Random(f"regular:{name}")
    for bits in (8, 40, 200):
        for _ in range(4):
            x, y = _random_element(rng, field), _random_element(rng, field)
            t = tuple(c * rng.getrandbits(bits) for c in x.ic)
            s = y.ic
            cols = field._columns(t)
            got = tuple(sum(map(mul, row, s)) for row in zip(*cols))
            assert got == field._tmul(t, s)
            (v, w, prod), _ = ops.lift(
                [NFElement._raw(field, u, 1) for u in (t, s, field._tmul(t, s))]
            )
            assert ops.fixed(v)(w) == prod


def _levels_below(field):
    """Every level of the tower strictly below `field`, down to Q's
    first level."""
    level = field.base
    while isinstance(level, NumberField):
        yield level
        level = level.base


def _count_columns(monkeypatch, field):
    """Record every regular representation of `field` built from now on
    (`_columns`: one per product by a fixed element as a matrix)."""
    calls = []
    columns = NumberField._columns

    def counted(self, t):
        if self is field:
            calls.append(t)
        return columns(self, t)

    monkeypatch.setattr(NumberField, "_columns", counted)
    return calls


@pytest.mark.parametrize(
    "name",
    [n for n in FIELDS if n != "Q"] + [f"parity {n}" for n in _parity_fields()],
)
def test_fixed_multiplies_a_subfield_element_block_by_block(name, monkeypatch):
    """A vector whose blocks above the first are zero lies in the base:
    `integral_ops(field).fixed` multiplies it block by block through the
    base's own `fixed`, recursively, and the product is `_tmul`'s for an
    integer and for an element of every level below, with no matrix of
    `field` itself."""
    if name.startswith("parity "):
        field = _parity_fields()[name.removeprefix("parity ")]
    else:
        field = FIELDS[name]()
    ops = integral_ops(field)
    rng = random.Random(f"subfield:{name}")
    xs = [Rational(1), Rational(-3), Rational(rng.getrandbits(90) + 1)]
    for level in _levels_below(field):
        xs += [level.gen] + [_random_element(rng, level) for _ in range(3)]
    vs = [ops.lift([field.coerce(x)])[0][0] for x in xs]
    # larger entries at the same places: zeros stay zero, so each vector
    # stays in its level
    vs += [tuple(c * rng.getrandbits(60) for c in v) for v in vs[3:]]
    builds = _count_columns(monkeypatch, field)
    for v in vs:
        assert not any(v[len(v) // field.degree :]), name
        w = _random_element(rng, field).ic
        assert ops.fixed(v)(w) == field._tmul(v, w), name
    assert builds == []


def _decided_classes(n, degree, seed):
    doc = gen_instance("defined", degree, minpoly=canonical_minpoly(n), seed=seed)
    field, psi = parse_instance(json.dumps(doc))
    _, classes = conjugacy_classes(field)
    for cls in classes:
        report = compute_u_for_class(psi, cls)
        assert report.fixes
        yield psi, psi.conjugate(cls), report.u


def _bumped(u, k, step=1):
    """u with `step` added to its k-th coefficient (a, b, c, d order)."""
    coeffs = [u.a, u.b, u.c, u.d]
    coeffs[k] = coeffs[k] + step
    return MoebiusTransform._raw(*coeffs)


@pytest.mark.parametrize("n, degree", [(2, 7), (3, 5), (5, 4)])
def test_verify_identity_agrees_with_references(n, degree):
    for psi, sigma, u in _decided_classes(n, degree, seed=2):
        assert [check(psi, sigma, u) for check in CHECKS] == [True] * len(CHECKS)
        for k in range(4):
            bad = _bumped(u, k)
            assert [check(psi, sigma, bad) for check in CHECKS] == [False] * len(CHECKS)


def _count_makes(monkeypatch):
    """Count the normalizations `NFElement._make` performs from now on."""
    calls = []
    make = NFElement._make

    def counted(cls, field, tensor, den):
        calls.append(field)
        return make(field, tensor, den)

    monkeypatch.setattr(NFElement, "_make", classmethod(counted))
    return calls


def test_composition_normalizes_once_per_output_coefficient(monkeypatch):
    rng = random.Random("makes")
    for field, degree in ((_class_field(2, 1), 16), (_class_field(5, 4), 6)):
        num = _random_poly(rng, field, degree)
        den = _random_poly(rng, field, degree - 1)
        mob = MoebiusTransform._raw(*(_random_element(rng, field) for _ in range(4)))
        calls = _count_makes(monkeypatch)
        cn, cd = moebius_compose_pair(num, den, mob)
        monkeypatch.undo()
        assert len(calls) <= len(cn.coeffs) + len(cd.coeffs)
        assert (cn, cd) == horner_compose_pair(num, den, mob)


def test_verify_identity_never_normalizes(monkeypatch):
    """A plane2-sized proof (x^2 + 1, degree 16) runs on integers only."""
    psi, sigma, u = next(_decided_classes(2, 16, seed=3))
    calls = _count_makes(monkeypatch)
    assert verify_identity(psi, sigma, u)
    assert calls == []


def test_verify_identity_mutations_on_the_matrix_path():
    """A defined n = 5, d = 8 instance: the class field has absolute degree
    20, so u's coefficients multiply as integer matrices.  Each +-1 change
    of a coefficient of u, and each change of one rational coordinate of
    one coefficient of psi^sigma, makes the proof fail."""
    psi, sigma, u = next(_decided_classes(5, 8, seed=1))
    rel = sigma.field
    assert rel.absolute_degree == 20
    assert verify_identity(psi, sigma, u)
    for k in range(4):
        for step in (1, -1):
            assert not verify_identity(psi, sigma, _bumped(u, k, step))
    base = rel.base
    comp = sigma[0]
    j = len(comp.num.coeffs) // 2
    for i, l in ((0, 0), (1, 2), (2, 4), (3, 1), (3, 3)):
        bump = rel.gen**i * rel.coerce(base.gen**l)
        cs = list(comp.num.coeffs)
        cs[j] = cs[j] + bump
        changed = RatFunc._normalized(UniPoly(rel, cs), comp.den)
        moved = Parametrization([changed] + list(sigma)[1:])
        assert not verify_identity(psi, moved, u), (i, l)


def _count_compositions(monkeypatch):
    """Record every composition `verify_identity` makes from now on, as the
    degree it composes to."""
    calls = []
    composer = hypercircle.moebius_composer

    def counted(ops, mob, big):
        compose, lcd = composer(ops, mob, big)

        def composing(products, k, trace=None):
            calls.append(k)
            return compose(products, k, trace)

        return composing, lcd

    monkeypatch.setattr(hypercircle, "moebius_composer", counted)
    return calls


def _squared_second(psi):
    """psi with its second component squared: N_2^2/D^2 over N_1/D, so no
    two parts are one polynomial, and psi^sigma o u = psi still gives it
    for the squared conjugate."""
    return Parametrization([psi[0], psi[1] * psi[1]] + list(psi)[2:])


def test_components_over_one_denominator_compose_it_once(monkeypatch):
    """On the seed-0 grid every defined psi is a plane curve N_1/D, N_2/D,
    whose record holds D once, so each proof of a class composes
    r + 1 = 3 polynomials, in the search and again in
    `check_certificate`, which passes; with the second component squared
    no two parts are one polynomial, and the proof composes 2r = 4."""
    for n, d in GRID:
        doc = gen_instance("defined", d, ext_degree=n, seed=0)
        _, psi = parse_instance(json.dumps(doc))
        assert psi.pairs == ((0, 1), (2, 1))
        calls = _count_compositions(monkeypatch)
        verify = []
        inner = hypercircle.verify_identity

        def counted(psi, psi_sigma, u):
            start = len(calls)
            ok = inner(psi, psi_sigma, u)
            verify.append((ok, len(calls) - start))
            return ok

        monkeypatch.setattr(hypercircle, "verify_identity", counted)
        res = standard_parametrization(psi)
        hypercircle.check_certificate(psi, res)
        monkeypatch.undo()
        assert res.defined
        assert verify == [(True, 3)] * (2 * len(res.reports)), (n, d)
        squared = _squared_second(psi)
        assert squared.pairs == ((0, 1), (2, 3))
        for rep in res.reports:
            calls = _count_compositions(monkeypatch)
            assert verify_identity(squared, squared.conjugate(rep.cls), rep.u), (n, d)
            monkeypatch.undo()
            assert calls == [c.degree for c in squared for _ in "nd"], (n, d)


def test_a_conjugate_carries_the_record_over():
    """An embedding keeps distinct polynomials distinct: on the seed-0
    grid every class's psi^sigma has psi's pairs, and a scan of its
    components finds the same record."""
    for kind, (n, d) in itertools.product(("defined", "twisted"), GRID):
        _, psi = parse_instance(json.dumps(gen_instance(kind, d, ext_degree=n, seed=0)))
        for cls in conjugacy_classes(psi.field)[1]:
            sigma = psi.conjugate(cls)
            scanned = Parametrization(list(sigma))
            assert sigma.pairs == scanned.pairs == psi.pairs, (kind, n, d)
            assert sigma.polys == scanned.polys, (kind, n, d)


@pytest.mark.parametrize("kind", ["defined", "twisted"])
def test_equal_denominators_are_one_polynomial_whatever_the_objects(kind):
    """A parsed plane curve's D is two equal objects, one per component;
    over one D object psi has the same record, and the decision the same
    verdicts, u and phi."""
    _, psi = parse_instance(json.dumps(gen_instance(kind, 5, ext_degree=3, seed=0)))
    assert psi[0].den is not psi[1].den and psi[0].den == psi[1].den
    shared = Parametrization([RatFunc._normalized(c.num, psi[0].den) for c in psi])
    assert (shared.polys, shared.pairs) == (psi.polys, psi.pairs)
    assert shared.polys[1] is psi.polys[1] is psi[0].den

    # each decision builds its own class fields, so compare renderings
    def decided(p):
        result = standard_parametrization(p)
        verdicts = [[str(v) for v in rep.verdicts] for rep in result.reports]
        return _outputs(result), verdicts

    assert decided(shared) == decided(psi)


def test_a_shared_denominator_still_proves_every_part():
    """Over one denominator, each part of psi^sigma is still compared: a
    change of the second component's numerator alone, and a change of
    either component's denominator alone, so that psi^sigma's components
    no longer share one while psi's do, each fail the proof."""
    for psi, sigma, u in _decided_classes(3, 5, seed=0):
        assert psi.pairs == sigma.pairs == ((0, 1), (2, 1))
        assert verify_identity(psi, sigma, u)
        rel = sigma.field
        bump = rel.gen if rel.degree > 1 else rel.coerce(psi.field.gen)
        for i, part in ((1, "num"), (0, "den"), (1, "den")):
            comp = sigma[i]
            cs = list(getattr(comp, part).coeffs)
            assert len(cs) >= 2
            cs[len(cs) // 2 - 1] = cs[len(cs) // 2 - 1] + bump  # D' stays monic
            poly = UniPoly(rel, cs)
            changed = RatFunc._normalized(
                poly if part == "num" else comp.num, poly if part == "den" else comp.den
            )
            moved = Parametrization([changed if j == i else c for j, c in enumerate(sigma)])
            assert moved.pairs == ((0, 1), (2, 1) if part == "num" else (2, 3))
            assert not verify_identity(psi, moved, u), (i, part)
            assert not verify_identity_by_cross_multiplication(psi, moved, u), (i, part)


def test_verify_identity_builds_few_class_field_matrices(monkeypatch):
    """The n = 5, d = 8 proof multiplies psi's coefficients, which lie in
    K(alpha), block by block: the class field (absolute degree 20) builds
    a matrix only for the non-integer coefficients of u^-1 (d = 1 after
    the fit) and for one lc(CD) per component."""
    psi, sigma, u = next(_decided_classes(5, 8, seed=1))
    assert u.d == sigma.field.one
    builds = _count_columns(monkeypatch, sigma.field)
    assert verify_identity(psi, sigma, u)
    assert 0 < len(builds) <= 3 + len(psi)


def test_psi_builds_each_coefficient_matrix_once_per_decision(monkeypatch):
    """The seed-0 defined x^6 - 2, d = 6 instance has three classes (sizes
    1, 2 and 2), each proving psi = psi^sigma o u, and `check_certificate`
    proves all three again.  Over those six proofs K(alpha) builds the
    matrix of each distinct non-integer coefficient of psi once
    (`Parametrization.products`), where each composition built its own."""
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(6), seed=0)
    field, psi = parse_instance(json.dumps(doc))
    coefficients = {v for vecs in psi.vectors for v in vecs if any(v[1:])}
    builds = _count_columns(monkeypatch, field)
    proving = []
    inner = hypercircle.verify_identity

    def counted(psi, psi_sigma, u):
        start = len(builds)
        ok = inner(psi, psi_sigma, u)
        proving.extend(tuple(t) for t in builds[start:] if tuple(t) in coefficients)
        return ok

    monkeypatch.setattr(hypercircle, "verify_identity", counted)
    result = standard_parametrization(psi)
    hypercircle.check_certificate(psi, result)
    assert [rep.cls.size for rep in result.reports] == [1, 2, 2]
    assert all(rep.fixes for rep in result.reports)
    assert len(coefficients) >= 20
    assert sorted(proving) == sorted(coefficients)


def _scaled(u, mu):
    return MoebiusTransform._raw(*(mu * x for x in (u.a, u.b, u.c, u.d)))


@pytest.mark.parametrize("n, degree", [(3, 5), (5, 4)])
def test_verify_identity_is_projective(n, degree):
    """u and mu u are the same map: the proof holds for mu = 1/c, 1/a and a
    random mu of the class field, so the integer coefficient of u^-1 moves
    from d to c or a or is gone, and fails for the same maps with a
    bumped coefficient."""
    rng = random.Random(f"projective:{n}")
    for psi, sigma, u in _decided_classes(n, degree, seed=2):
        rel = sigma.field
        assert u.a and u.c
        for mu in (rel.one / u.c, rel.one / u.a, _random_element(rng, rel)):
            v = _scaled(u, mu)
            assert verify_identity(psi, sigma, v)
            for k in range(4):
                assert not verify_identity(psi, sigma, _bumped(v, k))


def test_verify_identity_rejects_partial_agreement():
    """Pairs that agree in one part, or on a prefix of the coefficients."""
    field = NumberField(QQ, canonical_minpoly(2), "i")
    t = UniPoly.gen(field)
    psi = Parametrization([RatFunc(t * t + 1, t)])
    ident = MoebiusTransform.identity(field)
    for other in (
        RatFunc(t * t + 2, t),  # same denominator
        RatFunc(t**3 + t * t + 1, t),  # numerator extends psi's
        RatFunc(t * t + 1, t * t + t),  # denominator extends psi's
    ):
        sigma = Parametrization([other])
        assert [check(psi, sigma, ident) for check in CHECKS] == [False] * len(CHECKS)


def test_verify_identity_rejects_a_singular_u():
    """u = (2 t + 3)/0 is singular, and psi o u^-1 is the constant -3/2:
    the proof must not take psi = t for psi^sigma = -3/2 o u."""
    field = NumberField(QQ, canonical_minpoly(2), "i")
    t = UniPoly.gen(field)
    psi = Parametrization([RatFunc(t, UniPoly.one(field))])
    sigma = Parametrization([RatFunc.constant(field, Rational(-3, 2))])
    u = MoebiusTransform(field, 2, 3, 0, 0)
    assert not verify_identity(psi, sigma, u)
    assert not verify_identity_forward(psi, sigma, u)


def _outputs(result):
    phi = result.phi.render() if result.phi is not None else None
    us = [str(r.u) if r.u is not None else None for r in result.reports]
    certs = [r.describe() for r in result.reports]
    return result.verdict, us, phi, certs


@pytest.mark.parametrize(
    "kind, n, degree",
    [("defined", 2, 7), ("defined", 3, 5), ("defined", 5, 4), ("twisted", 3, 4)],
)
def test_standard_parametrization_matches_reference_path(
    kind, n, degree, monkeypatch
):
    doc = gen_instance(kind, degree, minpoly=canonical_minpoly(n), seed=4)
    _, psi = parse_instance(json.dumps(doc))
    got = _outputs(standard_parametrization(psi))
    monkeypatch.setattr(
        hypercircle, "verify_identity", verify_identity_by_cross_multiplication
    )
    want = _outputs(standard_parametrization(psi))
    assert got == want
    assert got[0] == ("DefinedOverK" if kind == "defined" else "NotDefinedOverK")
