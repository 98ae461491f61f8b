"""Fixed fields of the conjugations that preserve the curve, read off the
fixing classes' factors, against the kernel of the conditions sigma(x) = x
(`oracles.fixed_field_by_kernel`), and the decision rerun over the tower
model L(alpha) of the smaller field L (`oracles.relative_model`)."""

import itertools
import json
from types import SimpleNamespace

import pytest

from hypercircles import (
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    Rational,
    UniPoly,
    conjugacy_classes,
    gen_instance,
    minimum_field,
    parse_instance,
    standard_parametrization,
)
from hypercircles.errors import InstanceError, InternalInvariantError

from oracles import fixed_field_by_kernel, relative_model, sums_to_t

x = UniPoly.gen(QQ)


def negative_instance():
    field = NumberField(QQ, x**4 - 2, "a")
    a2 = field.gen * field.gen
    psi = Parametrization(
        [
            RatFunc(UniPoly(field, [field.zero, field.one])),
            RatFunc(UniPoly(field, [field.zero, field.zero, a2])),
        ]
    )
    return field, psi


def sextic_subfield_instance(sub_degree, degree):
    """A twisted curve over Q(b), b^sub_degree = 2, rewritten over Q(a),
    a^6 = 2, by b -> a^(6/sub_degree); its minimum field is Q(b)."""
    doc = gen_instance(
        "twisted", degree, minpoly=UniPoly(QQ, [-2] + [0] * (sub_degree - 1) + [1])
    )
    _, psi_b = parse_instance(json.dumps(doc))
    field = NumberField(QQ, x**6 - 2, "a")
    b = field.gen ** (6 // sub_degree)

    def embed(e):
        acc = field.zero
        for c in reversed(e.coords):
            acc = acc * b + c
        return acc

    return field, Parametrization([c.map_coeffs(embed, field) for c in psi_b])


SUBFIELD_NEGATIVES_BY_DEGREE = pytest.mark.parametrize(
    "make, degree",
    [
        (negative_instance, 2),
        (lambda: sextic_subfield_instance(2, 4), 2),
        (lambda: sextic_subfield_instance(3, 4), 3),
    ],
    ids=["x4-2", "x6-2-over-sqrt2", "x6-2-over-cbrt2"],
)


def _fixed(make):
    field, psi = make()
    res = standard_parametrization(psi)
    assert not res.defined
    return field, res, minimum_field(field, [r.cls for r in res.reports if r.fixes])


@SUBFIELD_NEGATIVES_BY_DEGREE
def test_minimum_field_is_fixed_exactly_by_the_fixing_classes(make, degree):
    _, res, fixed = _fixed(make)
    assert fixed.degree == degree
    for rep in res.reports:
        rel = rep.cls.relative_field
        kept = [rep.cls.conjugate(b) == rel.coerce(b) for b in fixed.basis]
        assert all(kept) if rep.fixes else not all(kept)


@SUBFIELD_NEGATIVES_BY_DEGREE
def test_minimum_field_matches_the_kernel_oracle(make, degree):
    # the basis, and so the primitive element and its minimal polynomial,
    # are those of the kernel of the conditions sigma(x) = x
    field, res, fixed = _fixed(make)
    fixing = [r.cls for r in res.reports if r.fixes]
    got = (fixed.basis, fixed.primitive, fixed.primitive_minpoly)
    assert got == fixed_field_by_kernel(field, fixing)
    assert fixed.relative_minpoly.degree * degree == field.degree


@pytest.mark.parametrize(
    "minpoly", [x**4 - 2, x**6 - 2, UniPoly(QQ, [1] * 7)], ids=["x4-2", "x6-2", "Phi7"]
)
def test_minimum_field_of_every_class_set_matches_the_kernel_oracle(minpoly):
    # a class set is the embedding set over its fixed field exactly when
    # [L:Q] times the number of embeddings is n; any other set raises
    field = NumberField(QQ, minpoly, "a")
    _, classes = conjugacy_classes(field)
    for k in range(len(classes) + 1):
        for subset in itertools.combinations(classes, k):
            basis, primitive, mp = fixed_field_by_kernel(field, subset)
            if len(basis) * (1 + sum(c.size for c in subset)) != field.degree:
                with pytest.raises(InternalInvariantError):
                    minimum_field(field, subset)
                continue
            fixed = minimum_field(field, subset)
            got = (fixed.basis, fixed.primitive, fixed.primitive_minpoly)
            assert got == (basis, primitive, mp)


@pytest.mark.parametrize(
    "minpoly, x_coeff", [(x**4 - 2, 0), (x**6 - 2, -1)], ids=["x4-2", "x6-2"]
)
def test_a_class_that_is_no_subfields_embedding_set_raises(minpoly, x_coeff):
    # the class x^2 + x_coeff a x + a^2: alpha -> +-i alpha on x^4 - 2, and
    # alpha -> -omega alpha, -omega^2 alpha on x^6 - 2.  With the identity
    # these are 3 embeddings of a field of degree 4 or 6, which no subfield
    # has: the kernel of sigma(x) = x is Q, while M_L is a cubic
    field = NumberField(QQ, minpoly, "a")
    a = field.gen
    factor = UniPoly(field, [a * a, a * x_coeff, field.one])
    (cls,) = [c for c in conjugacy_classes(field)[1] if c.factor == factor]
    assert len(fixed_field_by_kernel(field, [cls])[0]) == 1
    with pytest.raises(InternalInvariantError):
        minimum_field(field, [cls])


def test_a_changed_coefficient_of_m_l_raises():
    # x^2 + a x + a^2 fixes the curve over Q(sqrt 2) = Q(a^3); doubling its
    # constant term gives M_L = x^3 + a^2 x - 2 a^3, whose coefficients
    # generate Q(a), of degree 6, not 2
    field, res, fixed = _fixed(lambda: sextic_subfield_instance(2, 4))
    (rep,) = [r for r in res.reports if r.fixes]
    f = rep.cls.factor
    changed = UniPoly(field, [f.coeffs[0] * 2] + list(f.coeffs[1:]))
    assert fixed.relative_minpoly == UniPoly(field, [-field.gen, field.one]) * f
    with pytest.raises(InternalInvariantError):
        minimum_field(field, [SimpleNamespace(factor=changed)])


def test_minimum_field_of_negative_instance():
    field, psi = negative_instance()
    res = standard_parametrization(psi)
    assert not res.defined
    fixing = [r.cls for r in res.reports if r.fixes]
    fixed = minimum_field(field, fixing)
    assert fixed.degree == 2
    assert fixed.relative_degree == 2
    assert not fixed.is_rational and not fixed.is_whole_field
    # basis {1, alpha^2} up to scaling
    a2 = field.gen * field.gen
    span = list(fixed.basis)
    assert len(span) == 2
    assert any(b == field.one or b.coords[0] for b in span)
    coords = [list(b.coords) for b in span]
    for v in coords:
        # only 1 and alpha^2 may appear
        assert v[1] == Rational(0) and v[3] == Rational(0)
    assert any(v[2] for v in coords)
    # the primitive element generates Q(alpha^2)
    mp = fixed.primitive_minpoly
    assert mp == x**2 - 2
    assert not mp.map_into(field)(fixed.primitive)


def test_minimum_field_all_classes_is_rational():
    # when every conjugation fixes the curve, only Q survives
    field = NumberField(QQ, x**4 - 2, "a")
    _, classes = conjugacy_classes(field)
    fixed = minimum_field(field, classes)
    assert fixed.is_rational
    assert fixed.degree == 1 and fixed.relative_degree == 4
    assert fixed.primitive_minpoly.degree == 1


def test_minimum_field_rationals():
    # over Q(i), the lone conjugation fixing nothing but Q
    field = NumberField(QQ, x**2 + 1, "i")
    _, classes = conjugacy_classes(field)
    fixed = minimum_field(field, classes)
    assert fixed.is_rational
    assert fixed.degree == 1 and fixed.relative_degree == 2
    assert fixed.primitive_minpoly.degree == 1


def test_minimum_field_empty_class_list():
    field = NumberField(QQ, x**2 + 1, "i")
    fixed = minimum_field(field, [])
    assert fixed.is_whole_field


SUBFIELD_NEGATIVES = pytest.mark.parametrize(
    "make, relative_degree",
    [
        (negative_instance, 2),
        (lambda: sextic_subfield_instance(2, 4), 3),
        (lambda: sextic_subfield_instance(3, 4), 2),
    ],
    ids=["x4-2", "x6-2-over-sqrt2", "x6-2-over-cbrt2"],
)


def _model(make):
    field, psi = make()
    res = standard_parametrization(psi)
    fixed = minimum_field(field, [r.cls for r in res.reports if r.fixes])
    return field, psi, fixed, relative_model(field, fixed)


@SUBFIELD_NEGATIVES
def test_relative_model_rewrites_faithfully(make, relative_degree):
    field, _, fixed, (tower, rewrite) = _model(make)
    assert tower.degree == relative_degree == fixed.relative_degree
    assert tower.base.degree == fixed.degree
    # the rewrite is a field homomorphism matching on generators
    a = field.gen
    assert rewrite(a) == tower.gen
    assert not tower.minpoly.map_into(tower)(tower.gen)
    assert rewrite(a) ** field.degree == rewrite(a**field.degree)
    e1 = field.element([Rational(k + 1) for k in range(field.degree)])
    e2 = field.element([Rational(k, 2) - 1 for k in range(field.degree)])
    assert rewrite(e1 + e2) == rewrite(e1) + rewrite(e2)
    assert rewrite(e1 * e2) == rewrite(e1) * rewrite(e2)
    assert rewrite(field.one) == tower.one
    for b in fixed.basis:
        rewrite(b).retract()  # raises unless b lies in L


@SUBFIELD_NEGATIVES
def test_rerun_over_tower_is_defined(make, relative_degree):
    # relative to its minimum field the curve becomes definable, over the
    # tower whose defining polynomial is M_L rewritten over L
    _, psi, fixed, (tower, rewrite) = _model(make)
    m_l = fixed.relative_minpoly
    assert tower.minpoly == m_l.map_coeffs(lambda c: rewrite(c).retract(), tower.base)
    psi_tower = Parametrization([c.map_coeffs(rewrite, tower) for c in psi])
    res = standard_parametrization(psi_tower)
    assert res.defined
    assert len(res.phi) == relative_degree
    assert sums_to_t(tower, res.phi)


def test_relative_model_requires_a_proper_subfield():
    field = NumberField(QQ, x**4 - 2, "a")
    fixed = minimum_field(field, [])  # the whole field: relative degree 1
    assert fixed.relative_degree == 1
    with pytest.raises(InstanceError):
        relative_model(field, fixed)
