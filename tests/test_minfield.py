"""Fixed fields of the conjugations that preserve the curve, and the
quadratic tower model used to rerun the decision over the smaller field."""

import json

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
    quadratic_relative_model,
    standard_parametrization,
)
from hypercircles.errors import InstanceError
from hypercircles.numberfield import nf_conjugate

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


@pytest.mark.parametrize(
    "make, degree",
    [
        (negative_instance, 2),
        (lambda: sextic_subfield_instance(2, 4), 2),
        (lambda: sextic_subfield_instance(3, 4), 3),
    ],
    ids=["x4-2", "x6-2-over-sqrt2", "x6-2-over-cbrt2"],
)
def test_minimum_field_is_fixed_exactly_by_the_fixing_classes(make, degree):
    field, psi = make()
    res = standard_parametrization(psi)
    assert not res.defined
    fixed = minimum_field(field, [r.cls for r in res.reports if r.fixes])
    assert fixed.degree == degree
    for rep in res.reports:
        rel = rep.cls.relative_field
        kept = [nf_conjugate(b, rep.cls) == rel.coerce(b) for b in fixed.basis]
        assert all(kept) if rep.fixes else not all(kept)


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
    assert not mp(fixed.primitive)


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


def test_quadratic_model_rewrites_faithfully():
    field, psi = negative_instance()
    res = standard_parametrization(psi)
    fixing = [r.cls for r in res.reports if r.fixes]
    fixed = minimum_field(field, fixing)
    tower, rewrite = quadratic_relative_model(field, fixed)
    assert tower.degree == 2
    assert tower.base.degree == 2
    # the rewrite is a field homomorphism matching on generators
    a = field.gen
    xa = rewrite(a)
    assert xa * xa == rewrite(a * a)
    e1 = field.element([Rational(1), Rational(2), Rational(3), Rational(4)])
    e2 = field.element([Rational(-1), Rational(1, 2), Rational(0), Rational(5)])
    assert rewrite(e1 + e2) == rewrite(e1) + rewrite(e2)
    assert rewrite(e1 * e2) == rewrite(e1) * rewrite(e2)
    assert rewrite(field.one) == tower.one


def test_rerun_over_tower_is_defined():
    # relative to its minimum field the curve becomes definable
    field, psi = negative_instance()
    res = standard_parametrization(psi)
    fixing = [r.cls for r in res.reports if r.fixes]
    fixed = minimum_field(field, fixing)
    tower, rewrite = quadratic_relative_model(field, fixed)
    psi_tower = Parametrization(
        [
            RatFunc(
                c.num.map_coeffs(rewrite, tower), c.den.map_coeffs(rewrite, tower)
            )
            for c in psi
        ]
    )
    res2 = standard_parametrization(psi_tower)
    assert res2.defined


def test_quadratic_model_requires_degree_two():
    field = NumberField(QQ, x**4 - 2, "a")
    _, classes = conjugacy_classes(field)
    fixed = minimum_field(field, classes)  # whole field: relative degree 1
    with pytest.raises(InstanceError):
        quadratic_relative_model(field, fixed)
