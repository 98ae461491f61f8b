"""The definability pipeline: parameter classification, Moebius recovery,
trace assembly, and the final standard parametrization."""

import hashlib
import itertools
import json

import pytest

from hypercircles import (
    MoebiusTransform,
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    Rational,
    UniPoly,
    classify_parameter,
    compute_u_for_class,
    conjugacy_classes,
    gen_instance,
    parameter_budget,
    parse_instance,
    standard_parametrization,
    verify_identity,
)
from hypercircles.errors import NonProperParametrization
from hypercircles.generators import cyclotomic_minpoly
from hypercircles.hypercircle import (
    BAD_DENOMINATOR,
    GOOD,
    NOT_ATTAINED,
    SINGULAR,
    _identity_class,
    parameter_schedule,
    probably_proper,
)
from hypercircles.numberfield import NFElement

from conftest import quartic_phi_expected
from oracles import (
    classify_parameter_by_polynomials,
    sums_to_t,
    values_at_infinity,
    verify_identity_by_evaluation,
)


def test_parameter_budget():
    assert parameter_budget(3, 4) == 11
    assert parameter_budget(2, 2) == 6
    assert parameter_budget(25, 5) == 584


def test_parameter_schedule_prefix():
    assert list(itertools.islice(parameter_schedule(), 7)) == [0, 1, -1, 2, -2, 3, -3]


def test_conjugacy_classes_quartic(quartic_field):
    m_alpha, classes = conjugacy_classes(quartic_field)
    a = quartic_field.gen
    y = UniPoly.gen(quartic_field)
    assert m_alpha == (y + a) * (y**2 + a * a)
    assert sorted(c.size for c in classes) == [1, 2]
    factors = [c.factor for c in classes]
    assert (y + a) in factors and (y**2 + a * a) in factors


def test_conjugacy_classes_circle(circle):
    field, _ = circle
    m_alpha, classes = conjugacy_classes(field)
    i = field.gen
    y = UniPoly.gen(field)
    assert m_alpha == y + i
    assert len(classes) == 1 and classes[0].size == 1


def test_conjugacy_classes_rejects_degree_one():
    from hypercircles.errors import InstanceError

    triv = NumberField(QQ, UniPoly(QQ, [-1, 1]), "a")
    with pytest.raises(InstanceError):
        conjugacy_classes(triv)


def test_classify_parameter_circle(circle):
    field, psi = circle
    _, classes = conjugacy_classes(field)
    sigma = psi.conjugate(classes[0])
    rel = classes[0].relative_field

    assert classify_parameter(psi, sigma, 0).kind == BAD_DENOMINATOR
    v1 = classify_parameter(psi, sigma, 1)
    assert v1.kind == GOOD and v1.s == rel.coerce(1)
    v2 = classify_parameter(psi, sigma, 2)
    assert v2.kind == GOOD and v2.s == rel.coerce(Rational(1, 2))
    # str() stays usable for reporting
    assert "good" in str(v1)


def _moved_by_the_quadratic_class():
    """(t, a^2 t^2) over Q(a), a^4 = 2, and the classes of a: the class of
    size 2, alpha -> root of x^2 + alpha^2, moves it."""
    x = UniPoly.gen(QQ)
    field = NumberField(QQ, x**4 - 2, "a")
    a2 = field.gen * field.gen
    psi = Parametrization(
        [
            RatFunc(UniPoly(field, [field.zero, field.one])),
            RatFunc(UniPoly(field, [field.zero, field.zero, a2])),
        ]
    )
    return psi, conjugacy_classes(field)[1]


def test_classify_parameter_not_attained():
    psi, classes = _moved_by_the_quadratic_class()
    quad = next(c for c in classes if c.size == 2)
    sigma = psi.conjugate(quad)
    assert classify_parameter(psi, sigma, 1).kind == NOT_ATTAINED
    assert classify_parameter(psi, sigma, -1).kind == NOT_ATTAINED
    # t = 0 is attained (s = 0), and is a genuine good sample
    assert classify_parameter(psi, sigma, 0).kind == GOOD
    # the linear class fixes it
    lin = next(c for c in classes if c.size == 1)
    sigma_lin = psi.conjugate(lin)
    v = classify_parameter(psi, sigma_lin, 3)
    assert v.kind == GOOD and v.s == sigma_lin.field.coerce(3)


def test_classification_matches_the_polynomial_oracle(circle):
    # the integral-vector fibre against field elements and UniPolys, on the
    # seed-0 grid and on one case for each way a parameter is classified
    a = NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 1]), "a").gen
    field = a.field
    t = UniPoly.gen(field)
    one = UniPoly.one(field)
    moved, classes = _moved_by_the_quadratic_class()
    # the fibre of t = 1/2 is s^2 = 1/4: not one point
    fibre2 = Parametrization([RatFunc(a * t**2), RatFunc(t**4)])
    # t = 0 and infinity meet at the origin: the fibre is one finite point,
    # but psi(0) is also psi's value at infinity
    node = Parametrization([RatFunc(a * t, t**2 + one), RatFunc(t**3, t**4 + one)])
    circle_field, psi_circle = circle
    circle_cls = conjugacy_classes(circle_field)[1][0]
    ident = _identity_class(field)
    named = [
        (psi_circle, circle_cls, 1, GOOD),
        (psi_circle, circle_cls, 0, BAD_DENOMINATOR),
        (moved, next(c for c in classes if c.size == 2), 1, NOT_ATTAINED),
        (fibre2, ident, Rational(1, 2), SINGULAR),
        (node, ident, 0, SINGULAR),
    ]
    for psi, cls, t0, kind in named:
        psi_sigma = psi.conjugate(cls)
        assert classify_parameter(psi, psi_sigma, t0).kind == kind
        assert classify_parameter(psi, psi_sigma, t0) == classify_parameter_by_polynomials(
            psi, psi_sigma, t0
        )
    seen = set()
    for kind, n, d in itertools.product(("defined", "twisted"), (2, 3), range(3, 7)):
        _, psi = parse_instance(json.dumps(gen_instance(kind, d, ext_degree=n, seed=0)))
        for cls in [*conjugacy_classes(psi.field)[1], _identity_class(psi.field)]:
            psi_sigma = psi.conjugate(cls)
            limit = values_at_infinity(psi_sigma)
            for t0 in (0, 1, -1, 2, -2, Rational(1, 2), Rational(-3, 2)):
                v = classify_parameter(psi, psi_sigma, t0)
                assert v == classify_parameter_by_polynomials(psi, psi_sigma, t0, limit)
                seen.add(v.kind)
    assert seen >= {GOOD, NOT_ATTAINED}


def test_refused_parameters_make_no_field_products(circle, monkeypatch):
    # a parameter refused as NOT_ATTAINED or BAD_DENOMINATOR is decided on
    # integral vectors alone: no NFElement product and no field inverse
    moved, classes = _moved_by_the_quadratic_class()
    quad = next(c for c in classes if c.size == 2)
    _, psi = circle
    cls = conjugacy_classes(psi.field)[1][0]
    cases = [(moved, moved.conjugate(quad), 1), (psi, psi.conjugate(cls), 0)]
    calls = []
    for name in ("__mul__", "__rmul__", "inverse"):
        inner = NFElement.__dict__[name]

        def counted(*args, _inner=inner, _name=name):
            calls.append(_name)
            return _inner(*args)

        monkeypatch.setattr(NFElement, name, counted)
    kinds = [classify_parameter(p, s, t0).kind for p, s, t0 in cases]
    assert kinds == [NOT_ATTAINED, BAD_DENOMINATOR] and calls == []
    # the polynomial route divides in K(alpha) for the same verdict
    assert classify_parameter_by_polynomials(*cases[0]).kind == NOT_ATTAINED
    assert "inverse" in calls and "__mul__" in calls


def test_good_parameters_take_no_field_inverse(circle, monkeypatch):
    # whether psi(t) is psi^sigma's value at infinity is read off the
    # fibre's leading coefficients, with no division in the field: the
    # circle's class and each class of a cubic instance, defined and twisted
    _, psi = circle
    cases = [(psi, conjugacy_classes(psi.field)[1][0])]
    for kind in ("defined", "twisted"):
        _, cubic = parse_instance(json.dumps(gen_instance(kind, 4, ext_degree=3, seed=0)))
        cases += [(cubic, cls) for cls in conjugacy_classes(cubic.field)[1]]
    inverses = []
    inner = NFElement.inverse

    def counted(self):
        inverses.append(self)
        return inner(self)

    good = 0
    for p, cls in cases:
        psi_sigma = p.conjugate(cls)
        for t0 in itertools.islice(parameter_schedule(), 6):
            with monkeypatch.context() as m:
                m.setattr(NFElement, "inverse", counted)
                v = classify_parameter(p, psi_sigma, t0)
            if v.kind == GOOD:
                good += 1
                assert inverses == [], (p, cls.factor, t0)
            inverses.clear()
    assert good >= 4


def test_compute_u_circle(circle):
    field, psi = circle
    _, classes = conjugacy_classes(field)
    report = compute_u_for_class(psi, classes[0])
    assert report.fixes
    rel = classes[0].relative_field
    inv_t = MoebiusTransform(rel, 0, 1, 1, 0)
    assert report.u.proportional(inv_t)
    assert report.parameters_tried <= parameter_budget(psi.degree, field.degree)
    assert "fixes" in report.describe()


def test_verify_identity_agrees_with_evaluation(circle):
    field, psi = circle
    _, classes = conjugacy_classes(field)
    cls = classes[0]
    rel = cls.relative_field
    sigma = psi.conjugate(cls)
    good = MoebiusTransform(rel, 0, 1, 1, 0)
    bad = MoebiusTransform(rel, 1, 1, 0, 1)  # t + 1
    assert verify_identity(psi, sigma, good)
    assert verify_identity_by_evaluation(psi, sigma, good)
    assert not verify_identity(psi, sigma, bad)
    assert not verify_identity_by_evaluation(psi, sigma, bad)


def test_standard_parametrization_circle(circle):
    field, psi = circle
    res = standard_parametrization(psi)
    assert res.defined and res.verdict == "DefinedOverK"
    assert res.certificate is None
    # the curve is its own hypercircle here
    assert res.phi == psi


def test_standard_parametrization_quartic(quartic):
    field, psi = quartic
    res = standard_parametrization(psi)
    assert res.defined
    assert res.phi == quartic_phi_expected(field)
    # defining identity of the standard parametrization
    assert sums_to_t(field, res.phi)
    assert res.parameters_tried <= parameter_budget(psi.degree, field.degree)


def test_standard_parametrization_negative():
    x = UniPoly.gen(QQ)
    field = NumberField(QQ, x**4 - 2, "a")
    a2 = field.gen * field.gen
    psi = Parametrization(
        [
            RatFunc(UniPoly(field, [field.zero, field.one])),
            RatFunc(UniPoly(field, [field.zero, field.zero, a2])),
        ]
    )
    res = standard_parametrization(psi)
    assert not res.defined and res.verdict == "NotDefinedOverK"
    assert res.phi is None
    cert = res.certificate
    assert cert is not None and cert.cls.size == 2
    assert cert.not_attained is not None
    assert "not attained" in cert.describe()
    fixing = [r for r in res.reports if r.fixes]
    assert len(fixing) == 1 and fixing[0].cls.size == 1


def test_non_proper_raises():
    x = UniPoly.gen(QQ)
    field = NumberField(QQ, x**2 + 1, "i")
    psi = Parametrization(
        [
            RatFunc(UniPoly(field, [field.zero, field.zero, field.one])),
            RatFunc(UniPoly(field, [field.zero] * 4 + [field.one])),
        ]
    )  # (t^2, t^4): factors through t -> t^2
    assert not probably_proper(psi)
    with pytest.raises(NonProperParametrization):
        standard_parametrization(psi)


def test_probably_proper_accepts_good_input(circle):
    _, psi = circle
    assert probably_proper(psi)


def test_good_samples_match_u(circle):
    # every good verdict must satisfy s = u(t) for the witnessing u
    field, psi = circle
    _, classes = conjugacy_classes(field)
    cls = classes[0]
    sigma = psi.conjugate(cls)
    rel = cls.relative_field
    u = MoebiusTransform(rel, 0, 1, 1, 0)
    for t in range(-5, 6):
        v = classify_parameter(psi, sigma, t)
        if v.kind == GOOD:
            assert v.s == u(rel.coerce(t))


PINNED_PHI = [
    # classes of size 1, every pole finite
    ("phi7-d6", 6, dict(minpoly=cyclotomic_minpoly(7)),
     "664ee29213a8ef0258e17e5a557bed30f25cb94b17a26d7b74a31b145a22f186"),
    # one class of size 4 (relative degree 20)
    ("x5-2-d6", 6, dict(ext_degree=5),
     "a0aa0039ac206507d7b5072673b35cf067c1ca2483725ac0756eebc9d4a8d996"),
    # n = 2 at high curve degree: the affine identity term and one class
    ("x2+1-d14", 14, dict(ext_degree=2),
     "9875d8a0492ef172a85a68c5b87752a46bd5700fd063fbed7f6cd5d23c9df390"),
]


@pytest.mark.parametrize(
    "degree, field_args, digest",
    [spec[1:] for spec in PINNED_PHI],
    ids=[spec[0] for spec in PINNED_PHI],
)
def test_phi_is_pinned(degree, field_args, digest):
    doc = gen_instance("defined", degree, seed=0, **field_args)
    field, psi = parse_instance(json.dumps(doc))
    res = standard_parametrization(psi)
    assert sums_to_t(field, res.phi)
    assert hashlib.sha256(res.phi.render().encode()).hexdigest() == digest
