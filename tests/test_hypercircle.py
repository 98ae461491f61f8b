"""The definability pipeline: parameter classification, Moebius recovery,
trace assembly, and the final standard parametrization."""

import hashlib
import itertools
import json
import random

import pytest

from hypercircles import (
    ConjugacyClass,
    MoebiusTransform,
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    Rational,
    UniPoly,
    check_certificate,
    classify_parameter,
    compute_u_for_class,
    conjugacy_classes,
    gen_instance,
    parameter_budget,
    parse_instance,
    standard_parametrization,
    verify_identity,
)
from hypercircles import hypercircle, modp
from hypercircles.errors import NonProperParametrization
from hypercircles.generators import canonical_minpoly, cyclotomic_minpoly
from hypercircles.hypercircle import (
    BAD_DENOMINATOR,
    GOOD,
    NOT_ATTAINED,
    SINGULAR,
    curve_degree_bound,
    parameter_schedule,
    trace_term,
)
from hypercircles.numberfield import NFElement

from conftest import quartic_phi_expected
from oracles import (
    at,
    classify_parameter_by_polynomials,
    moebius_by_kernel,
    sums_to_t,
    trace_term_by_traces,
    values_at_infinity,
    verify_identity_by_evaluation,
)
from test_minfield import _model, sextic_subfield_instance


def _identity_class(field):
    """The identity conjugation alpha -> alpha as a class of size 1, whose
    class field K(alpha)(b) has degree 1 over K(alpha)."""
    return ConjugacyClass(UniPoly(field, [-field.gen, field.one]), "z")


def test_parameter_budget():
    # max(d^2 + 2, d^2 - 3d + 7): the moving classes' bound from d = 2 on
    assert [parameter_budget(d) for d in (1, 2, 3)] == [5, 6, 11]
    assert parameter_budget(25) == 627


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
        classes = [*conjugacy_classes(psi.field)[1], _identity_class(psi.field)]
        for psi_sigma in [*(psi.conjugate(cls) for cls in classes), psi]:
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
    assert report.parameters_tried <= parameter_budget(psi.degree)
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
    assert res.parameters_tried <= parameter_budget(psi.degree)


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
    assert hypercircle._proper_at(psi) is None
    with pytest.raises(NonProperParametrization):
        standard_parametrization(psi)


def _gaussian_poles(denominators):
    """The curve (1/D, ...) over Q(i), one component per D, given by its
    coefficients ascending."""
    x = UniPoly.gen(QQ)
    field = NumberField(QQ, x**2 + 1, "i")
    one = UniPoly.one(field)
    return Parametrization([RatFunc(one, UniPoly(field, list(d))) for d in denominators])


def test_poles_spend_no_budget():
    # the first five parameters are the poles of this curve, whose
    # components have degree 1 over five denominators, so it has degree 5;
    # they are recorded but do not count, and the sixth decides
    psi = _gaussian_poles([(-c, 1) for c in (0, 1, -1, 2, -2)])
    assert psi.degree == 1 and curve_degree_bound(psi) == 5
    res = standard_parametrization(psi)
    assert res.defined
    (rep,) = res.reports
    assert [v.kind for v in rep.verdicts] == [BAD_DENOMINATOR] * 5 + [GOOD]
    t = UniPoly.gen(psi.field)
    assert res.phi == Parametrization([RatFunc(t), RatFunc(UniPoly.zero(psi.field))])
    check_certificate(psi, res)
    # the budget still ends a search on a non-proper curve with poles, and
    # its five poles in the schedule come on top of the budget
    psi = _gaussian_poles([(-c, 0, 1) for c in (0, 1, 4)])
    budget = parameter_budget(curve_degree_bound(psi))
    assert psi.degree == 2 and budget == 38
    verdicts = list(hypercircle._budgeted_verdicts(psi, psi))
    assert len(verdicts) == budget + 5
    assert [v.t for v in verdicts if v.kind == BAD_DENOMINATOR] == [0, 1, -1, 2, -2]
    assert hypercircle._proper_at(psi) is None
    with pytest.raises(NonProperParametrization, match=r"budget \(38\)"):
        standard_parametrization(psi)


def test_proper_at_accepts_good_input(circle):
    # the witness is the first t that psi against itself classifies as
    # GOOD, with s = t
    moved, _ = _moved_by_the_quadratic_class()
    for psi in (circle[1], moved):
        t = hypercircle._proper_at(psi)
        assert t == next(
            t0 for t0 in parameter_schedule() if classify_parameter(psi, psi, t0).kind == GOOD
        )
        v = classify_parameter(psi, psi, t)
        assert v.kind == GOOD and v.s == t


@pytest.mark.parametrize("k", [2, 3])
def test_the_witness_walks_past_singular_parameters(k):
    # (i t^2, t^3 prod (t^2 - j^2)) over Q(i) is proper (t is rational in
    # x and y), with a cusp at t = 0 and nodes at t = +-1 .. +-k; its one
    # class does not attain t = 1 and t = -1, so the witness walks past
    # the 2k + 1 singular parameters to t = k + 1
    field = NumberField(QQ, UniPoly(QQ, [1, 0, 1]), "i")
    t = UniPoly.gen(field)
    y = t**3
    for j in range(1, k + 1):
        y = y * (t * t - UniPoly(field, [field.coerce(j * j)]))
    psi = Parametrization([RatFunc(t * t * field.gen), RatFunc(y)])
    res = standard_parametrization(psi)
    (rep,) = res.reports
    assert not res.defined and rep.not_attained == (1, -1)
    assert res.proper_at == k + 1
    kinds = [classify_parameter(psi, psi, t0).kind for t0 in range(-k, k + 1)]
    assert kinds == [SINGULAR] * (2 * k + 1)
    check_certificate(psi, res)


def _jet_off(monkeypatch, psi, cls):
    """compute_u_for_class with the jet switched off: three good samples
    and the three-point fit."""
    with monkeypatch.context() as m:
        m.setattr(hypercircle, "_jet_u", lambda *args: None)
        return compute_u_for_class(psi, cls)


def _goods(report):
    return [v.kind for v in report.verdicts].count(GOOD)


def _coefficients(u):
    return (u.a, u.b, u.c, u.d)


def _affine_over_gaussian():
    """(t + i, (t + i)^2) over Q(i): its conjugate class is carried back by
    the affine u = t + 2 i, with c = 0."""
    field = NumberField(QQ, UniPoly(QQ, [1, 0, 1]), "i")
    w = UniPoly(field, [field.gen, field.one])
    return field, Parametrization([RatFunc(w), RatFunc(w * w)])


@pytest.mark.parametrize("which", ["d = 0", "c = 0"])
def test_the_jet_normalizes_like_the_three_point_fit(monkeypatch, circle, which):
    # the circle's u = 1/t has d = 0 (u(0) is infinity), so c is set to 1;
    # an affine u has c = 0 and d = 1
    field, psi = circle if which == "d = 0" else _affine_over_gaussian()
    (cls,) = conjugacy_classes(field)[1]
    report = compute_u_for_class(psi, cls)
    assert report.fixes and _goods(report) == 1
    u = report.u
    rel = cls.relative_field
    if which == "d = 0":
        assert (u.c, u.d) == (rel.one, rel.zero) and u == MoebiusTransform(rel, 0, 1, 1, 0)
    else:
        assert (u.c, u.d) == (rel.zero, rel.one)
        assert u == MoebiusTransform(rel, 1, 2 * rel.coerce(field.gen), 0, 1)
    fitted = _jet_off(monkeypatch, psi, cls)
    assert _goods(fitted) == 3 and _coefficients(fitted.u) == _coefficients(u)


def test_a_jet_that_gives_out_leaves_the_loop_as_it_was(monkeypatch, quartic):
    # no reconstruction: the loop goes on to three good samples and the
    # three-point fit, with the same u
    field, psi = quartic
    _, classes = conjugacy_classes(field)
    jet = [compute_u_for_class(psi, cls) for cls in classes]
    monkeypatch.setattr(hypercircle, "from_values", lambda *args: None)
    loop = [compute_u_for_class(psi, cls) for cls in classes]
    for by_jet, by_loop, cls in zip(jet, loop, classes):
        assert by_jet.fixes and by_loop.fixes
        assert _goods(by_jet) == 1 and _goods(by_loop) == 3
        assert by_loop.verdicts[: len(by_jet.verdicts)] == by_jet.verdicts
        assert _coefficients(by_loop.u) == _coefficients(by_jet.u)
        assert by_loop.verdicts == _jet_off(monkeypatch, psi, cls).verdicts


def test_a_jet_gives_out_on_its_own(monkeypatch):
    # the seed-2 defined x^3 - 2, d = 6 instance: its class's first root
    # is rebuilt at q = p^2, about 2^41, but u has 21-bit coordinates,
    # above sqrt(q/2), so `from_values` cannot rebuild them there; the
    # class fixes the curve through three good samples and the fit
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(3), seed=2)
    _, psi = parse_instance(json.dumps(doc))
    jet, rebuild = hypercircle._jet_u, hypercircle.from_values
    jets, rebuilt = [], []
    monkeypatch.setattr(hypercircle, "_jet_u", lambda *args: jets.append(jet(*args)) or jets[-1])
    monkeypatch.setattr(
        hypercircle, "from_values", lambda *args: rebuilt.append(rebuild(*args)) or rebuilt[-1]
    )
    res = standard_parametrization(psi)
    (rep,) = res.reports
    assert jets == [None] and rebuilt == [None]
    assert [v.kind for v in rep.verdicts] == [GOOD] * 3
    sp, q, _ = rep.verdicts[0].kept
    assert q == sp.p**2
    assert rep.fixes and verify_identity(psi, psi.conjugate(rep.cls), rep.u)


FIT_CASES = [
    ("x3-2", canonical_minpoly(3), 6, 2),
    ("x6-2", canonical_minpoly(6), 6, 2),
    ("Phi7", cyclotomic_minpoly(7), 3, 3),
    ("Phi7", cyclotomic_minpoly(7), 3, 4),
]


@pytest.mark.parametrize(
    "name, minpoly, degree, seed",
    FIT_CASES,
    ids=[f"{name}-d{degree}-seed{seed}" for name, _, degree, seed in FIT_CASES],
)
def test_the_fit_decides_where_the_jet_gives_out(monkeypatch, name, minpoly, degree, seed):
    # defined instances on which one class gets its u from the three-point
    # fit: the closed form gives the u and phi that the fit by row
    # reduction gives, and the certificate holds
    doc = gen_instance("defined", degree, minpoly=minpoly, seed=seed)
    _, psi = parse_instance(json.dumps(doc))
    fits = []
    fit = hypercircle.moebius_from_three_points
    monkeypatch.setattr(
        hypercircle, "moebius_from_three_points", lambda *args: fits.append(fit(*args)) or fits[-1]
    )
    res = standard_parametrization(psi)
    assert len(fits) == 1 and any(rep.u is fits[0] for rep in res.reports)
    check_certificate(psi, res)
    monkeypatch.setattr(hypercircle, "moebius_from_three_points", moebius_by_kernel)
    ref = standard_parametrization(psi)
    assert [_coefficients(rep.u) for rep in res.reports] == [
        _coefficients(rep.u) for rep in ref.reports
    ]
    assert res.phi == ref.phi


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
            assert v.s == at(u, rel.coerce(t))


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
    "name, degree, field_args, digest", PINNED_PHI, ids=[spec[0] for spec in PINNED_PHI]
)
def test_phi_is_pinned(monkeypatch, name, degree, field_args, digest):
    # a gcd that combines images over several primes (`modp._crt`) has
    # degree 2 or more, as one of degree 1 is lifted at its first image's
    # prime; for phi7-d6 the sums that check phi's defining identity take
    # that route
    crts = []
    crt, gcd = modp._crt, modp._gcd
    monkeypatch.setattr(modp, "_crt", lambda *args: crts.append(args) or crt(*args))
    degrees = []

    def watched(*args):
        before = len(crts)
        g, kept = gcd(*args)
        if len(crts) > before:
            degrees.append(g.degree)
        return g, kept

    monkeypatch.setattr(modp, "_gcd", watched)
    doc = gen_instance("defined", degree, seed=0, **field_args)
    field, psi = parse_instance(json.dumps(doc))
    res = standard_parametrization(psi)
    assert sums_to_t(field, res.phi)
    assert hashlib.sha256(res.phi.render().encode()).hexdigest() == digest
    assert all(d >= 2 for d in degrees)
    if name == "phi7-d6":
        assert crts and degrees


# the fields whose norms are checked in test_norms, x^5 - 2, and a cubic
# whose class field's generator is rescaled by 36
TRACE_FIELDS = {
    "Q(i)": [1, 0, 1],
    "Q(2^(1/3))": [-2, 0, 0, 1],
    "Q(2^(1/5))": [-2, 0, 0, 0, 0, 1],
    "Q(2^(1/6))": [-2, 0, 0, 0, 0, 0, 1],
    "Phi5": [1, 1, 1, 1, 1],
    "Phi7": [1, 1, 1, 1, 1, 1, 1],
    "rescaled": [Rational(1, 3), Rational(-1, 2), 0, 1],
}


def _trace_field(name):
    """A field of TRACE_FIELDS, or ("rerun") the tower L(alpha)/L over
    L = Q(alpha^3) of x^6 - 2, the minimum field of the x^6 - 2 rewrite of
    a curve over Q(sqrt 2), as `oracles.relative_model` builds it to rerun
    the decision over L: its class has size 2."""
    if name != "rerun":
        return NumberField(QQ, UniPoly(QQ, TRACE_FIELDS[name]), "a")
    return _model(lambda: sextic_subfield_instance(2, 4))[3][0]


def _random_element(rng, field):
    if not isinstance(field, NumberField):
        return Rational(rng.randint(-9, 9), rng.choice((1, 2, 3, 8)))
    return field.element([_random_element(rng, field.base) for _ in range(field.degree)])


@pytest.mark.parametrize("name", [*TRACE_FIELDS, "rerun"])
def test_trace_term_matches_the_traces(name):
    # Euler's lemma gives each class term exactly as tracing every
    # coefficient does: u affine (c = 0), with d = 0, with d = 1, and with
    # random coordinates, which are scaled to one of those first
    field = _trace_field(name)
    m_alpha, classes = conjugacy_classes(field)
    inv = field.one / m_alpha(field.gen)
    rng = random.Random(35)
    for cls in classes:
        rel = cls.relative_field
        zero, one = rel.zero, rel.one
        for c, d in [(zero, one), (one, zero), (None, zero), (None, one), (None, None), (zero, None)]:
            r = lambda: _random_element(rng, rel)  # noqa: E731
            u = MoebiusTransform._raw(r(), r(), r() if c is None else c, r() if d is None else d)
            assert trace_term(inv, cls, u) == trace_term_by_traces(m_alpha, cls, u), (cls, u)


def test_trace_term_traces_only_the_powers_of_c(monkeypatch):
    # on the seed-0 defined x^5 - 2, d = 6 decision (one class, of size 4)
    # a class term inverts no element of the class field and traces one
    # only inside one characteristic polynomial, that of c
    doc = gen_instance("defined", 6, minpoly=canonical_minpoly(5), seed=0)
    _, psi = parse_instance(json.dumps(doc))
    events = []

    def watch(owner, name, label):
        inner = getattr(owner, name)

        def watched(*args):
            events.append((label, args[-1] if label == "term" else args[0].field))
            try:
                return inner(*args)
            finally:
                events.append(("end " + label, None))

        monkeypatch.setattr(owner, name, watched)

    watch(hypercircle, "trace_term", "term")
    watch(NFElement, "inverse", "inverse")
    watch(NFElement, "trace", "trace")
    watch(NFElement, "_powers_and_charpoly", "charpoly")
    res = standard_parametrization(psi)
    assert res.defined
    (rep,) = res.reports
    rel = rep.cls.relative_field
    start = events.index(("term", rep.u))
    inside = events[start : events.index(("end term", None), start)]
    assert ("charpoly", rel) in inside
    assert ("inverse", rel) not in inside
    first = inside.index(("charpoly", rel))
    last = inside.index(("end charpoly", None), first)
    assert inside.count(("charpoly", rel)) == 1
    traced = [i for i, ev in enumerate(inside) if ev == ("trace", rel)]
    assert len(traced) == rel.degree and all(first < i < last for i in traced)
