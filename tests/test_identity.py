"""The exact identity proof psi == psi^sigma o u: the quadratic Moebius
composition against the term-by-term reference, and `verify_identity`
against cross-multiplication and evaluation on generated instances."""

import json
import random

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
    parse_instance,
    standard_parametrization,
    verify_identity,
)
from hypercircles import hypercircle
from hypercircles.generators import canonical_minpoly
from hypercircles.hypercircle import compute_u_for_class
from hypercircles.ratfunc import MoebiusTransform, moebius_compose_pair

from oracles import (
    cubic_compose_pair,
    verify_identity_by_cross_multiplication,
    verify_identity_by_evaluation,
)

CHECKS = (
    verify_identity,
    verify_identity_by_cross_multiplication,
    verify_identity_by_evaluation,
)


def _relative_field(n):
    """The relative field of the largest conjugacy class of Q(alpha),
    alpha a root of the stock degree-n polynomial."""
    field = NumberField(QQ, canonical_minpoly(n), "a")
    _, classes = conjugacy_classes(field)
    return max(classes, key=lambda c: c.size).relative_field


def _random_element(rng, field):
    """A sparse random element: two terms per tower level."""
    if not isinstance(field, NumberField):
        return Rational(rng.randint(-5, 5), rng.randint(1, 3))
    acc = field.zero
    for j in rng.sample(range(field.degree), min(2, field.degree)):
        acc = acc + field.gen**j * _random_element(rng, field.base)
    return acc


def _random_poly(rng, field, degree):
    cs = [_random_element(rng, field) for _ in range(degree + 1)]
    while not cs[-1]:
        cs[-1] = _random_element(rng, field)
    return UniPoly(field, cs)


def _maps(rng, field):
    """Generic maps plus the shapes the composition special-cases."""
    r = lambda: _random_element(rng, field)  # noqa: E731
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


@pytest.mark.parametrize(
    "make_field",
    [
        lambda: NumberField(QQ, canonical_minpoly(2), "i"),
        lambda: NumberField(QQ, canonical_minpoly(3), "a"),
        lambda: _relative_field(5),
    ],
    ids=["Q(i)", "Q(cbrt2)", "x^5-2 class"],
)
def test_compose_pair_matches_cubic_reference(make_field):
    field = make_field()
    rng = random.Random(f"compose:{field.absolute_degree}")
    shapes = [(3, 3), (2, 4), (4, 1), (0, 3), (-1, 2)]
    for dn, dd in shapes:
        num = (
            UniPoly.zero(field) if dn < 0 else _random_poly(rng, field, dn)
        )
        den = _random_poly(rng, field, dd)
        for mob in _maps(rng, field):
            for pad in (None, max(dn, dd) + 2):
                got = moebius_compose_pair(num, den, mob, pad)
                want = cubic_compose_pair(num, den, mob, pad)
                assert got == want, (dn, dd, mob, pad)


def _decided_classes(n, degree, seed):
    doc = gen_instance("defined", degree, minpoly=canonical_minpoly(n), seed=seed)
    field, psi = parse_instance(json.dumps(doc))
    _, classes = conjugacy_classes(field)
    for cls in classes:
        report = compute_u_for_class(psi, cls)
        assert report.fixes
        yield psi, psi.conjugate(cls), report.u


def _bumped(u, k):
    """u with its k-th coefficient (a, b, c, d order) increased by one."""
    coeffs = [u.a, u.b, u.c, u.d]
    coeffs[k] = coeffs[k] + 1
    return MoebiusTransform._raw(*coeffs)


@pytest.mark.parametrize("n, degree", [(2, 7), (3, 5), (5, 4)])
def test_verify_identity_agrees_with_references(n, degree):
    for psi, sigma, u in _decided_classes(n, degree, seed=2):
        assert [check(psi, sigma, u) for check in CHECKS] == [True] * 3
        for k in range(4):
            bad = _bumped(u, k)
            assert [check(psi, sigma, bad) for check in CHECKS] == [False] * 3


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
        assert [check(psi, sigma, ident) for check in CHECKS] == [False] * 3


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
