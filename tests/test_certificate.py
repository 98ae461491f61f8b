"""`check_certificate` re-proves a decision from the result alone: it passes
on defined instances and on the one certificate that a class moves the
curve, two values of t that are not attained, also where both candidate u
failed the identity first.  It fails on a changed u, a singular u, a moving
report with no not-attained pair, a pair with one attained t, a
not-attained pair with no good sample that proves psi proper, a changed phi
(a bumped coefficient, or a shift that only a conjugate of alpha sees), a
dropped class, and a result decided over another field object."""

import json
from dataclasses import replace

import pytest

from hypercircles import (
    MoebiusTransform,
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    UniPoly,
    check_certificate,
    gen_instance,
    load_instance,
    parse_instance,
    standard_parametrization,
)
from hypercircles import hypercircle
from hypercircles.errors import InternalInvariantError, NonProperParametrization
from hypercircles.hypercircle import (
    GOOD,
    NOT_ATTAINED,
    HypercircleResult,
    ParameterVerdict,
    classify_parameter,
    compute_u_for_class,
    conjugacy_classes,
    verify_identity,
)

from conftest import NONPROPER_DOC

x = UniPoly.gen(QQ)


def moved_after_a_failed_fit():
    """(t, t + i (t^3 - t)) over Q(i): psi(0), psi(1) and psi(-1) are
    rational, so the conjugate attains them at s = t, and both the jet and
    the fit give u = t; but psi is not over Q, the identity fails, and
    psi(2) and psi(-2) are not attained."""
    field = NumberField(QQ, x**2 + 1, "i")
    i = field.gen
    return Parametrization(
        [RatFunc(UniPoly(field, [0, 1])), RatFunc(UniPoly(field, [0, 1 - i, 0, i]))]
    )


def _moved_by_a_not_attained_pair():
    """(t, a^2 t^2) over Q(a), a^4 = 2: the class of size 2 sends a^2 to
    -a^2 and attains psi(t) only at t = 0."""
    field = NumberField(QQ, x**4 - 2, "a")
    a2 = field.gen * field.gen
    return Parametrization(
        [
            RatFunc(UniPoly(field, [field.zero, field.one])),
            RatFunc(UniPoly(field, [field.zero, field.zero, a2])),
        ]
    )


def _bumped(u):
    return MoebiusTransform._raw(u.a, u.b + 1, u.c, u.d)


def test_moving_certificates_pass():
    psi = moved_after_a_failed_fit()
    res = standard_parametrization(psi)
    cert = res.certificate
    assert [v.kind for v in cert.verdicts] == [GOOD] * 3 + [NOT_ATTAINED] * 2
    assert cert.not_attained == (2, -2) and cert.u is None
    assert res.proper_at == 0
    check_certificate(psi, res)

    psi = _moved_by_a_not_attained_pair()
    res = standard_parametrization(psi)
    assert res.certificate.not_attained is not None
    check_certificate(psi, res)


def test_a_moving_class_with_a_good_first_sample_keeps_its_certificate(monkeypatch):
    # the class classifies t = 0 as good, where the jet gives u = t, and the
    # fit through the third good sample gives u = t again; both fail the
    # identity, and the search goes on to the not-attained pair.  With no
    # jet, the fit alone is tried, and the report is the same.
    psi = moved_after_a_failed_fit()
    (cls,) = conjugacy_classes(psi.field)[1]
    tried = []

    def counted(psi, psi_sigma, u):
        tried.append(u)
        return verify_identity(psi, psi_sigma, u)

    monkeypatch.setattr(hypercircle, "verify_identity", counted)
    report = compute_u_for_class(psi, cls)
    assert report.verdicts[0].kind == GOOD
    assert report.not_attained == (2, -2) and not report.fixes
    assert len(tried) == 2 and all(u == tried[0] for u in tried)
    monkeypatch.setattr(hypercircle, "_jet_u", lambda *args: None)
    tried.clear()
    assert compute_u_for_class(psi, cls) == report
    assert len(tried) == 1


def test_defined_instances_pass(circle, quartic):
    for _, psi in (circle, quartic):
        res = standard_parametrization(psi)
        assert res.defined
        check_certificate(psi, res)


def _with_report(res, k, **changes):
    reports = list(res.reports)
    reports[k] = replace(reports[k], **changes)
    return replace(res, reports=tuple(reports))


@pytest.mark.parametrize("which", ["fixing", "fixing-beside-a-moving-class"])
def test_a_changed_u_fails(which, quartic):
    if which == "fixing":
        psi = quartic[1]
    else:
        psi = _moved_by_a_not_attained_pair()
    res = standard_parametrization(psi)
    k = next(j for j, rep in enumerate(res.reports) if rep.fixes)
    bad = _with_report(res, k, u=_bumped(res.reports[k].u))
    with pytest.raises(InternalInvariantError, match="certificate does not hold"):
        check_certificate(psi, bad)


@pytest.mark.parametrize("entry", ["zero", "one"])
def test_a_singular_u_fails(entry, quartic):
    """A fixing class's u must be a unit: u = (0, 0, 0, 0) takes no t to
    any s, and `verify_identity` refuses a singular u for a curve that is
    not a point."""
    _, psi = quartic
    res = standard_parametrization(psi)
    k = len(res.reports) - 1
    d = res.reports[k].u.d  # the jet scales u to d = 1
    a = d - d if entry == "zero" else d
    singular = MoebiusTransform._raw(a, a, a, a)
    assert not singular.is_unit
    bad = _with_report(res, k, u=singular)
    with pytest.raises(InternalInvariantError, match="certificate does not hold"):
        check_certificate(psi, bad)


def test_a_moving_report_without_a_not_attained_pair_fails(circle):
    # a fixing class that loses its u, so that it is reported as moving,
    # and a moving class whose pair is dropped
    _, psi = circle
    res = standard_parametrization(psi)
    moved = _with_report(res, 0, u=None)
    assert not moved.defined
    with pytest.raises(InternalInvariantError, match="certificate does not hold"):
        check_certificate(psi, replace(moved, phi=None))
    psi = moved_after_a_failed_fit()
    res = standard_parametrization(psi)
    with pytest.raises(InternalInvariantError, match="certificate does not hold"):
        check_certificate(psi, _with_report(res, 0, not_attained=None))


def test_a_pair_with_one_attained_t_fails():
    psi = _moved_by_a_not_attained_pair()
    res = standard_parametrization(psi)
    k = next(j for j, rep in enumerate(res.reports) if not rep.fixes)
    rep = res.reports[k]
    assert classify_parameter(psi, psi.conjugate(rep.cls), 0).kind != NOT_ATTAINED
    bad = _with_report(res, k, not_attained=(0, rep.not_attained[1]))
    with pytest.raises(InternalInvariantError, match="certificate does not hold"):
        check_certificate(psi, bad)


def test_a_not_attained_pair_needs_a_proof_of_properness():
    # the class's own GOOD verdict at t = 0 is no witness: only proper_at is
    psi = _moved_by_a_not_attained_pair()
    res = standard_parametrization(psi)
    assert any(v.kind == GOOD for v in res.certificate.verdicts)
    assert res.certificate.not_attained is not None
    assert res.proper_at is not None
    check_certificate(psi, res)
    with pytest.raises(InternalInvariantError, match="proves the parametrization proper"):
        check_certificate(psi, replace(res, proper_at=None))


def test_a_non_proper_psi_is_not_certified():
    """The reports of a psi that is not proper: the class x + a rests on a
    not-attained pair, and psi against itself has no good sample to offer.
    A forged witness does not re-classify, and a GOOD verdict in a report
    is no witness."""
    field, psi = parse_instance(json.dumps(NONPROPER_DOC))
    _, classes = conjugacy_classes(field)
    reports = tuple(compute_u_for_class(psi, cls) for cls in classes)
    assert [rep.not_attained for rep in reports] == [(1, -1)]
    result = HypercircleResult(None, field, reports)
    forged = [ParameterVerdict(GOOD, 2, field.zero), *reports[0].verdicts]
    for bad in (
        result,
        replace(result, proper_at=2),
        replace(result, reports=(replace(reports[0], verdicts=forged),)),
    ):
        with pytest.raises(InternalInvariantError, match="proves the parametrization proper"):
            check_certificate(psi, bad)
    with pytest.raises(NonProperParametrization):
        standard_parametrization(psi)


@pytest.mark.parametrize("alpha_blind", [False, True], ids=["bumped", "alpha-blind"])
def test_a_changed_phi_fails(circle, alpha_blind):
    # phi_0 + 1 breaks the sum at alpha; (phi_0 + i, phi_1 - 1) keeps it at
    # alpha = i and breaks it at the conjugate -i
    field, psi = circle
    res = standard_parametrization(psi)
    shift = (field.gen, -field.one) if alpha_blind else (field.one, field.zero)
    phi = Parametrization(
        [comp + RatFunc.constant(field, c) for comp, c in zip(res.phi, shift)]
    )
    with pytest.raises(InternalInvariantError, match="does not interpolate"):
        check_certificate(psi, replace(res, phi=phi))


def test_a_defined_result_without_phi_fails(quartic):
    _, psi = quartic
    res = standard_parametrization(psi)
    with pytest.raises(InternalInvariantError, match="carries no phi"):
        check_certificate(psi, replace(res, phi=None))


def test_a_dropped_class_fails(quartic):
    _, psi = quartic
    res = standard_parametrization(psi)
    assert len(res.reports) == 2
    with pytest.raises(InternalInvariantError, match="do not cover"):
        check_certificate(psi, replace(res, reports=res.reports[1:]))


def test_a_result_over_another_field_object_raises_type_error(tmp_path):
    # two loads of one file build two fields whose elements do not combine:
    # the check names the mismatch before any arithmetic
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(gen_instance("twisted", 3, ext_degree=3, seed=0)))
    _, psi = load_instance(str(path))
    _, other = load_instance(str(path))
    res = standard_parametrization(other)
    check_certificate(other, res)
    with pytest.raises(TypeError, match=r"result\.field is not psi\.field"):
        check_certificate(psi, res)
