"""The decision on a grid of generated instances: n = 2 at degree 3-6 and
n = 3 at degree 3-6, seed 0.  Every decision must pass `check_certificate`.
Defined instances must give phi with sum phi_i alpha^i = t, which lies on the
Weil witness variety (`oracles.check_on_witness`, checked where it runs in
well under a second: not at n = 3, degree 5 and 6, where it takes about 6 s
and 17 s on a 2-core x86-64 VM); twisted ones must be refused with a minimum
field of degree n, the one the kernel of sigma(x) = x gives
(`oracles.fixed_field_by_kernel`).  The pinned instances below, up to
n = 6, pass `check_certificate` too, and two CLI outputs over x^6 - 2 hash
to pinned values.

A unit Moebius reparametrization over Q(alpha) describes the same curve, so
on a smaller grid it must leave the verdict, the classes that fix the curve
and (for defined instances) the defining property of phi unchanged.

Every fixing class on that grid gets u from the 2-jet at its first good
sample, and that u is the three-point fit's, coordinate for coordinate.

Every class search on the grid, and the properness witness, ends within
`parameter_budget` of d = `curve_degree_bound`, which is psi's degree
there; a class that moves the curve attains psi(t) at no more than d^2
parameters that are not poles (the Bezout bound of `parameter_budget`'s
docstring)."""

import hashlib
import json

import pytest

from hypercircles import (
    check_certificate,
    classify_parameter,
    gen_instance,
    instance_doc,
    minimum_field,
    parameter_budget,
    parse_instance,
    standard_parametrization,
)
from hypercircles import cli, hypercircle
from hypercircles.hypercircle import (
    BAD_DENOMINATOR,
    GOOD,
    NOT_ATTAINED,
    compute_u_for_class,
    curve_degree_bound,
    parameter_schedule,
)
from hypercircles.instances import serialize_instance
from hypercircles.ratfunc import MoebiusTransform

from oracles import check_on_witness, fixed_field_by_kernel, sums_to_t, weil_substitution
from test_certificate import moved_after_a_failed_fit
from test_minfield import sextic_subfield_instance

GRID = [(2, d) for d in range(3, 7)] + [(3, d) for d in range(3, 7)]
WITNESS_GRID = [(2, d) for d in range(3, 7)] + [(3, d) for d in range(3, 5)]
MOEBIUS_GRID = [(2, 3), (2, 4), (3, 3)]


def _decide(kind, n, d):
    doc = gen_instance(kind, d, ext_degree=n, seed=0)
    field, psi = parse_instance(json.dumps(doc))
    return field, psi, standard_parametrization(psi)


@pytest.mark.parametrize("n, d", GRID, ids=[f"n{n}-d{d}" for n, d in GRID])
def test_defined_instance_gives_phi_on_the_witness(n, d):
    field, psi, res = _decide("defined", n, d)
    assert res.verdict == "DefinedOverK"
    check_certificate(psi, res)
    assert sums_to_t(field, res.phi)
    if (n, d) in WITNESS_GRID:
        assert check_on_witness(weil_substitution(psi), res.phi)


@pytest.mark.parametrize("n, d", GRID, ids=[f"n{n}-d{d}" for n, d in GRID])
def test_twisted_instance_has_minimum_field_of_degree_n(n, d):
    field, psi, res = _decide("twisted", n, d)
    assert res.verdict == "NotDefinedOverK"
    check_certificate(psi, res)
    fixing = [rep.cls for rep in res.reports if rep.fixes]
    fixed = minimum_field(field, fixing)
    assert fixed.degree == n
    got = (fixed.basis, fixed.primitive, fixed.primitive_minpoly)
    assert got == fixed_field_by_kernel(field, fixing)


@pytest.mark.parametrize("kind", ["defined", "twisted"])
@pytest.mark.parametrize(
    "n, d", MOEBIUS_GRID, ids=[f"n{n}-d{d}" for n, d in MOEBIUS_GRID]
)
def test_unit_moebius_reparametrization_keeps_the_decision(kind, n, d):
    field, psi, res = _decide(kind, n, d)
    a = field.gen
    u = MoebiusTransform(field, a, 1, 1, a + 2)  # (a t + 1)/(t + a + 2)
    assert u.is_unit
    res2 = standard_parametrization(psi.compose_moebius(u))
    assert res2.verdict == res.verdict
    assert [r.fixes for r in res2.reports] == [r.fixes for r in res.reports]
    if kind == "defined":
        assert sums_to_t(field, res2.phi)


BUDGET_CASES = [(kind, n, d) for kind in ("defined", "twisted") for n, d in GRID]


@pytest.mark.parametrize(
    "case",
    BUDGET_CASES + ["failed-fit"],
    ids=[f"{k}-n{n}-d{d}" for k, n, d in BUDGET_CASES] + ["failed-fit"],
)
def test_every_search_ends_within_the_proven_budget(case):
    if case == "failed-fit":
        psi = moved_after_a_failed_fit()
        res = standard_parametrization(psi)
    else:
        _, psi, res = _decide(*case)
        # a generated instance has one denominator
        assert curve_degree_bound(psi) == psi.degree
    d = curve_degree_bound(psi)
    for rep in res.reports:
        tried = [v.kind for v in rep.verdicts if v.kind != BAD_DENOMINATOR]
        assert len(tried) <= parameter_budget(d)
        if not rep.fixes:
            assert len(tried) - tried.count(NOT_ATTAINED) <= d * d
    if not res.defined:
        # the witness: every non-pole parameter up to and including proper_at
        witness = []
        for t in parameter_schedule():
            kind = classify_parameter(psi, psi, t).kind
            if kind != BAD_DENOMINATOR:
                witness.append(kind)
            if t == res.proper_at:
                break
        assert witness[-1] == GOOD and len(witness) <= parameter_budget(d)


PINNED = [
    ("defined", 2, 3),
    ("defined", 2, 5),
    ("twisted", 2, 3),
    ("defined", 3, 3),
    ("twisted", 3, 4),
    ("defined", 5, 4),
    ("twisted", 5, 4),
    ("defined", 6, 4),
    ("twisted", 6, 4),
]
PINNED_SHA256 = "a8261100ca99db58c811a98a1cdd2c01700a73e2a6fd514eea38e2060e28b0b4"


def _rendered_outputs(kind, n, d):
    """The decision's outputs as text: the verdict, each class description
    and per-parameter verdict, the phi document of a defined instance, and
    the minimum field (degree, basis, primitive element, its minpoly) of a
    refused one."""
    field, _, res = _decide(kind, n, d)
    lines = [res.verdict]
    for rep in res.reports:
        lines.append(rep.describe())
        lines.extend(str(v) for v in rep.verdicts)
    if res.defined:
        lines.append(json.dumps(instance_doc(field, res.phi), sort_keys=True))
    else:
        fixed = minimum_field(field, [rep.cls for rep in res.reports if rep.fixes])
        lines.append(str(fixed.degree))
        lines.extend(str(b) for b in fixed.basis)
        lines.append(str(fixed.primitive))
        lines.append(fixed.primitive_minpoly.render("x"))
    return "\n".join(lines)


def test_pipeline_outputs_are_pinned():
    """The rendered outputs of nine seed-0 instances hash to a fixed value.

    A change that should leave every output as it is (a refactor, a
    speed-up) must keep this hash.  A change that alters outputs on purpose
    refreshes PINNED_SHA256 and justifies the refresh in CHANGES.md."""
    text = "\n\n".join(_rendered_outputs(*spec) for spec in PINNED)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


# sha256 of the standard output of `compute --check` on the seed-0 twisted
# x^6 - 2 instance of degree 4, a refusal whose certificate is re-proved
# (none of its gcds combines several primes; `test_phi_is_pinned` pins that
# route), and of `minfield` on the x^6 - 2 instance over Q(sqrt 2), which
# prints M_L and re-proves the decision's certificate.  The same refresh
# rule as PINNED_SHA256 holds.
CLI_PINNED_SHA256 = {
    "compute --check": "488fc15bc386578f680048979a03cfdf7e74182f0e60e5b9f62838da8fa5946b",
    "minfield": "f0ad965d5e725a56fb56b34b1516d80a9b12a4c9c09bd59b75736b5647fece8e",
}


@pytest.mark.parametrize("command", sorted(CLI_PINNED_SHA256))
def test_cli_outputs_are_pinned(tmp_path, capsys, command):
    path = tmp_path / "instance.json"
    if command == "minfield":
        text = serialize_instance(*sextic_subfield_instance(2, 4))
        want = cli.EXIT_OK
    else:
        text = json.dumps(gen_instance("twisted", 4, ext_degree=6, seed=0))
        want = cli.EXIT_NOT_DEFINED
    path.write_text(text, encoding="utf-8")
    assert cli.main(command.split() + [str(path)]) == want
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_PINNED_SHA256[command]


@pytest.mark.parametrize(
    "kind, n, d", PINNED, ids=[f"{k}-n{n}-d{d}" for k, n, d in PINNED]
)
def test_pinned_instance_passes_its_certificate_check(kind, n, d):
    _, psi, res = _decide(kind, n, d)
    check_certificate(psi, res)


JET_CASES = [("defined", n, d) for n, d in GRID] + [
    spec for spec in PINNED if spec[0] == "defined" and spec[1] > 3
]


@pytest.mark.parametrize(
    "kind, n, d", JET_CASES, ids=[f"{k}-n{n}-d{d}" for k, n, d in JET_CASES]
)
def test_the_jet_gives_the_three_point_u(monkeypatch, kind, n, d):
    _check_jet(monkeypatch, *_decide(kind, n, d)[1:])


@pytest.mark.parametrize("sub_degree", [2, 3])
def test_the_jet_gives_the_three_point_u_on_fixing_classes_of_negatives(
    monkeypatch, sub_degree
):
    _, psi = sextic_subfield_instance(sub_degree, 4)
    res = standard_parametrization(psi)
    assert not res.defined and any(rep.fixes for rep in res.reports)
    _check_jet(monkeypatch, psi, res)


def _check_jet(monkeypatch, psi, res):
    """Each fixing class stopped at its first good sample, and the jet off,
    the loop's three good samples fit the same u, coordinate for
    coordinate: both are normalized with the last nonzero coordinate 1."""
    monkeypatch.setattr(hypercircle, "_jet_u", lambda *args: None)
    fixing = [rep for rep in res.reports if rep.fixes]
    assert fixing
    for rep in fixing:
        assert [v.kind for v in rep.verdicts].count(GOOD) == 1
        assert rep.verdicts[-1].kind == GOOD
        fitted = compute_u_for_class(psi, rep.cls)
        assert fitted.fixes and [v.kind for v in fitted.verdicts].count(GOOD) >= 3
        u, w = rep.u, fitted.u
        assert (u.a, u.b, u.c, u.d) == (w.a, w.b, w.c, w.d)
        assert str(u) == str(w)
