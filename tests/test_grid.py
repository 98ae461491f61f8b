"""The decision on a grid of generated instances: n = 2 at degree 3-6 and
n = 3 at degree 3-4, seed 0.  Defined instances must give phi with
sum phi_i alpha^i = t that lies on the Weil witness variety; twisted ones
must be refused with a minimum field of degree n.  n = 3 at degree 5 and 6,
inside the witness oracle's limits too, are left out for time: their
witness checks take about 6 s and 17 s on a 2-core x86-64 VM.

A unit Moebius reparametrization over Q(alpha) describes the same curve, so
on a smaller grid it must leave the verdict, the classes that fix the curve
and (for defined instances) the defining property of phi unchanged."""

import json

import pytest

from hypercircles import (
    check_on_witness,
    gen_instance,
    minimum_field,
    parse_instance,
    standard_parametrization,
    weil_substitution,
)
from hypercircles.ratfunc import MoebiusTransform, RatFunc

GRID = [(2, d) for d in range(3, 7)] + [(3, d) for d in range(3, 5)]
MOEBIUS_GRID = [(2, 3), (2, 4), (3, 3)]


def _decide(kind, n, d):
    doc = gen_instance(kind, d, ext_degree=n, seed=0)
    field, psi = parse_instance(json.dumps(doc))
    return field, psi, standard_parametrization(psi, field)


def _sums_to_t(field, phi):
    """sum phi_i alpha^i == t, the property that defines phi."""
    total = RatFunc.constant(field, field.zero)
    power = field.one
    for comp in phi:
        total = total + comp * power
        power = power * field.gen
    return total == RatFunc.gen(field)


@pytest.mark.parametrize("n, d", GRID, ids=[f"n{n}-d{d}" for n, d in GRID])
def test_defined_instance_gives_phi_on_the_witness(n, d):
    field, psi, res = _decide("defined", n, d)
    assert res.verdict == "DefinedOverK"
    assert _sums_to_t(field, res.phi)
    assert check_on_witness(weil_substitution(psi), res.phi)


@pytest.mark.parametrize("n, d", GRID, ids=[f"n{n}-d{d}" for n, d in GRID])
def test_twisted_instance_has_minimum_field_of_degree_n(n, d):
    field, _, res = _decide("twisted", n, d)
    assert res.verdict == "NotDefinedOverK"
    fixing = [rep.cls for rep in res.reports if rep.fixes]
    assert minimum_field(field, fixing).degree == n


@pytest.mark.parametrize("kind", ["defined", "twisted"])
@pytest.mark.parametrize(
    "n, d", MOEBIUS_GRID, ids=[f"n{n}-d{d}" for n, d in MOEBIUS_GRID]
)
def test_unit_moebius_reparametrization_keeps_the_decision(kind, n, d):
    field, psi, res = _decide(kind, n, d)
    a = field.gen
    u = MoebiusTransform(field, a, 1, 1, a + 2)  # (a t + 1)/(t + a + 2)
    assert u.is_unit
    res2 = standard_parametrization(psi.compose_moebius(u), field)
    assert res2.verdict == res.verdict
    assert [r.fixes for r in res2.reports] == [r.fixes for r in res.reports]
    if kind == "defined":
        assert _sums_to_t(field, res2.phi)
