"""The decision on a grid of generated instances: n = 2 at degree 3-6 and
n = 3 at degree 3-4, seed 0.  Defined instances must give phi with
sum phi_i alpha^i = t that lies on the Weil witness variety; twisted ones
must be refused with a minimum field of degree n.  n = 3 at degree 5 and 6,
inside the witness oracle's limits too, are left out for time: their
witness checks take about 6 s and 17 s on a 2-core x86-64 VM."""

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
from hypercircles.ratfunc import RatFunc

GRID = [(2, d) for d in range(3, 7)] + [(3, d) for d in range(3, 5)]


def _decide(kind, n, d):
    doc = gen_instance(kind, d, ext_degree=n, seed=0)
    field, psi = parse_instance(json.dumps(doc))
    return field, psi, standard_parametrization(psi, field)


@pytest.mark.parametrize("n, d", GRID, ids=[f"n{n}-d{d}" for n, d in GRID])
def test_defined_instance_gives_phi_on_the_witness(n, d):
    field, psi, res = _decide("defined", n, d)
    assert res.verdict == "DefinedOverK"
    total = RatFunc.constant(field, field.zero)
    power = field.one
    for comp in res.phi:
        total = total + comp * power
        power = power * field.gen
    assert total == RatFunc.gen(field)
    assert check_on_witness(weil_substitution(psi), res.phi)


@pytest.mark.parametrize("n, d", GRID, ids=[f"n{n}-d{d}" for n, d in GRID])
def test_twisted_instance_has_minimum_field_of_degree_n(n, d):
    field, _, res = _decide("twisted", n, d)
    assert res.verdict == "NotDefinedOverK"
    fixing = [rep.cls for rep in res.reports if rep.fixes]
    assert minimum_field(field, fixing).degree == n
