"""The restriction-of-scalars witness oracle used to cross-check results
(`oracles.weil_substitution` and `oracles.check_on_witness`)."""

import json

import pytest

from hypercircles import (
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    UniPoly,
    gen_instance,
    parse_instance,
    standard_parametrization,
)
from hypercircles.errors import InstanceError

from oracles import check_on_witness, weil_substitution

x = UniPoly.gen(QQ)


def test_witness_system_shape(circle):
    field, psi = circle
    system = weil_substitution(psi)
    assert system.nvars == 2
    assert len(system.coordinate_polys) == 2
    assert all(len(row) == 2 for row in system.coordinate_polys)
    assert not system.denominator.is_zero


def test_circle_parametrization_lies_on_witness(circle):
    field, psi = circle
    res = standard_parametrization(psi)
    assert res.defined
    system = weil_substitution(psi)
    assert check_on_witness(system, res.phi)


def test_perturbed_parametrization_fails(circle):
    field, psi = circle
    res = standard_parametrization(psi)
    system = weil_substitution(psi)
    one = RatFunc.constant(field, field.one)
    shifted = Parametrization([res.phi[0] + one, res.phi[1]])
    assert not check_on_witness(system, shifted)
    scaled = Parametrization([c + c for c in res.phi])
    assert not check_on_witness(system, scaled)


def test_generated_instance_round_trip():
    doc = gen_instance("defined", 4, ext_degree=2, seed=3)
    field, psi = parse_instance(json.dumps(doc))
    res = standard_parametrization(psi)
    assert res.defined
    system = weil_substitution(psi)
    assert check_on_witness(system, res.phi)


def test_minpoly_cross_check(circle):
    field, psi = circle
    ok = weil_substitution(psi, minpoly=x**2 + 1)
    assert ok.nvars == 2
    with pytest.raises(InstanceError):
        weil_substitution(psi, minpoly=x**2 - 2)


def test_budget_limits():
    quartic_field = NumberField(QQ, x**4 - 2, "a")
    psi = Parametrization(
        [RatFunc(UniPoly(quartic_field, [quartic_field.zero, quartic_field.one]))]
    )
    with pytest.raises(InstanceError):
        weil_substitution(psi)  # extension degree 4 > 3

    gauss = NumberField(QQ, x**2 + 1, "i")
    t7 = RatFunc(UniPoly(gauss, [gauss.zero] * 7 + [gauss.one]))
    with pytest.raises(InstanceError):
        weil_substitution(Parametrization([t7, t7]))  # degree 7 > 6


def test_component_count_mismatch(circle):
    field, psi = circle
    system = weil_substitution(psi)
    single = Parametrization([psi[0]])
    with pytest.raises(InstanceError):
        check_on_witness(system, single)


def test_curve_over_q_contains_the_line():
    # psi already over Q: the witness locus contains (t, 0)
    gauss = NumberField(QQ, x**2 + 1, "i")
    t = UniPoly.gen(gauss)
    psi = Parametrization([RatFunc(UniPoly(gauss, [1, 2, 3]), UniPoly(gauss, [5, 0, 1]))])
    line = Parametrization([RatFunc(t), RatFunc(UniPoly.zero(gauss))])
    assert check_on_witness(weil_substitution(psi), line)


def test_cubic_field_phi_lies_on_witness():
    # one component over Q(a), a^3 = 2: ((1 + a) t - a^2 - 2a) / (t - a)
    field = NumberField(QQ, x**3 - 2, "a")
    a = field.gen
    num = UniPoly(field, [-a * a - field.coerce(2) * a, field.one + a])
    den = UniPoly(field, [-a, field.one])
    psi = Parametrization([RatFunc(num, den)])
    res = standard_parametrization(psi)
    assert res.defined
    assert check_on_witness(weil_substitution(psi), res.phi)
