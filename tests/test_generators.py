"""Instance generators: the adversarial construction's goldens and its
solution by interpolation, and seeding."""

import hashlib
import json

import pytest

from hypercircles import QQ, parse_instance, standard_parametrization
from hypercircles.generators import adversarial_relations, cyclotomic_minpoly, gen_instance

from oracles import adversarial_solution_by_kernel, sums_to_t


def test_adversarial_relations_phi5_golden():
    phi5 = cyclotomic_minpoly(5)
    assert list(phi5.coeffs) == [QQ.one] * 5
    field, g_vals, particular, homog = adversarial_relations(4, phi5)
    # g = (t+1)(t+2)(t+3)(t+4) at t = 1, 2, 3
    assert g_vals == [field.coerce(v) for v in (120, 360, 840)]
    assert sorted(homog) == [3]

    def elem(c3, c2, c1, c0):
        return field.element([QQ(c0), QQ(c1), QQ(c2), QQ(c3)])

    assert particular[:3] == [
        elem(1440, 1080, 1044, 1920),
        elem(-1740, -1440, -1380, -2700),
        elem(420, 360, 335, 780),
    ]
    assert homog[3][:3] == [field.coerce(v) for v in (-6, 11, -6)]


ADVERSARIAL_SYSTEMS = [(5, 4), (5, 6), (7, 8), (9, 7), (3, 3), (8, 9)]


@pytest.mark.parametrize(
    "m, degree", ADVERSARIAL_SYSTEMS, ids=[f"Phi{m}-d{d}" for m, d in ADVERSARIAL_SYSTEMS]
)
def test_interpolation_solves_the_adversarial_system(m, degree):
    # the Lagrange interpolant and x^k - (x^k mod N) are the particular and
    # homogeneous vectors that row reducing the system gives
    field, g_vals, particular, homog = adversarial_relations(degree, cyclotomic_minpoly(m))
    assert (particular, homog) == adversarial_solution_by_kernel(field, degree, g_vals)


def test_adversarial_phi5_instance_verdict():
    doc = gen_instance("adversarial", 4, minpoly=cyclotomic_minpoly(5), seed=0)
    field, psi = parse_instance(json.dumps(doc))
    res = standard_parametrization(psi)
    assert res.verdict == "NotDefinedOverK"
    assert res.parameters_tried == 4


def test_phi_sums_to_t_over_phi5():
    # the defining property of phi: sum_i phi_i alpha^i = t
    doc = gen_instance("defined", 4, minpoly=cyclotomic_minpoly(5), seed=0)
    field, psi = parse_instance(json.dumps(doc))
    res = standard_parametrization(psi)
    assert res.defined
    assert sums_to_t(field, res.phi)


def test_gen_instance_is_deterministic_and_seed_sensitive():
    first = gen_instance("defined", 3, ext_degree=2, seed=11)
    assert gen_instance("defined", 3, ext_degree=2, seed=11) == first
    # the same document in every release: seeded instance sets stay comparable
    text = json.dumps(first, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "b93fb763d5ac5f05577bccc382d5b24eb6663bbe26e1ae7b1c2a652dea124cfc"
    )
    assert gen_instance("defined", 3, ext_degree=2, seed=12) != first
