"""Shared fixtures: two hand-checked instances used across the suite, and
a non-proper one.

The quartic instance is a degree-3 plane curve over Q(alpha) with
alpha^4 = 2, for which the whole pipeline output is known in closed form:
both per-class Moebius transforms, the traced contribution of the quadratic
class, and the standard parametrization phi.  The circle instance is the
unit circle over Q(i) parametrized by the pencil of lines through its points
at infinity; its parameter change is u(t) = 1/t and phi equals the input
parametrization.
"""

import json

import pytest

from hypercircles import (
    NumberField,
    Parametrization,
    QQ,
    RatFunc,
    UniPoly,
    parse_instance,
)

QUARTIC_DOC = {
    "field": {"generator": "a", "minpoly": ["-2", "0", "0", "0", "1"]},
    "parametrization": [
        {
            "num": [
                ["0", "0", "0", "0"],
                ["1", "4", "2", "1"],
                ["7", "14", "14", "7"],
                ["11", "9", "15", "11"],
            ],
            "den": [
                ["1", "4", "2", "1"],
                ["6", "3", "12", "6"],
                ["12", "6", "3", "12"],
                ["7", "0", "0", "0"],
            ],
        },
        {
            "num": [
                ["1", "4", "2", "1"],
                ["9", "15", "18", "9"],
                ["25", "16", "29", "25"],
                ["22", "11", "9", "15"],
            ],
            "den": [
                ["1", "4", "2", "1"],
                ["6", "3", "12", "6"],
                ["12", "6", "3", "12"],
                ["7", "0", "0", "0"],
            ],
        },
    ],
}

CIRCLE_DOC = {
    "field": {"generator": "i", "minpoly": ["1", "0", "1"]},
    "parametrization": [
        {
            "num": [["1", "0"], ["0", "0"], ["1", "0"]],
            "den": [["0", "0"], ["2", "0"]],
        },
        {
            "num": [["0", "1"], ["0", "0"], ["0", "-1"]],
            "den": [["0", "0"], ["2", "0"]],
        },
    ],
}

# psi = ((a t^2 - 2a)/t^2, (-t^4 + 4t^2 - 4)/t^4) over Q(a), a^2 = -1: it is
# phi0(u(t^2)) with phi0(s) = (s, s^2) and u(s) = a (s - 2)/s, so it traces
# y = x^2, which is defined over Q, but psi(t) = psi(-t).  The class x + a
# attains neither psi(1) nor psi(-1), although the curve is not moved.
NONPROPER_DOC = {
    "field": {"generator": "a", "minpoly": ["1", "0", "1"]},
    "parametrization": [
        {
            "num": [["0", "-2"], ["0", "0"], ["0", "1"]],
            "den": [["0", "0"], ["0", "0"], ["1", "0"]],
        },
        {
            "num": [["-4", "0"], ["0", "0"], ["4", "0"], ["0", "0"], ["-1", "0"]],
            "den": [["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"], ["1", "0"]],
        },
    ],
}


def quartic_phi_expected(field):
    """The known standard parametrization of the quartic instance.

    Common denominator 8t^3 + 6a^3 t^2 + 4a^2 t + a; numerators
    (2t^4 + 3a^3 t^3 + 3a^2 t^2 + a t, a^3 t^4 + 2a^2 t^3 + a t^2,
     a^2 t^4 + a t^3, a t^4).
    """
    a = field.gen
    zero = field.zero
    one = field.one
    den = [a, 4 * a**2, 6 * a**3, field.coerce(8)]
    nums = [
        [zero, a, 3 * a**2, 3 * a**3, field.coerce(2)],
        [zero, zero, a, 2 * a**2, a**3],
        [zero, zero, zero, a, a**2],
        [zero, zero, zero, zero, a],
    ]
    den = UniPoly(field, den)
    return Parametrization([RatFunc(UniPoly(field, num), den) for num in nums])


@pytest.fixture(scope="session")
def quartic():
    return parse_instance(json.dumps(QUARTIC_DOC))


@pytest.fixture(scope="session")
def circle():
    return parse_instance(json.dumps(CIRCLE_DOC))


@pytest.fixture(scope="session")
def quartic_field():
    return NumberField(
        QQ, UniPoly(QQ, [QQ(-2), QQ.zero, QQ.zero, QQ.zero, QQ.one]), "a"
    )
