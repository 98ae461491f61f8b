"""Deterministic instance generators.

Three kinds:

- "defined": a random curve over Q composed with a random unit Moebius
  transform over Q(alpha) — definable over Q by construction.
- "twisted": a defined instance with one numerator coefficient nudged by
  +alpha; generation reruns the decision pipeline and redraws until the
  result is genuinely not definable over Q.
- "adversarial": the bound-sharpness construction — common denominator
  (t+1)...(t+d) and components alpha*t^d + (lower terms) solving the
  interpolation conditions f(i) = alpha^(i+2) mod M at i = 1..n-1, which
  forces the parameter search to burn through denominator roots, moved
  values and singularities before it can settle. Requires a normal field
  and d > n-1.

Everything is reproducible: a seed fully determines the output, and seeding
goes through strings so it is independent of hash randomization.
"""

import random
from math import prod

from .errors import InstanceError, NonProperParametrization
from .factoring import is_irreducible_rational
from .hypercircle import _proper_at, conjugacy_classes, standard_parametrization
from .instances import instance_doc
from .numberfield import NumberField
from .polynomials import UniPoly, poly_gcd
from .rationals import QQ
from .ratfunc import MoebiusTransform, Parametrization, RatFunc

REDRAW_BUDGET = 32

KINDS = ("defined", "twisted", "adversarial")


def canonical_minpoly(n):
    """A default irreducible polynomial of degree n: x^2+1, else x^n - 2."""
    if n < 2:
        raise InstanceError("extension degree must be at least 2")
    if n == 2:
        return UniPoly(QQ, [1, 0, 1])
    return UniPoly(QQ, [-2] + [0] * (n - 1) + [1])


def _euler_phi(m):
    out = 1
    p = 2
    mm = m
    while p * p <= mm:
        if mm % p == 0:
            out *= p - 1
            mm //= p
            while mm % p == 0:
                out *= p
                mm //= p
        p += 1
    if mm > 1:
        out *= mm - 1
    return out


def cyclotomic_minpoly(m):
    """The m-th cyclotomic polynomial over Q (by recursive exact division)."""
    x_m = UniPoly(QQ, [-1] + [0] * (m - 1) + [1])
    for e in range(1, m):
        if m % e == 0:
            x_m = x_m // cyclotomic_minpoly(e)
    return x_m


def normal_minpoly(n):
    """A degree-n defining polynomial of a normal extension (cyclotomic)."""
    if n < 2:
        raise InstanceError("extension degree must be at least 2")
    for m in range(3, 24 * n + 4):
        if _euler_phi(m) == n:
            return cyclotomic_minpoly(m)
    raise InstanceError(
        f"no cyclotomic field of degree {n}; pass an explicit normal "
        "minimal polynomial instead"
    )


def _check_minpoly(minpoly):
    if minpoly.degree < 2:
        raise InstanceError("extension degree must be at least 2")
    minpoly = minpoly.map_into(QQ).monic()
    if not is_irreducible_rational(minpoly):
        raise InstanceError("reducible minimal polynomial")
    return minpoly


def _random_qq_poly(rng, degree, span=9):
    coeffs = [QQ(rng.randint(-span, span)) for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-span, span)
    coeffs.append(QQ(lead))
    return UniPoly(QQ, coeffs)


def _random_element(rng, field, span=3):
    return field.element([QQ(rng.randint(-span, span)) for _ in range(field.degree)])


def _random_unit(rng, field):
    while True:
        mob = MoebiusTransform(
            field,
            _random_element(rng, field),
            _random_element(rng, field),
            _random_element(rng, field),
            _random_element(rng, field),
        )
        if mob.is_unit:
            return mob


def _gen_defined(rng, field, degree):
    for _ in range(REDRAW_BUDGET):
        den = _random_qq_poly(rng, degree - 1)
        p1 = _random_qq_poly(rng, degree)
        p2 = _random_qq_poly(rng, degree)
        if poly_gcd(p1, den).degree != 0 or poly_gcd(p2, den).degree != 0:
            continue
        base = Parametrization(
            [
                RatFunc(p1.map_into(field), den.map_into(field)),
                RatFunc(p2.map_into(field), den.map_into(field)),
            ]
        )
        psi = base.compose_moebius(_random_unit(rng, field))
        if psi.degree != degree:
            continue
        if _proper_at(psi) is not None:
            return psi
    raise InstanceError(
        f"properness retry budget exceeded while generating a degree-{degree} instance"
    )


def _gen_twisted(rng, field, degree):
    alpha = field.gen
    for _ in range(REDRAW_BUDGET):
        psi = _gen_defined(rng, field, degree)
        i = rng.randrange(len(psi))
        num = psi[i].num
        j = rng.randrange(num.degree + 1)
        bump = UniPoly(field, [field.zero] * j + [alpha])
        comps = list(psi.components)
        comps[i] = RatFunc(num + bump, psi[i].den)
        twisted = Parametrization(comps)
        if twisted.degree != degree:
            continue
        try:
            result = standard_parametrization(twisted)
        except NonProperParametrization:
            continue
        if not result.defined:
            return twisted
    raise InstanceError(
        f"twist retry budget exceeded while generating a degree-{degree} instance"
    )


def require_normal(field):
    """Check that the field is normal over Q (its polynomial splits in it):
    M = (x - alpha) m(alpha, x), so every conjugacy class has size 1."""
    if any(cls.size != 1 for cls in conjugacy_classes(field)[1]):
        raise InstanceError(
            "the adversarial construction requires a normal extension "
            "(the minimal polynomial must split into linear factors over the field)"
        )


def adversarial_relations(degree, minpoly):
    """Solve the interpolation conditions of the adversarial construction.

    Returns (field, shifted_denominator_values, particular, homogeneous)
    where `particular` is the coefficient vector (a_0..a_{d-1}) with all
    free unknowns set to zero and `homogeneous` maps each free column k to
    the kernel vector with a_k = 1 and the other free unknowns zero. Pivot
    relations read a_j = particular[j] + sum_k homogeneous[k][j] * a_k.

    The conditions sum_j a_j i^j = r_i at the nodes i = 1..n-1, with
    r_i = alpha^(i+2) g(i) - alpha i^d, are a Vandermonde system, so they
    always have a solution: a_0..a_(n-2) are the pivots and
    a_(n-1)..a_(d-1) are free.  The particular solution is the Lagrange
    interpolant of the r_i, and with N(x) the product of the x - i, a_k's
    vector is the coefficient list of x^k - (x^k mod N).
    """
    minpoly = _check_minpoly(minpoly)
    n = minpoly.degree
    d = degree
    if d <= n - 1:
        raise InstanceError(
            f"the adversarial construction needs degree > {n - 1} for this field"
        )
    field = NumberField(QQ, minpoly, "a")
    require_normal(field)
    alpha = field.gen
    nodes = range(1, n)
    # g(i) for g = (t+1)...(t+d), an integer, without building g itself
    g_values = [field.coerce(prod(range(i + 1, i + d + 1))) for i in nodes]
    x = UniPoly.gen(QQ)
    big_n = prod((x - i for i in nodes), start=UniPoly.one(QQ))
    particular = [field.zero] * d
    for i, g in zip(nodes, g_values):
        basis = big_n // (x - i)  # Lagrange's basis polynomial at i, times basis(i)
        r = (alpha ** (i + 2) * g - alpha * i**d) * (1 / basis(i))
        particular[: n - 1] = [acc + r * c for acc, c in zip(particular, basis.coeffs)]
    homogeneous = {
        k: [field.coerce(c) for c in (x**k - x**k % big_n).coeffs] + [field.zero] * (d - 1 - k)
        for k in range(n - 1, d)
    }
    return field, g_values, particular, homogeneous


def _gen_adversarial(rng, minpoly, degree):
    field, _, particular, homogeneous = adversarial_relations(degree, minpoly)
    d = degree
    alpha = field.gen
    den = UniPoly(field, [field.one])
    t = UniPoly.gen(field)
    for k in range(1, d + 1):
        den = den * (t + field.coerce(k))

    def component(free_assignment):
        coeffs = list(particular)
        for k, value in free_assignment.items():
            coeffs = [c + h * value for c, h in zip(coeffs, homogeneous[k])]
        return RatFunc(UniPoly(field, coeffs + [alpha]), den)

    top = max(homogeneous)
    for attempt in range(REDRAW_BUDGET):
        if attempt == 0:
            first = {k: field.zero for k in homogeneous}
            second = dict(first)
            second[top] = field.one
        else:
            first = {k: field.coerce(rng.randint(-4, 4)) for k in homogeneous}
            second = {k: field.coerce(rng.randint(-4, 4)) for k in homogeneous}
            if all(first[k] == second[k] for k in homogeneous):
                continue
        psi = Parametrization([component(first), component(second)])
        if psi.degree == d and _proper_at(psi) is not None:
            return field, psi
    raise InstanceError(
        f"properness retry budget exceeded for the degree-{degree} adversarial instance"
    )


def gen_instance(kind, degree, minpoly=None, ext_degree=None, seed=0):
    """Generate an instance document (the plain-dict JSON structure)."""
    if kind not in KINDS:
        raise InstanceError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if degree < 2:
        raise InstanceError("degree must be at least 2")
    if minpoly is None:
        if ext_degree is None:
            raise InstanceError("provide a minimal polynomial or an extension degree")
        if kind == "adversarial":
            minpoly = normal_minpoly(ext_degree)
        else:
            minpoly = canonical_minpoly(ext_degree)
    minpoly = _check_minpoly(minpoly)
    # The stream is keyed by text that spells each coefficient "Rational(p, q)"
    # (the repr of the package's former rational class), so that a given
    # (kind, degree, minpoly, seed) keeps naming the same instance.
    coeffs = ", ".join(f"Rational({c.numerator}, {c.denominator})" for c in minpoly.coeffs)
    rng = random.Random(f"hypercircles:{kind}:{degree}:({coeffs}):{seed}")
    if kind == "adversarial":
        field, psi = _gen_adversarial(rng, minpoly, degree)
    else:
        field = NumberField(QQ, minpoly, "a")
        if kind == "defined":
            psi = _gen_defined(rng, field, degree)
        else:
            psi = _gen_twisted(rng, field, degree)
    return instance_doc(field, psi)
