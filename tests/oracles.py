"""Reference implementations the library is tested against.

They are slower than the library code on purpose: each computes the same
answer by a different, more direct route.
"""

from hypercircles.errors import InternalInvariantError
from hypercircles.hypercircle import parameter_schedule
from hypercircles.polynomials import UniPoly
from hypercircles.ratfunc import POLE


def cubic_compose_pair(num, den, mob, degree=None):
    """t -> (a t + b)/(c t + d) substituted into (num, den) term by term:
    every (a t + b)^j (c t + d)^(k - j) is built as a full product, O(k^3)."""
    field = num.field
    big = degree if degree is not None else max(num.degree, den.degree)
    lin_num = UniPoly(field, [mob.b, mob.a])
    lin_den = UniPoly(field, [mob.d, mob.c])
    pows_n = [UniPoly.one(field)]
    pows_d = [UniPoly.one(field)]
    for _ in range(big):
        pows_n.append(pows_n[-1] * lin_num)
        pows_d.append(pows_d[-1] * lin_den)

    def subst(p):
        out = UniPoly.zero(field)
        for j, c in enumerate(p.coeffs):
            if c:
                out = out + pows_n[j] * pows_d[big - j] * c
        return out

    return subst(num), subst(den)


def verify_identity_by_cross_multiplication(psi, psi_sigma, u):
    """psi == psi_sigma o u by cn * pd == cd * pn for every component."""
    rel = psi_sigma.field
    for comp, comp_s in zip(psi, psi_sigma):
        cn, cd = cubic_compose_pair(comp_s.num, comp_s.den, u)
        pn = comp.num.map_into(rel)
        pd = comp.den.map_into(rel)
        if cn * pd != cd * pn:
            return False
    return True


def verify_identity_by_evaluation(psi, psi_sigma, u):
    """psi == psi_sigma o u by agreement at more points than the degree of
    the difference; poles on either side are skipped and do not count."""
    rel = psi_sigma.field
    d = max(psi.degree, psi_sigma.degree)
    needed = 2 * d + 1
    successes = 0
    tried = 0
    for t in parameter_schedule():
        tried += 1
        if tried > 10 * needed + 10:
            raise InternalInvariantError(
                "evaluation check could not find enough pole-free samples"
            )
        te = rel.coerce(t)
        ut = u(te)
        if ut is POLE:
            continue
        lhs = psi(psi.field.coerce(t))
        rhs = psi_sigma(ut)
        if any(v is POLE for v in lhs + rhs):
            continue
        if any(rel.coerce(a) != b for a, b in zip(lhs, rhs)):
            return False
        successes += 1
        if successes >= needed:
            return True


def euclid_gcd(f, g):
    """Monic gcd by the textbook Euclidean algorithm over the coefficient
    field; `poly_gcd` over Q takes an integer primitive-PRS path instead."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()
