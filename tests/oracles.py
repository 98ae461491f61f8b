"""Reference implementations the library is tested against.

They are slower than the library code on purpose: each computes the same
answer by a different, more direct route.
"""

from hypercircles.errors import InternalInvariantError
from hypercircles.hypercircle import parameter_schedule
from hypercircles.modp import _madd
from hypercircles.numberfield import NFElement, NumberField
from hypercircles.polynomials import UniPoly, poly_resultant
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


def interpolate(xs, ys, field):
    """Lagrange interpolation: the unique poly of degree < len(xs) through
    the points (xs[i], ys[i])."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("mismatched interpolation data")
    xs = [field.coerce(x) for x in xs]
    ys = [field.coerce(y) for y in ys]
    out = UniPoly.zero(field)
    for i in range(n):
        if not ys[i]:
            continue
        num = UniPoly.one(field)
        den = field.one
        for j in range(n):
            if j == i:
                continue
            num = num * UniPoly._raw(field, [-xs[j], field.one])
            den = den * (xs[i] - xs[j])
        out = out + num * (ys[i] / den)
    return out


def norm_by_interpolation(h, field):
    """Norm of h in Q(alpha)[x] down to Q[x] as Res_y(M(y), h(y, x)): one
    resultant at each of n deg(h) + 1 integers, then Lagrange
    interpolation."""
    qq = field.base
    xs = []
    ys = []
    x0 = 0
    while len(xs) < field.degree * h.degree + 1:
        val = h(field.coerce(x0))
        ys.append(poly_resultant(field.minpoly, UniPoly._raw(qq, list(val.coords))))
        xs.append(qq.coerce(x0))
        x0 = -x0 + (1 if x0 <= 0 else 0)  # 0, 1, -1, 2, -2, ...
    return interpolate(xs, ys, qq)


def charpoly_by_faddeev_leverrier(x):
    """Characteristic polynomial over the base field of the matrix of
    multiplication by x (columns: the coordinates of x gen^j), by the
    Faddeev-LeVerrier recursion M_k = A (M_(k-1) + c_(n-k+1) I),
    c_(n-k) = -tr(M_k) / k."""
    f = x.field
    base = f.base
    n = f.degree
    cols = []
    col = x
    for _ in range(n):
        cols.append(col.coords)
        col = col * f.gen
    a = [[cols[j][i] for j in range(n)] for i in range(n)]
    coeffs = [base.zero] * n + [base.one]
    m = a
    for k in range(1, n + 1):
        if k > 1:
            ck = coeffs[n - k + 1]
            t = [[m[i][j] + (ck if i == j else base.zero) for j in range(n)] for i in range(n)]
            m = [
                [sum((a[i][r] * t[r][j] for r in range(n)), base.zero) for j in range(n)]
                for i in range(n)
            ]
        tr = sum((m[i][i] for i in range(n)), base.zero)
        coeffs[n - k] = -tr / k
    return UniPoly._raw(base, coeffs)


def tower_disc_by_resultant(field):
    """`modp._tower_disc` by Euclid: at each level of degree n > 1, the
    resultant of the rescaled generator's defining polynomial
    m_theta(x) = scale^n m(x / scale) and its derivative, normed down to Q;
    the product of their absolute values."""
    d = 1
    f = field
    while isinstance(f, NumberField):
        n = f.degree
        if n > 1:
            s = f._scale
            mt = UniPoly(f.base, [c * s ** (n - i) for i, c in enumerate(f.minpoly.coeffs)])
            r = poly_resultant(mt, mt.derivative())
            while isinstance(r, NFElement):
                r = r.norm()
            d *= abs(r.numerator) * r.denominator
        f = f.base
    return d


def tmul_by_convolution_and_division(field, a, b):
    """`NumberField._tmul` at the first level by the full integer convolution,
    then division by the integral relation theta^n = sum txn_i theta^i from
    the top coefficient down (the relation itself, not the precomputed
    reduction rows)."""
    n = field.degree
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    for k in range(2 * n - 2, n - 1, -1):
        c, out[k] = out[k], 0
        for i, r in enumerate(field._txn):
            out[k - n + i] += c * r
    return tuple(out[:n])


def mmul_by_nested_convolution(lvl, a, b):
    """`modp._mmul` by schoolbook convolution at every level: each product
    of two sub-level coordinates is itself a nested convolution, and the
    high coordinates are folded in with the unpacked reduction rows."""
    q = lvl.p
    n = lvl.deg
    sub = lvl.sub
    if sub is None:
        out = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
        for k in range(2 * n - 2, n - 1, -1):
            for i, ri in enumerate(lvl.rows[k - n]):
                out[i] = (out[i] + out[k] * ri) % q
        return tuple(out[:n])
    out = [sub.zero] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = _madd(sub, out[i + j], mmul_by_nested_convolution(sub, ai, bj))
    for k in range(2 * n - 2, n - 1, -1):
        for i, ri in enumerate(lvl.rows[k - n]):
            prod = mmul_by_nested_convolution(sub, out[k], ri)
            out[i] = _madd(sub, out[i], prod)
    return tuple(out[:n])
