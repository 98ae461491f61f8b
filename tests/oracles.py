"""Reference implementations the library is tested against.

They are slower than the library code on purpose: each computes the same
answer by a different, more direct route.
"""

import itertools
import random
from dataclasses import dataclass
from math import gcd
from operator import mul

from hypercircles import modp
from hypercircles.errors import InstanceError, InternalInvariantError
from hypercircles.factoring import _norm_poly
from hypercircles.hypercircle import (
    BAD_DENOMINATOR,
    GOOD,
    NOT_ATTAINED,
    SINGULAR,
    ParameterVerdict,
    conjugacy_classes,
    parameter_schedule,
)
from hypercircles.intpoly import gf_edf, gf_pow_mod
from hypercircles.modp import nf_gcd
from hypercircles.numberfield import NumberField, integral_ops, newton_sums
from hypercircles.polynomials import UniPoly, poly_gcd
from hypercircles.rationals import RationalField
from hypercircles.ratfunc import MoebiusTransform, Parametrization, RatFunc, moebius_composer


def sums_to_t(field, phi):
    """sum phi_i alpha^i == t, the property that defines phi, by adding
    normalized rational functions one component at a time."""
    total = RatFunc.constant(field, field.zero)
    power = field.one
    for comp in phi:
        total = total + comp * power
        power = power * field.gen
    return total == RatFunc.gen(field)


def nf_conjugate(x, cls):
    """Apply the conjugation alpha -> root to an element of K(alpha), where
    root is the class's designated root; the result lives in the class's
    relative field.
    """
    rel = cls.relative_field
    root = rel.gen
    acc = rel.zero
    for c in reversed(x.coords):
        acc = acc * root + rel.coerce(c)
    return acc


def trace_by_power_sums(x):
    """The trace of x down one level as sum_i c_i s_i, c_i its coordinates
    over the base and s_i the power sums of the defining polynomial's roots,
    one base-field product per coordinate."""
    f = x.field
    out = f.base.zero
    for c, s in zip(x.coords, newton_sums(f.minpoly, f.degree)):
        out = out + c * s
    return out


def trace_term_by_traces(m_alpha, cls, u):
    """A class's term of phi's sum by tracing every coefficient: over the
    relative field the term is m(alpha_i, x)/m(alpha_i, alpha_i) * u(t),
    u = (a t + b)/(c t + d), times g, the characteristic polynomial of the
    pole -d/c over K(alpha) (1 when c = 0), and each x^k t^l coefficient
    is traced down to K(alpha).  Returns (numerators, g) as
    `hypercircle.trace_term` does."""
    rel = cls.relative_field
    base = rel.base
    m_i = m_alpha.map_coeffs(cls.conjugate, rel)
    scaled = m_i * cls.conjugate(base.one / m_alpha(base.gen))
    a, b, c, d = u.a, u.b, u.c, u.d
    inv = (c or d).inverse()
    mult = UniPoly(rel, [b * inv, a * inv])  # (a t + b) / c, or / d
    if c:
        btil = d * inv
        g = (-btil).charpoly()
        g1, r = divmod(g.map_into(rel), UniPoly(rel, [btil, rel.one]))
        if not r.is_zero:
            raise InternalInvariantError("charpoly of the pole is not divisible")
        mult = mult * g1  # ((a/c) t + b/c) g / (t + d/c)
    else:
        g = UniPoly.one(base)
    numerators = []
    for pk in scaled.coeffs:
        prod = mult * pk
        numerators.append(UniPoly(base, [co.trace() for co in prod.coeffs]))
    return numerators, g


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


def horner_compose_pair(num, den, mob, degree=None):
    """The homogeneous Horner scheme of `moebius_compose_pair` on field
    elements: acc <- acc * (a t + b) + p_j (c t + d)^(k - j), every sum and
    product a normalized element, O(k^2) field operations."""
    field = num.field
    big = degree if degree is not None else max(num.degree, den.degree)
    one = field.one
    times_ab = _linear_multiplier(mob.b, mob.a, one)
    times_cd = _linear_multiplier(mob.d, mob.c, one)
    pows = [[one]]  # pows[i]: ascending coefficients of (c t + d)^i
    for _ in range(big):
        pows.append(times_cd(pows[-1]))

    def subst(p):
        cs = p.coeffs
        if not cs:
            return p
        top = len(cs) - 1
        acc = [cs[top] * v if v else v for v in pows[big - top]]
        for j in range(top - 1, -1, -1):
            acc = times_ab(acc)
            cj = cs[j]
            if cj:
                pw = pows[big - j]
                if len(acc) < len(pw):
                    acc.extend([field.zero] * (len(pw) - len(acc)))
                for i, v in enumerate(pw):
                    if v:
                        acc[i] = acc[i] + cj * v
        return UniPoly._raw(field, acc)

    return subst(num), subst(den)


def _linear_multiplier(lo, hi, one):
    """q -> q * (hi t + lo) on ascending coefficient lists, skipping
    products by a zero or unit coefficient."""

    def scaled(x):
        if not x:
            return lambda q: [x] * len(q)
        if x == one:
            return list
        return lambda q: [v * x for v in q]

    low, high = scaled(lo), scaled(hi)
    if not hi:
        return low
    if not lo:
        return lambda q: [lo] + high(q)

    def times(q):
        lq, hq = low(q), high(q)
        return [lq[0]] + [x + y for x, y in zip(lq[1:], hq)] + [hq[-1]]

    return times


def verify_identity_forward(psi, psi_sigma, u):
    """Exact check of psi == psi_sigma o u, component by component, in the
    forward direction: psi^sigma, whose coefficients fill the class field,
    is composed with u (`hypercircle.verify_identity` composes psi with
    u^-1 instead).

    Each component of psi is a reduced fraction N/D with D monic, since
    `RatFunc` is normalized that way; conjugation is a field embedding, so
    the components of psi_sigma are reduced too.  Substituting a unit
    Moebius map into a coprime pair, homogenized to degree
    max(deg num, deg den), is an invertible change of variables of the
    binary forms, so the composed pair (cn, cd) is coprime as well.  Two
    reduced fractions are equal iff their parts are proportional, and with
    D monic the factor is lam = lc(cd): the check is deg cn == deg N,
    deg cd == deg D, cn == lam * N and cd == lam * D coefficient by
    coefficient.

    A True answer needs none of these premises: proportional pairs define
    the same function, so it is a proof on any input.

    The same coefficients are compared on integers, and nothing is
    normalized.  u and each part of psi^sigma and of psi become integral
    vectors over one denominator each (`integral_ops`): L for u, E_num and
    E_den for the parts of psi^sigma, E_N and E_D for those of psi, whose
    vectors are X_j and Y_j.  The Horner scheme of `moebius_compose_pair`
    (`moebius_composer`, with one table of the powers of C t + D for every
    component) gives CN = E_num L^k cn and CD = E_den L^k cd, so the checks
    read CN_j E_den E_N == lc(CD) X_j E_num and CD_j E_D == lc(CD) Y_j.
    The composition runs on packed vectors, O(d) products by a fixed
    multiplier (a coefficient of u, or of psi^sigma times a row of the
    table) per part, and the comparison O(d) products by lc(CD).
    """
    ops = integral_ops(psi_sigma.field)
    nonzero, scale = ops.nonzero, ops.scale
    compose, _ = moebius_composer(ops, u, psi_sigma.degree)
    for comp, comp_s in zip(psi, psi_sigma):
        k = comp_s.degree
        images = []
        for part, image in ((comp.num, comp_s.num), (comp.den, comp_s.den)):
            if image.coeffs:
                cs, e = ops.lift(image.coeffs)
                acc = compose([ops.bounded(c) for c in cs], k)
            else:
                acc, e = [], 1
            size = len(acc)
            while size and not nonzero(acc[size - 1]):
                size -= 1
            if size != len(part.coeffs):
                return False
            images.append((part, acc, e))
        e_den = images[1][2]
        lam = ops.fixed(images[1][1][len(comp.den.coeffs) - 1])
        for part, acc, e in images:
            xs, e_part = ops.lift(part.coeffs)
            left, right = e_den * e_part, e
            g = gcd(left, right)
            left, right = left // g, right // g
            for x, y in zip(xs, acc):
                if scale(y, left) != scale(lam(x), right):
                    return False
    return True


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


class _Pole:
    """The value of a rational function at one of its poles."""

    def __repr__(self):
        return "POLE"


POLE = _Pole()


def at(f, t):
    """f evaluated at t, POLE where its denominator vanishes: f a RatFunc, a
    Parametrization (a tuple of values) or a MoebiusTransform, which also
    takes t = POLE, the point at infinity."""
    if isinstance(f, Parametrization):
        return tuple(at(c, t) for c in f)
    if isinstance(f, MoebiusTransform):
        if t is POLE:
            return f.a / f.c if f.c else POLE
        n, d = f.a * t + f.b, f.c * t + f.d
    else:
        n, d = f.num(t), f.den(t)
    return n / d if d else POLE


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
        ut = at(u, te)
        if ut is POLE:
            continue
        lhs = at(psi, psi.field.coerce(t))
        rhs = at(psi_sigma, ut)
        if any(v is POLE for v in lhs + rhs):
            continue
        if any(rel.coerce(a) != b for a, b in zip(lhs, rhs)):
            return False
        successes += 1
        if successes >= needed:
            return True


def value_at_infinity(f):
    """The value of the rational function f at t = infinity: POLE when
    deg num > deg den, else the limit of f."""
    dn, dd = f.num.degree, f.den.degree
    if dn > dd:
        return POLE
    if dn < dd:
        return f.field.zero
    return f.num.lc / f.den.lc


def values_at_infinity(psi):
    """`value_at_infinity` of each component of the parametrization psi."""
    return tuple(value_at_infinity(c) for c in psi)


def classify_parameter_by_polynomials(psi, psi_sigma, t, limit=None):
    """`hypercircle.classify_parameter` on field elements and UniPolys: psi(t)
    by Horner in K(alpha) and a division there (a field inverse), the fibre
    polynomials D' v - N' over the class field, and their gcd summarized
    from `nf_gcd`."""
    field = psi.field
    rel = psi_sigma.field
    values = at(psi, field.coerce(t))
    if any(v is POLE for v in values):
        return ParameterVerdict(BAD_DENOMINATOR, t)
    polys = []
    for v, comp_s in zip(values, psi_sigma):
        vv = rel.coerce(v)
        p = comp_s.den * vv - comp_s.num
        if not p.is_zero:
            polys.append(p)
    if not polys:
        return ParameterVerdict(SINGULAR, t)
    g = nf_gcd(polys, rel)
    if g.degree == 0:
        return ParameterVerdict(NOT_ATTAINED, t)
    if g.degree >= 2:
        return ParameterVerdict(SINGULAR, t)
    if limit is None:
        limit = values_at_infinity(psi_sigma)
    if all(lv is not POLE and rel.coerce(v) == lv for v, lv in zip(values, limit)):
        return ParameterVerdict(SINGULAR, t)
    return ParameterVerdict(GOOD, t, -g.coeffs[0])


def euclid_gcd(f, g):
    """Monic gcd by the textbook Euclidean algorithm over the coefficient
    field; `poly_gcd` is the modular gcd of `modp.nf_gcd` over every field."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def is_squarefree(f):
    """Whether f is squarefree, by the exact gcd of f and f'."""
    return poly_gcd(f, f.derivative()).degree == 0


def squarefree_norm_by_exact_test(h, field):
    """(k, H, N) for the first Trager shift k in 0, 1, -1, 2, -2, ... whose
    norm N of H = h(x - k*alpha) down to the base is squarefree, each norm
    built and tested exactly: the shift search `factoring._squarefree_norm`
    replaces with one image at a split prime."""
    for k in itertools.chain([0], (s for k in itertools.count(1) for s in (k, -k))):
        shifted = h
        if k != 0:
            ka = field.coerce(k) * field.gen
            shifted = h.compose(UniPoly._raw(field, [-ka, field.one]))
        norm = _norm_poly(shifted, field)
        if is_squarefree(norm):
            return k, shifted, norm


def extend_by_root_finding(field, below):
    """`modp._extend` with no known roots: at each embedding of the base
    the level's polynomial splits into distinct linear factors exactly when
    x^p = x modulo it, and its sorted roots come from `gf_edf`."""
    p = below.p
    n = field.degree
    roots = []
    for row in below.rows:
        f = modp._level_poly(field, row, p)
        if n == 1:
            roots.append(-f[0] % p)
            continue
        if gf_pow_mod([0, 1], p, f, p) != [0, 1]:
            return None
        roots.extend(sorted(-g[0] % p for g in gf_edf(f, 1, p, random.Random(p))))
    levels = below.levels + ((field, roots),)
    return modp._Split(p, levels, modp._expand(below.rows, roots, n, p))


def values_by_dot_products(rows, vecs, q):
    """`modp._values` one dot product per coefficient and embedding: the
    polynomial with the integral coefficient vectors vecs at each embedding
    whose monomial values mod q are a row."""
    return [[sum(map(mul, row, v)) % q for v in vecs] for row in rows]


def poly_resultant(f, g):
    """Resultant of f and g via the Euclidean recursion."""
    field = f.field
    if f.field != g.field:
        raise TypeError("resultant of polynomials over different fields")
    if f.is_zero or g.is_zero:
        return field.zero
    acc = field.one
    neg = False
    a, b = f, g
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            return field.zero
        acc = acc * b.lc ** (a.degree - r.degree)
        if (a.degree & 1) and (b.degree & 1):
            neg = not neg
        a, b = b, r
    out = acc * b.lc ** a.degree
    return -out if neg else out


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


# Independent witness-variety oracle for hypercircle parametrizations.
#
# `weil_substitution` performs the restriction-of-scalars substitution
# t = t_0 + alpha t_1 + ... + alpha^(n-1) t_(n-1) on a parametrization over
# K(alpha) and splits the result into alpha-coordinates: rational polynomials
# F_ij and a common denominator D with
#
#     psi_i(t_0 + alpha t_1 + ...) = sum_j (F_ij / D) alpha^j.
#
# The denominator is rationalized by multiplying with all conjugates of the
# substituted denominator (norm form), so D is the norm and lands in
# Q[t_0..t_(n-1)] exactly.
#
# `check_on_witness` then decides whether a candidate parametrization phi of
# the witness curve satisfies every F_ij(phi(t)) = 0 while keeping D nonzero.
# The zero test is exact multipoint evaluation: a rational function whose
# cleared numerator has degree at most B vanishes identically iff it vanishes
# at B+1 points away from the poles, so agreement on that many samples is a
# proof, not a heuristic.
#
# This oracle is deliberately restricted to small instances (n <= 3, degree
# <= 6); it exists to cross-check the main pipeline, not to scale.

class MPoly:
    """Sparse multivariate polynomial: {exponent tuple: nonzero coefficient}."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = field.coerce(c)
                if c:
                    self.terms[e] = c

    @classmethod
    def _raw(cls, field, nvars, terms):
        p = cls.__new__(cls)
        p.field = field
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, field, nvars):
        return cls._raw(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c):
        c = field.coerce(c)
        if not c:
            return cls.zero(field, nvars)
        return cls._raw(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field, nvars, j):
        e = [0] * nvars
        e[j] = 1
        return cls._raw(field, nvars, {tuple(e): field.one})

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
        return MPoly._raw(self.field, self.nvars, out)

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] - c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = -c
        return MPoly._raw(self.field, self.nvars, out)

    def __neg__(self):
        return MPoly._raw(
            self.field, self.nvars, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, MPoly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    c = c1 * c2
                    if e in out:
                        s = out[e] + c
                        if s:
                            out[e] = s
                        else:
                            del out[e]
                    elif c:
                        out[e] = c
            return MPoly._raw(self.field, self.nvars, out)
        try:
            c = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        if not c:
            return MPoly.zero(self.field, self.nvars)
        return MPoly._raw(
            self.field, self.nvars, {e: v * c for e, v in self.terms.items()}
        )

    __rmul__ = __mul__

    def map_coeffs(self, fn, new_field):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return MPoly._raw(new_field, self.nvars, out)

    def eval(self, values, cache=None):
        """Evaluate at a point; `cache` memoizes variable powers per point."""
        if cache is None:
            cache = {}
        zero_like = values[0] - values[0]
        out = zero_like
        for e, c in self.terms.items():
            term = c
            for j, k in enumerate(e):
                if k:
                    key = (j, k)
                    pw = cache.get(key)
                    if pw is None:
                        pw = values[j] ** k
                        cache[key] = pw
                    term = pw * term
            out = out + term
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"t{j}^{k}" if k > 1 else f"t{j}"
                for j, k in enumerate(e)
                if k
            )
            cs = str(c)
            if any(ch in cs[1:] for ch in "+-"):
                cs = f"({cs})"
            bits.append(f"{cs}*{mono}" if mono else cs)
        return " + ".join(bits)


@dataclass
class WeilSystem:
    field: object  # the coefficient field K(alpha)
    coordinate_polys: list  # [component][j] -> MPoly over QQ (the F_ij)
    denominator: MPoly  # over QQ

    @property
    def nvars(self):
        return self.field.degree


def _substitute_linear_form(poly, target_field, nvars, root):
    """poly(sum_j root^j t_j) as an MPoly over target_field.

    `poly` is univariate over a field whose elements coerce into
    `target_field` after conjugation by the caller (coefficients are passed
    through `target_field.coerce`)."""
    lin = MPoly.zero(target_field, nvars)
    p = target_field.one
    for j in range(nvars):
        lin = lin + MPoly.variable(target_field, nvars, j) * p
        p = p * root
    acc = MPoly.zero(target_field, nvars)
    for c in reversed(poly.coeffs):
        acc = acc * lin + MPoly.constant(target_field, nvars, c)
    return acc


def weil_substitution(psi, minpoly=None):
    """Build the witness system (coordinate polynomials and denominator).

    `minpoly`, when given, is cross-checked against the defining polynomial
    of psi's coefficient field. Limits: the coefficient field is a simple
    extension of Q with degree n <= 3 and the parametrization degree is at
    most 6.
    """
    field = psi.field
    if not isinstance(field.base, RationalField):
        raise InstanceError("the witness oracle requires a simple extension of Q")
    if minpoly is not None:
        given = minpoly.map_into(field.base) if minpoly.field != field.base else minpoly
        if given.monic() != field.minpoly:
            raise InstanceError(
                "minimal polynomial does not match the parametrization's field"
            )
    n = field.degree
    d = psi.degree
    if n > 3 or d > 6:
        raise InstanceError(
            f"witness oracle budget exceeded (degree {d}, extension {n}; "
            "limits are 6 and 3)"
        )
    qq = field.base
    # common denominator over K(alpha)[t]
    common = psi[0].den
    for comp in psi.components[1:]:
        g = poly_gcd(common, comp.den)
        common = common * (comp.den // g)
    nums = []
    for comp in psi:
        nums.append(comp.num * (common // comp.den))
    # identity substitution
    delta = _substitute_linear_form(common, field, n, field.gen)
    subbed_nums = [
        _substitute_linear_form(num, field, n, field.gen) for num in nums
    ]
    # norm factor: product over non-identity classes of the conjugate
    # denominators (size-2 classes via the closed-form relative norm)
    if n == 1:
        classes = []
    else:
        _, classes = conjugacy_classes(field)
    norm_factor = MPoly.constant(field, n, field.one)
    for cls in classes:
        rel = cls.relative_field
        conj_den = common.map_coeffs(lambda c: nf_conjugate(c, cls), rel)
        d_conj = _substitute_linear_form(conj_den, rel, n, rel.gen)
        if cls.size == 1:
            part = d_conj.map_coeffs(lambda c: c.retract(), field)
        elif cls.size == 2:
            u = d_conj.map_coeffs(lambda c: c.coords[0], field)
            v = d_conj.map_coeffs(lambda c: c.coords[1], field)
            p = cls.factor.coeff(1)
            q = cls.factor.coeff(0)
            part = u * u - (u * v) * p + (v * v) * q
        else:
            raise InternalInvariantError(
                "class size exceeds 2 inside the witness oracle"
            )
        norm_factor = norm_factor * part
    denom = delta * norm_factor

    def to_rational(c):
        if any(c.coords[1:]):
            raise InternalInvariantError(
                "witness denominator failed to land in Q"
            )
        return c.coords[0]

    denom_q = denom.map_coeffs(to_rational, qq)
    coordinate_polys = []
    for num in subbed_nums:
        lifted = num * norm_factor
        rows = []
        for j in range(n):
            rows.append(lifted.map_coeffs(lambda c: c.coords[j], qq))
        coordinate_polys.append(rows)
    return WeilSystem(field=field, coordinate_polys=coordinate_polys, denominator=denom_q)


def check_on_witness(system, phi):
    """True iff phi lands on the witness curve: every coordinate polynomial
    with alpha-exponent >= 1, evaluated on phi(t), is the zero rational
    function, while D(phi(t)) is not identically zero.

    Decided by exact evaluation at more points than the degree of the
    cleared numerators, skipping parameter values where phi has a pole.
    """
    field = system.field
    n = system.nvars
    if len(phi) != n:
        raise InstanceError("phi must have one component per alpha-power")
    p_deg = max(comp.degree for comp in phi)
    f_deg = max(
        (f.total_degree() for row in system.coordinate_polys for f in row),
        default=0,
    )
    f_deg = max(f_deg, system.denominator.total_degree())
    bound = f_deg * p_deg
    needed = bound + 1
    samples = 0
    denominator_hit = False
    t = 0
    tried = 0
    while samples < needed:
        tried += 1
        if tried > 4 * needed + 20:
            raise InternalInvariantError(
                "witness check could not find enough pole-free samples"
            )
        te = field.coerce(t)
        t = -t + (1 if t <= 0 else 0)  # 0, 1, -1, 2, -2, ...
        values = at(phi, te)
        if any(v is POLE for v in values):
            continue
        samples += 1
        cache = {}
        for row in system.coordinate_polys:
            # a point is on the witness iff the alpha-coordinates with
            # exponent >= 1 vanish (the 0-th is the rational value itself)
            for f in row[1:]:
                if f.eval(values, cache):
                    return False
        if not denominator_hit and system.denominator.eval(values, cache):
            denominator_hit = True
    return denominator_hit


def rref(matrix, field):
    """Reduced row echelon form. Returns (new_rows, pivot_column_indices)."""
    rows = [list(r) for r in matrix]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def kernel_basis(matrix, ncols, field):
    """Basis of the right kernel of the matrix (list of length-ncols vectors).

    Deterministic: one basis vector per free column, that free coordinate set
    to one, so each vector's last nonzero coordinate is 1.
    """
    rows, pivots = rref(matrix, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def moebius_by_kernel(field, pairs):
    """The Moebius map through three samples (t, s) as the kernel of the
    3 x 4 system a t + b - c s t - d s = 0, row reduced over the field."""
    rows = [[field.coerce(t), field.one, -field.coerce(s * t), -field.coerce(s)] for t, s in pairs]
    (u,) = kernel_basis(rows, 4, field)
    return MoebiusTransform._raw(*u)


def adversarial_solution_by_kernel(field, degree, g_values):
    """The adversarial construction's (particular, homogeneous) solution,
    by row reducing sum_j a_j i^j = alpha^(i+2) g(i) - alpha i^d at the
    nodes i = 1..n-1 augmented with its right-hand side, g_values the g(i):
    the kernel vector whose last coordinate is 1 gives the particular
    solution, the others one homogeneous vector per free unknown."""
    d, alpha = degree, field.gen
    augmented = []
    for i, g in enumerate(g_values, start=1):
        row = [field.coerce(i**j) for j in range(d)]
        augmented.append(row + [alpha * i**d - alpha ** (i + 2) * g])
    *kernel, last = kernel_basis(augmented, d + 1, field)
    assert last[d] == field.one, "the system is consistent"
    free = range(len(g_values), d)
    return last[:d], {k: v[:d] for k, v in zip(free, kernel)}


def invariance_system(cls):
    """Q-linear conditions on alpha-power coordinates for sigma(x) = x.

    sigma sends alpha to the class's designated root; the returned rows are
    rational vectors of length n = deg K(alpha), one row per flattened
    coordinate of sigma(alpha^j) - alpha^j.
    """
    rel = cls.relative_field
    field = rel.base
    if not isinstance(field.base, RationalField):
        raise InstanceError("invariance systems require a ground field of Q")
    cols = []
    for j in range(field.degree):
        power = field.gen**j
        diff = cls.conjugate(power) - rel.coerce(power)
        # coordinates over K(alpha), then each one's over Q
        cols.append([q for c in diff.coords for q in c.coords])
    return [list(row) for row in zip(*cols)]


def fixed_field_by_kernel(field, fixing_classes):
    """The fixed field of the classes as (basis, primitive element, its
    minimal polynomial), by intersecting the kernels of the conditions
    sigma(x) = x (`invariance_system`), then searching integer
    combinations of the kernel basis up to height 8 for an element whose
    minimal polynomial has degree [L:Q]."""
    if not isinstance(field.base, RationalField):
        raise InstanceError("minimum fields are computed over the ground field Q")
    n = field.degree
    system = []
    for cls in fixing_classes:
        system.extend(invariance_system(cls))
    if not system:
        vectors = [
            [field.base.one if i == j else field.base.zero for i in range(n)]
            for j in range(n)
        ]
    else:
        vectors = kernel_basis(system, n, field.base)
    basis = tuple(field.element(v) for v in vectors)
    m = len(basis)
    combos = (
        combo
        for height in range(1, 9 if m > 1 else 1)
        for combo in itertools.product(range(-height, height + 1), repeat=m)
        if max(abs(c) for c in combo) == height
    )
    combinations = (sum((b * c for c, b in zip(combo, basis)), field.zero) for combo in combos)
    for cand in itertools.chain(basis, combinations):
        cp = cand.charpoly()
        mp = cp // poly_gcd(cp, cp.derivative())
        if mp.degree == m:
            return basis, cand, mp
    raise InternalInvariantError("no primitive element found for the fixed field")


def relative_model(field, fixed):
    """Tower model L(alpha) of K(alpha) over its subfield L: (E, rewrite).

    E is L(alpha) with L = Q(primitive), defined by alpha's minimal
    polynomial over L, of degree r = [K(alpha) : L]; `rewrite` maps elements
    of K(alpha) to E.  The products primitive^j * alpha^i (j < deg L, i < r)
    are a Q-basis of K(alpha), since 1, alpha, .., alpha^(r-1) is an L-basis;
    coordinates in it are tower coordinates, and those of alpha^r give the
    relative minimal polynomial.  There is no tower when r = 1, L = K(alpha).
    """
    r = fixed.relative_degree
    if r == 1:
        raise InstanceError("the minimum field is the whole field: no relative model")
    qq = field.base
    n = field.degree
    m = fixed.degree
    lfield = NumberField(qq, fixed.primitive_minpoly, "g")
    prim, gen = fixed.primitive, field.gen
    cols = [(prim**j * gen**i).coords for i in range(r) for j in range(m)]
    # invert the basis matrix B: row reduce [B | 1]
    aug = [list(row) + [qq.zero] * n for row in zip(*cols)]
    for i in range(n):
        aug[i][n + i] = qq.one
    rows, pivots = rref(aug, qq)
    if pivots != list(range(n)):
        raise InternalInvariantError("primitive-power basis is singular")
    binv = [row[n:] for row in rows]

    def to_tower_coords(x):
        y = [sum(map(mul, brow, x.coords)) for brow in binv]
        return [lfield.element(y[i * m : (i + 1) * m]) for i in range(r)]

    top = to_tower_coords(field.gen**r)
    relpoly = UniPoly(lfield, [-c for c in top] + [lfield.one])
    tower = NumberField(lfield, relpoly, field.name)

    def rewrite(x):
        return tower.element(to_tower_coords(field.coerce(x)))

    return tower, rewrite
