"""K-definability of parametrized curves and standard hypercircle
parametrizations.

Given a parametrization psi of a curve, with coefficients in a number
field K(alpha) of degree n over K, the driver `standard_parametrization`
decides whether the curve is definable over K and, when it is, produces the
standard parametrization phi of the associated hypercircle — the rational
normal curve traced by the alpha-power coordinates of the parameter change
that witnesses definability.

The per-class work follows the Lagrange-interpolation shape: factor
m(alpha, x) = M(x)/(x - alpha) over K(alpha); for each conjugacy class find a
Moebius transform u with psi = psi^sigma o u by sampling parameters and
classifying each sample, and verify the identity symbolically.  u comes from
the 2-jet of the curve s = u(t) at the class's first good sample, computed
at the embedding that sample's root came back with (`_jet_u`); when the
jet gives out or its u fails the identity, the exact three-point fit
through the third good sample with a new s is the second candidate.  Each
u is only a candidate: `verify_identity` is the one proof that u carries
psi^sigma back onto psi, and it proves any u it accepts, so neither needs
an argument of its own.  A class that moves the curve has one
certificate, whatever candidates failed on the way: two values of t not
attained at distinct points, which the budget reaches for a proper psi
(`parameter_budget`) and which proves the move for any psi
(`_moves_the_curve`); a non-proper psi gets that or exhausts the budget.
phi is then the sum of m(alpha_i, x)/m(alpha_i, alpha_i) * u_i(t) over
every conjugate, alpha itself included with u = t: one term per factor f
of M, the identity's being x - alpha, each traced down to K(alpha) and
read off coordinates by Euler's lemma from its cofactor M/f and
e = f'(gamma)/M'(gamma) by one routine (`trace_term`); 1/M'(alpha) is
inverted once for all.  Each term contributes numerators over its own g
(the characteristic polynomial of u's pole, or 1), they are summed over
D = prod g, the identity sum A_i alpha^i = t D is checked exactly, and each
x-coefficient A_i / D is normalized once to give phi_i.

`check_certificate` re-proves a result from the result alone, with no
parameter search: the classes cover every conjugate, each class's u passes
the identity (or its not-attained pair re-classifies, at two distinct
points), and phi interpolates every u.  Every verdict comes from
`classify_parameter`.
"""

from itertools import accumulate, zip_longest
from math import prod
from operator import mul

from .errors import InstanceError, InternalInvariantError, NonProperParametrization
from .factoring import factor_squarefree
from .intpoly import integer_schedule as parameter_schedule
from .modp import _values, fold_common_root, from_values
from .modp import poly_gcd  # noqa: F401 - wrapped by the bench tracer
from .numberfield import ConjugacyClass, NumberField, _blocks, integral_horner, integral_ops
from .polynomials import UniPoly
from .ratfunc import (
    MoebiusTransform,
    Parametrization,
    RatFunc,
    moebius_composer,
    moebius_from_three_points,
)

GOOD = "good"
BAD_DENOMINATOR = "bad_denominator"
NOT_ATTAINED = "not_attained"
SINGULAR = "singular"

_CLASS_NAMES = "bcdefghjklm"


def parameter_budget(d):
    """Parameters that are not poles of psi, per class search or for psi
    against itself, before psi is proven non-proper, for
    d = `curve_degree_bound(psi)`: max(d^2 + d, d^2 - 3d + 7), which is
    d^2 + d from d = 2 on.  Poles of psi (BAD_DENOMINATOR) spend none, and
    a search still ends: a nonzero denominator D has at most deg D
    rational roots.

    Why it suffices.  Let psi be proper, and d at least its degree over
    the lcm D of its denominators (`curve_degree_bound`), so that its curve
    C and each conjugate C^sigma have degree at most d.

    A class that fixes C, or psi against itself.  A parameter that is not
    a pole fails to be GOOD only when psi(t) is a singular point of C, or
    psi^sigma's value at infinity, or not attained.  A singular point P of
    multiplicity m_P >= 2 has at most m_P parameters, one per branch, and
    sum m_P <= sum m_P (m_P - 1) <= 2 delta = (d - 1)(d - 2) for a rational
    plane curve, delta counting infinitely near points too (a generic
    projection to the plane keeps the degree and the multiplicities).  Off
    the singular points, one t has psi(t) = psi^sigma(infinity), and at
    most one t, v(infinity) for the v with psi^sigma = psi o v, is not
    attained (none against itself).  The rest are GOOD, and their s = u(t)
    are distinct, as u is injective: the jet needs one of them and the
    three-point fit three.  That is at most (d - 1)(d - 2) + 5 =
    d^2 - 3d + 7 parameters.

    A class that moves C.  A non-pole t whose verdict is not NOT_ATTAINED
    has psi(t) on the closure of C^sigma: a GOOD verdict or a common factor
    gives a finite s with psi^sigma(s) = psi(t), a SINGULAR one at infinity
    has psi(t) = psi^sigma(infinity), and an empty family has psi^sigma
    constant at psi(t).  A generic linear projection pi to the plane keeps
    the two irreducible curves apart and their degrees at most d, so the
    implicit equation F of pi(C^sigma) has degree e <= d and does not vanish
    on pi(C).  D(t)^e F(pi(psi(t))) is then a nonzero polynomial of degree
    at most d^2, and it vanishes at every such t: at most d^2 of them.
    The search ends at the first not-attained t whose point differs from
    the first one's, psi(t1) (`_same_point`).  As psi is proper, the t with
    psi(t) = psi(t1) are one per branch of C there, at most its
    multiplicity, and a point of an irreducible plane curve of degree
    e >= 2 has multiplicity at most e - 1 (a line through it and one more
    point of the curve would meet it more than e times), a line's 1.  A
    generic projection to the plane is birational onto its image and keeps
    the degree, so a point's branches are among those of its image: at most
    max(1, d - 1) parameters are at psi(t1).  That ends the search within
    d^2 + max(1, d - 1) + 1 parameters, whatever candidate u failed the
    identity on the way: d^2 + d from d = 2 on.
    """
    return max(d * d + d, d * d - 3 * d + 7)


def curve_degree_bound(psi):
    """The degree of psi written over the product L of its distinct
    denominators, deg L + max(0, max deg N_i - deg D_i) for components
    N_i/D_i: it bounds the degree over lcm(D_i), a divisor of L, and so
    the degree of psi's curve.  It is `Parametrization.degree` when the
    components share one denominator (one position in `psi.pairs`)."""
    deg_l = sum(psi.polys[i].degree for i in {den for _, den in psi.pairs})
    return deg_l + max(0, max(comp.num.degree - comp.den.degree for comp in psi))


def _budgeted_verdicts(psi, psi_sigma):
    """`classify_parameter`'s verdicts on psi against psi_sigma in schedule
    order, until `parameter_budget` parameters that are not poles of psi
    are classified."""
    budget = parameter_budget(curve_degree_bound(psi))
    for t in parameter_schedule():
        v = classify_parameter(psi, psi_sigma, t)
        yield v
        budget -= v.kind != BAD_DENOMINATOR
        if not budget:
            return


class ParameterVerdict:
    """One sampled parameter's verdict: its `kind`, t, and, when GOOD, the
    root s in the relative field.  `kept` is the split record, at the
    precision where s was proven, for the 2-jet (`modp.fold_common_root`);
    it is not part of the verdict, and equality leaves it out."""

    def __init__(self, kind, t, s=None, kept=None):
        self.kind = kind
        self.t = t
        self.s = s
        self.kept = kept

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.t, self.s) == (other.kind, other.t, other.s)

    __hash__ = None

    def __str__(self):
        if self.kind == GOOD:
            return f"t={self.t}: good (s = {self.s})"
        return f"t={self.t}: {self.kind}"


class ClassReport:
    """One class's outcome: when it fixes the curve, the Moebius transform
    `u` that carries psi^sigma back onto psi; when it moves the curve, the
    `not_attained` pair, two values of t at distinct points that psi^sigma
    does not attain, which proves the move for any psi, and u is None."""

    def __init__(self, cls, u=None, verdicts=None, not_attained=None):
        self.cls = cls
        self.u = u
        self.verdicts = [] if verdicts is None else verdicts
        self.not_attained = not_attained

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cls, self.u, self.verdicts, self.not_attained) == (
            other.cls, other.u, other.verdicts, other.not_attained
        )

    __hash__ = None

    @property
    def fixes(self):
        return self.u is not None

    @property
    def parameters_tried(self):
        return len(self.verdicts)

    def describe(self):
        name = self.cls.factor.render()
        if self.fixes:
            return f"class {name}: fixes the curve, u = {self.u}"
        t1, t2 = self.not_attained
        return (
            f"class {name}: curve moved (values at t={t1} and t={t2} "
            "are not attained by the conjugate)"
        )


class HypercircleResult:
    """A decision: the curve is defined over K when every class fixes it.
    A NotDefinedOverK verdict rests on no properness premise: a moving
    class's not-attained pair proves it for any psi (`_moves_the_curve`)."""

    def __init__(self, phi, field, reports):
        self.phi = phi
        self.field = field
        self.reports = reports

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.phi, self.field, self.reports) == (other.phi, other.field, other.reports)

    __hash__ = None

    @property
    def defined(self):
        return all(r.fixes for r in self.reports)

    @property
    def parameters_tried(self):
        return max((r.parameters_tried for r in self.reports), default=0)

    @property
    def certificate(self):
        for r in self.reports:
            if not r.fixes:
                return r
        return None

    @property
    def verdict(self):
        return "DefinedOverK" if self.defined else "NotDefinedOverK"


def classify_parameter(psi, psi_sigma, t):
    """Classify one candidate parameter t, a rational number, for one
    conjugacy class.

    psi_sigma is psi with its coefficients conjugated into the class's
    relative field.  Returns a ParameterVerdict.

    The fibre psi^sigma(s) = psi(t) is built and classified on integral
    vectors (`Parametrization.vectors`): field arithmetic is left only to a
    gcd candidate of degree 2 or more (`fold_common_root`).  With t = r/q
    in lowest terms, q > 0, a component N/D of psi of degree k gives
    N_t = q^k E N(t) and D_t = q^k E D(t) (E psi's dropped denominator, one
    for every component) from one homogeneous integer Horner pass per
    distinct polynomial (`Parametrization.polys`), and D_t = 0 exactly when
    D(t) does.  The component's polynomial D' v - N' in s,
    v = N(t)/D(t) and N'/D' the matching component of psi^sigma, times the
    nonzero constant F D_t of K(alpha) (F psi^sigma's dropped
    denominator) has the
    coefficient vectors N_t X'_j - D_t Y'_j, X'_j and Y'_j those of D' and
    N'.  A constant factor leaves the gcd alone, and N_t and D_t lie in
    K(alpha), the base of the class field, so their products act block by
    block (`integral_ops`).

    The s^k coefficient, N_t X'_k - D_t Y'_k (zero padded), is zero exactly
    when v is psi^sigma's value at s = infinity: Y'_k / X'_k when X'_k != 0,
    and a pole, where the coefficient is -D_t Y'_k != 0, when X'_k = 0.  A
    t whose psi(t) is that value in every component is SINGULAR.
    """
    ops = integral_ops(psi.field)
    rops = integral_ops(psi_sigma.field)
    q = t.denominator
    by_r = ops.fixed(ops.scale(ops.one, t.numerator))  # a scaling
    pad = (0,) * (psi_sigma.field.absolute_degree - psi.field.absolute_degree)
    vectors, vectors_s = psi.vectors, psi_sigma.vectors
    at_t = [integral_horner(ops, vecs, by_r, q) if vecs else ops.zero for vecs in vectors]
    values = []
    for pair in psi.pairs:
        k = max(len(vectors[i]) for i in pair) - 1
        nv, dv = (ops.scale(at_t[i], q ** (k + 1 - len(vectors[i]))) for i in pair)
        if not ops.nonzero(dv):
            return ParameterVerdict(BAD_DENOMINATOR, t)
        values.append((nv + pad, dv + pad))
    add, nonzero, zero = rops.add, rops.nonzero, rops.zero
    family = []
    at_infinity = True
    for (nv, dv), (n_s, d_s) in zip(values, psi_sigma.pairs):
        num_s, den_s = vectors_s[n_s], vectors_s[d_s]
        times_n, times_d = rops.fixed(nv), rops.fixed(rops.scale(dv, -1))
        vecs = [add(times_n(y), times_d(x)) for y, x in zip_longest(den_s, num_s, fillvalue=zero)]
        at_infinity = at_infinity and not nonzero(vecs[-1])
        while vecs and not nonzero(vecs[-1]):
            vecs.pop()
        if vecs:
            family.append((vecs, 1))
    if not family:
        # psi(t) coincides with the whole conjugated map — degenerate input.
        return ParameterVerdict(SINGULAR, t)
    kind, s0, kept = fold_common_root(family, psi_sigma.field)
    if kind == "empty":
        return ParameterVerdict(NOT_ATTAINED, t)
    if kind == "degree" or at_infinity:
        # a proven common factor of degree >= 2, or psi(t) is also
        # psi^sigma's value at infinity: t's fibre is not one point
        return ParameterVerdict(SINGULAR, t)
    return ParameterVerdict(GOOD, t, s0, kept)


def compute_u_for_class(psi, cls):
    """Find the Moebius transform carrying psi^sigma back onto psi, or two
    values of t that are not attained, at distinct points, the certificate
    that the class moves the curve.  Returns a ClassReport.

    Parameters are classified in schedule order.  Two candidates for u are
    tried, and the class fixes the curve when `verify_identity` proves one:
    the 2-jet at the first good sample (`_jet_u`), and, when the jet gives
    out or its u fails, the three-point fit through the first three good
    samples with distinct s.  A candidate that fails ends nothing: the
    search goes on until a parameter is not attained at a point other than
    the first not-attained one's (`_same_point`); one at that point is
    recorded and passed over.  A proper psi has at most one u, so a u that
    passes is the fit's, coordinate for coordinate, as both set the last
    nonzero coordinate to 1.  The verdicts come from `_budgeted_verdicts`,
    so poles of psi are recorded but spend no budget.  `parameter_budget`
    proves that the budget reaches either end for a proper psi, so running
    out of it proves psi non-proper."""
    psi_sigma = psi.conjugate(cls)
    report = ClassReport(cls=cls)
    good = []
    first = None
    for v in _budgeted_verdicts(psi, psi_sigma):
        report.verdicts.append(v)
        if v.kind == NOT_ATTAINED:
            if first is None:
                first = v.t
            elif not _same_point(psi, first, v.t):
                report.not_attained = (first, v.t)
                return report
        elif v.kind == GOOD and len(good) < 3 and all(v.s != s for _, s in good):
            good.append((v.t, v.s))
            if len(good) == 1:
                u = _jet_u(psi, psi_sigma, v)
            elif len(good) == 3:
                u = moebius_from_three_points(cls.relative_field, good)
            else:
                continue
            if u is not None and verify_identity(psi, psi_sigma, u):
                report.u = u
                return report
    raise NonProperParametrization(
        "parametrization is non-proper: the candidate-parameter budget "
        f"({parameter_budget(curve_degree_bound(psi))}), which suffices for every proper "
        "one, ran out before a proven u or two values of t not attained at distinct points"
    )


def _same_point(psi, t1, t2):
    """Whether psi(t1) == psi(t2), for integers t1 and t2 that are not
    poles: N(t1) D(t2) == N(t2) D(t1) in every component N/D, from each of
    psi's integral vectors (`Parametrization.vectors`) at each t once."""
    ops = integral_ops(psi.field)
    v1, v2 = ([ops.make(integral_horner(ops, vecs, lambda v: ops.scale(v, t), 1) if vecs
                         else ops.zero, 1) for vecs in psi.vectors] for t in (t1, t2))
    return all(v1[n] * v2[d] == v2[n] * v1[d] for n, d in psi.pairs)


def _taylor(f, x, q):
    """f(x), f'(x) and f''(x)/2 mod q, for f's coefficients ascending: the
    first three Taylor coefficients at x, from one Horner pass."""
    v = d1 = d2 = 0
    for c in reversed(f):
        d2 = (d2 * x + d1) % q
        d1 = (d1 * x + v) % q
        v = (v * x + c) % q
    return v, d1, d2


def _jet_u(psi, psi_sigma, v):
    """The candidate u with psi = psi^sigma o u from the 2-jet of the curve
    s = u(t) at the good sample v = (t, s), or None when the jet gives
    out.

    The jet.  u(t) is a root of G(t, s) = N(t) D'(s) - D(t) N'(s) for
    every component N/D of psi and N'/D' of psi^sigma.  At a component
    where Q = G_s != 0, implicit differentiation gives u' = P/Q and
    u'' = 2 R/Q^3, with P = -G_t and R = -(G_tt Q^2/2 + G_ts P Q +
    G_ss P^2/2).  A Moebius map through (t, s) is
    x -> s + m (x - t)/(1 + k (x - t)), whose first two derivatives at t
    are m and -2 m k, so m = P/Q and k = -R/(P Q^2), and with P Q^2
    cleared u(x) = (a x + b)/(c x + d) for a = P^2 Q - s R, c = -R and
    d = P Q^2 + R t, b following from u(t) = s.  A unit u has m != 0, and
    only one Moebius map has a given 2-jet with m != 0.

    Where it runs.  Pointwise, at the class field's embeddings mod q where
    the fold found s (`v.kept`): the split record at the precision q where
    s was proven, q = p when s needed no lift.
    Nothing is lifted here; that is the precision rule.  u is then
    normalized pointwise as the three-point fit normalizes its u, with its
    last nonzero coordinate 1: d = 1, or c = 1 when d vanishes at every
    embedding, its N inverses taken as one (Montgomery's trick).  That
    removes any scalar, so each embedding uses its own first component
    with G_s a unit there.  a and c are interpolated and recovered as
    rationals (`modp.from_values`), and b = s (c t + d) - a t exactly.
    The jet gives out when an embedding has no component with G_s a unit,
    when the coordinate set to 1 is not a unit at every embedding, and
    when a coordinate does not reconstruct at q.

    Nothing here is a proof: the caller proves u by `verify_identity`,
    which proves any u it accepts.
    """
    t, s, kept, rel = v.t, v.s, v.kept, psi_sigma.field
    p, q, rows = kept.p, kept.q, kept.rows
    # p divides no denominator: t is an integer (`parameter_schedule`), and
    # s was rebuilt mod q (`modp._rat_rec` refuses a p-divisible one)
    by_den = pow(s.den, -1, q)
    tq = t.numerator % q
    # psi's side lies in K(alpha): one value per base embedding, read from
    # the first block of each group of rows above it
    size = rel.degree
    base_rows = [row[: psi.field.absolute_degree] for row in rows[::size]]

    def at(rows, part):
        return _values(rows, part, q) if part else [()] * len(rows)

    pairs = list(zip(psi.pairs, psi_sigma.pairs))
    jets, coeffs = {}, {}  # by position in the records, as far as some embedding needed
    cols = []
    for e, row in enumerate(rows):
        se = sum(map(mul, row, s.ic)) * by_den % q
        for pair, pair_s in pairs:
            for i, i_s in zip(pair, pair_s):
                if i not in jets:
                    jets[i] = [_taylor(f, tq, q) for f in at(base_rows, psi.vectors[i])]
                if i_s not in coeffs:
                    coeffs[i_s] = at(rows, psi_sigma.vectors[i_s])
            (n0, n1, n2), (d0, d1, d2) = (jets[i][e // size] for i in pair)
            (y0, y1, y2), (x0, x1, x2) = (_taylor(coeffs[i][e], se, q) for i in pair_s)
            gs = (n0 * x1 - d0 * y1) % q
            if gs % p:
                break
        else:
            return None
        gp = (d1 * y0 - n1 * x0) % q  # P = -G_t
        r = -((n2 * x0 - d2 * y0) * gs * gs + (n1 * x1 - d1 * y1) * gp * gs
              + (n0 * x2 - d0 * y2) * gp * gp) % q
        pq = gp * gs
        a = (pq * gp - se * r) % q
        cols.append((a, -r % q, (pq * gs + r * tq) % q))  # (a, c, d)
    # the last nonzero coordinate is 1: d, or c when d = 0 (a u with
    # c = d = 0 is singular)
    last = 2 if any(c[2] for c in cols) else 1
    prefix = list(accumulate((c[last] for c in cols), lambda x, y: x * y % q))
    if prefix[-1] % p == 0:  # exactly when one of them is not a unit
        return None
    inv, invs = pow(prefix[-1], -1, q), []
    for c, before in zip(cols[:0:-1], prefix[-2::-1]):
        invs.append(inv * before % q)
        inv = inv * c[last] % q
    scaled = [(c[0] * x % q, c[1] * x % q) for c, x in zip(cols, [inv] + invs[::-1])]
    a_c = from_values(rel, kept, list(zip(*scaled))[:last])
    if a_c is None:
        return None
    a, c = a_c if last == 2 else (a_c[0], rel.one)
    d = rel.one if last == 2 else rel.zero
    # b from u(t) = s, exactly: a t + b = s (c t + d)
    return MoebiusTransform._raw(a, s * (c * t + d) - a * t, c, d)


def verify_identity(psi, psi_sigma, u):
    """Exact proof of psi == psi_sigma o u, checked as
    psi o u^-1 == psi_sigma, component by component.

    The identity.  With u = (a t + b)/(c t + d) a unit, the adjugate
    u^-1 = (d t - b)/(-c t + a) is its inverse, and composing
    psi o u^-1 == psi^sigma with u gives psi == psi^sigma o u.

    The premises.  Each component of psi is a reduced fraction N/D with D
    monic, since `RatFunc` is normalized that way; conjugation is a field
    embedding, so each component N'/D' of psi^sigma is reduced with D'
    monic too, and of the same degree k = max(deg N, deg D).  Substituting
    a unit Moebius map into a coprime pair, homogenized to degree k, is an
    invertible change of variables of the binary forms, so the composed
    pair (cn, cd) of N/D and u^-1 is coprime as well.  Two reduced
    fractions are equal iff their parts are proportional, and with D'
    monic the factor is lam = lc(cd): the check is deg N'/D' == k,
    deg cn == deg N', deg cd == deg D', cn == lam * N' and cd == lam * D'
    coefficient by coefficient.

    A True answer is a proof for any u.  For a unit u, proportional pairs
    define the same function.  A singular u makes each composed pair a
    constant pair times a power of one linear form; that is proportional
    to the reduced N'/D' only when N'/D' is a constant, and then the equal
    degrees make N/D the same constant.

    The cost.  The coefficients are compared on integers, and nothing is
    normalized.  u^-1 becomes integral vectors of the class field over one
    denominator L (`integral_ops`), and every part of psi and of psi^sigma
    is integral over one dropped denominator, E for all of psi and E' for
    all of psi^sigma (`Parametrization.vectors`; those of a component of
    psi^sigma are X_j and Y_j, and E' times one is Y's last, as D' is
    monic).  The Horner scheme of `moebius_compose_pair`
    (`moebius_composer`, with one table of the powers of -C t + A for every
    component) gives CN = E L^k cn and CD = E L^k cd, so the checks read
    CN_j E' == lc(CD) X_j and CD_j E' == lc(CD) Y_j.  Work is keyed by
    positions in the two records (`Parametrization.pairs`): a composition,
    lc(CD) and its matrix by psi's polynomial at its k, a check by the
    positions of its part and denominator in both.  r components over one
    denominator D, a plane curve's, cost r + 1 compositions, not 2r, and
    D's check against one D' is made once; a psi^sigma whose components
    do not share D' has each part checked.  The composition runs on
    packed vectors,
    each coordinate's t-coefficients in one int, so each part costs O(d)
    products by a fixed multiplier, a few per Horner step, and its slots
    are read once at the end; at small degree the Python calls per step
    set the cost, at large degree the size of the packed ints.  A
    coefficient of psi lies in K(alpha), the base of the class field, so
    its products act block by block (`integral_ops(...).over_base`), each
    on the matrix of K(alpha) that psi built once for every class and for
    `check_certificate` (`Parametrization.products`); the jet and the fit
    set d = 1 unless d = 0, so the Horner step's L t - B scales by an
    integer on one side.  Only -B, -C, A and each component's lc(CD), the
    multiplier of the O(d) products of the comparison, multiply as full
    matrices of the class field.
    """
    ops = integral_ops(psi_sigma.field)
    nonzero = ops.nonzero
    inverse = MoebiusTransform._raw(u.d, -u.b, -u.c, u.a)
    compose, _ = moebius_composer(ops, inverse, psi.degree)
    # psi's coefficients lie in the base of the class field: their products
    # there act block by block, from the matrices psi keeps
    embed = ops.over_base if psi_sigma.field != psi.field else None
    products, vectors_s = psi.products, psi_sigma.vectors
    # keyed by positions in psi's and psi^sigma's records, for the whole proof
    images, lams, proven = {}, {}, set()
    for comp, comp_s, pair, pair_s in zip(psi, psi_sigma, psi.pairs, psi_sigma.pairs):
        k = comp.degree
        if comp_s.degree != k:
            return False
        for i, i_s in zip(pair, pair_s):
            if (i, k) not in images:
                bs = [embed(b) for b in products[i]] if embed is not None else products[i]
                acc = compose(bs, k) if bs else []
                size = len(acc)
                while size and not nonzero(acc[size - 1]):
                    size -= 1
                images[i, k] = acc, size
            if images[i, k][1] != len(vectors_s[i_s]):
                return False
        den, den_s = (pair[1], k), vectors_s[pair_s[1]]
        if den not in lams:
            lams[den] = ops.fixed(images[den][0][len(den_s) - 1])
        lam, by_e = lams[den], ops.fixed(den_s[-1])  # D' is monic: E' times one
        for i, i_s in zip(pair, pair_s):
            check = i, i_s, den, pair_s[1]
            if check not in proven:
                for y, x in zip(images[i, k][0], vectors_s[i_s]):
                    if by_e(y) != lam(x):
                        return False
                proven.add(check)
    return True


def trace_term(cofactor, e, u):
    """One term of phi's sum, traced down to K(alpha).

    For a factor f of M, alpha's minimal polynomial, over K(alpha), gamma a
    root of f and s its degree, the term is
    u(t) M(x)/((x - gamma) M'(gamma)).  cofactor = M/f is over K(alpha), e = f'(gamma)/M'(gamma) lies
    in the field of gamma, which gives s by the absolute degrees, and
    u = (a t + b)/(c t + d) over that field has its last nonzero
    coordinate 1 (d = 1, or c = 1 and d = 0), as the jet and the fit give
    it.  A class's f is its factor of m(alpha, x); the identity's is
    x - alpha: cofactor m(alpha, x), e = 1/M'(alpha) in K(alpha) itself,
    so s = 1, and u the identity (c = 0).  Returns (numerators, g), the
    trace as sum_k N_k(t) x^k / g(t) with N_k over K(alpha) and g monic:
    the characteristic polynomial of the pole -d/c, or 1 when c = 0.

    By Euler's lemma (Serre, Local Fields, III.6) the trace of
    y f(x)/((x - gamma) f'(gamma)) is sum_(j<s) y_j x^j, y_j the
    gamma-coordinates of y.  So the trace times g is (M/f)(x) sum_j W_j x^j,
    W_j the j-th gamma-coordinate of v = e u(t) g(t), read off the blocks
    of v's vectors, one when s = 1.  c = 0: g = 1 and v = e (a t + b).
    d = 0: g = t^s and v = e (a t + b) t^(s-1).  d = 1: g = n/n_s for
    n(t) = prod (c_i t + 1) over the conjugates c_i of c, n_j =
    (-1)^j chi_(s-j) from the characteristic polynomial chi of c over
    K(alpha) (the only traces; 1/n_s, in K(alpha), is the only inverse),
    and (c t + 1) v = e (a t + b) g gives v from the bottom by s products
    by c, on integral vectors with one matrix of c.
    """
    field, rel = cofactor.field, e.field
    s = rel.absolute_degree // field.absolute_degree
    ops = integral_ops(rel)
    a, b, c, d = u.a, u.b, u.c, u.d
    (ea, eb), den = ops.lift([e * a, e * b])
    if not c:
        g, vs = [field.one], [eb, ea]
    elif not d:
        g = [field.zero] * s + [field.one]
        vs = [ops.zero] * (s - 1) + [eb, ea]
    else:
        times, k = ops.fixed(c.ic), c.den
        chi = c._powers_and_charpoly(times)[1].coeffs
        norm = [chi[s - j] if j % 2 == 0 else -chi[s - j] for j in range(s + 1)]
        inv = field.one / norm[s]
        g = [x * inv for x in norm]
        vecs, q = ops.lift(g)
        by_g = [ops.fixed(v) for v in vecs]
        add, scale = ops.add, ops.scale
        # V_l = v_l q den k^l, so V_l = k^l P_l - C V_(l-1), C = k c
        vs = [by_g[0](eb)]
        for l in range(1, s + 1):
            p = add(by_g[l - 1](ea), by_g[l](eb))
            vs.append(add(scale(p, k**l), scale(times(vs[-1]), -1)))
        vs = [scale(v, k ** (s - l)) for l, v in enumerate(vs)]
        den *= q * k**s
    # block j is W_j / scale^j, as the rescaled generator is scale * gamma
    fops = integral_ops(field)
    vecs, q = fops.lift(cofactor.coeffs)
    by_cof = [fops.fixed(v) for v in vecs]
    zero, m, scale_j = fops.zero, field.absolute_degree, rel._scale
    cols = [[zero] * len(vs) for _ in range(field.degree)]
    for l, v in enumerate(vs):
        for j, blk in enumerate(_blocks(v, m)):
            if fops.nonzero(blk):
                blk = fops.scale(blk, scale_j**j)
                for i, times_i in enumerate(by_cof):
                    cols[i + j][l] = fops.add(cols[i + j][l], times_i(blk))
    make = fops.make
    numerators = [UniPoly._raw(field, [make(v, q * den) for v in col]) for col in cols]
    return numerators, UniPoly._raw(field, g)


def _class_names(field):
    used = set()
    f = field
    while isinstance(f, NumberField):
        used.add(f.name)
        f = f.base
    return [c for c in _CLASS_NAMES if c not in used]


def _m_alpha(field):
    """m(alpha, x) = M(x)/(x - alpha) over K(alpha): its roots are the
    conjugates of alpha other than alpha."""
    x_minus_alpha = UniPoly(field, [-field.gen, field.one])
    m_alpha, rem = divmod(field.minpoly.map_into(field), x_minus_alpha)
    if not rem.is_zero:
        raise InternalInvariantError("alpha is not a root of its own minpoly")
    return m_alpha


def conjugacy_classes(field):
    """Factor m(alpha, x) = M(x)/(x - alpha) over K(alpha) into classes.

    M is irreducible over the base (checked on parse, and true of every
    field built internally), so it is separable in characteristic zero, and
    so is its divisor m(alpha, x), as `factor_squarefree` requires."""
    if field.degree < 2:
        raise InstanceError("the coefficient field must have degree >= 2")
    m_alpha = _m_alpha(field)
    names = _class_names(field)
    factors = factor_squarefree(m_alpha, field)
    classes = [
        ConjugacyClass(fac, names[i % len(names)]) for i, fac in enumerate(factors)
    ]
    return m_alpha, classes


def standard_parametrization(psi):
    """Decide K-definability of psi's curve; compute phi when defined.

    Returns a HypercircleResult.  phi (when present) parametrizes the
    hypercircle associated with the witnessing parameter change, and
    sum(phi_i * alpha^i) == t is checked on it: a failure raises
    InternalInvariantError.

    A NotDefinedOverK verdict rests on no properness premise
    (`_moves_the_curve`).  A non-proper psi has no GOOD sample, as a map of
    degree k >= 2 has k preimages with multiplicity over every point of its
    image, so no class of it fixes the curve: it gets a proven
    NotDefinedOverK, or a class exhausts its budget and
    NonProperParametrization is raised (`compute_u_for_class`).
    """
    field = psi.field
    if psi.degree < 1:
        raise InstanceError("constant parametrizations have no hypercircle")
    m_alpha, classes = conjugacy_classes(field)
    reports = tuple(compute_u_for_class(psi, cls) for cls in classes)
    if not all(rep.fixes for rep in reports):
        return HypercircleResult(None, field, reports)
    minpoly, inv = field.minpoly.map_into(field), field.one / m_alpha(field.gen)
    terms = [trace_term(m_alpha, inv, MoebiusTransform.identity(field))]
    for rep in reports:
        cls = rep.cls
        e = cls.relative_field.element(cls.factor.derivative().coeffs) * cls.conjugate(inv)
        terms.append(trace_term(minpoly // cls.factor, e, rep.u))
    den = UniPoly.one(field)
    for _, g in terms:
        den = den * g
    nums = [UniPoly.zero(field)] * field.degree
    for parts, g in terms:
        cofactor = den // g
        nums = [acc + p * cofactor for acc, p in zip(nums, parts)]
    # sum phi_i alpha^i = t, checked on the numerators over D: no gcd
    if not _interpolates(nums, den, field.gen, MoebiusTransform.identity(field)):
        raise InternalInvariantError("sum of phi_i * alpha^i is not t")
    phi = Parametrization([RatFunc(num, den) for num in nums])
    return HypercircleResult(phi, field, reports)


def _interpolates(nums, den, root, u):
    """sum_k nums_k root^k (c t + d) == den (a t + b).

    nums and den are polynomials in t over K(alpha), root is a conjugate of
    alpha in a field over K(alpha) (alpha itself for the identity) and
    u = (a t + b)/(c t + d): the check says that phi = nums/den takes the
    value u(t) at that conjugate.
    """
    field = root.field
    if den.field is not field:
        nums = [num.map_into(field) for num in nums]
        den = den.map_into(field)
    total = UniPoly.zero(field)
    for num in reversed(nums):
        total = total * root + num
    return total * UniPoly(field, [u.d, u.c]) == den * UniPoly(field, [u.b, u.a])


def _moves_the_curve(psi, psi_sigma, rep):
    """The certificate of a class that moves the curve, re-proved: a
    not-attained pair at distinct points, for any psi.

    If sigma fixed the curve C, psi^sigma would map P^1 onto C, its image
    being closed and not a point, so every point of C other than
    psi^sigma(infinity) would be psi^sigma(s) for a finite s.  So at most
    one point psi(t) is not attained, and two not-attained t with
    psi(t1) != psi(t2) (`_same_point`) prove that sigma moves the curve,
    whether psi is proper or not.  Both must re-classify as NOT_ATTAINED
    (`fold_common_root` proves the empty common root set), which also
    makes them no poles of psi.
    """
    if rep.not_attained is None:
        return False
    t1, t2 = rep.not_attained
    return all(
        classify_parameter(psi, psi_sigma, t).kind == NOT_ATTAINED for t in (t1, t2)
    ) and not _same_point(psi, t1, t2)


def check_certificate(psi, result):
    """Re-prove result's verdict on psi from the result alone.

    No parameter is searched for; each step re-checks what the result
    reports, and a failed step raises InternalInvariantError:

    * the reported class factors multiply to m(alpha, x), so the classes
      cover every conjugate of alpha;
    * each class that fixes the curve, one with a u, passes
      `verify_identity` with it, and each class that moves it has a
      not-attained pair at distinct points that re-classifies
      (`_moves_the_curve`), which rests on no properness premise; the
      verdict is DefinedOverK when every class fixes the curve;
    * when defined, phi is there and interpolates every u: over D, the
      product of phi's distinct denominators (`Parametrization.pairs`),
      `_interpolates` holds at alpha with the identity (the sum
      phi_i alpha^i = t) and at each class's root with its u.

    psi and result must share one field object: a TypeError says so
    before any arithmetic when they do not (two loads of one instance
    build two equal fields, whose elements mix through a `coerce` in every
    mixed operation).
    """
    field = psi.field
    if result.field is not field:
        raise TypeError("result.field is not psi.field: decide and check on one loaded instance")
    cover = UniPoly.one(field)
    for rep in result.reports:
        cover = cover * rep.cls.factor
    if cover != _m_alpha(field):
        raise InternalInvariantError("the classes do not cover every conjugate")
    for rep in result.reports:
        psi_sigma = psi.conjugate(rep.cls)
        if rep.fixes:
            ok = verify_identity(psi, psi_sigma, rep.u)
        else:
            ok = _moves_the_curve(psi, psi_sigma, rep)
        if not ok:
            raise InternalInvariantError(
                f"class {rep.cls.factor.render()}: its certificate does not hold"
            )
    if not result.defined:
        return
    if result.phi is None:
        raise InternalInvariantError("a defined result carries no phi")
    phi = result.phi
    den = prod((phi.polys[i] for i in {d for _, d in phi.pairs}), start=UniPoly.one(field))
    nums = [comp.num * (den // comp.den) for comp in phi]
    pairs = [(field.gen, MoebiusTransform.identity(field))]
    pairs += [(rep.cls.root, rep.u) for rep in result.reports]
    for root, u in pairs:
        if not _interpolates(nums, den, root, u):
            raise InternalInvariantError(f"phi does not interpolate u = {u}")


def _proper_at(psi):
    """The first t that psi against itself classifies as GOOD within the
    budget (`_budgeted_verdicts`), or None, the generators' properness
    filter: a GOOD verdict proves psi proper (`standard_parametrization`),
    and the budget reaches one for a proper psi (`parameter_budget`)."""
    return next((v.t for v in _budgeted_verdicts(psi, psi) if v.kind == GOOD), None)
