"""K-definability of parametrized curves and standard hypercircle
parametrizations.

Given a proper parametrization psi of a curve, with coefficients in a number
field K(alpha) of degree n over K, the driver `standard_parametrization`
decides whether the curve is definable over K and, when it is, produces the
standard parametrization phi of the associated hypercircle — the rational
normal curve traced by the alpha-power coordinates of the parameter change
that witnesses definability.

The per-class work follows the Lagrange-interpolation shape: factor
m(alpha, x) = M(x)/(x - alpha) over K(alpha); for each conjugacy class find a
Moebius transform u with psi = psi^sigma o u by sampling parameters, classify
each sample, fit u through three good samples, and verify the identity
symbolically.  phi is then the sum of m(alpha_i, x)/m(alpha_i, alpha_i)
* u_i(t) over every class, traced down to K(alpha), plus the identity's
term m(alpha, x)/m(alpha, alpha) * t, which lies in K(alpha) already: each
term contributes numerators over its own g (the characteristic polynomial
of u's pole, or 1), they are summed
over D = prod g, the identity sum A_i alpha^i = t D is checked exactly, and
each x-coefficient A_i / D is normalized once to give phi_i.

`check_certificate` re-proves a result from the result alone, with no
parameter search: the classes cover every conjugate, each class's u passes
the identity (or its certificate that the class moves the curve holds), and
phi interpolates every u.
"""

from dataclasses import dataclass, field as dc_field
from itertools import zip_longest

from .errors import InstanceError, InternalInvariantError, NonProperParametrization
from .factoring import factor_squarefree
from .intpoly import integer_schedule as parameter_schedule
from .modp import fold_common_root
from .numberfield import ConjugacyClass, NumberField, integral_horner, integral_ops
from .polynomials import UniPoly, poly_gcd  # noqa: F401 - wrapped by the bench tracer
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

# good samples with s == t that `probably_proper` asks of the identity class
_PROPER_SAMPLES = 4


def parameter_budget(d, n):
    """Candidate parameters needed per class before declaring non-properness."""
    return d * d - 2 * d + n + 4


@dataclass
class ParameterVerdict:
    kind: str
    t: object
    s: object = None  # root in the relative field when kind == GOOD

    def __str__(self):
        if self.kind == GOOD:
            return f"t={self.t}: good (s = {self.s})"
        return f"t={self.t}: {self.kind}"


@dataclass
class ClassReport:
    """One class's outcome.  `u` is the fitted Moebius transform: it carries
    psi^sigma back onto psi when `fixes`, failed the identity check when
    `identity_failed`, and is None after a not-attained pair."""

    cls: ConjugacyClass
    fixes: bool
    u: MoebiusTransform | None = None
    verdicts: list = dc_field(default_factory=list)
    not_attained: tuple | None = None
    identity_failed: bool = False

    @property
    def parameters_tried(self):
        return len(self.verdicts)

    def describe(self):
        name = self.cls.factor.render()
        if self.fixes:
            return f"class {name}: fixes the curve, u = {self.u}"
        if self.not_attained is not None:
            t1, t2 = self.not_attained
            return (
                f"class {name}: curve moved (values at t={t1} and t={t2} "
                "are not attained by the conjugate)"
            )
        return f"class {name}: Moebius fit failed the identity check"


@dataclass
class HypercircleResult:
    defined: bool
    phi: Parametrization | None
    field: NumberField
    reports: tuple

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
    N_t = q^k E N(t) and D_t = q^k E D(t) by homogeneous integer Horner
    (E the component's dropped denominator), and D_t = 0 exactly when D(t)
    does.  The component's polynomial D' v - N' in s, v = N(t)/D(t) and
    N'/D' the matching component of psi^sigma, times the nonzero constant
    F D_t of K(alpha) (F that component's dropped denominator) has the
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
    values = []
    for num, den in psi.vectors:
        k = max(len(num), len(den)) - 1
        dv = _homogeneous(ops, den, by_r, q, k)
        if not ops.nonzero(dv):
            return ParameterVerdict(BAD_DENOMINATOR, t)
        values.append((_homogeneous(ops, num, by_r, q, k) + pad, dv + pad))
    add, nonzero, zero = rops.add, rops.nonzero, rops.zero
    family = []
    at_infinity = True
    for (nv, dv), (num_s, den_s) in zip(values, psi_sigma.vectors):
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
    kind, s0 = fold_common_root(family, psi_sigma.field)
    if kind == "empty":
        return ParameterVerdict(NOT_ATTAINED, t)
    if kind == "degree" or at_infinity:
        # a proven common factor of degree >= 2, or psi(t) is also
        # psi^sigma's value at infinity: t's fibre is not one point
        return ParameterVerdict(SINGULAR, t)
    return ParameterVerdict(GOOD, t, s0)


def _homogeneous(ops, vecs, by_r, q, k):
    """q^k p(r/q) for the polynomial p of degree at most k with the
    integral coefficient vectors vecs, `by_r` the scaling by r: homogeneous
    Horner (`integral_horner`), scalings only."""
    if not vecs:
        return ops.zero
    return ops.scale(integral_horner(ops, vecs, by_r, q), q ** (k + 1 - len(vecs)))


def compute_u_for_class(psi, cls):
    """Find the Moebius transform carrying psi^sigma back onto psi, or a
    certificate that the class moves the curve.  Returns a ClassReport."""
    budget = parameter_budget(psi.degree, psi.field.degree)
    psi_sigma = psi.conjugate(cls)
    report = ClassReport(cls=cls, fixes=False)
    good = []
    not_attained = []
    schedule = parameter_schedule()
    while len(report.verdicts) < budget:
        t = next(schedule)
        v = classify_parameter(psi, psi_sigma, t)
        report.verdicts.append(v)
        if v.kind == NOT_ATTAINED:
            not_attained.append(v.t)
            if len(not_attained) == 2:
                report.not_attained = tuple(not_attained)
                return report
        elif v.kind == GOOD:
            if all(v.s != s for _, s in good):
                good.append((v.t, v.s))
                if len(good) == 3:
                    break
    if len(good) < 3:
        raise NonProperParametrization(
            "parametrization appears non-proper: the candidate-parameter "
            f"budget ({budget}) was exhausted without three usable samples"
        )
    rel = cls.relative_field
    report.u = moebius_from_three_points(rel, good)
    if not verify_identity(psi, psi_sigma, report.u):
        report.identity_failed = True
        return report
    report.fixes = True
    return report


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
    degrees make N/D the same constant.  A False answer is the
    failed-identity certificate that `check_certificate` re-proves.

    The cost.  The coefficients are compared on integers, and nothing is
    normalized.  u^-1 becomes integral vectors of the class field over one
    denominator L (`integral_ops`), and both parts of a component of psi
    and of psi^sigma are the integral vectors of `Parametrization.vectors`,
    over one dropped denominator E and E' (those of psi^sigma are X_j and
    Y_j; E' times one is Y's last, as D' is monic).  The Horner scheme of
    `moebius_compose_pair` (`moebius_composer`, with one table of the
    powers of -C t + A for every component) gives CN = E L^k cn and
    CD = E L^k cd, so the checks read CN_j E' == lc(CD) X_j and
    CD_j E' == lc(CD) Y_j.  The composition runs on packed vectors,
    each coordinate's t-coefficients in one int, so each part costs O(d)
    products by a fixed multiplier, a few per Horner step, and its slots
    are read once at the end; at small degree the Python calls per step
    set the cost, at large degree the size of the packed ints.  A
    coefficient of psi lies in K(alpha), the base of the class field, so
    its products act block by block (`integral_ops`); the fit sets d = 1,
    so the Horner step's L t - B scales by an integer on one side.  Only
    -B, -C, A and each component's lc(CD), the multiplier of the O(d)
    products of the comparison, multiply as full matrices of the class
    field.
    """
    ops = integral_ops(psi_sigma.field)
    nonzero = ops.nonzero
    inverse = MoebiusTransform._raw(u.d, -u.b, -u.c, u.a)
    compose, _ = moebius_composer(ops, inverse, psi.degree)
    # a vector of K(alpha) is the first block of the class field's
    pad = (0,) * (psi_sigma.field.absolute_degree - psi.field.absolute_degree)
    for comp, comp_s, parts, parts_s in zip(psi, psi_sigma, psi.vectors, psi_sigma.vectors):
        k = comp.degree
        if comp_s.degree != k:
            return False
        images = []
        for vecs, vecs_s in zip(parts, parts_s):
            acc = compose([v + pad for v in vecs], k) if vecs else []
            size = len(acc)
            while size and not nonzero(acc[size - 1]):
                size -= 1
            if size != len(vecs_s):
                return False
            images.append(acc)
        lam = ops.fixed(images[1][len(parts_s[1]) - 1])
        by_e = ops.fixed(parts_s[1][-1])  # D' is monic: E' times one
        for acc, vecs_s in zip(images, parts_s):
            for y, x in zip(acc, vecs_s):
                if by_e(y) != lam(x):
                    return False
    return True


def trace_term(m_alpha, cls, u):
    """The class's term of phi's sum, traced down to K(alpha).

    Over the class's relative field the term is
    m(alpha_i, x)/m(alpha_i, alpha_i) * u(t) with u = (a t + b)/(c t + d).
    Its trace is sum_k N_k(t) x^k / g(t), where g is the characteristic
    polynomial of the pole -d/c over K(alpha) when c != 0 (the product of
    the t + d/c over the class) and 1 when u is affine.  Returns
    (numerators, g): numerators[k] is N_k, a polynomial in t over K(alpha).
    Nothing is normalized here.  m(alpha_i, alpha_i) is the conjugate of
    m(alpha, alpha), so it is inverted in K(alpha), not in the larger
    relative field; c (or d when u is affine) is inverted once for its
    three quotients.
    """
    rel = cls.relative_field
    base = rel.base
    m_i = m_alpha.map_coeffs(cls.conjugate, rel)
    scaled = m_i * cls.conjugate(base.one / m_alpha(base.gen))  # P(x) over rel
    a, b, c, d = u.a, u.b, u.c, u.d
    inv = (c or d).inverse()
    mult = UniPoly(rel, [b * inv, a * inv])  # (a t + b) / c, or / d
    if c:
        btil = d * inv
        g = (-btil).charpoly()  # monic over K(alpha), degree = class size
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


def _identity_term(m_alpha):
    """The identity's term of phi's sum, m(alpha, x)/m(alpha, alpha) * t
    with g = 1: it lies in K(alpha) already, so it needs no relative field
    and no trace."""
    field = m_alpha.field
    inv = field.one / m_alpha(field.gen)
    numerators = [UniPoly(field, [field.zero, c * inv]) for c in m_alpha.coeffs]
    return numerators, UniPoly.one(field)


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


def _identity_class(field):
    """The identity conjugation alpha -> alpha as a class of size 1."""
    return ConjugacyClass(
        UniPoly(field, [-field.gen, field.one]), _class_names(field)[0]
    )


def standard_parametrization(psi):
    """Decide K-definability of psi's curve; compute phi when defined.

    Returns a HypercircleResult.  phi (when present) parametrizes the
    hypercircle associated with the witnessing parameter change, and
    sum(phi_i * alpha^i) == t is checked on it: a failure raises
    InternalInvariantError.
    """
    field = psi.field
    if psi.degree < 1:
        raise InstanceError("constant parametrizations have no hypercircle")
    m_alpha, classes = conjugacy_classes(field)
    reports = tuple(compute_u_for_class(psi, cls) for cls in classes)
    if not all(rep.fixes for rep in reports):
        return HypercircleResult(False, None, field, reports)
    terms = [_identity_term(m_alpha)]
    terms += [trace_term(m_alpha, rep.cls, rep.u) for rep in reports]
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
    return HypercircleResult(True, phi, field, reports)


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
    """The certificate of a class that moves the curve, re-proved.

    A not-attained pair: if sigma fixed the curve, psi^sigma = psi o v for a
    unit Moebius v, and for every t other than v(infinity) the finite
    s = v^-1(t) gives psi^sigma(s) = psi(t).  So at most one t, v(infinity),
    is not attained, and two distinct not-attained t prove that sigma moves
    the curve.  Both must re-classify as NOT_ATTAINED (`fold_common_root`
    proves the empty common root set).

    A failed identity: a good sample t has exactly one s with
    psi^sigma(s) = psi(t), and psi(t) is not psi^sigma's value at infinity.
    Any v with psi = psi^sigma o v therefore has v(t) = s, and three such
    samples with distinct s determine v: it is the fitted u.  So the samples
    must re-classify to the same s, u must pass through them, and the
    identity must fail for u.
    """
    if rep.not_attained is not None:
        t1, t2 = rep.not_attained
        return t1 != t2 and all(
            classify_parameter(psi, psi_sigma, t).kind == NOT_ATTAINED
            for t in (t1, t2)
        )
    good = []
    for v in rep.verdicts:
        if v.kind == GOOD and all(v.s != s for _, s in good):
            good.append((v.t, v.s))
    return (
        rep.identity_failed
        and rep.u is not None
        and len(good) == 3
        and all(
            classify_parameter(psi, psi_sigma, t) == ParameterVerdict(GOOD, t, s)
            and rep.u(rep.cls.relative_field.coerce(t)) == s
            for t, s in good
        )
        and not verify_identity(psi, psi_sigma, rep.u)
    )


def check_certificate(psi, result):
    """Re-prove result's verdict on psi from the result alone.

    No parameter is searched for; each step re-checks what the result
    reports, and a failed step raises InternalInvariantError:

    * the reported class factors multiply to m(alpha, x), so the classes
      cover every conjugate of alpha;
    * each class that fixes the curve passes `verify_identity` with its u,
      and each class that moves it has a certificate that holds
      (`_moves_the_curve`); the verdict is DefinedOverK iff every class
      fixes the curve;
    * when defined, phi interpolates every u: over D, the product of the
      distinct denominators of phi, `_interpolates` holds at alpha with the
      identity (the sum phi_i alpha^i = t) and at each class's root with
      its u.
    """
    field = psi.field
    cover = UniPoly.one(field)
    for rep in result.reports:
        cover = cover * rep.cls.factor
    if cover != _m_alpha(field):
        raise InternalInvariantError("the classes do not cover every conjugate")
    if result.defined != all(rep.fixes for rep in result.reports):
        raise InternalInvariantError(
            f"the verdict {result.verdict} contradicts the classes"
        )
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
    den = UniPoly.one(field)
    seen = []
    for comp in result.phi:
        if comp.den not in seen:
            seen.append(comp.den)
            den = den * comp.den
    nums = [comp.num * (den // comp.den) for comp in result.phi]
    pairs = [(field.gen, MoebiusTransform.identity(field))]
    pairs += [(rep.cls.root, rep.u) for rep in result.reports]
    for root, u in pairs:
        if not _interpolates(nums, den, root, u):
            raise InternalInvariantError(f"phi does not interpolate u = {u}")


def probably_proper(psi):
    """Cheap properness screen: the identity conjugation must classify
    _PROPER_SAMPLES schedule parameters as good with s == t."""
    field = psi.field
    ident = _identity_class(field)
    psi_id = psi.conjugate(ident)
    rel = ident.relative_field
    budget = parameter_budget(psi.degree, field.degree)
    seen = 0
    tried = 0
    for t in parameter_schedule():
        if tried >= budget:
            return False
        tried += 1
        v = classify_parameter(psi, psi_id, t)
        if v.kind == GOOD:
            if v.s != rel.coerce(t):
                return False
            seen += 1
            if seen >= _PROPER_SAMPLES:
                return True
        elif v.kind == NOT_ATTAINED:
            # the identity always attains psi(t); non-attainment means the
            # fiber is empty, which cannot happen for a genuine value
            return False
    return False
