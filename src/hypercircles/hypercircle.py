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
each sample, fit u through three good samples, verify the identity
symbolically, and accumulate the trace of m(alpha_i, x)/m(alpha_i, alpha_i)
* u(t) down to K(alpha).  The x-coefficients of the accumulated sum are phi.
"""

from dataclasses import dataclass, field as dc_field

from .errors import InstanceError, InternalInvariantError, NonProperParametrization
from .factoring import factor_over_nf
from .modp import fold_common_root
from .numberfield import ConjugacyClass, NumberField, nf_conjugate
from .polynomials import UniPoly, poly_gcd  # noqa: F401 - wrapped by the bench tracer
from .ratfunc import (
    POLE,
    MoebiusTransform,
    Parametrization,
    RatFunc,
    moebius_compose_pair,
    moebius_from_three_points,
)

_PoleType = type(POLE)

GOOD = "good"
BAD_DENOMINATOR = "bad_denominator"
NOT_ATTAINED = "not_attained"
SINGULAR = "singular"

_CLASS_NAMES = "bcdefghjklm"


def parameter_budget(d, n):
    """Candidate parameters needed per class before declaring non-properness."""
    return d * d - 2 * d + n + 4


def parameter_schedule():
    """The fixed candidate sequence 0, 1, -1, 2, -2, ..."""
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


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


def classify_parameter(psi, psi_sigma, t, limit=None):
    """Classify one candidate parameter t for one conjugacy class.

    psi_sigma is psi with its coefficients conjugated into the class's
    relative field, and `limit` its value at infinity (recomputed if absent).
    Returns a ParameterVerdict.
    """
    field = psi.field
    rel = psi_sigma.field
    te = field.coerce(t)
    values = []
    for comp in psi:
        dv = comp.den(te)
        if not dv:
            return ParameterVerdict(BAD_DENOMINATOR, t)
        values.append(comp.num(te) / dv)
    polys = []
    for v, comp_s in zip(values, psi_sigma):
        vv = rel.coerce(v)
        p = comp_s.den * vv - comp_s.num
        if not p.is_zero:
            polys.append(p)
    if not polys:
        # psi(t) coincides with the whole conjugated map — degenerate input.
        return ParameterVerdict(SINGULAR, t)
    kind, s0 = fold_common_root(polys, rel)
    if kind == "empty":
        return ParameterVerdict(NOT_ATTAINED, t)
    if kind == "degree":
        # a proven common factor of degree >= 2: t's fibre is not one point
        return ParameterVerdict(SINGULAR, t)
    if limit is None:
        limit = psi_sigma.value_at_infinity()
    if all(
        not isinstance(lv, _PoleType) and rel.coerce(v) == lv
        for v, lv in zip(values, limit)
    ):
        return ParameterVerdict(SINGULAR, t)
    return ParameterVerdict(GOOD, t, s0)


def compute_u_for_class(psi, cls, budget=None):
    """Find the Moebius transform carrying psi^sigma back onto psi, or a
    certificate that the class moves the curve.  Returns a ClassReport."""
    n = psi.field.degree
    d = psi.degree
    if budget is None:
        budget = parameter_budget(d, n)
    psi_sigma = psi.conjugate(cls)
    limit = psi_sigma.value_at_infinity()
    report = ClassReport(cls=cls, fixes=False)
    good = []
    not_attained = []
    schedule = parameter_schedule()
    while len(report.verdicts) < budget:
        t = next(schedule)
        v = classify_parameter(psi, psi_sigma, t, limit)
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
    u = moebius_from_three_points(rel, good)
    if not verify_identity(psi, psi_sigma, u):
        report.identity_failed = True
        return report
    report.fixes = True
    report.u = u
    return report


def verify_identity(psi, psi_sigma, u):
    """Exact check of psi == psi_sigma o u, component by component.

    Each component of psi is a reduced fraction N/D with D monic, since
    `RatFunc` is normalized that way; conjugation is a field embedding, so
    the components of psi_sigma are reduced too.  Substituting a unit
    Moebius map into a coprime pair, homogenized to degree
    max(deg num, deg den), is an invertible change of variables of the
    binary forms, so the composed pair (cn, cd) is coprime as well.  Two
    reduced fractions are equal iff their parts are proportional, and with
    D monic the factor is lam = lc(cd): the check is deg cn == deg N,
    deg cd == deg D, cn == lam * N and cd == lam * D coefficient by
    coefficient, O(d) field operations after the O(d^2) composition.

    A True answer needs none of these premises: proportional pairs define
    the same function, so it is a proof on any input.
    """
    rel = psi_sigma.field
    co = rel.coerce
    for comp, comp_s in zip(psi, psi_sigma):
        cn, cd = moebius_compose_pair(comp_s.num, comp_s.den, u)
        if cn.degree != comp.num.degree or cd.degree != comp.den.degree:
            return False
        lam = cd.lc
        for part, image in ((comp.num, cn), (comp.den, cd)):
            for x, y in zip(part.coeffs, image.coeffs):
                if co(x) * lam != y:
                    return False
    return True


def _conjugate_poly(p, cls):
    rel = cls.relative_field
    return p.map_coeffs(lambda c: nf_conjugate(c, cls), rel)


def trace_term(m_alpha, cls, u):
    """The class's contribution to the accumulated sum, traced down to
    K(alpha): x-coefficient rational functions of the trace of
    m(alpha_i, x)/m(alpha_i, alpha_i) * u(t)."""
    rel = cls.relative_field
    base = rel.base
    m_i = _conjugate_poly(m_alpha, cls)
    dv = m_i(rel.gen)
    scaled = m_i * (rel.one / dv)  # P(x) over rel
    a, b, c, d = u.a, u.b, u.c, u.d
    out = []
    if not c:
        # affine parameter change: coefficients stay polynomial in t
        lin = UniPoly(rel, [b / d, a / d])
        for pk in scaled.coeffs:
            prod = lin * pk
            traced = UniPoly(base, [co.trace() for co in prod.coeffs])
            out.append(RatFunc(traced))
        return out
    btil = d / c
    g = (-btil).charpoly()  # monic over K(alpha), degree = class size
    g_rel = g.map_into(rel)
    lin = UniPoly(rel, [btil, rel.one])  # t + d/c
    g1, r = divmod(g_rel, lin)
    if not r.is_zero:
        raise InternalInvariantError("charpoly of the pole is not divisible")
    n_base = UniPoly(rel, [b / c, a / c])  # (a/c) t + b/c
    bpoly = n_base * g1
    for pk in scaled.coeffs:
        prod = bpoly * pk
        traced = UniPoly(base, [co.trace() for co in prod.coeffs])
        out.append(RatFunc(traced, g))
    return out


def _class_names(field):
    used = set()
    f = field
    while isinstance(f, NumberField):
        used.add(f.name)
        f = f.base
    return [c for c in _CLASS_NAMES if c not in used]


def conjugacy_classes(field):
    """Factor m(alpha, x) = M(x)/(x - alpha) over K(alpha) into classes."""
    n = field.degree
    if n < 2:
        raise InstanceError("the coefficient field must have degree >= 2")
    mk = field.minpoly.map_into(field)
    x_minus_alpha = UniPoly(field, [-field.gen, field.one])
    m_alpha, rem = divmod(mk, x_minus_alpha)
    if not rem.is_zero:
        raise InternalInvariantError("alpha is not a root of its own minpoly")
    names = _class_names(field)
    if m_alpha.degree == 1:
        classes = [ConjugacyClass(m_alpha.monic(), names[0])]
    else:
        _, factors = factor_over_nf(m_alpha, field)
        for fac, mult in factors:
            if mult != 1:
                raise InstanceError(
                    "defining polynomial is not separable over the field"
                )
        classes = [
            ConjugacyClass(fac, names[i % len(names)])
            for i, (fac, _) in enumerate(factors)
        ]
    return m_alpha, classes


def standard_parametrization(psi, field=None):
    """Decide K-definability of psi's curve; compute phi when defined.

    Returns a HypercircleResult.  phi (when present) satisfies
    sum(phi_i * alpha^i) == t and parametrizes the hypercircle associated
    with the witnessing parameter change.
    """
    if field is None:
        field = psi.field
    if psi.field is not field:
        psi = psi.map_into(field)
    if psi.degree < 1:
        raise InstanceError("constant parametrizations have no hypercircle")
    m_alpha, classes = conjugacy_classes(field)
    n = field.degree
    reports = []
    all_fix = True
    for cls in classes:
        rep = compute_u_for_class(psi, cls)
        reports.append(rep)
        if not rep.fixes:
            all_fix = False
    if not all_fix:
        return HypercircleResult(False, None, field, tuple(reports))
    # seed: m(alpha, x)/M'(alpha) * t
    mprime = field.minpoly.map_into(field).derivative()(field.gen)
    inv = field.one / mprime
    tpoly = UniPoly(field, [field.zero, field.one])
    acc = [RatFunc(tpoly * (ck * inv)) for ck in m_alpha.coeffs]
    for rep in reports:
        terms = trace_term(m_alpha, rep.cls, rep.u)
        acc = [a + w for a, w in zip(acc, terms)]
    phi = Parametrization(acc)
    return HypercircleResult(True, phi, field, tuple(reports))


def probably_proper(psi, samples=4, budget=None):
    """Cheap properness screen: the identity conjugation must classify
    `samples` schedule parameters as good with s == t."""
    field = psi.field
    ident = ConjugacyClass(
        UniPoly(field, [-field.gen, field.one]), _class_names(field)[0]
    )
    psi_id = psi.conjugate(ident)
    limit = psi_id.value_at_infinity()
    rel = ident.relative_field
    if budget is None:
        budget = parameter_budget(psi.degree, field.degree)
    seen = 0
    tried = 0
    for t in parameter_schedule():
        if tried >= budget:
            return False
        tried += 1
        v = classify_parameter(psi, psi_id, t, limit)
        if v.kind == GOOD:
            if v.s != rel.coerce(t):
                return False
            seen += 1
            if seen >= samples:
                return True
        elif v.kind == NOT_ATTAINED:
            # the identity always attains psi(t); non-attainment means the
            # fiber is empty, which cannot happen for a genuine value
            return False
    return False
