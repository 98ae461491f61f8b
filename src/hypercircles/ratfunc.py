"""Rational functions, parametrizations, and Moebius transformations.

A `RatFunc` is kept normalized: the denominator is monic and coprime to the
numerator, so two rational functions are equal iff their parts are equal.
Evaluation returns the special `POLE` marker where the (reduced) denominator
vanishes; `value_at_infinity` extends evaluation to the projective parameter
line.
"""

from .errors import InternalInvariantError
from .linalg import kernel_basis
from .numberfield import nf_conjugate
from .polynomials import UniPoly, poly_gcd


class _Pole:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "POLE"

    def __bool__(self):
        return True


POLE = _Pole()


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        field = num.field
        if den is None:
            den = UniPoly.one(field)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if field != den.field:
            raise TypeError("numerator and denominator over different fields")
        if num.is_zero:
            num = UniPoly.zero(field)
            den = UniPoly.one(field)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            if den.lc != field.one:
                inv = field.one / den.lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def _normalized(cls, num, den):
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def constant(cls, field, value):
        return cls(UniPoly(field, [value]))

    @classmethod
    def gen(cls, field):
        """The rational function t."""
        return cls(UniPoly.gen(field))

    @property
    def field(self):
        return self.num.field

    @property
    def degree(self):
        """max(deg num, deg den) — the degree as a map P1 -> P1."""
        return max(self.num.degree, self.den.degree)

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        try:
            c = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return self.den.degree == 0 and self.num == UniPoly(self.field, [c])

    __hash__ = None

    def __add__(self, other):
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc._normalized(-self.num, self.den)

    def __mul__(self, other):
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def _as_ratfunc(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                return NotImplemented
            return other
        if isinstance(other, UniPoly):
            if other.field != self.field:
                return NotImplemented
            return RatFunc(other)
        try:
            c = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return RatFunc(UniPoly(self.field, [c]))

    def __call__(self, t):
        d = self.den(t)
        if not d:
            return POLE
        return self.num(t) / d

    def value_at_infinity(self):
        dn, dd = self.num.degree, self.den.degree
        if dn > dd:
            return POLE
        if dn < dd:
            return self.field.zero
        return self.num.lc / self.den.lc

    def compose_moebius(self, mob):
        """self((a t + b)/(c t + d)), normalized."""
        n, d = moebius_compose_pair(self.num, self.den, mob)
        return RatFunc(n, d)

    def map_coeffs(self, fn, new_field):
        num = self.num.map_coeffs(fn, new_field)
        den = self.den.map_coeffs(fn, new_field)
        return RatFunc(num, den)

    def map_into(self, new_field):
        return self.map_coeffs(new_field.coerce, new_field)

    def render(self, var="t"):
        ns = self.num.render(var)
        if self.den.degree == 0 and self.den.lc == self.field.one:
            return ns
        return f"({ns})/({self.den.render(var)})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RatFunc({self.render()!r})"


def moebius_compose_pair(num, den, mob, degree=None):
    """Raw substitution t -> (a t + b)/(c t + d) into the pair (num, den).

    Returns the pair sum_j p_j (a t + b)^j (c t + d)^(k - j) for p = num and
    p = den, with k = max(deg num, deg den) or the given `degree`; no gcd
    cancellation is performed.

    Homogeneous Horner scheme (cf. the Taylor shift of von zur Gathen and
    Gerhard, ISSAC 1997): from the top coefficient down,
    acc <- acc * (a t + b) + p_j (c t + d)^(k - j), with one table of the
    powers of c t + d shared by both parts.  Every product is by a linear
    polynomial, so the pair costs O(k^2) field operations.
    """
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
    """The map from ascending coefficient lists q to those of q * (hi t + lo).

    Products by a zero or unit coefficient are skipped; a zero `hi` keeps
    the length of q.
    """

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


class MoebiusTransform:
    """t -> (a t + b)/(c t + d); kept projectively (up to a common scalar)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        co = field.coerce
        self.a = co(a)
        self.b = co(b)
        self.c = co(c)
        self.d = co(d)

    @classmethod
    def identity(cls, field):
        return cls(field, 1, 0, 0, 1)

    @property
    def field(self):
        return self.a.field if hasattr(self.a, "field") else None

    @property
    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def is_unit(self):
        return bool(self.det)

    def __call__(self, t):
        if t is POLE:
            if not self.c:
                return POLE
            return self.a / self.c
        n = self.a * t + self.b
        d = self.c * t + self.d
        if not d:
            return POLE
        return n / d

    def inverse(self):
        return type(self)._raw(self.d, -self.b, -self.c, self.a)

    def compose(self, other):
        """Composition: (self.compose(other))(t) = self(other(t))."""
        return type(self)._raw(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @classmethod
    def _raw(cls, a, b, c, d):
        m = cls.__new__(cls)
        m.a = a
        m.b = b
        m.c = c
        m.d = d
        return m

    def proportional(self, other):
        """Projective equality: the coefficient vectors are proportional."""
        u = (self.a, self.b, self.c, self.d)
        v = (other.a, other.b, other.c, other.d)
        for i in range(4):
            for j in range(i + 1, 4):
                if u[i] * v[j] != u[j] * v[i]:
                    return False
        return True

    def canonical(self):
        """Scale so the first nonzero coefficient is one."""
        for c in (self.a, self.b, self.c, self.d):
            if c:
                inv = 1 / c
                return type(self)._raw(
                    self.a * inv, self.b * inv, self.c * inv, self.d * inv
                )
        raise InternalInvariantError("zero Moebius transform")

    def __eq__(self, other):
        if not isinstance(other, MoebiusTransform):
            return NotImplemented
        return self.proportional(other)

    __hash__ = None

    def render(self, var="t"):
        num = format_linear(self.a, self.b, var)
        den = format_linear(self.c, self.d, var)
        if den == "1":
            return num
        return f"({num})/({den})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"MoebiusTransform({self.render()!r})"


def format_linear(a, b, var):
    from .polynomials import format_poly

    return format_poly((b, a), var)


def moebius_from_three_points(field, pairs):
    """The unique Moebius transform with u(t_k) = s_k for three samples.

    `pairs` holds three (t_k, s_k) with the t_k pairwise distinct and the s_k
    pairwise distinct; everything lives in (or is coerced into) `field`.
    """
    if len(pairs) != 3:
        raise ValueError("exactly three samples are required")
    rows = []
    co = field.coerce
    for t, s in pairs:
        t = co(t)
        s = co(s)
        rows.append([t, field.one, -(s * t), -s])
    basis = kernel_basis(rows, 4, field)
    if len(basis) != 1:
        raise InternalInvariantError(
            "degenerate sample set for the Moebius fit"
        )
    a, b, c, d = basis[0]
    mob = MoebiusTransform._raw(a, b, c, d)
    if not mob.is_unit:
        raise InternalInvariantError("three-point fit produced a singular map")
    return mob


class Parametrization:
    """A tuple of rational functions of one parameter over a common field."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("a parametrization needs at least one component")
        field = comps[0].field
        for c in comps[1:]:
            if c.field != field:
                raise TypeError("components over different fields")
        self.components = comps

    @classmethod
    def from_pairs(cls, field, pairs):
        """pairs: iterable of (num_coeffs, den_coeffs) ascending."""
        comps = []
        for num, den in pairs:
            comps.append(RatFunc(UniPoly(field, num), UniPoly(field, den)))
        return cls(comps)

    @property
    def field(self):
        return self.components[0].field

    @property
    def degree(self):
        return max(c.degree for c in self.components)

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if not isinstance(other, Parametrization):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __call__(self, t):
        return tuple(c(t) for c in self.components)

    def value_at_infinity(self):
        return tuple(c.value_at_infinity() for c in self.components)

    def compose_moebius(self, mob):
        return Parametrization([c.compose_moebius(mob) for c in self.components])

    def conjugate(self, cls):
        """Apply alpha -> the class's root coefficient-wise; lands over the
        relative field.

        Conjugation is a field homomorphism, so it preserves coprimality and
        monic denominators; the components are rebuilt without renormalizing.
        """
        rel = cls.relative_field
        out = []
        for c in self.components:
            num = c.num.map_coeffs(lambda x: nf_conjugate(x, cls), rel)
            den = c.den.map_coeffs(lambda x: nf_conjugate(x, cls), rel)
            out.append(RatFunc._normalized(num, den))
        return Parametrization(out)

    def map_into(self, new_field):
        return Parametrization([c.map_into(new_field) for c in self.components])

    def render(self, var="t"):
        return "(" + ", ".join(c.render(var) for c in self.components) + ")"

    def __str__(self):
        return self.render()
