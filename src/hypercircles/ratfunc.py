"""Rational functions, parametrizations, and Moebius transformations.

A `RatFunc` is kept normalized: the denominator is monic and coprime to the
numerator, so two rational functions are equal iff their parts are equal.
Evaluation returns the special `POLE` marker where the (reduced) denominator
vanishes; `value_at_infinity` extends evaluation to the projective parameter
line.
"""

from .errors import InternalInvariantError
from .linalg import kernel_basis
from .numberfield import integral_ops
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
    Gerhard, ISSAC 1997), run on integers (`integral_ops`): u is projective,
    so a, b, c, d become integral A, B, C, D over their common denominator
    L, and each input polynomial is integral over one denominator E.  From
    the top coefficient down, acc <- acc * (A t + B) + P_j (C t + D)^(k - j),
    with one table of the powers of C t + D shared by both parts; the result
    is acc / (E L^k).  Every product is by a linear polynomial, so the pair
    costs O(k^2) products of integral vectors, each by a fixed multiplier
    (A, B, C, D, or a P_j times a row of the table), and one normalization
    per output coefficient.
    """
    field = num.field
    big = degree if degree is not None else max(num.degree, den.degree)
    ops = integral_ops(field)
    compose, lcd = moebius_composer(ops, mob, big)
    out = []
    for p in (num, den):
        if p.coeffs:
            acc, e = compose(p, big)
            q = e * lcd**big
            p = UniPoly._raw(field, [ops.make(v, q) for v in acc])
        out.append(p)
    return out[0], out[1]


def moebius_composer(ops, mob, big):
    """The Horner scheme of `moebius_compose_pair` for polynomials over the
    field of `ops` (`integral_ops`), with the table built for degree `big`.

    Returns (compose, L).  compose(p, k), for p nonzero and
    deg p <= k <= big, gives (acc, E): E is p's common denominator and acc
    the vectors of E L^k sum_j p_j (a t + b)^j (c t + d)^(k - j), ascending
    and not trimmed.
    """
    (a, b, c, d), lcd = ops.lift((mob.a, mob.b, mob.c, mob.d))
    times_ab = _linear_multiplier(ops, b, a)
    pows = _power_table(ops, d, c, big)

    def compose(p, k):
        cs, e = ops.lift(p.coeffs)
        return _horner(ops, cs, times_ab, pows, k), e

    return compose, lcd


def _power_table(ops, d, c, big):
    """Row i holds (len, [(j, v_j)]): the length of (C t + D)^i and its
    nonzero coefficient vectors."""
    times_cd = _linear_multiplier(ops, d, c)
    nonzero = ops.nonzero
    row = [ops.one]
    table = []
    for i in range(big + 1):
        if i:
            row = times_cd(row)
        table.append((len(row), [(j, v) for j, v in enumerate(row) if nonzero(v)]))
    return table


def _horner(ops, cs, times_ab, pows, k):
    """The vectors of sum_j P_j (A t + B)^j (C t + D)^(k - j), ascending, for
    the integral vectors cs = (P_0 .. P_top), top = len(cs) - 1 <= k.  Each
    P_j multiplies a whole row of the table, so it is a fixed multiplier."""
    add, fixed, nonzero, zero = ops.add, ops.fixed, ops.nonzero, ops.zero
    top = len(cs) - 1
    size, row = pows[k - top]
    acc = [zero] * size
    times = fixed(cs[top])
    for i, v in row:
        acc[i] = times(v)
    for j in range(top - 1, -1, -1):
        acc = times_ab(acc)
        if nonzero(cs[j]):
            size, row = pows[k - j]
            if len(acc) < size:
                acc.extend([zero] * (size - len(acc)))
            times = fixed(cs[j])
            for i, v in row:
                acc[i] = add(acc[i], times(v))
    return acc


def _linear_multiplier(ops, lo, hi):
    """The map from ascending lists of vectors q to those of q * (hi t + lo),
    for the vectors lo and hi.

    A zero `hi` keeps the length of q, a zero `lo` only shifts; products by
    an integer coefficient are scalings (`integral_ops`'s `fixed`).
    """
    low, high = ops.fixed(lo), ops.fixed(hi)
    if not ops.nonzero(hi):
        return lambda q: [low(v) for v in q]
    if not ops.nonzero(lo):
        zero = ops.zero
        return lambda q: [zero] + [high(v) for v in q]
    add = ops.add

    def times(q):
        lq = [low(v) for v in q]
        hq = [high(v) for v in q]
        return [lq[0]] + list(map(add, lq[1:], hq)) + [hq[-1]]

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

    __slots__ = ("components", "_vectors")

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("a parametrization needs at least one component")
        field = comps[0].field
        for c in comps[1:]:
            if c.field != field:
                raise TypeError("components over different fields")
        self.components = comps
        self._vectors = None

    @property
    def field(self):
        return self.components[0].field

    @property
    def vectors(self):
        """Each component's (numerator, denominator) as lists of integral
        coefficient vectors of `integral_ops(field)`, ascending, built on
        first use.  Both parts of a component share one positive
        denominator, which is dropped: each pair is the component's parts
        times one positive integer, so their ratio is the component."""
        if self._vectors is None:
            ops = integral_ops(self.field)
            out = []
            for c in self.components:
                vecs, _ = ops.lift(c.num.coeffs + c.den.coeffs)
                k = len(c.num.coeffs)
                out.append((vecs[:k], vecs[k:]))
            self._vectors = tuple(out)
        return self._vectors

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
            num = c.num.map_coeffs(cls.conjugate, rel)
            den = c.den.map_coeffs(cls.conjugate, rel)
            out.append(RatFunc._normalized(num, den))
        return Parametrization(out)

    def render(self, var="t"):
        return "(" + ", ".join(c.render(var) for c in self.components) + ")"

    def __str__(self):
        return self.render()
