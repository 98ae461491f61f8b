"""Number fields as explicit towers over the rationals.

A `NumberField` is base(gen) for a monic polynomial over the base field,
which is either the rational field or another NumberField.  Irreducibility
of the defining polynomial is the caller's responsibility (input files are
validated on parse; internal constructions use irreducible factors by
construction).

Element representation: arithmetic runs in the basis of a rescaled
generator theta = D * gen, where D clears every denominator of the defining
polynomial, so the reduction rows are integral.  An element is stored as an
integer coordinate tensor (nested tuples of ints, one nesting level per
tower level) plus a single shared positive denominator, reduced once per
operation.  This keeps the inner loops on plain machine/big integers — one
content gcd per arithmetic operation instead of a rational reduction per
coefficient — which is what keeps exact arithmetic over these fields
affordable.  The public `coords` property still exposes exact coordinates
over the power basis of `gen` itself.

Norms, characteristic polynomials and inverses share one path: the traces
of an element's powers give its characteristic polynomial by Newton's
identities (`from_power_sums`), whose constant term is the norm up to sign
and whose coefficients give the inverse by Cayley-Hamilton.

Field identity is object identity: two elements interoperate only when their
fields are literally the same object or one field appears in the base chain
of the other (in which case the lower element is lifted).
"""

from math import gcd as _int_gcd, lcm as _int_lcm
from operator import mul

from .errors import InternalInvariantError
from .polynomials import UniPoly, format_poly
from .rationals import Rational


def _tadd(a, b):
    return tuple(
        x + y if type(x) is int else _tadd(x, y) for x, y in zip(a, b)
    )


def _tsub(a, b):
    return tuple(
        x - y if type(x) is int else _tsub(x, y) for x, y in zip(a, b)
    )


def _tneg(a):
    return tuple(-x if type(x) is int else _tneg(x) for x in a)


def _tscale(a, k):
    return tuple(x * k if type(x) is int else _tscale(x, k) for x in a)


def _tdiv(a, k):
    return tuple(x // k if type(x) is int else _tdiv(x, k) for x in a)


def _tbool(a):
    for x in a:
        if type(x) is int:
            if x:
                return True
        elif _tbool(x):
            return True
    return False


def _tcontent(a, g=0):
    for x in a:
        if type(x) is int:
            g = _int_gcd(g, x)
        else:
            g = _tcontent(x, g)
        if g == 1:
            return 1
    return g


try:
    from . import _tensorcore as _tc
except ImportError:  # pragma: no cover - depends on the build environment
    _conv_reduce = None
else:
    _tadd = _tc.tadd
    _tsub = _tc.tsub
    _tneg = _tc.tneg
    _tscale = _tc.tscale
    _tdiv = _tc.tdiv
    _tbool = _tc.tbool
    _tcontent = _tc.tcontent
    _conv_reduce = _tc.conv_reduce


class NumberField:
    def __init__(self, base, minpoly, name):
        if minpoly.field != base and minpoly.field is not base:
            raise TypeError("defining polynomial must live over the base field")
        if minpoly.degree < 1:
            raise ValueError("defining polynomial must have degree >= 1")
        if minpoly.lc != base.one:
            raise ValueError("defining polynomial must be monic")
        self.base = base
        self.minpoly = minpoly
        self.name = name
        self.degree = minpoly.degree
        n = self.degree
        self._level1 = not isinstance(base, NumberField)
        # the generator rescaling that makes reduction integral
        scale = 1
        for c in minpoly.coeffs[:-1]:
            d = c.denominator if self._level1 else c.den
            scale = scale * d // _int_gcd(scale, d)
        self._scale = scale
        if self._level1:
            self._subzero = 0
            self._tzero = (0,) * n
        else:
            self._subzero = base._tzero
            self._tzero = (base._tzero,) * n
        # integral reduction rows for theta^n .. theta^(2n-2), where
        # theta = scale * gen satisfies x^n + sum scale^(n-i) m_i x^i = 0
        xn = []
        for i, c in enumerate(minpoly.coeffs[:-1]):
            ci = -c * (Rational(scale) ** (n - i))
            if self._level1:
                if ci.denominator != 1:
                    raise InternalInvariantError("scaled coefficient not integral")
                xn.append(ci.numerator)
            else:
                if ci.den != 1:
                    raise InternalInvariantError("scaled coefficient not integral")
                xn.append(ci.ic)
        xn = tuple(xn)
        self._txn = xn
        rows = [xn]
        for _ in range(n - 2):
            prev = rows[-1]
            top = prev[-1]
            nxt = [self._subzero] + list(prev[:-1])
            if top if type(top) is int else _tbool(top):
                for i, ri in enumerate(xn):
                    if ri if type(ri) is int else _tbool(ri):
                        prod = top * ri if self._level1 else base._tmul(top, ri)
                        nxt[i] = nxt[i] + prod if type(prod) is int else _tadd(nxt[i], prod)
            rows.append(tuple(nxt))
        self._ired = rows if n > 1 else []
        self.zero = NFElement._raw(self, self._tzero, 1)
        one = [self._subzero] * n
        one[0] = 1 if self._level1 else base.one.ic
        self.one = NFElement._raw(self, tuple(one), 1)
        if n == 1:
            self.gen = self.element([-minpoly.coeffs[0]])
        else:
            g = [self._subzero] * n
            g[1] = 1 if self._level1 else base.one.ic
            self.gen = NFElement._raw(self, tuple(g), scale)
        self._power_traces = None
        self._theta_traces = None

    @property
    def absolute_degree(self):
        base_deg = getattr(self.base, "absolute_degree", 1)
        return self.degree * base_deg

    def _sub_to_frac(self, c):
        """A base element as (integral tensor-or-int, positive denominator)."""
        if self._level1:
            return c.numerator, c.denominator
        return c.ic, c.den

    def _sub_from_frac(self, t, q):
        if self._level1:
            return Rational(t, q)
        return NFElement._make(self.base, t, q)

    def _from_theta(self, elems):
        """Element from coordinates over the rescaled-generator basis."""
        parts = []
        den = 1
        for e in elems:
            num = getattr(e, "numerator", None)
            if num is not None:
                t, q = num, e.denominator
            else:
                t, q = e.ic, e.den
            parts.append((t, q))
            den = den * q // _int_gcd(den, q)
        while len(parts) < self.degree:
            parts.append((self._subzero, 1))
        tensor = tuple(
            (t * (den // q)) if type(t) is int else _tscale(t, den // q)
            for t, q in parts
        )
        return NFElement._make(self, tensor, den)

    def element(self, coords):
        """Build an element from base-field coordinates (padded with zeros)."""
        co = self.base.coerce
        cs = [co(c) for c in coords]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs.extend([self.base.zero] * (self.degree - len(cs)))
        parts = []
        den = 1
        p = 1
        for c in cs:
            t, q = self._sub_to_frac(c)
            q *= p
            parts.append((t, q))
            den = den * q // _int_gcd(den, q)
            p *= self._scale
        tensor = tuple(
            (t * (den // q)) if type(t) is int else _tscale(t, den // q)
            for t, q in parts
        )
        return NFElement._make(self, tensor, den)

    def _from_base_elem(self, c):
        return self.element([c])

    def coerce(self, x):
        if isinstance(x, NFElement):
            if x.field is self:
                return x
            chain = []
            f = self
            while isinstance(f, NumberField):
                chain.append(f)
                f = f.base
            for idx, c in enumerate(chain):
                if c is x.field:
                    e = x
                    for up in reversed(chain[:idx]):
                        e = up._from_base_elem(e)
                    return e
            raise TypeError(f"cannot coerce element of {x.field!r} into {self!r}")
        return self._from_base_elem(self.base.coerce(x))

    def power_traces(self):
        """Traces of gen^0 .. gen^(degree-1) down to the base field."""
        if self._power_traces is None:
            self._power_traces = newton_sums(self.minpoly, self.degree)
        return self._power_traces

    def theta_traces(self):
        """Traces of theta^0 .. theta^(degree-1) at the first level, as
        integers over one shared positive denominator: (ints, den)."""
        if self._theta_traces is None:
            ts = [s * self._scale**i for i, s in enumerate(self.power_traces())]
            den = _int_lcm(*(t.denominator for t in ts))
            ints = tuple(t.numerator * (den // t.denominator) for t in ts)
            self._theta_traces = (ints, den)
        return self._theta_traces

    def _tmul(self, a, b):
        """Product of two integral coordinate tensors, reduced to length n."""
        n = self.degree
        if n == 1:
            if self._level1:
                return (a[0] * b[0],)
            return (self.base._tmul(a[0], b[0]),)
        if self._level1:
            if _conv_reduce is not None:
                return _conv_reduce(a, b, self._ired)
            out = [0] * (2 * n - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            out[i + j] += ai * bj
            red = self._ired
            for k in range(2 * n - 2, n - 1, -1):
                c = out[k]
                if c:
                    row = red[k - n]
                    for i, ri in enumerate(row):
                        if ri:
                            out[i] += c * ri
            return tuple(out[:n])
        sub = self.base._tmul
        out = [self._subzero] * (2 * n - 1)
        for i, ai in enumerate(a):
            if _tbool(ai):
                for j, bj in enumerate(b):
                    if _tbool(bj):
                        out[i + j] = _tadd(out[i + j], sub(ai, bj))
        red = self._ired
        for k in range(2 * n - 2, n - 1, -1):
            c = out[k]
            if _tbool(c):
                row = red[k - n]
                for i, ri in enumerate(row):
                    if _tbool(ri):
                        out[i] = _tadd(out[i], sub(c, ri))
        return tuple(out[:n])

    def __eq__(self, other):
        """Structural equality, so that re-parsed fields compare equal."""
        if self is other:
            return True
        if not isinstance(other, NumberField):
            return NotImplemented
        return (
            self.name == other.name
            and self.base == other.base
            and self.minpoly == other.minpoly
        )

    __hash__ = None

    def __repr__(self):
        names = [self.name]
        f = self.base
        while isinstance(f, NumberField):
            names.append(f.name)
            f = f.base
        inner = ")(".join(reversed(names))
        return f"QQ({inner})"


class NFElement:
    __slots__ = ("field", "ic", "den")

    def __init__(self, field, coords):
        e = field.element(coords)
        self.field = field
        self.ic = e.ic
        self.den = e.den

    @classmethod
    def _raw(cls, field, tensor, den):
        obj = cls.__new__(cls)
        obj.field = field
        obj.ic = tensor
        obj.den = den
        return obj

    @classmethod
    def _make(cls, field, tensor, den):
        """Normalized constructor: strips the tensor/denominator gcd."""
        if den != 1:
            g = _tcontent(tensor, den)
            if g > 1:
                tensor = _tdiv(tensor, g)
                den //= g
        elif not _tbool(tensor):
            return field.zero
        obj = cls.__new__(cls)
        obj.field = field
        obj.ic = tensor
        obj.den = den
        return obj

    @property
    def coords(self):
        """Exact coordinates over the power basis of the field generator."""
        f = self.field
        out = []
        p = 1
        for t in self.ic:
            if p != 1:
                t = t * p if type(t) is int else _tscale(t, p)
            out.append(f._sub_from_frac(t, self.den))
            p *= f._scale
        return tuple(out)

    def __add__(self, other):
        if isinstance(other, NFElement) and other.field is self.field:
            if self.den == other.den:
                return NFElement._make(self.field, _tadd(self.ic, other.ic), self.den)
            return NFElement._make(
                self.field,
                _tadd(_tscale(self.ic, other.den), _tscale(other.ic, self.den)),
                self.den * other.den,
            )
        try:
            o = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return self + o

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, NFElement) and other.field is self.field:
            if self.den == other.den:
                return NFElement._make(self.field, _tsub(self.ic, other.ic), self.den)
            return NFElement._make(
                self.field,
                _tsub(_tscale(self.ic, other.den), _tscale(other.ic, self.den)),
                self.den * other.den,
            )
        try:
            o = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return self - o

    def __rsub__(self, other):
        try:
            o = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return o - self

    def __neg__(self):
        return NFElement._raw(self.field, _tneg(self.ic), self.den)

    def __mul__(self, other):
        if isinstance(other, NFElement):
            if other.field is self.field:
                return NFElement._make(
                    self.field,
                    self.field._tmul(self.ic, other.ic),
                    self.den * other.den,
                )
            try:
                o = self.field.coerce(other)
            except TypeError:
                return NotImplemented
            return self * o
        if type(other) is int:
            return NFElement._make(self.field, _tscale(self.ic, other), self.den)
        num = getattr(other, "numerator", None)
        if type(num) is int:
            return NFElement._make(
                self.field,
                _tscale(self.ic, num),
                self.den * other.denominator,
            )
        try:
            o = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return self * o

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        try:
            o = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __bool__(self):
        return _tbool(self.ic)

    def __eq__(self, other):
        if isinstance(other, NFElement) and (
            other.field is self.field or other.field == self.field
        ):
            # equal fields share the scaled-generator basis, so the canonical
            # internal form is directly comparable
            return self.den == other.den and self.ic == other.ic
        try:
            o = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return self.den == o.den and self.ic == o.ic

    __hash__ = None

    def inverse(self):
        """The inverse by Cayley-Hamilton on the characteristic polynomial.

        With chi(X) = X^n + c_(n-1) X^(n-1) + ... + c_0 the characteristic
        polynomial of multiplication by x over the base field, chi(x) = 0
        gives x (x^(n-1) + c_(n-1) x^(n-2) + ... + c_1) = -c_0, so
        x^-1 = -(x^(n-1) + ... + c_1) / c_0.  The constant term is
        c_0 = (-1)^n N(x), the determinant of multiplication by x up to
        sign; it vanishes exactly when that map has a kernel, that is when
        x is a zero divisor (possible only if the defining polynomial is
        reducible), and is nonzero for every unit.  Every step is exact
        base-field arithmetic, so the result is the inverse itself, with no
        rounding and no check needed.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        powers, cp = self._powers_and_charpoly()
        c = cp.coeffs
        if not c[0]:
            raise InternalInvariantError(
                "non-invertible element: defining polynomial is not irreducible"
            )
        n = self.field.degree
        acc = powers[n - 1]
        for i in range(1, n):
            if c[i]:
                acc = acc + powers[i - 1] * c[i]
        return acc * -(self.field.base.one / c[0])

    def trace(self):
        """Trace down one level, to the base field.  At the first level it
        is one integer dot product of the coordinates with `theta_traces`."""
        if self.field._level1:
            ints, den = self.field.theta_traces()
            return Rational(sum(map(mul, self.ic, ints)), self.den * den)
        sums = self.field.power_traces()
        out = self.field.base.zero
        for c, s in zip(self.coords, sums):
            if c:
                out = out + c * s
        return out

    def _powers_and_charpoly(self):
        """The powers x^0 .. x^n and the characteristic polynomial over the
        base field (monic, degree n): its roots are the conjugates of x, so
        their power sums are the traces of the powers of x."""
        f = self.field
        powers = [f.one, self]
        for _ in range(f.degree - 1):
            powers.append(powers[-1] * self)
        sums = [f.base.coerce(f.degree)] + [p.trace() for p in powers[1:]]
        return powers, from_power_sums(sums, f.base)

    def charpoly(self):
        """Characteristic polynomial over the base field (monic, degree n)."""
        return self._powers_and_charpoly()[1]

    def norm(self):
        cp = self.charpoly()
        c0 = cp.coeff(0)
        return -c0 if self.field.degree % 2 else c0

    def retract(self):
        """The element as a base-field value; raises if it has higher parts."""
        for t in self.ic[1:]:
            if t if type(t) is int else _tbool(t):
                raise InternalInvariantError(
                    f"{self} is not a base-field element; cannot retract"
                )
        return self.field._sub_from_frac(self.ic[0], self.den)

    def __str__(self):
        return format_poly(self.coords, self.field.name)

    def __repr__(self):
        return f"<{self} in {self.field!r}>"


def newton_sums(f, count):
    """Power sums of the roots of f: s_k = sum(root^k) for k = 0..count-1.

    Newton's identities over the coefficient field, for any monic f (a
    non-monic one is made monic first); f need not be irreducible or
    squarefree (sums then count roots with multiplicity).
    """
    base = f.field
    m = f.degree
    c = f.monic().coeffs
    out = [base.coerce(m)]
    for l in range(1, count):
        acc = base.zero
        for i in range(1, min(l - 1, m) + 1):
            if c[m - i]:
                acc = acc + c[m - i] * out[l - i]
        if l <= m and c[m - l]:
            acc = acc + base.coerce(l) * c[m - l]
        out.append(-acc)
    return out


def from_power_sums(sums, field):
    """The monic polynomial of degree N = len(sums) - 1 whose roots have the
    power sums s_0 .. s_N (the inverse of `newton_sums`).

    Newton's identities solved for the coefficients c_i, one at a time:
    k c_(N-k) = -(s_k + sum_(i<k) c_(N-i) s_(k-i)).  Dividing by k <= N is
    where characteristic zero is used.
    """
    n = len(sums) - 1
    c = [field.zero] * n + [field.one]
    for k in range(1, n + 1):
        acc = field.coerce(sums[k])
        for i in range(1, k):
            if c[n - i]:
                acc = acc + c[n - i] * sums[k - i]
        c[n - k] = acc * Rational(-1, k)
    return UniPoly._raw(field, c)


class ConjugacyClass:
    """One conjugate block of the tower step K(alpha)(alpha_i).

    `factor` is a monic irreducible factor of m(alpha, x) over K(alpha); the
    relative field adjoins one of its roots.  Degree-1 factors get the same
    treatment (a degree-1 relative field) so downstream code is uniform.
    """

    def __init__(self, factor, name="b"):
        self.factor = factor
        self.size = factor.degree
        self.relative_field = NumberField(factor.field, factor, name)

    @property
    def root(self):
        """The designated root of `factor` in the relative field."""
        return self.relative_field.gen

    def __repr__(self):
        return f"ConjugacyClass({self.factor.render()}, size={self.size})"


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
