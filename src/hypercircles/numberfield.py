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

Field identity is object identity: two elements interoperate only when their
fields are literally the same object or one field appears in the base chain
of the other (in which case the lower element is lifted).
"""

from math import gcd as _int_gcd

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


def _texact(a, n):
    out = []
    for x in a:
        if type(x) is int:
            q, rem = divmod(x, n)
            if rem:
                raise InternalInvariantError(
                    "inexact division in a remainder sequence row"
                )
            out.append(q)
        else:
            out.append(_texact(x, n))
    return tuple(out)


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
    _texact = _tc.texact
    _conv_reduce = _tc.conv_reduce


def _exact_rat_div(c, n):
    """c / n for an integral rational c divisible by the integer n."""
    if c.denominator != 1:
        raise InternalInvariantError(
            "inexact division in a remainder sequence row"
        )
    q, rem = divmod(c.numerator, n)
    if rem:
        raise InternalInvariantError(
            "inexact division in a remainder sequence row"
        )
    return Rational(q)


def _exact_elem_div(a, b):
    """a / b for base-field elements whose quotient is known to stay
    integral (a predicted factor of `NFElement.inverse`'s sequence)."""
    num = getattr(b, "numerator", None)
    if num is not None:
        if b.denominator != 1:
            raise InternalInvariantError(
                "inexact division in a remainder sequence row"
            )
        return _exact_rat_div(a, num)
    return a.exact_div_by_inv(b.inverse())


def _exact_div_poly(p, v):
    """p / v for a divisor dividing every coefficient in the ring."""
    num = getattr(v, "numerator", None)
    if num is not None:
        if v.denominator != 1:
            raise InternalInvariantError(
                "inexact division in a remainder sequence row"
            )
        return UniPoly._raw(p.field, [_exact_rat_div(c, num) for c in p.coeffs])
    vinv = v.inverse()
    return UniPoly._raw(p.field, [c.exact_div_by_inv(vinv) for c in p.coeffs])


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
        # external reduction row for gen^n (used by charpoly's column builder)
        self._xn_row = tuple(-c for c in minpoly.coeffs[:-1])
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
        self._mtheta = None
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
            self.gen = self.element([self._xn_row[0]])
        else:
            g = [self._subzero] * n
            g[1] = 1 if self._level1 else base.one.ic
            self.gen = NFElement._raw(self, tuple(g), scale)
        self._power_traces = None

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

    def _sub_elem(self, t):
        """A base-field element from one integral internal coordinate."""
        if self._level1:
            return Rational(t)
        return NFElement._raw(self.base, t, 1)

    def _theta_minpoly(self):
        """Defining polynomial of the rescaled generator; its coefficients
        are integral base elements, so remainder sequences against it can
        run on integers from the first row on."""
        mt = self._mtheta
        if mt is None:
            cs = [self._sub_elem(-t if type(t) is int else _tneg(t)) for t in self._txn]
            cs.append(self.base.one)
            mt = UniPoly._raw(self.base, cs)
            self._mtheta = mt
        return mt

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

    def _mul_by_gen(self, v):
        """External-coordinate multiply-by-gen (charpoly's column builder)."""
        zero = self.base.zero
        shifted = [zero] + list(v[:-1])
        top = v[-1]
        if top:
            for i, ri in enumerate(self._xn_row):
                if ri:
                    shifted[i] = shifted[i] + top * ri
        return shifted

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

    def exact_div_by_inv(self, vinv):
        """Quotient by the element whose inverse is `vinv`, for quotients
        known to stay integral (remainder-sequence rows whose divisions are
        exact in the ring).  Raises if the division is not exact."""
        f = self.field
        t = f._tmul(self.ic, vinv.ic)
        n = self.den * vinv.den
        if n != 1:
            t = _texact(t, n)
        return NFElement._raw(f, t, 1)

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
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        base = f.base
        one = base.one
        # Half-extended subresultant sequence on (defining polynomial,
        # coordinate polynomial) over the rescaled-generator basis, where
        # both start integral.  The cofactor s rides through the same row
        # operations and exact divisions as the remainder r (both are minors
        # of the same matrix, so the predicted divisions stay exact), and
        # the loop ends at a constant c with s * self = c up to the defining
        # polynomial.  A single base-field division finishes the job.
        r0 = f._theta_minpoly()
        s0 = UniPoly(base, [])
        r1 = UniPoly(base, [f._sub_elem(t) for t in self.ic])
        s1 = UniPoly(base, [one])
        gg = one
        hh = one
        while r1.degree > 0:
            delta = r0.degree - r1.degree
            lc = r1.lc
            dv = r1.degree
            n = delta + 1
            r, s = r0, s0
            while not r.is_zero and r.degree >= dv:
                n -= 1
                c = r.lc
                k = r.degree - dv
                r = r * lc - r1.shift_up(k) * c
                s = s * lc - s1.shift_up(k) * c
            if n > 0:
                mfac = lc if n == 1 else lc**n
                r = r * mfac
                s = s * mfac
            if r.is_zero:
                raise InternalInvariantError(
                    "non-invertible element: defining polynomial is not irreducible"
                )
            v = gg * hh**delta
            if v != one:
                r = _exact_div_poly(r, v)
                s = _exact_div_poly(s, v)
            r0, s0, r1, s1 = r1, s1, r, s
            gg = r0.lc
            if delta == 1:
                hh = gg
            elif delta:
                hh = _exact_elem_div(gg**delta, hh ** (delta - 1))
        factor = (one / r1.coeffs[0]) * Rational(self.den)
        return f._from_theta([x * factor for x in s1.coeffs])

    def trace(self):
        """Trace down one level, to the base field."""
        sums = self.field.power_traces()
        out = self.field.base.zero
        for c, s in zip(self.coords, sums):
            if c:
                out = out + c * s
        return out

    def charpoly(self):
        """Characteristic polynomial over the base field (monic, degree n)."""
        f = self.field
        base = f.base
        n = f.degree
        cols = [list(self.coords)]
        for _ in range(n - 1):
            cols.append(f._mul_by_gen(cols[-1]))
        # A[i][j] = cols[j][i]
        a = [[cols[j][i] for j in range(n)] for i in range(n)]
        coeffs = [base.zero] * n + [base.one]
        m = [[base.one if i == j else base.zero for j in range(n)] for i in range(n)]
        first = True
        for k in range(1, n + 1):
            if not first:
                ck = coeffs[n - k + 1]
                t = [[m[i][j] + (ck if i == j else base.zero) for j in range(n)] for i in range(n)]
                m = [
                    [
                        _dot(a[i], [t[r][j] for r in range(n)], base)
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
            else:
                m = a
                first = False
            tr = base.zero
            for i in range(n):
                tr = tr + m[i][i]
            coeffs[n - k] = -tr / k
        return UniPoly._raw(base, coeffs)

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


def _dot(row, col, base):
    out = base.zero
    for x, y in zip(row, col):
        if x and y:
            out = out + x * y
    return out


def newton_sums(minpoly, count):
    """Power sums of the roots: s_k = sum(root^k) for k = 0..count-1.

    Newton's identities over the coefficient field; `minpoly` need not be
    squarefree (sums then count roots with multiplicity).
    """
    base = minpoly.field
    m = minpoly.degree
    mon = minpoly.monic()
    c = mon.coeffs
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


def nf_conjugate(x, cls, root=None):
    """Apply the conjugation alpha -> root to an element of K(alpha).

    The result lives in the class's relative field.  `root` defaults to the
    designated root; passing another root of the class factor evaluates the
    corresponding conjugation instead.
    """
    rel = cls.relative_field
    if root is None:
        root = rel.gen
    acc = rel.zero
    for c in reversed(x.coords):
        acc = acc * root + rel.coerce(c)
    return acc
