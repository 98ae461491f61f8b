"""Number fields as explicit towers over the rationals.

A `NumberField` is base(gen) for a monic polynomial over the base field,
which is either the rational field or another NumberField.  Irreducibility
of the defining polynomial is the caller's responsibility (input files are
validated on parse; internal constructions use irreducible factors by
construction).

Element representation: arithmetic runs in the basis of a rescaled
generator theta = D * gen, where D clears every denominator of the defining
polynomial, so the reduction rows are integral.  An element is stored as
one flat tuple of `absolute_degree` ints (`ic`) plus a single shared
positive denominator, reduced once per operation.  Its coordinate i over
the base is the block of positions i*m .. i*m + m - 1, m the base's
absolute degree, and holds that base element's own tuple; so a degree-1
level has its base's tuples, and code that needs a polynomial over the
base (`_tmul`, `_columns`, `coords`) slices the blocks.  This keeps the
inner loops on plain machine/big integers — one content gcd per arithmetic
operation instead of a rational reduction per coefficient — which is what
keeps exact arithmetic over these fields affordable.  The public `coords`
property still exposes exact coordinates over the power basis of `gen`
itself.

A map that is linear over a subfield is one integer matrix over one
denominator on the flat tuple (`_matvec`), built once from the images of
the basis theta^i b_j, b_j the basis of the base: the trace down one level
(`NFElement.trace`; the image of theta^i b_j is D^i s_i b_j, s_i the power
sums of the defining polynomial's roots), a conjugation alpha -> alpha_i,
which fixes the base (`ConjugacyClass.conjugate`; the image is
(D alpha_i)^i b_j), and a product by a fixed element (`integral_ops`).

Norms, characteristic polynomials and inverses share one path: the traces
of an element's powers give its characteristic polynomial by Newton's
identities (`from_power_sums`), whose constant term is the norm up to sign
and whose coefficients give the inverse by Cayley-Hamilton.

Loops that only add and multiply (the Moebius composition of the identity
proof, the fibre of a sampled parameter) run on `integral_ops` instead: the
same integer tuples over one denominator, normalized once at the end.  A
product by a fixed element is one integer matrix, a scaling when the
element is an integer, and when the element lies in the base (its blocks
after the first are zero) it acts on each block through the base's own
product, so its matrix is the base's.  Being linear over Z, it acts as well
on packed vectors, each int a polynomial's t-coefficients: the Moebius
composition makes one per Horner step, not one per t-coefficient.

Field identity is object identity: two elements interoperate only when their
fields are literally the same object or one field appears in the base chain
of the other (in which case the lower element is lifted).
"""

from functools import partial
from itertools import chain, repeat
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import add, itemgetter, lshift, mul

from . import rationals
from .errors import InternalInvariantError
from .polynomials import UniPoly, format_poly
from .rationals import Rational


def _tadd(a, b):
    return tuple(map(add, a, b))


def _tsub(a, b):
    return tuple([x - y for x, y in zip(a, b)])


def _tneg(a):
    return tuple([-x for x in a])


def _tscale(a, k):
    return tuple([x * k for x in a])


def _tdiv(a, k):
    return tuple([x // k for x in a])


_tbool = any


def _tcontent(a, g=0):
    return _int_gcd(g, *a)


def _conv_reduce(a, b, rows):
    """First-level product: the integer convolution of two length-n
    coordinate tuples, then the reduction rows for theta^n .. theta^(2n-2)."""
    n = len(a)
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    for k in range(2 * n - 2, n - 1, -1):
        c = out[k]
        if c:
            for i, ri in enumerate(rows[k - n]):
                if ri:
                    out[i] += c * ri
    return tuple(out[:n])


def _matvec(rows, ic):
    """The integer matrix with the given rows times the vector ic."""
    return tuple([sum(map(mul, row, ic)) for row in rows])


# The compiled kernel (README, "Kernels") replaces every loop above or none:
# the right-hand tuple is built before any name is bound, so a build that
# lacks an entry point leaves the pure loops in place.
try:
    from . import _tensorcore as _tc

    _tadd, _tsub, _tneg, _tscale, _tdiv, _tbool, _tcontent, _conv_reduce, _matvec = (
        _tc.tadd, _tc.tsub, _tc.tneg, _tc.tscale, _tc.tdiv,
        _tc.tbool, _tc.tcontent, _tc.conv_reduce, _tc.matvec,
    )
    rationals.BACKEND = "_tensorcore"
except (ImportError, AttributeError):  # pragma: no cover - depends on the build
    pass


def _blocks(v, m):
    """The consecutive slices of length m of a flat vector."""
    return [v[i : i + m] for i in range(0, len(v), m)]


def _basis(field):
    """The elements whose vectors are the unit vectors: theta^i b_j, b_j
    the base's, at index i*m + j; over Q the single 1."""
    if not isinstance(field, NumberField):
        return [field.one]
    n = field.absolute_degree
    return [NFElement._raw(field, (0,) * k + (1,) + (0,) * (n - k - 1), 1) for k in range(n)]


def _linear_map(images, target):
    """The linear map that sends the basis element at index k (`_basis`) to
    images[k], an element of `target`, as a function on elements: one
    integer matrix over one denominator, its rows the coordinates of the
    images (over Q a single row)."""
    ops = integral_ops(target)
    vecs, q = ops.lift(images)
    if isinstance(target, NumberField):
        rows, make = tuple(zip(*vecs)), ops.make
    else:
        rows, make = (tuple(vecs),), lambda v, den: Rational(v[0], den)
    return lambda x: make(_matvec(rows, x.ic), x.den * q)


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
        self.degree = n = minpoly.degree
        self._level1 = not isinstance(base, NumberField)
        m = 1 if self._level1 else base.absolute_degree
        self.absolute_degree = n * m
        # the generator rescaling that makes reduction integral
        scale = 1
        for c in minpoly.coeffs[:-1]:
            d = c.denominator if self._level1 else c.den
            scale = scale * d // _int_gcd(scale, d)
        self._scale = scale
        # theta = scale * gen satisfies theta^n = sum txn_i theta^i with the
        # integral txn_i = -scale^(n-i) m_i: ints at the first level, base
        # vectors above; the reduction rows are theta^n .. theta^(2n-2)
        xn = []
        for i, c in enumerate(minpoly.coeffs[:-1]):
            t, q = self._sub_to_frac(-c * Rational(scale) ** (n - i))
            if q != 1:
                raise InternalInvariantError("scaled coefficient not integral")
            xn.append(t)
        self._txn = xn
        rows = [xn]
        for _ in range(n - 2):
            rows.append(self._shift(rows[-1]))
        self._ired = rows[: n - 1]
        if n == 1 and not self._level1:
            self._tmul = base._tmul  # the vectors are the base's
        vec = [0] * self.absolute_degree
        self.zero = NFElement._raw(self, tuple(vec), 1)
        vec[0] = 1
        self.one = NFElement._raw(self, tuple(vec), 1)
        if n == 1:
            self.gen = self.element([-minpoly.coeffs[0]])
        else:
            vec[0], vec[m] = 0, 1
            self.gen = NFElement._raw(self, tuple(vec), scale)
        self._trace = None
        self._ops = None

    def _sub_to_frac(self, c):
        """A base element as (integral numerator, positive denominator): an
        int at the first level, the base's vector above."""
        if self._level1:
            return c.numerator, c.denominator
        return c.ic, c.den

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
        if self._level1:
            vec = [t * (den // q) for t, q in parts]
        else:
            vec = chain.from_iterable([_tscale(t, den // q) for t, q in parts])
        return NFElement._make(self, tuple(vec), den)

    def _from_base_elem(self, c):
        t, q = self._sub_to_frac(c)
        if self._level1:
            t = (t,)
        return NFElement._raw(self, t + (0,) * (self.absolute_degree - len(t)), q)

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

    def _tmul(self, a, b):
        """Product of two integral coordinate vectors, reduced."""
        if self._level1:
            return _conv_reduce(a, b, self._ired)
        n = self.degree
        # a polynomial over the base: one block of its vector per coordinate
        m = self.base.absolute_degree
        sub = self.base._tmul
        b = _blocks(b, m)
        out = [(0,) * m] * (2 * n - 1)
        for i, ai in enumerate(_blocks(a, m)):
            if _tbool(ai):
                for j, bj in enumerate(b):
                    if _tbool(bj):
                        out[i + j] = _tadd(out[i + j], sub(ai, bj))
        red = self._ired
        for k in range(2 * n - 2, n - 1, -1):
            c = out[k]
            if _tbool(c):
                for i, ri in enumerate(red[k - n]):
                    if _tbool(ri):
                        out[i] = _tadd(out[i], sub(c, ri))
        return tuple(chain.from_iterable(out[:n]))

    def _shift(self, c):
        """theta * x for x given by its n coordinates over the base (ints at
        the first level, base vectors above): the coordinates move up one
        place and the top one times the reduction row is added."""
        top = c[-1]
        if self._level1:
            out = [0, *c[:-1]]
            return [x + top * r for x, r in zip(out, self._txn)] if top else out
        out = [(0,) * self.base.absolute_degree, *c[:-1]]
        if not _tbool(top):
            return out
        sub = self.base._tmul
        return [_tadd(x, sub(top, r)) if _tbool(r) else x for x, r in zip(out, self._txn)]

    def _columns(self, t):
        """The regular representation of the element with vector t: the
        vectors of t * theta^i * b_j, b_j the base's basis, at index
        i*m + j, m the base's absolute degree."""
        base = self.base
        powers = [t if self._level1 else _blocks(t, base.absolute_degree)]
        for _ in range(self.degree - 1):
            powers.append(self._shift(powers[-1]))
        if self._level1:
            return powers
        cols = []
        for p in powers:
            blocks = [base._columns(s) for s in p]
            for j in range(len(blocks[0])):
                cols.append(tuple(chain.from_iterable(blk[j] for blk in blocks)))
        return cols

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

    @classmethod
    def _raw(cls, field, vec, den):
        obj = cls.__new__(cls)
        obj.field = field
        obj.ic = vec
        obj.den = den
        return obj

    @classmethod
    def _make(cls, field, vec, den):
        """Normalized constructor: strips the vector/denominator gcd."""
        if den != 1:
            g = _tcontent(vec, den)
            if g > 1:
                vec = _tdiv(vec, g)
                den //= g
        elif not _tbool(vec):
            return field.zero
        obj = cls.__new__(cls)
        obj.field = field
        obj.ic = vec
        obj.den = den
        return obj

    @property
    def coords(self):
        """Exact coordinates over the power basis of the field generator."""
        f, den = self.field, self.den
        if f._level1:
            return tuple([Rational(x * f._scale**i, den) for i, x in enumerate(self.ic)])
        base = f.base
        return tuple([
            NFElement._make(base, _tscale(t, f._scale**i), den)
            for i, t in enumerate(_blocks(self.ic, base.absolute_degree))
        ])

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
        """Trace down one level, to the base field: one integer matrix,
        built on first use, whose column for theta^i b_j is the vector of
        D^i s_i b_j, s_i the i-th power sum of the roots of the defining
        polynomial (`newton_sums`) and D its generator scale."""
        f = self.field
        if f._trace is None:
            sums = newton_sums(f.minpoly, f.degree)
            basis = _basis(f.base)
            f._trace = _linear_map(
                [s * f._scale**i * b for i, s in enumerate(sums) for b in basis], f.base
            )
        return f._trace(self)

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
        f = self.field
        m = len(self.ic) // f.degree
        if _tbool(self.ic[m:]):
            raise InternalInvariantError(
                f"{self} is not a base-field element; cannot retract"
            )
        if f._level1:
            return Rational(self.ic[0], self.den)
        return NFElement._make(f.base, self.ic[:m], self.den)

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


def integral_ops(field):
    """The integer arithmetic of `field` (QQ or a NumberField) for loops that
    normalize once, at the end.

    A field element x is carried as an integral vector v over a positive
    denominator q, x = v / q: an int over Q, over a number field the
    coordinate vector `ic` of `NFElement`.  Sums and products of vectors are
    exact and never reduced.

    - `lift(elems)`: (vectors, q) over one shared positive denominator q;
      anything that is not a field element is coerced;
    - `zero`, `one`: vectors;
    - `add(v, w)`, `scale(v, k)` by an int, `shift(v, s)` by 2^s,
      `nonzero(v)`, `coords(v)` (v's ints) and its inverse `vector(ints)`;
    - `fixed(v)`: the map w -> the vector of v * w.  It is a scaling when v
      is an integer.  When v lies in the base (every block after the first
      is zero), v * w is the base's product by v on each block of w, so
      the base's `fixed` serves, recursively down to the scaling; a
      degree-1 level's vectors are its base's.  Otherwise it is one
      integer matrix-vector product: the regular representation of v
      (Cohen, A Course in Computational Algebraic Number Theory, GTM 138);
    - `bounded(v)`: (fixed(v), the infinity-norm of its matrix: |k| for a
      scaling by k, the base's block by block), with no other matrix;
    - `make(v, q)`: the field element v / q, normalized.
    """
    if not isinstance(field, NumberField):
        return _RationalOps
    if field._ops is None:
        field._ops = _FieldOps(field)
    return field._ops


def integral_horner(ops, vecs, times, e):
    """The vector of e^d p(s/e), for the polynomial p of degree d with the
    integral coefficient vectors vecs of `ops` (`integral_ops`), ascending
    and nonempty, `times` the product by the vector s (`ops.fixed`) and e a
    nonzero int: B_d = c_d, B_i = s B_(i+1) + e^(d-i) c_i, and B_0 is the
    value."""
    add, scale = ops.add, ops.scale
    acc = vecs[-1]
    ek = 1
    for c in reversed(vecs[:-1]):
        ek *= e
        acc = add(times(acc), scale(c, ek) if ek != 1 else c)
    return acc


def _same(x):
    return x


class _RationalOps:
    """`integral_ops` over Q: vectors are ints."""

    zero = 0
    one = 1
    add = staticmethod(add)
    scale = staticmethod(mul)
    shift = staticmethod(lshift)
    nonzero = staticmethod(bool)
    coords = staticmethod(lambda v: (v,))
    vector = staticmethod(itemgetter(0))

    @staticmethod
    def lift(elems):
        q = _int_lcm(*(e.denominator for e in elems))
        return [e.numerator * (q // e.denominator) for e in elems], q

    @staticmethod
    def fixed(v):
        if v == 1:
            return _same
        return lambda w: v * w

    @classmethod
    def bounded(cls, v):
        return cls.fixed(v), abs(v)

    @staticmethod
    def make(v, q):
        return Rational(v, q)


class _FieldOps:
    """`integral_ops` over a NumberField: vectors are the coordinate vectors
    of its elements, so `_tmul` and `NFElement._make` take them as they
    are."""

    add = staticmethod(_tadd)
    scale = staticmethod(_tscale)
    shift = staticmethod(lambda v, s: tuple([x << s for x in v]))
    nonzero = staticmethod(_tbool)
    coords = staticmethod(_same)
    vector = tuple

    def __init__(self, field):
        self.field = field
        self.zero = field.zero.ic
        self.one = field.one.ic

    def lift(self, elems):
        pairs = [(e.ic, e.den) for e in map(self.field.coerce, elems)]
        q = _int_lcm(*(d for _, d in pairs))
        return [v if d == q else _tscale(v, q // d) for v, d in pairs], q

    def fixed(self, v):
        return self._product(v)[0]

    def bounded(self, v):
        times, norm = self._product(v)
        return times, norm()

    def _product(self, v):
        """(fixed(v), a function giving the norm of `bounded`), so that
        `fixed` does not pay for the norm."""
        if not _tbool(v[1:]):  # an integer multiple of one
            k = v[0]
            return (_same if k == 1 else lambda w: _tscale(w, k)), lambda: abs(k)
        field = self.field
        m = len(v) // field.degree
        if not _tbool(v[m:]):  # an element of the base: block by block
            # a NumberField: over Q, m = 1 and the first test held
            sub, norm = integral_ops(field.base)._product(v[:m])
            if field.degree == 1:  # one block
                return sub, norm
            return (
                lambda w: tuple(chain.from_iterable(map(sub, _blocks(w, m))))
            ), norm
        rows = tuple(zip(*field._columns(v)))
        return partial(_matvec, rows), lambda: max(map(sum, map(map, repeat(abs), rows)))

    def make(self, v, q):
        return NFElement._make(self.field, v, q)


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
        self._sigma = None

    @property
    def root(self):
        """The designated root of `factor` in the relative field."""
        return self.relative_field.gen

    def conjugate(self, x):
        """The conjugation alpha -> root of an element x of K(alpha), where
        root is the class's designated root; the result lives in the
        relative field.  It fixes the base of K(alpha), so it is one integer
        matrix, built on first use, whose column for theta^i b_j is the
        vector of (D root)^i b_j, D the generator scale of K(alpha)."""
        if self._sigma is None:
            rel = self.relative_field
            field = rel.base
            basis = [rel.coerce(b) for b in _basis(field.base)]
            theta = rel.gen * field._scale
            images = []
            power = rel.one
            for _ in range(field.degree):
                images.extend([power * b for b in basis])
                power = power * theta
            self._sigma = _linear_map(images, rel)
        return self._sigma(x)

    def __repr__(self):
        return f"ConjugacyClass({self.factor.render()}, size={self.size})"

