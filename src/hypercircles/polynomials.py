"""Dense univariate polynomials over an exact field.

`UniPoly` works over any field object exposing ``zero``, ``one`` and
``coerce`` (the rational field and the number fields of this package).
Coefficients are stored ascending — index i holds the x^i coefficient — in a
trimmed tuple, so the zero polynomial has an empty coefficient tuple and
``degree == -1``.

The gcd lives with its engine: `modp.poly_gcd` is the modular gcd of
`modp.nf_gcd`, for every field.
"""


class UniPoly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        co = field.coerce
        cs = [co(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _raw(cls, field, coeffs):
        # Internal: coefficients already live in `field`; just trim.
        n = len(coeffs)
        while n and not coeffs[n - 1]:
            n -= 1
        p = cls.__new__(cls)
        p.field = field
        p.coeffs = tuple(coeffs[:n])
        return p

    @classmethod
    def zero(cls, field):
        return cls._raw(field, ())

    @classmethod
    def one(cls, field):
        return cls._raw(field, (field.one,))

    @classmethod
    def gen(cls, field):
        """The polynomial x."""
        return cls._raw(field, (field.zero, field.one))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else self.field.zero

    @property
    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    __hash__ = None

    def coeff(self, i):
        """The x^i coefficient (zero when i is out of range)."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __add__(self, other):
        if isinstance(other, UniPoly):
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
            return UniPoly._raw(self.field, out)
        try:
            c = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        out = list(self.coeffs) if self.coeffs else [self.field.zero]
        out[0] = out[0] + c
        return UniPoly._raw(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, UniPoly):
            out = list(self.coeffs)
            b = other.coeffs
            if len(out) < len(b):
                out.extend([self.field.zero] * (len(b) - len(out)))
            for i, c in enumerate(b):
                out[i] = out[i] - c
            return UniPoly._raw(self.field, out)
        try:
            c = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        out = list(self.coeffs) if self.coeffs else [self.field.zero]
        out[0] = out[0] - c
        return UniPoly._raw(self.field, out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return UniPoly._raw(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return UniPoly.zero(self.field)
            zero = self.field.zero
            out = [zero] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for j, d in enumerate(b):
                        if d:
                            out[i + j] = out[i + j] + c * d
            return UniPoly._raw(self.field, out)
        try:
            c = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        if not c:
            return UniPoly.zero(self.field)
        return UniPoly._raw(self.field, [a * c for a in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers must be non-negative ints")
        out = UniPoly.one(self.field)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __divmod__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        df, dg = self.degree, other.degree
        if df < dg:
            return UniPoly.zero(field), self
        zero = field.zero
        g = other.coeffs
        glc = g[-1]
        inv = None if glc == field.one else field.one / glc
        rem = list(self.coeffs)
        q = [zero] * (df - dg + 1)
        for i in range(df - dg, -1, -1):
            c = rem[i + dg]
            if not c:
                continue
            if inv is not None:
                c = c * inv
            q[i] = c
            for j in range(dg):
                if g[j]:
                    rem[i + j] = rem[i + j] - c * g[j]
            rem[i + dg] = zero
        return UniPoly._raw(field, q), UniPoly._raw(field, rem[:dg])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if not self.coeffs or self.coeffs[-1] == self.field.one:
            return self
        inv = self.field.one / self.coeffs[-1]
        return UniPoly._raw(self.field, [c * inv for c in self.coeffs])

    def derivative(self):
        cs = self.coeffs
        return UniPoly._raw(self.field, [cs[i] * i for i in range(1, len(cs))])

    def __call__(self, x):
        """Evaluate by Horner at a value of the coefficient field."""
        x = self.field.coerce(x)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, g):
        """self(g(x)) for a polynomial g over the same field."""
        acc = UniPoly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * g + c
        return acc

    def map_coeffs(self, fn, new_field):
        return UniPoly._raw(new_field, [fn(c) for c in self.coeffs])

    def map_into(self, new_field):
        return self.map_coeffs(new_field.coerce, new_field)

    def render(self, var="x"):
        return format_poly(self.coeffs, var)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"UniPoly({self.field!r}, {self.render()!r})"


def format_poly(coeffs, var="x"):
    """Human-readable form of an ascending coefficient sequence."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        cs = str(c)
        need_paren = any(ch in cs[1:] for ch in "+-")
        if i == 0:
            terms.append(f"({cs})" if need_paren else cs)
            continue
        xs = var if i == 1 else f"{var}^{i}"
        if cs == "1":
            terms.append(xs)
        elif cs == "-1":
            terms.append(f"-{xs}")
        elif need_paren:
            terms.append(f"({cs})*{xs}")
        else:
            terms.append(f"{cs}*{xs}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out

