"""Rational scalars and the field object QQ.

`Rational` is an arbitrary-precision rational number stored reduced with a
positive denominator, so equality is plain component comparison and hashing
is compatible with ``int`` (the same scheme CPython uses for
``fractions.Fraction``).  It is pure Python: the big-integer work is
CPython's either way, and a compiled build of this class no longer made the
decision faster once norms and characteristic polynomials came from traces
(README, "Kernels").  The one compiled kernel is `_tensorcore`, for the
integer coordinate tensors of `numberfield`.
"""

import sys
from math import gcd as _gcd

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _make(p, q):
    # Internal fast constructor: p/q must already be reduced, q > 0.
    r = Rational.__new__(Rational)
    r.p = p
    r.q = q
    return r


class Rational:
    __slots__ = ("p", "q")

    def __init__(self, p=0, q=1):
        if q == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if q < 0:
            p = -p
            q = -q
        if q != 1:
            g = _gcd(p, q)
            if g > 1:
                p //= g
                q //= g
        self.p = p
        self.q = q

    @property
    def numerator(self):
        return self.p

    @property
    def denominator(self):
        return self.q

    def __add__(self, other):
        if isinstance(other, Rational):
            bp = other.p
            bq = other.q
        elif isinstance(other, int):
            bp = other
            bq = 1
        else:
            return NotImplemented
        ap = self.p
        aq = self.q
        if aq == 1 and bq == 1:
            return _make(ap + bp, 1)
        g = _gcd(aq, bq)
        if g == 1:
            return _make(ap * bq + bp * aq, aq * bq)
        aq2 = aq // g
        bq2 = bq // g
        t = ap * bq2 + bp * aq2
        g2 = _gcd(t, g)
        return _make(t // g2, aq2 * (bq // g2))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Rational):
            bp = other.p
            bq = other.q
        elif isinstance(other, int):
            bp = other
            bq = 1
        else:
            return NotImplemented
        ap = self.p
        aq = self.q
        if aq == 1 and bq == 1:
            return _make(ap - bp, 1)
        g = _gcd(aq, bq)
        if g == 1:
            return _make(ap * bq - bp * aq, aq * bq)
        aq2 = aq // g
        bq2 = bq // g
        t = ap * bq2 - bp * aq2
        g2 = _gcd(t, g)
        return _make(t // g2, aq2 * (bq // g2))

    def __rsub__(self, other):
        if isinstance(other, int):
            return _make(other, 1) - self
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Rational):
            bp = other.p
            bq = other.q
        elif isinstance(other, int):
            bp = other
            bq = 1
        else:
            return NotImplemented
        ap = self.p
        aq = self.q
        if aq == 1 and bq == 1:
            return _make(ap * bp, 1)
        g1 = _gcd(ap, bq) if bq != 1 else 1
        g2 = _gcd(bp, aq) if aq != 1 else 1
        if g1 > 1:
            ap //= g1
            bq //= g1
        if g2 > 1:
            bp //= g2
            aq //= g2
        return _make(ap * bp, aq * bq)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            bp = other.p
            bq = other.q
        elif isinstance(other, int):
            bp = other
            bq = 1
        else:
            return NotImplemented
        if bp == 0:
            raise ZeroDivisionError("division by zero rational")
        ap = self.p
        aq = self.q
        g1 = _gcd(ap, bp)
        g2 = _gcd(bq, aq)
        if g1 > 1:
            ap //= g1
            bp //= g1
        if g2 > 1:
            bq //= g2
            aq //= g2
        p = ap * bq
        q = aq * bp
        if q < 0:
            p = -p
            q = -q
        return _make(p, q)

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return _make(other, 1) / self
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k >= 0:
            return _make(self.p**k, self.q**k)
        if self.p == 0:
            raise ZeroDivisionError("0 cannot be raised to a negative power")
        k = -k
        p = self.q**k
        q = self.p**k
        if q < 0:
            p = -p
            q = -q
        return _make(p, q)

    def __neg__(self):
        return _make(-self.p, self.q)

    def __pos__(self):
        return self

    def __abs__(self):
        return _make(abs(self.p), self.q)

    def __bool__(self):
        return self.p != 0

    def __eq__(self, other):
        if isinstance(other, Rational):
            return self.p == other.p and self.q == other.q
        if isinstance(other, int):
            return self.q == 1 and self.p == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, Rational):
            return self.p * other.q < other.p * self.q
        if isinstance(other, int):
            return self.p < other * self.q
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Rational):
            return self.p * other.q <= other.p * self.q
        if isinstance(other, int):
            return self.p <= other * self.q
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Rational):
            return self.p * other.q > other.p * self.q
        if isinstance(other, int):
            return self.p > other * self.q
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, Rational):
            return self.p * other.q >= other.p * self.q
        if isinstance(other, int):
            return self.p >= other * self.q
        return NotImplemented

    def __hash__(self):
        # Same scheme as fractions.Fraction, so hash(Rational(n)) == hash(n).
        try:
            dinv = pow(self.q, -1, _HASH_MODULUS)
        except ValueError:
            hash_ = _HASH_INF
        else:
            hash_ = hash(hash(abs(self.p)) * dinv)
        result = hash_ if self.p >= 0 else -hash_
        return -2 if result == -1 else result

    def __float__(self):
        return self.p / self.q

    def __reduce__(self):
        return (Rational, (self.p, self.q))

    def __str__(self):
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"

    def __repr__(self):
        return f"Rational({self.p}, {self.q})"


# The benchmark records this name with every run; a single pure-Python
# `Rational` is the only kernel for scalars, so it is a constant.
BACKEND = "pure"


class RationalField:
    """The field of rational numbers."""

    degree = 1

    def __init__(self):
        self.zero = Rational(0)
        self.one = Rational(1)

    def __call__(self, p, q=1):
        return Rational(p, q)

    def coerce(self, x):
        """Return x as a Rational, or raise TypeError."""
        if isinstance(x, Rational):
            return x
        if isinstance(x, int):
            return Rational(x)
        # Foreign rational-like value (fractions.Fraction): rebuild from its
        # integer pair.
        num = getattr(x, "numerator", None)
        den = getattr(x, "denominator", None)
        if isinstance(num, int) and isinstance(den, int):
            return Rational(num, den)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def from_str(self, text):
        """Parse 'p' or 'p/q' (ints in base 10) into a Rational."""
        s = text.strip()
        if "/" in s:
            a, _, b = s.partition("/")
            return Rational(int(a), int(b))
        return Rational(int(s))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(RationalField)

    def __repr__(self):
        return "QQ"


QQ = RationalField()
