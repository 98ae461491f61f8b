"""Rational scalars and the field object QQ.

`Rational` is the compiled kernel (`_ratcore`) when the extension is built,
otherwise its pure-Python mirror (`_ratpure`); `BACKEND` names the one in
use.  See the README's "Kernels" section for the build.
"""

try:
    from ._ratcore import Rational

    BACKEND = "compiled"
except ImportError:  # pragma: no cover - depends on the build environment
    from ._ratpure import Rational

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
        # Foreign rational-like value (fractions.Fraction, the other
        # kernel's scalar): rebuild from its integer pair.
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
