"""Rational scalars and the field object QQ.

`Rational` is the standard library's ``fractions.Fraction``: an
arbitrary-precision rational kept reduced with a positive denominator, with
``str`` giving ``"p"`` or ``"p/q"`` and a hash compatible with ``int``.  The
package adds no rational class of its own because scalar arithmetic is not
where the decision spends its time: under cProfile (two blocks of each
benchmark workload, pure kernels, 2-core x86-64 VM), self time in the former
hand-written class was 0.9 % (plane2), 0.9 % (tower5) and 1.3 %
(sextic_mixed) of decision time, and the big-integer work is CPython's
either way.  The one compiled kernel is `_tensorcore`, for the integer
coordinate vectors of `numberfield` (README, "Kernels").
"""

from fractions import Fraction as Rational

# The kernel the package runs on, which the benchmark records with every
# run: `numberfield`, which imports this module, sets it to "_tensorcore"
# when the compiled kernel loads.  `Rational` is the standard library's
# type either way.
BACKEND = "pure"


class RationalField:
    """The field of rational numbers."""

    degree = absolute_degree = 1  # the root of `numberfield`'s flat layout

    def __init__(self):
        self.zero = Rational(0)
        self.one = Rational(1)
        self._ops = None  # `numberfield.integral_ops`, built on first use

    def __call__(self, p, q=1):
        return Rational(p, q)

    def coerce(self, x):
        """Return x as a Rational, or raise TypeError."""
        if isinstance(x, Rational):
            return x
        if isinstance(x, int):
            return Rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def from_str(self, text):
        """Parse 'p' or 'p/q' (ints in base 10) into a Rational.

        It goes through ``int``, not ``Fraction(str)``, so that decimal and
        exponent forms ("1.5", "1e3") stay rejected, and refuses ``int``'s
        underscores and non-ASCII digits first.
        """
        s = text.strip()
        if "_" in s or not s.isascii():
            raise ValueError(f"not a base-10 rational: {text!r}")
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
