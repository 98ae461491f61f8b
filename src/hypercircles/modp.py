"""Common roots of polynomial families over a tower, modulo word primes.

Classifying one candidate parameter needs the gcd of several polynomials
over the relative field, but only its degree — almost always 0 or 1 — and,
in the linear case, its root.  Running the exact remainder sequence there is
by far the most expensive part of the whole pipeline, so this module answers
the question modulo large word-size primes instead:

* gcd degree 0 at one admissible prime proves the family is coprime: a
  common divisor would survive reduction at every prime that keeps the
  inputs' leading coefficients invertible and avoids both the tower
  discriminants and every coefficient denominator;
* gcd degree 1 pins the root: its coordinates are accumulated by Chinese
  remaindering over several primes, reconstructed as rationals, and the
  candidate is verified exactly against every polynomial, so the final
  answer does not depend on luck with the primes;
* anything else (degenerate samples, exhausted prime budget) is handed back
  to the caller for the exact fallback — rare and small in practice.

Elements reduce in the rescaled-generator basis, where the defining
polynomials and the reduction rows are integral, so a prime is inadmissible
only when it divides a coefficient denominator, a discriminant, or turns a
needed leading coefficient into a zero divisor — all detected cheaply.
"""

from math import gcd as _int_gcd, isqrt

from .intpoly import is_prime
from .polynomials import poly_resultant
from .rationals import Rational


class BadPrime(Exception):
    """The chosen prime degenerates the reduction."""


def _primes(start=(1 << 61) + 3):
    k = start | 1
    while True:
        if is_prime(k):
            yield k
        k += 2


def _red_tensor(t, p):
    return tuple(x % p if type(x) is int else _red_tensor(x, p) for x in t)


def _neg_tensor(t, p):
    return tuple((-x) % p if type(x) is int else _neg_tensor(x, p) for x in t)


def _scale_tensor(t, c, p):
    return tuple(
        (x * c) % p if type(x) is int else _scale_tensor(x, c, p) for x in t
    )


def _tensor_nonzero(t):
    return any(x if type(x) is int else _tensor_nonzero(x) for x in t)


class _IntOps:
    """Coefficient arithmetic of the bottom level: integers mod p."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p):
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        try:
            return pow(x, -1, self.p)
        except ValueError:
            raise BadPrime("zero divisor met") from None

    def is0(self, x):
        return x == 0


class _ElemOps:
    """Coefficient arithmetic over one reduced tower level."""

    __slots__ = ("lvl", "zero", "one")

    def __init__(self, lvl):
        self.lvl = lvl
        self.zero = lvl.zero
        self.one = lvl.one

    def add(self, x, y):
        return _madd(self.lvl, x, y)

    def sub(self, x, y):
        return _msub(self.lvl, x, y)

    def mul(self, x, y):
        return _mmul(self.lvl, x, y)

    def inv(self, x):
        return _minv(self.lvl, x)

    def is0(self, x):
        return not _tensor_nonzero(x)


class ModLevel:
    """One tower level reduced mod p: GF(p)[theta]/(defining polynomial).

    A ring, not necessarily a field — zero divisors surface as BadPrime
    wherever an inverse is required.
    """

    __slots__ = ("p", "sub", "deg", "rows", "mpoly", "zero", "one", "subzero", "ops")


def _build_level(field, p):
    lvl = ModLevel()
    lvl.p = p
    lvl.sub = None if field._level1 else _build_level(field.base, p)
    lvl.deg = field.degree
    lvl.rows = tuple(_red_tensor(r, p) for r in field._ired)
    mp = []
    for x in field._txn:
        mp.append((-x) % p if type(x) is int else _neg_tensor(x, p))
    lvl.mpoly = mp + [1 if lvl.sub is None else lvl.sub.one]
    lvl.zero = _red_tensor(field._tzero, p)
    lvl.one = _red_tensor(field.one.ic, p)
    lvl.subzero = 0 if lvl.sub is None else lvl.sub.zero
    lvl.ops = _IntOps(p) if lvl.sub is None else _ElemOps(lvl.sub)
    return lvl


def _madd(lvl, a, b):
    if lvl.sub is None:
        p = lvl.p
        return tuple((x + y) % p for x, y in zip(a, b))
    s = lvl.sub
    return tuple(_madd(s, x, y) for x, y in zip(a, b))


def _msub(lvl, a, b):
    if lvl.sub is None:
        p = lvl.p
        return tuple((x - y) % p for x, y in zip(a, b))
    s = lvl.sub
    return tuple(_msub(s, x, y) for x, y in zip(a, b))


def _mmul(lvl, a, b):
    p = lvl.p
    n = lvl.deg
    if n == 1:
        if lvl.sub is None:
            return ((a[0] * b[0]) % p,)
        return (_mmul(lvl.sub, a[0], b[0]),)
    if lvl.sub is None:
        out = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = (out[i + j] + ai * bj) % p
        for k in range(2 * n - 2, n - 1, -1):
            c = out[k]
            if c:
                row = lvl.rows[k - n]
                for i, ri in enumerate(row):
                    if ri:
                        out[i] = (out[i] + c * ri) % p
        return tuple(out[:n])
    sub = lvl.sub
    out = [lvl.subzero] * (2 * n - 1)
    for i, ai in enumerate(a):
        if _tensor_nonzero(ai):
            for j, bj in enumerate(b):
                if _tensor_nonzero(bj):
                    out[i + j] = _madd(sub, out[i + j], _mmul(sub, ai, bj))
    for k in range(2 * n - 2, n - 1, -1):
        c = out[k]
        if _tensor_nonzero(c):
            row = lvl.rows[k - n]
            for i, ri in enumerate(row):
                if _tensor_nonzero(ri):
                    out[i] = _madd(sub, out[i], _mmul(sub, c, ri))
    return tuple(out[:n])


def _p_trim(ops, a):
    while a and ops.is0(a[-1]):
        a.pop()
    return a


def _p_monic(ops, a):
    ilc = ops.inv(a[-1])
    out = [ops.mul(c, ilc) for c in a[:-1]]
    out.append(ops.one)
    return out


def _p_rem(ops, a, b):
    """a mod b for monic b, as a trimmed coefficient list."""
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db:
        c = r[-1]
        if not ops.is0(c):
            off = len(r) - 1 - db
            for i in range(db):
                r[off + i] = ops.sub(r[off + i], ops.mul(c, b[i]))
        r.pop()
    return _p_trim(ops, r)


def _p_gcd(ops, a, b):
    a = _p_trim(ops, list(a))
    b = _p_trim(ops, list(b))
    while b:
        b = _p_monic(ops, b)
        a, b = b, _p_rem(ops, a, b)
    return a


def _p_half_xgcd(ops, m, a):
    """(c, s) with s*a = c (mod m) and c a nonzero constant."""
    r0, s0 = list(m), []
    r1, s1 = _p_trim(ops, list(a)), [ops.one]
    if not r1:
        raise BadPrime("zero divisor met")
    while len(r1) > 1:
        ilc = ops.inv(r1[-1])
        r1 = [ops.mul(c, ilc) for c in r1]
        s1 = [ops.mul(c, ilc) for c in s1]
        db = len(r1) - 1
        while len(r0) - 1 >= db:
            c = r0[-1]
            if not ops.is0(c):
                off = len(r0) - 1 - db
                for i in range(db):
                    r0[off + i] = ops.sub(r0[off + i], ops.mul(c, r1[i]))
                need = off + len(s1)
                while len(s0) < need:
                    s0.append(ops.zero)
                for i, sc in enumerate(s1):
                    s0[off + i] = ops.sub(s0[off + i], ops.mul(c, sc))
            r0.pop()
        r0 = _p_trim(ops, r0)
        r0, s0, r1, s1 = r1, s1, r0, s0
        if not r1:
            raise BadPrime("zero divisor met")
    return r1[0], s1


def _minv(lvl, a):
    if not _tensor_nonzero(a):
        raise BadPrime("zero divisor met")
    ops = lvl.ops
    c, s = _p_half_xgcd(ops, lvl.mpoly, list(a))
    ic = ops.inv(c)
    out = [ops.mul(x, ic) for x in s]
    out.extend([ops.zero] * (lvl.deg - len(out)))
    return tuple(out)


def _red_elem(lvl, e):
    p = lvl.p
    den = e.den % p
    if den == 0:
        raise BadPrime("denominator vanishes")
    t = _red_tensor(e.ic, p)
    if den != 1:
        t = _scale_tensor(t, pow(den, -1, p), p)
    return t


def _tower_disc(field):
    """Product over the tower of the defining polynomials' discriminant
    norms, as a positive integer; primes dividing it are never used."""
    d = getattr(field, "_modp_disc", None)
    if d is None:
        d = 1
        f = field
        while getattr(f, "_level1", None) is not None:
            mt = f._theta_minpoly()
            if mt.degree > 1:
                r = poly_resultant(mt, mt.derivative())
                while not isinstance(r, Rational):
                    r = r.norm()
                d *= abs(r.numerator) * r.denominator
            f = f.base
        field._modp_disc = d
    return d


def _crt_tensor(acc, m, t, p):
    minv = pow(m % p, -1, p)

    def walk(x, y):
        if type(x) is int:
            return x + m * (((y - x) * minv) % p)
        return tuple(walk(u, v) for u, v in zip(x, y))

    return walk(acc, t), m * p


def _rat_rec(a, m):
    """Rational p/q congruent to a mod m with |p|, q <= sqrt(m/2)."""
    a %= m
    if a == 0:
        return Rational(0)
    bound = isqrt(m >> 1)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0:
        return None
    num, den = (r1, s1) if s1 > 0 else (-r1, -s1)
    if den > bound or _int_gcd(num if num >= 0 else -num, den) != 1:
        return None
    return Rational(num, den)


def _lift_tensor(field, t, m):
    """Field element from a CRT-accumulated coordinate tensor, or None."""
    entries = []
    for x in t:
        if type(x) is int:
            r = _rat_rec(x, m)
            if r is None:
                return None
            entries.append(r)
        else:
            sub = _lift_tensor(field.base, x, m)
            if sub is None:
                return None
            entries.append(sub)
    return field._from_theta(entries)


_PRIME_BUDGET = 64


def fold_common_root(polys, field):
    """Degree-and-root summary of gcd(polys) over a number-field tower.

    Returns ("empty", None) when the gcd is 1 — proven at a single
    admissible prime; ("root", s0) when the gcd is linear with exactly
    verified root s0; ("degree", k or None) when the sample degenerates or
    the prime budget runs out, in which case the caller should fall back to
    the exact remainder sequence.
    """
    if any(q.degree == 0 for q in polys):
        return ("empty", None)
    disc = _tower_disc(field)
    levels = field.__dict__.setdefault("_modp_levels", {})
    acc = None
    mod = 1
    high = None
    high_seen = 0
    used = 0
    for p in _primes():
        if used >= _PRIME_BUDGET:
            break
        used += 1
        if disc % p == 0:
            continue
        lvl = levels.get(p)
        if lvl is False:
            continue
        if lvl is None:
            lvl = _build_level(field, p)
            levels[p] = lvl
        try:
            ops = _ElemOps(lvl)
            red = []
            for q in polys:
                cs = [_red_elem(lvl, c) for c in q.coeffs]
                _minv(lvl, cs[-1])  # degree must persist, invertibly
                red.append(cs)
            g = red[0]
            for q in red[1:]:
                g = _p_gcd(ops, g, q)
                if len(g) == 1:
                    break
        except BadPrime:
            levels[p] = False
            continue
        if len(g) == 1:
            return ("empty", None)
        if len(g) == 2:
            root = _neg_tensor(g[0], lvl.p)
            if acc is None:
                acc, mod = root, lvl.p
            else:
                acc, mod = _crt_tensor(acc, mod, root, lvl.p)
            s0 = _lift_tensor(field, acc, mod)
            if s0 is not None and all(not q(s0) for q in polys):
                return ("root", s0)
        elif acc is None:
            high = len(g) - 1 if high is None else min(high, len(g) - 1)
            high_seen += 1
            if high_seen >= 2:
                return ("degree", high)
    return ("degree", high)
