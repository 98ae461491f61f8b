"""The gcd of polynomial families over a number-field tower, modulo word
primes: the modular number-field gcd of Encarnacion (J. Symb. Comp. 20,
1995), extended to towers as by van Hoeij and Monagan (ISSAC 2002).

`nf_gcd` reduces the family at word-size primes, where every element maps
into a finite ring, and runs Euclid there with every leading coefficient
inverted, so each image is monic.  An image of degree 0 proves coprimality
at once; otherwise the least-degree images are combined by Chinese
remaindering, the coordinates recovered as rationals, and the monic
candidate returned once it divides every input exactly.  When the first
least-degree image is x - s_p and does not reconstruct on its own, s_p is
lifted p-adically by Newton's iteration instead of taking more primes, and
the lifted candidate faces the same exact division.  The image degree
bounds the true one from above, so that division is a proof (argument in
`nf_gcd`).  Every `UniPoly` gcd over a `NumberField` runs here, and
`fold_common_root` is its summary for the degree-at-most-one question that
classifies a sampled parameter.

A product at a tower level over another level is one integer product of
packed (Kronecker) coordinates; the first level, and levels of degree 1,
multiply coordinate by coordinate.

Elements reduce in the rescaled-generator basis, where the reduction rows
are integral, so a prime is inadmissible only when it divides a coefficient
denominator, the tower discriminant (a product of norms, `_tower_disc`), or
turns a needed leading coefficient into a zero divisor — all detected
cheaply.
"""

from math import gcd as _int_gcd, isqrt

from .intpoly import primes
from .numberfield import _tbool
from .polynomials import UniPoly
from .rationals import Rational


class BadPrime(Exception):
    """The chosen prime degenerates the reduction."""


def _red_tensor(t, p):
    return tuple(x % p if type(x) is int else _red_tensor(x, p) for x in t)


def _neg_tensor(t, p):
    return tuple((-x) % p if type(x) is int else _neg_tensor(x, p) for x in t)


def _scale_tensor(t, c, p):
    return tuple(
        (x * c) % p if type(x) is int else _scale_tensor(x, c, p) for x in t
    )


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
        return not _tbool(x)


class ModLevel:
    """One tower level reduced mod q: (Z/q)[theta]/(defining polynomial).

    A ring, not necessarily a field — zero divisors surface as BadPrime
    wherever an inverse is required.  q is a word prime for the Euclid
    images and a power of one for the p-adic lift.
    """

    __slots__ = (
        "p", "sub", "deg", "rows", "mpoly", "zero", "one", "ops", "width",
        "block", "krows",
    )


def _build_level(field, q, width=None):
    """The tower of `field` reduced mod q.  `width` is the byte width of
    one packed slot, shared by the whole chain and fixed by its top level:
    a slot of a packed product holds a sum of fewer than 2 N terms below
    q^2, N the absolute degree (bound in `_kreduce`)."""
    if width is None:
        bits = 2 * q.bit_length() + (2 * field.absolute_degree).bit_length()
        width = (bits + 7) // 8
    lvl = ModLevel()
    lvl.p = q
    lvl.sub = None if field._level1 else _build_level(field.base, q, width)
    lvl.deg = field.degree
    lvl.rows = tuple(_red_tensor(r, q) for r in field._ired)
    mp = []
    for x in field._txn:
        mp.append((-x) % q if type(x) is int else _neg_tensor(x, q))
    lvl.mpoly = mp + [1 if lvl.sub is None else lvl.sub.one]
    lvl.zero = _red_tensor(field._tzero, q)
    lvl.one = _red_tensor(field.one.ic, q)
    lvl.ops = _IntOps(q) if lvl.sub is None else _ElemOps(lvl.sub)
    lvl.width = width
    lvl.block = width if lvl.sub is None else (2 * lvl.sub.deg - 1) * lvl.sub.block
    lvl.krows = () if lvl.sub is None else tuple(_kpack(lvl, r) for r in lvl.rows)
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
    return _kreduce(lvl, _kpack(lvl, a) * _kpack(lvl, b))


# Packed (Kronecker) products over a tower level, after Harvey (J. Symb.
# Comp. 44, 2009).  An element becomes one integer of `width`-byte slots:
# coordinate i fills block i, and a block has one slot per coefficient of
# an unreduced product one level down (`block` bytes in all), so a single
# integer product holds the whole unreduced convolution with no carry
# between slots.


def _kbytes(lvl, a):
    """A reduced element in lvl's packed layout, as little-endian bytes."""
    if lvl.sub is None:
        w = lvl.width
        return b"".join([x.to_bytes(w, "little") for x in a])
    sub, blk = lvl.sub, lvl.block
    return b"".join([_kbytes(sub, c).ljust(blk, b"\0") for c in a])


def _kpack(lvl, a):
    return int.from_bytes(_kbytes(lvl, a), "little")


def _kreduce(lvl, x):
    """The reduced element of lvl from x, an unreduced product packed in
    lvl's layout: its 2n - 1 blocks.  The high blocks are reduced one level
    down and folded into the low n with the packed rows (theta^n ..
    theta^(2n-2), already reduced, so the fold does not cascade), then each
    low block is reduced one level down.

    Slot bound: with N_l the absolute degree of level l, a slot of the
    product of two packed elements at level l sums at most N_l terms below
    q^2, one per pair of first-level coordinates whose exponents add up to
    the slot's, and the fold there adds at most
    (n - 1) N_(l-1) = N_l - N_(l-1) more (each row times a reduced block).
    The folds of all the levels below add to a telescoping sum, so every
    slot that reaches the first level stays below 2 N_l q^2, which the
    width of `_build_level` holds.
    """
    n = lvl.deg
    sub = lvl.sub
    if sub is None:
        q, w = lvl.p, lvl.width
        buf = x.to_bytes((2 * n - 1) * w, "little")
        c = [int.from_bytes(buf[i : i + w], "little") for i in range(0, len(buf), w)]
        for k in range(n, 2 * n - 1):
            ck = c[k] % q
            if ck:
                for i, ri in enumerate(lvl.rows[k - n]):
                    if ri:
                        c[i] += ck * ri
        return tuple(v % q for v in c[:n])
    blk = lvl.block
    buf = x.to_bytes((2 * n - 1) * blk, "little")
    if n > 1:
        acc = int.from_bytes(buf[: n * blk], "little")
        for k, row in enumerate(lvl.krows, n):
            c = _kreduce(sub, int.from_bytes(buf[k * blk : (k + 1) * blk], "little"))
            if _tbool(c):
                acc += _kpack(sub, c) * row
        buf = acc.to_bytes(n * blk, "little")
    return tuple(
        _kreduce(sub, int.from_bytes(buf[i : i + blk], "little"))
        for i in range(0, n * blk, blk)
    )


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
    """Monic gcd of two monic polynomials."""
    while b:
        a, b = b, _p_rem(ops, a, b)
        if b:
            b = _p_monic(ops, b)
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
    if not _tbool(a):
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
    norms, as a positive integer; primes dividing it are never used.

    At each level the rescaled generator theta = scale * gen has the
    integral defining polynomial m_theta(x) = scale^n m(x / scale), and
    for a monic f the resultant Res(f, g) is the product of g over the
    roots of f, so Res(m_theta, m_theta') = N(m_theta'(theta))
    = N(scale^(n-1) m'(gen)), a norm to the base field; further norms take
    it down to the rationals.
    """
    d = getattr(field, "_modp_disc", None)
    if d is None:
        d = 1
        f = field
        while getattr(f, "_level1", None) is not None:
            n = f.degree
            if n > 1:
                dm = f.element(f.minpoly.derivative().coeffs)
                r = (dm * f._scale ** (n - 1)).norm()
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
    """Field element from a coordinate tensor mod m, or None."""
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


def _reduced(lvl, f):
    return [_red_elem(lvl, c) for c in f.coeffs]


def _gcd_image(lvl, polys):
    """Monic gcd of the family at lvl's prime, by Euclid over the reduced
    ring with every leading coefficient inverted, an input's own included
    (so no input drops degree); BadPrime when one is a zero divisor."""
    ops = _ElemOps(lvl)
    g = None
    for q in polys:
        b = _p_monic(ops, _reduced(lvl, q))
        g = b if g is None else _p_gcd(ops, g, b)
        if len(g) == 1:
            break
    return g


def _candidate(field, polys, tensors, m):
    """The monic polynomial whose lower coefficients are recovered from
    their coordinate tensors mod m, if it divides every input exactly."""
    coeffs = []
    for t in tensors:
        c = _lift_tensor(field, t, m)
        if c is None:
            return None
        coeffs.append(c)
    h = UniPoly._raw(field, coeffs + [field.one])
    return h if all((q % h).is_zero for q in polys) else None


def _derivative(lvl, cs):
    q = lvl.p
    return [_scale_tensor(cs[i], i, q) for i in range(1, len(cs))]


def _horner(lvl, cs, s):
    """The polynomial with reduced coefficients cs (constant first) at s."""
    acc = cs[-1]
    for c in cs[-2::-1]:
        acc = _madd(lvl, _mmul(lvl, acc, s), c)
    return acc


def _lift_root(field, levels, polys, lvl, s):
    """x - s0 from the root s of a degree-1 image at lvl's prime p, by
    Newton's iteration mod p^(2^k) (Loos, SIAM J. Comput. 12, 1983; von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 15) on an input f with
    f'(s) a unit mod p.  None when no input has one, or when another input
    stops vanishing at the lifted root, which proves p unlucky.

    Each step refines w, the inverse of f'(s), by w <- w (2 - f'(s) w) to
    the current precision q, with no inversion mod a prime power, then
    sets s <- s - f(s) w mod q^2; each precision is tried as a candidate
    that must divide every input exactly.
    """
    for f in polys:
        try:
            w = _minv(lvl, _horner(lvl, _derivative(lvl, _reduced(lvl, f)), s))
        except BadPrime:
            continue
        break
    else:
        return None
    lq = lvl
    while True:
        if lq is not lvl:
            dw = _mmul(lq, _horner(lq, _derivative(lq, cs), s), w)
            w = _mmul(lq, w, _msub(lq, _madd(lq, lq.one, lq.one), dw))
        q = lq.p * lq.p
        lq = levels.get(q)
        if lq is None:
            lq = levels[q] = _build_level(field, q)
        cs = _reduced(lq, f)
        s = _msub(lq, s, _mmul(lq, _horner(lq, cs, s), w))
        h = _candidate(field, polys, (_neg_tensor(s, q),), q)
        if h is not None:
            return h
        for g in polys:
            if g is not f and _tbool(_horner(lq, _reduced(lq, g), s)):
                return None


def nf_gcd(polys, field):
    """Monic gcd of a family of nonzero polynomials over a number-field tower.

    Why the answer is proven.  Call a prime p admissible when it divides no
    coefficient denominator and no tower discriminant and the Euclid run
    mod p inverts every leading coefficient it meets.  Then the reduced
    tower is a product of finite fields F_P, one per prime P of the field
    above p, and the monic image g_p is, in each F_P, the gcd of the inputs
    reduced mod P.  The true monic gcd G divides each input f, whose leading
    coefficient is a unit at P; the roots of G are roots of f/lc(f), hence
    integral at P, so G has P-integral coefficients and G mod P is a monic
    divisor of every reduced input.  So deg G <= deg g_p at every admissible
    prime: an image of degree 0 proves G = 1, and a monic candidate h of
    the least image degree that divides every input exactly divides G and
    has deg h >= deg G, so h = G.  A candidate x - s0 from the p-adic lift
    below has degree 1, the degree of an image, so the same argument makes
    it G once it divides every input.

    Why the loop ends.  Only finitely many primes are inadmissible, and only
    finitely many are unlucky (image degree above deg G); at every other
    prime the image is G mod p, so the Chinese remainder of those images
    grows until rational reconstruction returns G itself.

    The lift.  When the first image of least degree is x - s_p and does not
    reconstruct on its own, s_p is lifted p-adically from an input f with
    f'(s_p) a unit mod p, so that s_p is a simple root of f in every F_P
    and lifts to exactly one root s* of f over the p-adic completions.  If
    p is lucky, G = x - s0 with s0 = s_p mod p, so s* = s0: the lifted
    roots converge to s0, whose coordinates are p-integral because p
    divides no tower discriminant, and reconstruct once p^(2^k) exceeds
    twice the square of their heights.  If p is unlucky, G = 1, so some
    input g has g(s*) != 0 (a common root over the completions would be a
    common factor over the field); g(s*) has finite valuation (when f and g
    are coprime, at most the p-valuation of their resultant), and g stops
    vanishing at the lifted root once 2^k exceeds it.  The CRT loop then goes on at the next prime; it
    stays the only route for degree 2 and above and for roots that no input
    has simple mod p.
    """
    if any(q.degree == 0 for q in polys):
        return UniPoly.one(field)
    disc = _tower_disc(field)
    levels = field.__dict__.setdefault("_modp_levels", {})
    least = None
    acc = None
    mod = 1
    for p in primes(1 << 61):
        if disc % p == 0:
            continue
        lvl = levels.get(p)
        if lvl is None:
            lvl = levels[p] = _build_level(field, p)
        try:
            g = _gcd_image(lvl, polys)
        except BadPrime:
            continue
        deg = len(g) - 1
        if deg == 0:
            return UniPoly.one(field)
        if least is not None and deg > least:
            continue  # unlucky: the image has a spurious common factor
        first = least is None or deg < least
        if first:
            least, acc, mod = deg, tuple(g[:-1]), p
        else:
            acc, mod = _crt_tensor(acc, mod, tuple(g[:-1]), p)
        h = _candidate(field, polys, acc, mod)
        if h is None and first and deg == 1:
            h = _lift_root(field, levels, polys, lvl, _neg_tensor(g[0], p))
        if h is not None:
            return h


def fold_common_root(polys, field):
    """Degree-at-most-one summary of `nf_gcd(polys, field)`.

    Returns ("empty", None) when the gcd is 1, ("root", s0) when it is
    x - s0, and ("degree", k) when it has degree k >= 2.  Each outcome is
    proven, so no caller needs an exact fallback.
    """
    g = nf_gcd(polys, field)
    if g.degree == 0:
        return ("empty", None)
    if g.degree == 1:
        return ("root", -g.coeffs[0])
    return ("degree", g.degree)
