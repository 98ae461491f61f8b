"""The gcd of polynomial families over a number-field tower, at totally
split primes: the modular number-field gcd of Encarnacion (J. Symb. Comp.
20, 1995), extended to towers as by van Hoeij and Monagan (ISSAC 2002).

`nf_gcd` works only at primes p where each level's integral defining
polynomial splits into distinct linear factors mod p over every embedding
of the level below (`_split_primes`).  There every prime of the tower above
p has degree 1, and the tower mod p is F_p^N, N the absolute degree: one
evaluation matrix on the flat `NFElement.ic` tuple maps an element to its N
values, one per embedding, and Lagrange interpolation in each level's roots
maps values back to coordinates (`_interpolate`).  An image of the family
is N monic gcds over F_p (`intpoly.gf_gcd`, the toolkit Zassenhaus uses
too).  The degree at each embedding bounds the true one from above
(argument in `nf_gcd`), so a gcd of 1 at the first embedding, tried alone
first, proves coprimality at once.  An image of degree 1, x - s, settles
the gcd at that prime alone: s is lifted p-adically per embedding by
Newton's iteration, with the embedding itself (`_Split.lifted`), until the
candidate x - s0 divides every input exactly, or an input stops vanishing
at the lifted root, which proves the gcd 1.  A root comes back with the
split record it was proven at, which knows its precision q and holds the
evaluation matrix and interpolation tables mod q that the 2-jet giving a
class's u at its first good sample reads.  Images of degree 2 or
more are combined by Chinese remaindering, the coordinates recovered as
rationals, and the monic candidate returned once it divides every input
exactly.  Inputs are evaluated at the embeddings with each coordinate's
coefficients packed into one int where that pays, so that an embedding
costs one dot product, not one per coefficient (`_values`).  Every
`UniPoly` gcd runs here.  The rationals are the tower's root, whose
integral vectors are 1-tuples (`integral_ops`): there N = 1, every prime
splits, and the argument is that of Brown's modular gcd over Z (J. ACM 18,
1971).  `fold_common_root` is its summary for the degree-at-most-one
question that classifies a sampled parameter; it takes the inputs as the
integral coefficient vectors it works on, and `nf_gcd` is the entry for
UniPolys, which it lifts to those vectors; `poly_gcd` is `nf_gcd` of two.

A field's split primes are found among those of its base: each embedding
of the base extends by the roots mod p of the level's polynomial there, and
the normal closure is never built.  Those roots are first looked for among
the lower levels' roots, which always hold a class field's, and otherwise
found by Cantor-Zassenhaus.  Split primes and their matrices are cached per
number field.
"""

import random
from itertools import chain
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm
from operator import mul

from .errors import InternalInvariantError
from .intpoly import (
    filled_slots,
    gf_diff,
    gf_edf,
    gf_eval,
    gf_gcd,
    gf_monic,
    gf_pow_mod,
    primes,
)
from .numberfield import NumberField, _blocks, integral_horner, integral_ops
from .polynomials import UniPoly
from .rationals import Rational

# The first prime tried.  Split primes have density 1/[normal closure : Q],
# and each prime tried costs a root test of about log2(p) squarings mod a
# level's polynomial, so the search cost grows with p.  K's first split prime
# took 1.8-3.3 ms to find from 2^20 on x^5 - 2 (8 primes tried) and
# 1.8-2.6 ms on x^6 - 2 (9 tried), 3.8-6.7 and 5.2-7.2 ms from 2^31 (14 and
# 13 tried), and 11.4-15.7 and 11.7-16.8 ms from 2^61 (21 and 18 tried),
# over two rounds of timings on a 2-core x86-64 VM (CPython 3.11, pure).
# A tower5 block was decided in 0.99, 1.03 and 1.16 times the time from
# 2^31, 2^40 and 2^61 (in-process, seed 91001): from 2^61 the p-adic lift
# took 0.185 s where it took 0.280 s from 2^20, but the search and the
# wider image arithmetic cost more.  One prime still usually carries a gcd:
# the p-adic lift covers roots of larger height.
_PRIME_START = 1 << 20


class BadPrime(Exception):
    """The chosen prime degenerates the reduction."""


def _level_poly(field, row, q):
    """The integral defining polynomial of `field`'s rescaled generator,
    monic with the constant first, at the embedding of the base whose
    monomial values are `row`, mod q."""
    if field._level1:
        return [-c % q for c in field._txn] + [1]
    return [-sum(map(mul, c, row)) % q for c in field._txn] + [1]


def _expand(prows, roots, n, q):
    """The monomial values, mod q, at the embeddings that extend the rows
    prows of the base by `roots`, n of them per base embedding: position
    i*m + j of the flat layout holds root^i times the base's value j."""
    out = []
    for c, r in enumerate(roots):
        pows = [1]
        for _ in range(n - 1):
            pows.append(pows[-1] * r % q)
        out.append([pw * x % q for pw in pows for x in prows[c // n]])
    return out


class _Split:
    """A field's tower at a totally split prime p, to the precision q = p^e.

    `levels` lists, bottom-up, each level's field and its roots mod q: the
    level's polynomial over base embedding j has the roots at positions
    j*n .. j*n + n - 1, n the level's degree, so the top level's positions
    number the field's N embeddings.  `rows` is the evaluation matrix:
    row k holds the values mod q at embedding k of the monomials of the
    flat `ic` layout, and `tables` invert it (`_interpolate`), built with
    the inverses of f'(r) mod q at each level root r, which `lifted`
    refines; at q = p both are built on first use.
    """

    __slots__ = ("p", "e", "q", "levels", "rows", "_built")

    def __init__(self, p, levels, rows, e=1, built=None):
        self.p, self.e, self.q = p, e, p**e
        self.levels, self.rows, self._built = levels, rows, built

    @property
    def tables(self):
        return self._interpolation()[0]

    def _interpolation(self):
        """(tables, inverses), the inverses one list per level."""
        if self._built is None:
            nones = [[None] * len(rs) for _, rs in self.levels]
            self._built = _lift_levels(self.levels, nones, self.p, self.p)[2]
        return self._built

    def lifted(self):
        """A new record at the next precision p^e', e' = 2e up to e = 8 and
        e + e // 2 after (a root of height h reconstructs once p^e > 2 h^2,
        and is not lifted to nearly twice that): one Newton step
        (`_lift_levels`, e' <= 2e) from this record's roots and inverses."""
        e = 2 * self.e if self.e < 8 else self.e + self.e // 2
        levels, rows, built = _lift_levels(self.levels, self._interpolation()[1], self.q, self.p**e)
        return _Split(self.p, levels, rows, e, built)


def _known_roots(field, below):
    """Candidate roots mod p, `below`'s prime, of field's level polynomial:
    the values field's rescaled generator D*gen would take if gen were a
    conjugate of a lower level's generator.  A lower level's roots are the
    values of its own D'*gen', so each root r gives r * D / D' (none when p
    divides D')."""
    p = below.p
    out = set()
    for lf, rs in below.levels:
        if lf._scale % p:
            ratio = field._scale * pow(lf._scale, -1, p)
            out.update(r * ratio % p for r in rs)
    return sorted(out)


def _extend(field, below):
    """The record of `field` at the prime of `below`, its base's record, or
    None unless field's polynomial splits into distinct linear factors mod
    p over every embedding of the base.

    At each embedding the polynomial is first evaluated at the roots the
    lower levels already know (`_known_roots`): n distinct roots among them
    prove that it splits, as it has degree n.  A class field's polynomial
    divides that of its base K(alpha) over K(alpha), so its roots are
    always found there.  Otherwise it splits so exactly when x^p = x
    modulo it, as x^p - x is the squarefree product of all x - a, and its
    roots come from `gf_edf`.  Either way the roots are the polynomial's,
    sorted."""
    p = below.p
    n = field.degree
    known = _known_roots(field, below) if n > 1 else ()
    roots = []
    for row in below.rows:
        f = _level_poly(field, row, p)
        if n == 1:
            roots.append(-f[0] % p)
            continue
        found = [r for r in known if not gf_eval(f, r, p)]
        if len(found) < n:
            if gf_pow_mod([0, 1], p, f, p) != [0, 1]:
                return None
            found = sorted(-g[0] % p for g in gf_edf(f, 1, p, random.Random(p)))
        roots.extend(found)
    levels = below.levels + ((field, roots),)
    return _Split(p, levels, _expand(below.rows, roots, n, p))


def _split_primes(field):
    """The records of `field` at its totally split primes, in increasing
    order from _PRIME_START: an endless generator, over a per-field cache
    for a number field.  Over Q every prime splits, with no level and the
    one embedding's row [1]."""
    if not isinstance(field, NumberField):
        yield from (_Split(p, (), [[1]]) for p in primes(_PRIME_START))
        return
    if field._modp_split is None:
        field._modp_split = ([], _split_primes(field.base))
    found, below = field._modp_split
    i = 0
    while True:
        while i == len(found):
            sp = _extend(field, next(below))
            if sp is not None:
                found.append(sp)
        yield found[i]
        i += 1


# A step of `_values`' cost model, in products of two 30-bit digits (the
# digits of CPython's ints): a term of a dot product of small ints costs
# 60-100 ns on a 2-core x86-64 VM (CPython 3.11), and each further digit
# product about 1 ns, but the value is set from timings of both paths
# (`_values`).
_STEP_DIGITS = 160


def _values(rows, vecs, q):
    """The polynomial with the k integral coefficient vectors vecs, N
    entries each, at each of the R embeddings whose monomial values mod q,
    in [0, q), are a row: one list of its k coefficients mod q per row.

    Plain, each value is a dot product of N terms.  Packed
    (`_packed_values`), a row's k values are the slots of one dot product.
    The cost counts steps and digit work.  A step is one operation the
    interpreter makes or one multiply-add of the C loop of a dot product.
    Plain, a value takes the N steps of its dot product.  Packed, it takes
    three to read its slot (a slice, `int.from_bytes`, a remainder), its
    share of packing the coefficient's N entries over the R rows (two
    steps each: a sum or a remainder, and `to_bytes`), and its share of
    the row's dot product over the k values: 3 + 2N/R + N/k.  The digits:
    plain, a term multiplies a row entry of W digits, W those of q, by an
    entry of the vector; packed, by that entry's slot, which is wider by
    about the row entry's W digits (`_packed_values`), so each of a
    value's N terms makes about W^2 more digit products.  With a step worth
    S = `_STEP_DIGITS` digit products, the packed path runs when
    S (N - 3 - 2N/R - N/k) > N W^2.  So it never runs for one row or one
    coefficient, nor for N <= 5 at R <= N; at q = p (W = 1) and R = N it
    runs for N = 6 from k = 7 on and for N >= 12 from k = 2 on, as when
    steps alone were counted.  On the calls of 8 tower5 decisions at the
    class field (N = R = 20, k = 7 or 8), packed took 0.45-0.56,
    0.45-0.56, 0.70, 0.86-0.87 and 1.08 times the plain loop at q = p^2,
    p^4, p^8, p^12 and p^16 (W = 2, 3, 6, 9 and 11; two timings; p^16 is
    where a lift that doubled its precision went after p^8, `_Split.lifted`):
    S from 134 to 193 picks the faster path at each of them, packed at
    p^12 and plain at p^16, where the step's price above, S = 96, picks
    plain at p^12.  Over every call of 9 decisions each at x^2 + 1,
    degree 14-18, and x^5 - 2, degree 6-7, and 6 at x^6 - 2, degree 6,
    S = 160 cost what the faster path at each call did on x^5 - 2 and what
    S = 96 did on the other two.
    """
    n, r, k = len(vecs[0]), len(rows), len(vecs)
    w = (q.bit_length() + 29) // 30
    if _STEP_DIGITS * (n * r * k - 3 * r * k - 2 * n * k - n * r) > n * r * k * w * w:
        return _packed_values(rows, vecs, q)
    return [[sum(map(mul, row, v)) % q for v in vecs] for row in rows]


def _packed_values(rows, vecs, q):
    """`_values` by Kronecker substitution (von zur Gathen and Gerhard,
    Modern Computer Algebra, 8.4): coordinate i's k entries x_0i .. x_(k-1)i
    are one int P_i = sum_j x_ji 2^(8wj), so that sum_i r_i P_i, for a row
    r, is sum_j s_j 2^(8wj) with s_j = sum_i r_i x_ji the j-th value before
    its reduction mod q: one dot product of N big ints per row, whose k
    slots of w bytes are read by one `to_bytes`.

    The width.  Let M be the largest |x_ji|.  When M >= q every entry is
    replaced by its residue in [0, q), which changes no value mod q; then
    M = q - 1, every s_j lies in [0, N (q - 1)^2], and h = 0.  Otherwise
    s_j lies in [-N (q - 1) M, N (q - 1) M], as 0 <= r_i < q, and h is the
    least multiple of q at least N (q - 1) M.  Either way s_j + h lies in
    [0, B], B = h + N (q - 1) M, and w is the least number of bytes with
    2^(8w) > B (at least one).  Then sum_j (s_j + h) 2^(8wj), the dot
    product plus h in every slot, is the number whose little-endian bytes
    are the slots' own, each slot a nonnegative number below 2^(8w), so
    its k w bytes read each s_j + h back exactly, and s_j + h = s_j mod q
    as q divides h.  Packing is exact too: each entry packed is a
    nonnegative number at most B, a residue (q - 1 <= B) or x + M with
    0 <= x + M <= 2M <= B, and the bias M of the latter is taken off the
    packed int.
    """
    n, k = len(vecs[0]), len(vecs)
    m = max(map(abs, chain.from_iterable(vecs)))
    if m >= q:
        m, h = q - 1, 0
        w = ((n * m * m).bit_length() + 7) // 8
        packed = [
            int.from_bytes(b"".join([(x % q).to_bytes(w, "little") for x in col]), "little")
            for col in zip(*vecs)
        ]
    else:
        h = -(-n * (q - 1) * m // q) * q
        w = ((h + n * (q - 1) * m).bit_length() + 7) // 8 or 1
        bias = filled_slots(m, w, k)
        packed = [
            int.from_bytes(b"".join([(x + m).to_bytes(w, "little") for x in col]), "little")
            - bias
            for col in zip(*vecs)
        ]
    size = k * w
    bias = filled_slots(h, w, k)
    span = range(0, size, w)
    out = []
    for row in rows:
        raw = (sum(map(mul, row, packed)) + bias).to_bytes(size, "little")
        out.append([int.from_bytes(raw[i : i + w], "little") % q for i in span])
    return out


def _image(sp, family):
    """(gcds, values): the monic gcds over F_p of the inputs at each
    embedding, stopping at the first input after which one of them is 1,
    and each input reduced so far at each embedding (`_values`); BadPrime
    when a denominator or, at some embedding, a leading coefficient
    vanishes.  The first embedding goes alone first: a gcd of 1 there
    proves the family coprime (`nf_gcd`), and [1] comes back with no
    values; the others are reduced only when it is not 1."""
    p, row, rest = sp.p, sp.rows[:1], sp.rows[1:]
    first, chain = [], []
    for vecs, den in family:
        if den % p == 0:
            raise BadPrime("denominator vanishes")
        (f,) = _values(row, vecs, p)
        if not f[-1]:
            break
        chain.append(gf_gcd(chain[-1], f, p) if chain else gf_monic(f, p))
        if len(chain[-1]) == 1:
            return chain[-1:], None
        first.append(f)
    g = None
    values = []
    for f, h, (vecs, _) in zip(first, chain, family):
        fs = _values(rest, vecs, p)
        if not all(x[-1] for x in fs):
            raise BadPrime("leading coefficient vanishes")
        values.append([f] + fs)
        g = [gf_monic(x, p) for x in fs] if g is None else [gf_gcd(a, x, p) for a, x in zip(g, fs)]
        if any(len(x) == 1 for x in g):
            return [h] + g, values
    if len(first) < len(family):
        raise BadPrime("leading coefficient vanishes")
    return [chain[-1]] + g, values


def _crt(acc, m, t, p):
    minv = pow(m % p, -1, p)
    return tuple([x + m * (((y - x) * minv) % p) for x, y in zip(acc, t)]), m * p


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


def _coordinates(field, v, m):
    """The elements of field whose coordinate vectors mod m are
    concatenated in v, recovered as rationals (`_rat_rec`): one (integral
    vector, positive denominator) per element, or None when a coordinate
    does not reconstruct."""
    rs = []
    for x in v:
        r = _rat_rec(x, m)
        if r is None:
            return None
        rs.append(r)
    coeffs = []
    for c in _blocks(rs, field.absolute_degree):
        den = _int_lcm(*(r.denominator for r in c))
        coeffs.append((tuple([r.numerator * (den // r.denominator) for r in c]), den))
    return coeffs


def _candidate(field, family, v, m):
    """The monic polynomial whose lower coefficients are recovered from
    their coordinate vectors mod m, concatenated in v, if it divides every
    input exactly.  A candidate x - s0 is proven by `_is_root`; one of
    degree 2 or more by division, on polynomials built from the family."""
    coeffs = _coordinates(field, v, m)
    if coeffs is None:
        return None
    make = integral_ops(field).make
    h = UniPoly._raw(field, [make(c, d) for c, d in coeffs] + [field.one])
    if len(coeffs) == 1:
        ((c, d),) = coeffs  # h = x + c/d vanishes at c/(-d)
        return h if _is_root(field, family, c, -d) else None
    polys = [UniPoly._raw(field, [make(c, d) for c in vecs]) for vecs, d in family]
    return h if all((q % h).is_zero for q in polys) else None


def _is_root(field, family, s, e):
    """Whether s0 = s/e, s an integral vector and e a nonzero int, is a
    root of every input: `integral_horner` on each input's vectors gives
    e^d q(s0) up to q's positive denominator, with the product by s built
    once."""
    ops = integral_ops(field)
    times = ops.fixed(s)
    return not any(ops.nonzero(integral_horner(ops, vecs, times, e)) for vecs, _ in family)


def _lagrange(f, r, w, q):
    """(column, w) at a root r mod q of the monic f, whose roots are
    distinct mod the prime: the coefficients mod q, constant first, of
    Lagrange's basis polynomial f(x)/(x - r) w, 1 at r and 0 at f's other
    roots, with w refined to f'(r)'s inverse mod q by w <- w (2 - f'(r) w)
    from half that precision, or, when None, inverted.  One pass divides f
    by x - r (c_(n-1) = f_n, c_(i-1) = c_i r + f_i) and runs Horner's
    scheme on the quotient for f'(r), its value at r."""
    c = d = f[-1]
    quot = [c]
    for i in range(len(f) - 2, 0, -1):
        c = (c * r + f[i]) % q
        d = (d * r + c) % q
        quot.append(c)
    w = pow(d, -1, q) if w is None else w * (2 - d * w) % q
    return [x * w % q for x in reversed(quot)], w


def _interpolate(tables, vals, q):
    """The coordinates mod q of the element whose values mod q at the
    embeddings of `tables` (`_lift_levels`) are vals, top level first.  At
    a level of degree n the element is sum_a b_a theta^a, b_a in the base,
    so its values over base embedding j are the polynomial sum_a b_a(j) x^a
    at j's roots, and the table for j gives the b_a(j) back by one n x n
    product; b_a's coordinates fill block a of the flat layout."""
    groups = [vals]
    for table in reversed(tables):
        n = len(table[0])
        if n > 1:  # a degree-1 level's table is [[1]]
            groups = [b for v in groups for b in zip(*(
                [sum(map(mul, row, v[j * n : j * n + n])) % q for row in t]
                for j, t in enumerate(table)
            ))]
    return list(chain.from_iterable(groups))


def _newton(w, f, s, q, qq):
    """One Newton step for a root s mod q of f, with w the inverse of f'(s)
    to at least half that precision: w is refined to precision q by
    w <- w (2 - f'(s) w), with no inversion mod a prime power, and s
    becomes the root mod qq, a power of the prime that divides q^2.  The
    new (s, w).

    f(s) mod qq and f'(s) mod q come from one Horner pass over f's
    coefficients, with no derivative built: v_n = f_n, d_n = 0 and, from
    the top down, d_i = d_(i+1) s + v_(i+1), v_i = v_(i+1) s + f_i, so
    that v_0 = f(s) and d_0 = f'(s); d is needed only mod q, which divides
    qq."""
    v, d = f[-1], 0
    for i in range(len(f) - 2, -1, -1):
        d = (d * s + v) % q
        v = (v * s + f[i]) % qq
    w = w * (2 - d * w) % q
    return (s - v * w) % qq, w


def _lift_levels(levels, inverses, q, qq):
    """(levels, rows, (tables, inverses)) at qq, a power of the prime that
    divides q^2, from the levels' roots mod q and, per level, the inverses
    of f'(r) at its roots to at least half that precision, in new lists:
    each root lifted by one Newton step (none at qq = q = p, where the
    inverses, None, are computed) and each inverse refined (`_lagrange`),
    the evaluation matrix mod qq they give, and per level and embedding
    below a table whose row a holds the a-th coefficients of the Lagrange
    basis polynomials at its roots mod qq."""
    prows = [[1]]
    out, tables, refined = [], [], []
    for (lf, rs), ws in zip(levels, inverses):
        n = lf.degree
        rs, ws = list(rs), list(ws)
        table = []
        for j, prow in enumerate(prows):
            f = _level_poly(lf, prow, qq)
            cols = []
            for c in range(j * n, j * n + n):
                if qq != q:
                    rs[c], ws[c] = _newton(ws[c], f, rs[c], q, qq)
                col, ws[c] = _lagrange(f, rs[c], ws[c], qq)
                cols.append(col)
            table.append(list(zip(*cols)))
        out.append((lf, rs))
        tables.append(table)
        refined.append(ws)
        prows = _expand(prows, rs, n, qq)
    return tuple(out), prows, (tables, refined)


def _lift_root(field, family, values, sp, roots):
    """The gcd of the family from a degree-1 image at sp's prime p, whose
    roots, one per embedding, are `roots`: (x - s0, kept) once x - s0
    divides every input exactly at the precision q of kept, sp or a lift
    of it, or (1, None) once another input stops vanishing at the first
    embedding's lifted root, which proves the gcd 1 (`nf_gcd`).  The
    candidate is tried at q = p, then each root is lifted by Newton's
    iteration (Loos, SIAM J. Comput. 12, 1983; von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 15) on an input with a simple root there,
    as the embedding itself is lifted: sp.lifted(), its lifted(), ... at
    p^e, e = 2, 4, 8, 12, 18, ....  `values` holds every input at each
    embedding mod p, as `_image` reduced them.  At each precision the
    picked inputs are evaluated at the lifted embedding (`_values`) and
    the coordinates come back by `_interpolate`.
    """
    p = sp.p
    h = _candidate(field, family, [-x % p for x in _interpolate(sp.tables, roots, p)], p)
    if h is not None:
        return h, sp
    pick, ws = [], []
    for k, s in enumerate(roots):
        for i, f in enumerate(values):
            d = gf_eval(gf_diff(f[k], p), s, p)
            if d:
                pick.append(i)
                ws.append(pow(d, -1, p))
                break
        else:
            raise InternalInvariantError("no input has a simple root at a degree-1 image")
    kept = sp
    while True:
        q, kept = kept.q, kept.lifted()
        qq, rows = kept.q, kept.rows
        fs = {i: _values(rows, family[i][0], qq) for i in set(pick)}
        for k, i in enumerate(pick):
            roots[k], ws[k] = _newton(ws[k], fs[i][k], roots[k], q, qq)
        h = _candidate(field, family, [-x % qq for x in _interpolate(kept.tables, roots, qq)], qq)
        if h is not None:
            return h, kept
        for i, (vecs, _) in enumerate(family):
            if i != pick[0] and gf_eval(_values(rows[:1], vecs, qq)[0], roots[0], qq):
                return UniPoly.one(field), None


def from_values(field, kept, vals):
    """The elements of field whose values mod q at the embeddings of the
    record kept, where a root was found (`_gcd`), at its precision q, are
    the lists in vals, or None when one does not reconstruct: the
    coordinates come back by interpolation (`_interpolate`) and are
    recovered as rationals as a gcd candidate's are (`_coordinates`)."""
    q = kept.q
    v = list(chain.from_iterable(_interpolate(kept.tables, x, q) for x in vals))
    coeffs = _coordinates(field, v, q)
    if coeffs is None:
        return None
    make = integral_ops(field).make
    return [make(c, d) for c, d in coeffs]


def nf_gcd(polys, field):
    """Monic gcd of a family of nonzero polynomials over the rationals or a
    number-field tower.

    Why the answer is proven.  Let p be a totally split prime of the tower
    (`_split_primes`): every level's integral polynomial has distinct roots
    mod p over each embedding of the level below, so the tower has N
    primes P above p, each of degree 1, and reduction mod P is evaluation
    at an embedding into F_p.  Admissibility at P is that split test plus,
    for each input reduced, a denominator that survives mod p and a
    leading coefficient that does not vanish at P: the input is then
    P-integral with a unit leading coefficient.  The true monic gcd G
    divides each input f; the roots of G are roots of f/lc(f), hence
    integral at P, so G has P-integral coefficients and G mod P is a monic
    divisor of f mod P.  So deg G <= deg g_P, g_P the monic gcd over F_p
    of the inputs reduced so far mod P, at any P where they are
    admissible: a g_P of degree 0 at one P proves G = 1, and a monic
    candidate h of the least image degree that divides every input
    exactly divides G and has deg h >= deg G, so h = G.  A candidate
    x - s0 from the p-adic lift below has degree 1, the degree of an
    image, so the same argument makes it G once it divides every input.

    Division is exact in both cases.  x - s0 divides an input q exactly
    when q(s0) = 0.  With s0 = S/e, S an integral vector and e a nonzero
    integer, and q's integral coefficient vectors c_0 .. c_d, the integer
    Horner scheme B_d = c_d, B_i = S B_(i+1) + e^(d-i) c_i ends in
    B_0 = e^d E q(s0), E q's positive common denominator, so B_0 is the
    zero vector exactly when x - s0 divides q (`_is_root`).  A candidate of
    degree 2 or more divides every input with zero remainder.

    Why the loop ends.  By Chebotarev's density theorem the totally split
    primes have density 1/[normal closure : Q], so there are infinitely
    many.  Only finitely many of them are inadmissible, and only finitely
    many unlucky (an image of degree above deg G at some P, or images of
    unequal degrees, both skipped); at every other one the image is G mod
    each P.  So an image of degree 1 ends the loop (the lift), and for
    deg G >= 2 the Chinese remainder of the images grows until rational
    reconstruction returns G itself.

    The lift.  An image of degree 1, x - s_P at each P, gives deg G <= 1.
    Each s_P is lifted in the completion at P, which is Q_p, from an input
    f with f'(s_P) nonzero mod p (one exists, as (x - s_P)^2 does not
    divide the image), so s_P lifts to exactly one root s*_P of f in Q_p;
    the embedding is lifted too, from the simple roots of each level's
    polynomial.  If G = x - s0, G mod P is the image, so s*_P is the image
    of s0 at P: every input vanishes there, and the lifted roots converge
    to s0's values, whose coordinates are p-integral because p divides no
    level's discriminant, come back mod p^e from the lifted level roots
    (`_interpolate`), and reconstruct once the precision p^e exceeds
    twice the square of their heights, as it does: e grows without end
    (`_Split.lifted`).  So an input g with g(s*_P) != 0 mod p^e proves
    G = 1.  And if G = 1, the gcd over Q_p of the inputs' images at P is
    1, so at every P some input g has g(s*_P) != 0, and the first
    embedding's P is watched alone; g(s*_P) has finite valuation (when f
    and g are coprime, at most the p-valuation of their resultant), and g
    stops vanishing at the lifted root once e exceeds it.  Either way the
    lift ends at p.

    Over the rationals N = 1, every prime splits and the one embedding is
    the reduction mod p.
    """
    ops = integral_ops(field)
    return _gcd([ops.lift(q.coeffs) for q in polys], field)[0]


def poly_gcd(f, g):
    """Monic gcd of two polynomials over the same field (`nf_gcd`)."""
    if f.field != g.field:
        raise TypeError("gcd of polynomials over different fields")
    if f.is_zero or g.is_zero:
        return (g if f.is_zero else f).monic()
    return nf_gcd((f, g), f.field)


def _gcd(family, field):
    """`nf_gcd` of the nonzero polynomials whose coefficient vectors over
    one denominator each, as `integral_ops(field).lift` gives them with the
    leading vector nonzero, are the family: (g, kept), g the monic gcd as a
    UniPoly and, when g = x - s0, kept the split record, at the precision
    q where g was proven, of the prime whose degree-1 image gave it
    (`_lift_root`); kept is None otherwise.  Only images of degree 2 or
    more take further primes."""
    if any(len(vecs) == 1 for vecs, _ in family):
        return UniPoly.one(field), None
    least = acc = mod = None
    for sp in _split_primes(field):
        p = sp.p
        try:
            gs, values = _image(sp, family)
        except BadPrime:
            continue
        deg = min(len(g) for g in gs) - 1
        if deg == 0:
            return UniPoly.one(field), None
        if any(len(g) != deg + 1 for g in gs) or (least is not None and deg > least):
            continue  # unlucky: an image has a spurious common factor
        if deg == 1:
            return _lift_root(field, family, values, sp, [-g[0] % p for g in gs])
        # the lower coefficients' coordinates
        v = tuple(chain.from_iterable(_interpolate(sp.tables, c, p) for c in list(zip(*gs))[:deg]))
        if deg == least:
            acc, mod = _crt(acc, mod, v, p)
        else:  # the first image, or one of lower degree
            least, acc, mod = deg, v, p
        h = _candidate(field, family, acc, mod)
        if h is not None:
            return h, None


def fold_common_root(family, field):
    """Degree-at-most-one summary of the gcd of a family of nonzero
    polynomials over `field`, given by their coefficient vectors over one
    denominator each (`integral_ops(field).lift`, the leading vector
    nonzero).

    Returns ("empty", None, None) when the gcd is 1, ("degree", k, None)
    when it has degree k >= 2, and ("root", s0, kept) when it is x - s0,
    with kept the split record where s0 was found, at the precision q
    where it was proven (`_gcd`).  Each outcome is proven as in `nf_gcd`,
    so no caller needs an exact fallback.
    """
    g, kept = _gcd(family, field)
    if g.degree == 0:
        return ("empty", None, None)
    if g.degree == 1:
        return ("root", -g.coeffs[0], kept)
    return ("degree", g.degree, None)
