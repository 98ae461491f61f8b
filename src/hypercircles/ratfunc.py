"""Rational functions, parametrizations, and Moebius transformations.

A `RatFunc` is kept normalized: the denominator is monic and coprime to the
numerator, so two rational functions are equal iff their parts are equal.
Nothing here evaluates at a point: psi and its conjugates are compared on
integral coefficient vectors (`moebius_composer`).
"""

from .errors import InternalInvariantError
from .intpoly import filled_slots
from .modp import poly_gcd
from .numberfield import integral_ops
from .polynomials import UniPoly, format_poly


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        field = num.field
        if den is None:
            den = UniPoly.one(field)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if field != den.field:
            raise TypeError("numerator and denominator over different fields")
        if num.is_zero:
            num = UniPoly.zero(field)
            den = UniPoly.one(field)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num // g
                den = den // g
            if den.lc != field.one:
                inv = field.one / den.lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def _normalized(cls, num, den):
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def constant(cls, field, value):
        return cls(UniPoly(field, [value]))

    @classmethod
    def gen(cls, field):
        """The rational function t."""
        return cls(UniPoly.gen(field))

    @property
    def field(self):
        return self.num.field

    @property
    def degree(self):
        """max(deg num, deg den) — the degree as a map P1 -> P1."""
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        try:
            c = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return self.den.degree == 0 and self.num == UniPoly(self.field, [c])

    __hash__ = None

    def __add__(self, other):
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        other = self._as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    def _as_ratfunc(self, other):
        if isinstance(other, RatFunc):
            if other.field != self.field:
                return NotImplemented
            return other
        if isinstance(other, UniPoly):
            if other.field != self.field:
                return NotImplemented
            return RatFunc(other)
        try:
            c = self.field.coerce(other)
        except TypeError:
            return NotImplemented
        return RatFunc(UniPoly(self.field, [c]))

    def compose_moebius(self, mob):
        """self((a t + b)/(c t + d)), normalized."""
        n, d = moebius_compose_pair(self.num, self.den, mob)
        return RatFunc(n, d)

    def map_coeffs(self, fn, new_field):
        num = self.num.map_coeffs(fn, new_field)
        den = self.den.map_coeffs(fn, new_field)
        return RatFunc(num, den)

    def render(self, var="t"):
        ns = self.num.render(var)
        if self.den.degree == 0 and self.den.lc == self.field.one:
            return ns
        return f"({ns})/({self.den.render(var)})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RatFunc({self.render()!r})"


def moebius_compose_pair(num, den, mob, degree=None):
    """Raw substitution t -> (a t + b)/(c t + d) into the pair (num, den).

    Returns the pair sum_j p_j (a t + b)^j (c t + d)^(k - j) for p = num and
    p = den, with k = max(deg num, deg den) or the given `degree`; no gcd
    cancellation is performed.

    Homogeneous Horner scheme (cf. the Taylor shift of von zur Gathen and
    Gerhard, ISSAC 1997), run on integers (`integral_ops`): u is projective,
    so a, b, c, d become integral A, B, C, D over their common denominator
    L, and each input polynomial is integral over one denominator E.  From
    the top coefficient down, acc <- acc * (A t + B) + P_j (C t + D)^(k - j),
    with one table of the powers of C t + D shared by both parts; the result
    is acc / (E L^k).

    The cost.  The accumulator and the table's rows are packed
    (`moebius_composer`): each coordinate's t-coefficients are one int, so
    a Horner step is a few products by a fixed multiplier (A, B, and P_j
    times a row), O(k) products for the pair where one per t-coefficient
    made O(k^2), on ints about k times as long.  Then one normalization per
    output coefficient.
    """
    field = num.field
    big = degree if degree is not None else max(num.degree, den.degree)
    ops = integral_ops(field)
    compose, lcd = moebius_composer(ops, mob, big)
    out = []
    for p in (num, den):
        if p.coeffs:
            cs, e = ops.lift(p.coeffs)
            acc = compose([ops.bounded(c) for c in cs], big)
            q = e * lcd**big
            p = UniPoly._raw(field, [ops.make(v, q) for v in acc])
        out.append(p)
    return out[0], out[1]


def moebius_composer(ops, mob, big):
    """The Horner scheme of `moebius_compose_pair` for polynomials over the
    field of `ops` (`integral_ops`), with the table built for degree `big`.

    Returns (compose, L).  compose(products, k), for the products by the
    integral vectors (P_0 .. P_top) of E p (`ops.lift`), each as
    `ops.bounded` gives it, P_top nonzero and top <= k <= big, gives the
    k + 1 vectors of
    E L^k sum_j p_j (a t + b)^j (c t + d)^(k - j), ascending and not
    trimmed.  Given a list `trace`, it appends (j, acc_j, w) after each
    step: the packed accumulator below and the slot bytes w it was
    computed in, so that the width argument below can be checked on data.

    Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
    Algebra, 8.4): the accumulator and each row of the table of
    (C t + D)^i are one vector of ints, each int one coordinate's
    t-coefficients in slots of W bits, that is, its value at t = 2^W.  A
    product by a fixed multiplier is linear over Z, so it acts on every
    slot at once, and a Horner step is (A acc << W) + B acc, plus P_j times
    a row: a few big-int products instead of one per t-coefficient.  An
    entry below 2^(W-1) in absolute value is one balanced slot, so a
    polynomial whose entries all are is its packed int's only reading.

    The width.  Write |Q| for the sum over t of the infinity-norms of the
    coefficient vectors of Q, and n(v) for the infinity-norm of the matrix
    of the product by v (`bounded`: |k| for a scaling by k, the base's for
    a product block by block), so that |v Q| <= n(v) |Q|.  With
    x = n(A) + n(B) and y = n(C) + n(D), |Q (A t + B)| <= x |Q| and
    |(C t + D)^i| <= y^i by induction, and the accumulator after the step
    of P_j, acc_j = acc_(j+1) (A t + B) + P_j (C t + D)^(k - j), has
    |acc_j| <= S_j, where S_top = n(P_top) y^(k - top) and
    S_j = x S_(j+1) + n(P_j) y^(k - j).  Each entry of acc_j is at most
    |acc_j|, and each entry of the row P_j multiplies is at most
    y^(k - j) <= S_j, since n(P_j) >= 1 for P_j != 0 (the matrix's column
    of 1 is P_j).  So 2^(W-1) > S_j lets step j read both, as
    2^(W-1) > y^i does row i.  Sums and products are exact at any width
    (they are values at t = 2^W); slots are read only where a row or the
    accumulator moves to another width, and at the end.  A width is a
    whole number of 64-bit words with a word of slack (`_width`), and
    moves only when the bound outgrows it; a move reads and writes each
    slot once (`_respace`).  acc_j has degree at most k - j and row i
    degree i, or 0 when C = 0.
    """
    (a, b, c, d), lcd = ops.lift((mob.a, mob.b, mob.c, mob.d))
    add = ops.add
    times_ab, x = _linear_step(ops, b, a)
    times_cd, y = _linear_step(ops, d, c)
    deg_cd = 1 if ops.nonzero(c) else 0  # row i has i * deg_cd + 1 slots
    ypow = [1]
    rows = [(ops.one, 1)]  # (row, slot bytes)
    for i in range(1, big + 1):
        ypow.append(ypow[-1] * y)
        row, w = rows[-1]
        if ypow[i].bit_length() >= 8 * w:
            row = _respace(row, (i - 1) * deg_cd + 1, w, _width(ypow[i]))
            w = _width(ypow[i])
        rows.append((times_cd(row, 8 * w), w))

    def row_at(i, w):
        row, wr = rows[i]
        if wr != w:  # the row moves to the width of its last use
            row = _respace(row, i * deg_cd + 1, wr, w)
            rows[i] = row, w
        return row

    def compose(products, k, trace=None):
        top = len(products) - 1
        times, n = products[top]
        bound = n * ypow[k - top]
        w = _width(bound)
        acc = times(row_at(k - top, w))
        if trace is not None:
            trace.append((top, acc, w))
        for j in range(top - 1, -1, -1):
            times, n = products[j]
            bound = x * bound + n * ypow[k - j]
            if bound.bit_length() >= 8 * w:
                acc, w = _respace(acc, k - j, w, _width(bound)), _width(bound)
            acc = times_ab(acc, 8 * w)
            if n:
                acc = add(acc, times(row_at(k - j, w)))
            if trace is not None:
                trace.append((j, acc, w))
        return _unpack(acc, k + 1, w)

    return compose, lcd


# bits to spare above a width's bound, so that a width lasts a few steps
_SLACK = 64


def _width(bound):
    """The slot bytes w for a bound: 2^(8w - 1) > bound with `_SLACK` bits
    to spare, in whole 64-bit words, so that the compositions that share a
    table mostly meet its rows at the widths they last had."""
    return (bound.bit_length() + _SLACK) // 64 * 8 + 8


def _linear_step(ops, lo, hi):
    """(times, n): times(q, s) is the packed q * (hi t + lo) in slots of s
    bits, for the vectors lo and hi, and n = n(hi) + n(lo)."""
    (low, n_lo), (high, n_hi) = ops.bounded(lo), ops.bounded(hi)
    shift, add = ops.shift, ops.add
    if not n_hi:
        return (lambda q, s: low(q)), n_lo
    if not n_lo:
        return (lambda q, s: shift(high(q), s)), n_hi
    return (lambda q, s: add(shift(high(q), s), low(q))), n_lo + n_hi


def _respace(v, n, w1, w2):
    """The packed vector v of n coefficients moved from slots of w1 bytes to
    slots of w2 bytes, each entry below 2^(8 min(w1, w2) - 1) in absolute
    value: biased by half that, every slot is a nonnegative number of
    min(w1, w2) bytes, copied byte for byte.  One slot is its own packing
    at every width."""
    if n == 1:
        return v
    w = min(w1, w2)
    half = 1 << (8 * w - 1)
    before, after = filled_slots(half, w1, n), filled_slots(half, w2, n)
    pad, span = bytes(w2 - w), range(0, n * w1, w1)
    out = []
    for z in v:
        raw = (z + before).to_bytes(n * w1, "little")
        out.append(int.from_bytes(pad.join([raw[i : i + w] for i in span]), "little") - after)
    return tuple(out)


def _unpack(v, n, w):
    """The n coefficient vectors of the packed vector v, slots of w bytes."""
    half = 1 << (8 * w - 1)
    bias, size = filled_slots(half, w, n), n * w
    raw = b"".join([(z + bias).to_bytes(size, "little") for z in v])
    flat = [int.from_bytes(raw[i : i + w], "little") - half for i in range(0, len(raw), w)]
    return [tuple(flat[i::n]) for i in range(n)]


class MoebiusTransform:
    """t -> (a t + b)/(c t + d); kept projectively (up to a common scalar)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, field, a, b, c, d):
        co = field.coerce
        self.a = co(a)
        self.b = co(b)
        self.c = co(c)
        self.d = co(d)

    @classmethod
    def identity(cls, field):
        return cls(field, 1, 0, 0, 1)

    @property
    def is_unit(self):
        return bool(self.a * self.d - self.b * self.c)

    @classmethod
    def _raw(cls, a, b, c, d):
        m = cls.__new__(cls)
        m.a = a
        m.b = b
        m.c = c
        m.d = d
        return m

    def proportional(self, other):
        """Projective equality: the coefficient vectors are proportional."""
        u = (self.a, self.b, self.c, self.d)
        v = (other.a, other.b, other.c, other.d)
        for i in range(4):
            for j in range(i + 1, 4):
                if u[i] * v[j] != u[j] * v[i]:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, MoebiusTransform):
            return NotImplemented
        try:
            return self.proportional(other)
        except TypeError:  # over fields whose elements do not combine
            return False

    __hash__ = None

    def render(self, var="t"):
        num = format_poly((self.b, self.a), var)
        den = format_poly((self.d, self.c), var)
        if den == "1":
            return num
        return f"({num})/({den})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"MoebiusTransform({self.render()!r})"


def moebius_from_three_points(field, pairs):
    """The unique Moebius transform with u(t_k) = s_k for three samples
    (t_k, s_k), the t_k pairwise distinct rationals and the s_k pairwise
    distinct, coerced into `field`; its last nonzero coordinate is 1.

    u = adj(B) A for the cross-ratio maps A and B that send t_1, t_2, t_3
    and s_1, s_2, s_3 to 0, 1, infinity: with p = s_2 - s_1, q = s_2 - s_3,
    x = t_2 - t_3 and y = t_2 - t_1, a = s_1 q y - s_3 p x,
    b = s_3 p t_1 x - s_1 q t_3 y, c = q y - p x and d = p t_1 x - q t_3 y,
    divided by d, or by c when d = 0: one inverse in the field.
    """
    if len(pairs) != 3:
        raise ValueError("exactly three samples are required")
    (t1, s1), (t2, s2), (t3, s3) = [(t, field.coerce(s)) for t, s in pairs]
    px, qy = (s2 - s1) * (t2 - t3), (s2 - s3) * (t2 - t1)
    mob = MoebiusTransform._raw(s1 * qy - s3 * px, s3 * px * t1 - s1 * qy * t3,
                                qy - px, px * t1 - qy * t3)
    if not mob.is_unit:
        raise InternalInvariantError("three-point fit produced a singular map")
    inv = field.one / (mob.d or mob.c)
    return MoebiusTransform._raw(mob.a * inv, mob.b * inv, mob.c * inv, mob.d * inv)


class Parametrization:
    """A tuple of rational functions of one parameter over a common field.

    Its record of distinct polynomials is built on first use: `polys` and
    `pairs`, then `vectors` and `products` in the order of `polys`.  A
    plane curve N_1/D, N_2/D has three polynomials, so whatever reads
    positions evaluates, composes or conjugates D once for both."""

    __slots__ = ("components", "_polys", "_pairs", "_vectors", "_products")

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise ValueError("a parametrization needs at least one component")
        field = comps[0].field
        for c in comps[1:]:
            if c.field != field:
                raise TypeError("components over different fields")
        self.components = comps
        self._polys = self._pairs = self._vectors = self._products = None

    @property
    def field(self):
        return self.components[0].field

    @property
    def polys(self):
        """The distinct numerators and denominators of the components, by
        equality, in order of first appearance."""
        if self._polys is None:
            polys = []
            for c in self.components:
                for part in (c.num, c.den):
                    if part not in polys:
                        polys.append(part)
            self._polys = tuple(polys)
        return self._polys

    @property
    def pairs(self):
        """Each component's (numerator, denominator) as positions in `polys`."""
        if self._pairs is None:
            index = self.polys.index
            self._pairs = tuple((index(c.num), index(c.den)) for c in self.components)
        return self._pairs

    @property
    def vectors(self):
        """Each of `polys` as its list of integral coefficient vectors of
        `integral_ops(field)`, ascending.  All are lifted over one positive
        common denominator E, which is dropped, so a component's two lists
        are its parts times E, and their ratio is the component."""
        if self._vectors is None:
            vecs = iter(integral_ops(self.field).lift([x for p in self.polys for x in p.coeffs])[0])
            self._vectors = tuple([next(vecs) for _ in p.coeffs] for p in self.polys)
        return self._vectors

    @property
    def products(self):
        """`vectors` as the products by each coefficient, in the form
        `moebius_composer`'s compose takes (`integral_ops(field).bounded`):
        the regular representation of each distinct coefficient and its
        norm are built once for psi, and every composition of it (each
        class's identity proof and its re-proof in `check_certificate`)
        shares them."""
        if self._products is None:
            bounded = integral_ops(self.field).bounded
            distinct = dict.fromkeys(v for vecs in self.vectors for v in vecs)
            built = {v: bounded(v) for v in distinct}
            self._products = tuple([built[v] for v in vecs] for vecs in self.vectors)
        return self._products

    @property
    def degree(self):
        return max(c.degree for c in self.components)

    def __len__(self):
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __eq__(self, other):
        if not isinstance(other, Parametrization):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def compose_moebius(self, mob):
        return Parametrization([c.compose_moebius(mob) for c in self.components])

    def conjugate(self, cls):
        """Apply alpha -> the class's root coefficient-wise; lands over the
        relative field.

        Conjugation is a field embedding, so it preserves coprimality and
        monic denominators, and it keeps distinct polynomials distinct: each
        of `polys` is conjugated once, the components are rebuilt without
        renormalizing, and `pairs` carries over.
        """
        rel = cls.relative_field
        polys = tuple(p.map_coeffs(cls.conjugate, rel) for p in self.polys)
        out = Parametrization([RatFunc._normalized(polys[n], polys[d]) for n, d in self.pairs])
        out._polys, out._pairs = polys, self.pairs
        return out

    def render(self, var="t"):
        return "(" + ", ".join(c.render(var) for c in self.components) + ")"

    def __str__(self):
        return self.render()
