"""Exact polynomial factorization.

Two entry points:

* `factor_rational(f)` — complete factorization over the rationals:
  squarefree decomposition (Yun), then for each squarefree part a classical
  Zassenhaus run — reduction mod a good small prime, Cantor–Zassenhaus
  splitting, quadratic Hensel lifting in a binary tree, and subset
  recombination certified by the Landau–Mignotte bound.

* `factor_over_nf(f, K)` — factorization over a simple number field Q(alpha)
  by Trager's method: shift by integer multiples of alpha until the norm is
  squarefree, factor the norm over Q, and pull factors back with gcds.

Both return `(unit, [(monic_factor, multiplicity), ...])` with the unit in
the coefficient field, so unit * prod(factor^mult) reproduces the input.
"""

import itertools
import random
from math import gcd as _int_gcd, isqrt

from .errors import InstanceError, InternalInvariantError
from .intpoly import primes, zz_add, zz_mul, zz_primitive, zz_sub, zz_trim
from .numberfield import from_power_sums, newton_sums
from .polynomials import UniPoly, is_squarefree, poly_gcd
from .rationals import RationalField

# ----------------------------------------------------------------------------
# arithmetic mod a small prime (dense ascending int lists, values in [0, p))


def gf_from_zz(f, p):
    return zz_trim([a % p for a in f])


def gf_sub(f, g, p):
    out = list(f)
    if len(out) < len(g):
        out.extend([0] * (len(g) - len(out)))
    for i, b in enumerate(g):
        out[i] = (out[i] - b) % p
    return zz_trim(out)


def gf_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return zz_trim([c % p for c in out])


def gf_mul_scalar(f, c, p):
    c %= p
    if c == 0:
        return []
    return zz_trim([(a * c) % p for a in f])


def gf_monic(f, p):
    if not f or f[-1] == 1:
        return list(f)
    inv = pow(f[-1], -1, p)
    return [(a * inv) % p for a in f]


def gf_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("gf division by zero")
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        return [], list(f)
    inv = pow(g[-1], -1, p)
    rem = list(f)
    q = [0] * (df - dg + 1)
    for i in range(df - dg, -1, -1):
        c = (rem[i + dg] * inv) % p
        if c:
            q[i] = c
            for j in range(dg):
                rem[i + j] = (rem[i + j] - c * g[j]) % p
        rem[i + dg] = 0
    return zz_trim(q), zz_trim(rem)


def gf_rem(f, g, p):
    return gf_divmod(f, g, p)[1]


def gf_gcd(f, g, p):
    a, b = list(f), list(g)
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_gcdex(f, g, p):
    """(s, t, h) with s*f + t*g = h = monic gcd(f, g) mod p."""
    a, b = list(f), list(g)
    sa, sb = [1], []
    ta, tb = [], [1]
    while b:
        q, r = gf_divmod(a, b, p)
        a, b = b, r
        sa, sb = sb, gf_sub(sa, gf_mul(q, sb, p), p)
        ta, tb = tb, gf_sub(ta, gf_mul(q, tb, p), p)
    if not a:
        return sa, ta, a
    inv = pow(a[-1], -1, p)
    return (
        gf_mul_scalar(sa, inv, p),
        gf_mul_scalar(ta, inv, p),
        gf_monic(a, p),
    )


def gf_diff(f, p):
    return zz_trim([(i * f[i]) % p for i in range(1, len(f))])


def gf_pow_mod(f, e, mod, p):
    out = [1]
    base = gf_rem(f, mod, p)
    while e:
        if e & 1:
            out = gf_rem(gf_mul(out, base, p), mod, p)
        e >>= 1
        if e:
            base = gf_rem(gf_mul(base, base, p), mod, p)
    return out


def gf_is_squarefree(f, p):
    d = gf_diff(f, p)
    if not d:
        return False
    return len(gf_gcd(f, d, p)) == 1


def _stable_seed(f, p):
    acc = p
    for a in f:
        acc = (acc * 1000003 + a) % (1 << 61)
    return acc


def gf_ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f mod p.

    Returns [(product_of_irreducibles_of_degree_d, d), ...] in increasing d.
    """
    out = []
    h = [0, 1]
    x = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = gf_pow_mod(h, p, f, p)
        g = gf_gcd(f, gf_sub(h, x, p), p)
        if len(g) > 1:
            out.append((g, d))
            f = gf_divmod(f, g, p)[0]
            h = gf_rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def gf_edf(f, d, p, rng):
    """Equal-degree splitting (Cantor-Zassenhaus, odd p) of monic f whose
    irreducible factors all have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    out = []
    stack = [f]
    e = (p**d - 1) // 2
    while stack:
        g = stack.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        while True:
            r = zz_trim([rng.randrange(p) for _ in range(len(g) - 1)])
            if not r:
                continue
            s = gf_pow_mod(r, e, g, p)
            s = gf_sub(s, [1], p)
            h = gf_gcd(g, s, p)
            if 1 < len(h) < len(g):
                stack.append(h)
                stack.append(gf_divmod(g, h, p)[0])
                break
    return out


def gf_factor_squarefree(f, p, rng):
    """Monic irreducible factors of a monic squarefree f mod p."""
    out = []
    for part, d in gf_ddf(f, p):
        out.extend(gf_edf(part, d, p, rng))
    out.sort()
    return out


# ----------------------------------------------------------------------------
# Hensel lifting (quadratic, binary tree)


def _trunc(f, m):
    """Reduce coefficients into the symmetric range (-m/2, m/2]."""
    half = m // 2
    out = []
    for a in f:
        a %= m
        if a > half:
            a -= m
        out.append(a)
    return zz_trim(out)


def _divmod_mod(f, g, m):
    """divmod of f by g with arithmetic mod m, both parts in the symmetric
    range; g's lc must be invertible mod m."""
    q, r = gf_divmod(f, g, m)
    return _trunc(q, m), _trunc(r, m)


def hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: from f = g*h (mod m), s*g + t*h = 1 (mod m)
    to the same relations mod m**2, with h monic throughout."""
    mm = m * m
    e = _trunc(zz_sub(f, zz_mul(g, h)), mm)
    q, r = _divmod_mod(zz_mul(s, e), h, mm)
    gg = _trunc(zz_add(zz_add(g, zz_mul(t, e)), zz_mul(q, g)), mm)
    hh = _trunc(zz_add(h, r), mm)
    u = _trunc(zz_sub(zz_add(zz_mul(s, gg), zz_mul(t, hh)), [1]), mm)
    b, c = _divmod_mod(zz_mul(s, u), hh, mm)
    ss = _trunc(zz_sub(s, c), mm)
    tt = _trunc(zz_sub(zz_sub(t, zz_mul(t, u)), zz_mul(b, gg)), mm)
    return gg, hh, ss, tt


def hensel_lift(p, f, factors, l):
    """Lift monic factors of f mod p to factors mod p**l (binary tree).

    `f` has integer coefficients, lc(f) invertible mod p, and f mod p equals
    lc * prod(factors) with each factor monic mod p.
    """
    r = len(factors)
    lc = f[-1]
    if r == 1:
        inv = pow(lc % p**l, -1, p**l)
        return [_trunc([a * inv for a in f], p**l)]
    m = p
    k = r // 2
    d = (l - 1).bit_length()
    g = [lc % p]
    for fac in factors[:k]:
        g = gf_mul(g, fac, p)
    h = factors[k][:]
    for fac in factors[k + 1 :]:
        h = gf_mul(h, fac, p)
    s, t, one = gf_gcdex(g, h, p)
    if len(one) != 1:
        raise InternalInvariantError("hensel seed factors are not coprime")
    g, h, s, t = _trunc(g, p), _trunc(h, p), _trunc(s, p), _trunc(t, p)
    for _ in range(d):
        g, h, s, t = hensel_step(m, f, g, h, s, t)
        m = m * m
    return hensel_lift(p, g, factors[:k], l) + hensel_lift(p, h, factors[k:], l)


# ----------------------------------------------------------------------------
# Zassenhaus over the integers


def zz_factor_squarefree(f):
    """Irreducible integer factors of a primitive squarefree f, lc(f) > 0."""
    n = len(f) - 1
    if n <= 0:
        return []
    if n == 1:
        return [list(f)]
    lc = f[-1]
    a_max = max(abs(a) for a in f)
    # Landau-Mignotte: any factor's coefficients are bounded by this.
    bound = (isqrt(n + 1) + 1) * (1 << n) * a_max * abs(lc)
    for p in primes(3):
        if lc % p == 0:
            continue
        fp = gf_from_zz(f, p)
        if len(fp) - 1 == n and gf_is_squarefree(fp, p):
            break
    l = 1
    pl = p
    while pl <= 2 * bound:
        pl *= p
        l += 1
    rng = random.Random(_stable_seed(f, p))
    modular = gf_factor_squarefree(gf_monic(fp, p), p, rng)
    if len(modular) == 1:
        return [list(f)]
    lifted = hensel_lift(p, list(f), modular, l)
    # Subset recombination over the lifted factors.
    out = []
    rest = list(f)
    live = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(live):
        found = True
        while found:
            found = False
            for combo in itertools.combinations(live, s):
                g = [rest[-1]]
                for i in combo:
                    g = _trunc(zz_mul(g, lifted[i]), pl)
                h = [rest[-1]]
                for i in live:
                    if i not in combo:
                        h = _trunc(zz_mul(h, lifted[i]), pl)
                g_norm = sum(abs(a) for a in g)
                h_norm = sum(abs(a) for a in h)
                if g_norm * h_norm <= bound:
                    _, g = zz_primitive(g)
                    _, h = zz_primitive(h)
                    out.append(g)
                    rest = h
                    live = [i for i in live if i not in combo]
                    found = s * 2 <= len(live)
                    break
            if not found:
                break
        s += 1
    if len(rest) > 1:
        out.append(rest)
    return out


# ----------------------------------------------------------------------------
# squarefree decomposition (Yun) over any characteristic-zero field


def squarefree_decomposition(f):
    """[(monic squarefree part, multiplicity), ...] for a monic f."""
    out = []
    d = f.derivative()
    a = poly_gcd(f, d)
    if a.degree == 0:
        return [(f, 1)]
    b = f // a
    c = d // a
    w = c - b.derivative()
    k = 1
    while True:
        if w.is_zero:
            if b.degree > 0:
                out.append((b, k))
            break
        a = poly_gcd(b, w)
        if a.degree > 0:
            out.append((a, k))
        b = b // a
        c = w // a
        w = c - b.derivative()
        k += 1
        if b.degree == 0:
            break
    return out


# ----------------------------------------------------------------------------
# public entry points


def _qq_int_coeffs(f):
    """Integer coefficient list proportional to f (denominators cleared)."""
    den = 1
    for c in f.coeffs:
        q = c.denominator
        if q != 1:
            den = den * q // _int_gcd(den, q)
    return [c.numerator * (den // c.denominator) for c in f.coeffs]


def factor_rational(f):
    """Factor f over the rationals: (unit, [(monic irreducible, mult), ...])."""
    field = f.field
    if not isinstance(field, RationalField):
        raise TypeError("factor_rational expects a polynomial over QQ")
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lc
    if f.degree == 0:
        return unit, []
    mon = f.monic()
    out = []
    for part, mult in squarefree_decomposition(mon):
        ints = _qq_int_coeffs(part)
        _, prim = zz_primitive(ints)
        for fac in zz_factor_squarefree(prim):
            lc = fac[-1]
            out.append(
                (UniPoly._raw(field, [field(c, lc) for c in fac]), mult)
            )
    out.sort(key=lambda fm: (fm[0].degree, [str(c) for c in fm[0].coeffs]))
    return unit, out


def is_irreducible_rational(f):
    if f.degree < 1:
        return False
    _, factors = factor_rational(f)
    return len(factors) == 1 and factors[0][1] == 1


def factor_over_nf(f, field):
    """Factor f over a simple extension Q(alpha) by Trager's method.

    Returns (unit, [(monic irreducible over Q(alpha), mult), ...]).
    """
    if f.field is not field:
        f = f.map_into(field)
    if not isinstance(field.base, RationalField):
        raise InstanceError(
            "factorization over relative extensions is not supported"
        )
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lc
    if f.degree == 0:
        return unit, []
    out = []
    for part, mult in squarefree_decomposition(f.monic()):
        for fac in _trager_squarefree(part, field):
            out.append((fac, mult))
    out.sort(key=lambda fm: (fm[0].degree, str(fm[0])))
    return unit, out


def _norm_poly(h, field):
    """Norm of a monic h in Q(alpha)[x] down to Q[x].

    N(h) is the product of the n conjugates h^sigma (alpha -> alpha_j), so
    its roots are those of all the conjugates together.  The k-th power sum
    s_k(h) of h's roots is a polynomial with rational coefficients in h's
    coefficients (Newton's identities), so s_k(h^sigma) = sigma(s_k(h)) and
    the k-th power sum of N(h)'s roots is Tr(s_k(h)).  Power sums fix only
    the monic polynomial with those roots, and N(h) is monic exactly when h
    is (its leading coefficient is N(lc h)): hence h must be monic.
    """
    count = field.degree * h.degree + 1
    sums = [s.trace() for s in newton_sums(h, count)]
    return from_power_sums(sums, field.base)


def _trager_squarefree(h, field):
    """Irreducible factors of a monic squarefree h over Q(alpha)."""
    if h.degree == 1:
        return [h]
    alpha = field.gen
    shifts = itertools.chain([0], (s for k in itertools.count(1) for s in (k, -k)))
    for k in shifts:
        if k == 0:
            shifted = h
        else:
            ka = field.coerce(k) * alpha
            move = UniPoly._raw(field, [-ka, field.one])  # x - k*alpha
            shifted = h.compose(move)
        norm = _norm_poly(shifted, field)
        if not is_squarefree(norm):
            continue
        _, nfactors = factor_rational(norm)
        if len(nfactors) == 1:
            return [h]
        out = []
        back = None
        if k != 0:
            ka = field.coerce(k) * alpha
            back = UniPoly._raw(field, [ka, field.one])  # x + k*alpha
        total = 0
        for nf, _ in nfactors:
            cand = nf.map_into(field)
            if back is not None:
                cand = cand.compose(back)
            g = poly_gcd(h, cand)
            if g.degree > 0:
                out.append(g)
                total += g.degree
        if total != h.degree:
            raise InternalInvariantError("norm factorization did not cover h")
        out.sort(key=lambda q: (q.degree, str(q)))
        return out
    raise InternalInvariantError("unreachable: ran out of Trager shifts")
