"""Dense polynomial helpers over Z and over F_p.

Polynomials are plain lists of ints in ascending order (index i holds the
x^i coefficient) with no trailing zeros; the empty list is the zero
polynomial.  The `zz_*` routines work over Z and back the Zassenhaus
factorization, where staying in plain ints avoids per-operation rational
normalization.  The `gf_*` routines (values in [0, p)) are the one F_p
toolkit: Zassenhaus's distinct- and equal-degree splitting and Hensel
seeds, Trager's shift test on one image at a totally split prime, and the
modular gcd (`modp.nf_gcd`), which runs on them at totally split primes,
where its per-embedding images are gcds over F_p and its split test is
root finding; its p-adic lift also runs `gf_diff` and `gf_eval` mod p.
`filled_slots` is the bias of Kronecker packing, where one int holds a
polynomial's coefficients in slots of w bytes.  `primes`, on top of
`is_prime`, is the one source of every prime the modular code picks: the
small ones of the Zassenhaus search and the split primes of the gcd and of
the shift test.  `integer_schedule` is the one integer sequence, of Trager
shifts and of sampled parameters.
"""

from math import gcd as _int_gcd


def zz_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def zz_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return zz_trim(out)


def zz_sub(f, g):
    out = list(f)
    if len(out) < len(g):
        out.extend([0] * (len(g) - len(out)))
    for i, b in enumerate(g):
        out[i] -= b
    return zz_trim(out)


def zz_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return zz_trim(out)


def zz_content(f):
    c = 0
    for a in f:
        c = _int_gcd(c, a)
        if c == 1:
            return 1
    return c


def zz_primitive(f):
    """Return (content, f/content) with the sign normalized into the content."""
    if not f:
        return 0, []
    c = zz_content(f)
    if f[-1] < 0:
        c = -c
    if c == 1:
        return 1, list(f)
    return c, [a // c for a in f]


# ----------------------------------------------------------------------------
# arithmetic mod a prime (dense ascending int lists, values in [0, p))


def filled_slots(x, w, n):
    """The int whose n little-endian slots of w bytes each hold x,
    0 <= x < 2^(8w): added to a packed int whose slots lie in [-x, x], it
    makes every slot nonnegative, so that `to_bytes` reads them."""
    return int.from_bytes(x.to_bytes(w, "little") * n, "little")


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


def gf_eval(f, x, p):
    """f(x) mod p, by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact for n < 3.18e23."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes(start=2):
    """The primes >= start, in increasing order (an endless generator)."""
    if start <= 2:
        yield 2
        start = 3
    k = start | 1
    while True:
        if is_prime(k):
            yield k
        k += 2


def integer_schedule():
    """The integers 0, 1, -1, 2, -2, ... (an endless generator): the Trager
    shifts and the candidate parameters of the hypercircle search."""
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1
