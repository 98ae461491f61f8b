"""Dense integer-coefficient polynomial helpers.

Polynomials are plain lists of ints in ascending order (index i holds the
x^i coefficient) with no trailing zeros; the empty list is the zero
polynomial.  These routines back the fast rational gcd path and the
factorization machinery, where staying in plain ints avoids per-operation
rational normalization.  `primes`, on top of `is_prime`, is the one source
of every prime the modular code picks: the small ones of the Zassenhaus
search and the word-size ones of the number-field gcd.
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


def zz_prem(f, g):
    """Pseudo-remainder of f by g: lc(g)^(deg f - deg g + 1) * f mod g."""
    df = len(f) - 1
    dg = len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero polynomial")
    r = list(f)
    if df < dg:
        return r
    lg = g[-1]
    n = df - dg + 1
    while len(r) - 1 >= dg:
        n -= 1
        lr = r[-1]
        r = [lg * a for a in r[:-1]]
        shift = len(r) - dg
        for i in range(dg):
            r[shift + i] -= lr * g[i]
        zz_trim(r)
    if n > 0:
        c = lg**n
        r = [c * a for a in r]
    return r


def zz_gcd(f, g):
    """Primitive-PRS gcd over the integers, result primitive with lc > 0."""
    f = zz_trim(list(f))
    g = zz_trim(list(g))
    if not f:
        _, out = zz_primitive(g)
        return out
    if not g:
        _, out = zz_primitive(f)
        return out
    cf, f = zz_primitive(f)
    cg, g = zz_primitive(g)
    c = _int_gcd(cf, cg)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = zz_prem(f, g)
        _, r = zz_primitive(r)
        f, g = g, r
    if c != 1:
        f = [c * a for a in f]
    return f


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
