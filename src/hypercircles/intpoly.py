"""Dense integer-coefficient polynomial helpers.

Polynomials are plain lists of ints in ascending order (index i holds the
x^i coefficient) with no trailing zeros; the empty list is the zero
polynomial.  These routines back the Zassenhaus factorization, where
staying in plain ints avoids per-operation rational normalization; no gcd
of polynomials lives here (that is `modp.nf_gcd`, over every field).
`primes`, on top of `is_prime`, is the one source of every prime the
modular code picks: the small ones of the Zassenhaus search and the
word-size ones of the gcd.
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
