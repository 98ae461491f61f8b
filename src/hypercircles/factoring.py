"""Exact factorization of squarefree polynomials.

One entry point, `factor_squarefree(h, field, step)`: the monic irreducible
factors of a monic squarefree h over the rationals or a number-field tower,
given that `step` divides the degree of each of them (1 always does).

* Over the rationals, Zassenhaus (`zz_factor_squarefree`) splits h's
  primitive integer multiple, after Musser (J. ACM 22, 1975) and Abbott,
  Shoup and Zimmermann (ISSAC 2000):
  - a polynomial f = P(x^e), e > 1 the gcd of the exponents of its nonzero
    terms, is deflated: P is factored, and each of its irreducible factors
    P_i gives a piece P_i(x^e) that the Zassenhaus core splits on its own.
    This is sound because P is primitive and squarefree with lc(P) =
    lc(f) > 0 (a square Q^2 dividing P gives Q(x^e)^2 dividing f); the
    pieces are pairwise coprime (A P_i + B P_j = 1 stays true at x^e), so
    every irreducible factor of f divides exactly one of them; and a
    degree step that divides the degree of every factor of f divides that
    of every factor of each piece, as those are factors of f.  A step s
    also gives P the step s / gcd(s, e), since each piece, of degree
    e deg P_i, is a product of factors of f.  Every Trager norm of a pure
    field x^n - c is such a P(x^e): m(y, x - ky) is homogeneous, so the
    norm is invariant under x -> zeta x.  A norm that the degree sets at
    its first admissible prime prove irreducible (the degree-20 norm of
    x^5 - 2) is returned before P is factored;
  - a piece is proven irreducible without the core where it can be
    (`_capelli_irreducible`).  For beta a root of P_i and m = deg P_i, the
    piece is irreducible exactly when x^e - beta is irreducible over
    Q(beta), as its roots theta have [Q(theta):Q] = [Q(theta):Q(beta)] m.
    By Capelli's theorem (Lang, Algebra, VI §9) that holds exactly when
    beta is not an l-th power in Q(beta) for each prime l | e, and, when
    4 | e, not in -4 Q(beta)^4.  Each condition, beta not in c Q(beta)^k,
    is proven by the norm, as N(beta / c) is then no k-th power in Q, or
    by a local witness: an odd prime p not dividing lc(P_i) disc(P_i) and
    a nonzero root r of P_i mod p with r / c no k-th power mod p.  Such a
    p makes Z_(p)[beta] the integral closure of Z_(p) in Q(beta) (its
    discriminant is a p-unit), so by Dedekind-Kummer x - r gives a prime
    P of degree 1 with beta = r mod P.  A gamma with gamma^k = beta / c
    is integral over Z_(p), as beta / c is, so it is P-integral, and its
    residue in F_p would be a k-th root of r / c.  A piece whose degree is
    below 2 * step is irreducible before any of this: each of its factors
    has a positive multiple of step as its degree;
  - the prime is chosen among a few admissible ones by the factor count of
    their distinct-degree factorizations, and only the chosen one is split
    into irreducibles (Cantor–Zassenhaus);
  - the subset-degree sums at the primes tried are intersected, which can
    prove f irreducible and prunes the subsets recombination visits;
  - the factors are lifted by quadratic Hensel steps in a binary tree, along
    a ladder of moduli that ends exactly at p^l;
  - a subset must pass two coefficient tests (its x^(d-1) coefficient
    against Mignotte's bound, its constant term against lc * f(0)) before
    any product is built, and a built factor is certified by the
    Landau–Mignotte bound.

* Over K = L(alpha), L the rationals or a tower, Trager's method (SYMSAC
  1976): shift by an integer multiple of alpha whose norm down to L is
  squarefree, factor the norm over L by the same function, and pull the
  factors back with gcds.  The shift is chosen on one image: at a totally
  split prime of K (`modp._split_primes`) the norm reduces at a degree-1
  prime of L to the product of n shifted images of h, one per embedding of
  K above it, and a squarefree product proves the norm squarefree
  (`_squarefree_norm`), so only the accepted shift's norm is built.  Every
  factor of that norm over L is the norm of a factor over K, so its degree
  is n = [K:L] times that factor's: the norm's step is step * n.  On a
  tower the steps multiply level by level, and the Zassenhaus run at the
  bottom gets step * [K:Q].  The gcds are taken with h(x - k alpha), which
  the shift search built, and only the gcds, of lower degree than the
  norm's factors, are shifted back.

`is_irreducible_rational(f)`, the parse-time check on a minimal
polynomial, takes a gcd with f' to prove f squarefree, then one
`zz_factor_squarefree` run: a pure x^n - c, such as x^6 - 2, is one piece
that the norm of c proves irreducible.
"""

import itertools
import random
from math import gcd as _int_gcd, isqrt

from .errors import InternalInvariantError
from .intpoly import (
    gf_ddf,
    gf_divmod,
    gf_edf,
    gf_eval,
    gf_from_zz,
    gf_gcdex,
    gf_is_squarefree,
    gf_monic,
    gf_mul,
    integer_schedule,
    primes,
    zz_add,
    zz_mul,
    zz_primitive,
    zz_sub,
    zz_trim,
)
from .modp import _split_primes, _values, poly_gcd
from .numberfield import from_power_sums, integral_ops, newton_sums
from .polynomials import UniPoly
from .rationals import RationalField

# ----------------------------------------------------------------------------
# Hensel lifting (quadratic, binary tree)


def _sym(a, m):
    """a mod m in the symmetric range (-m/2, m/2]."""
    a %= m
    return a - m if a > m // 2 else a


def _trunc(f, m):
    """Reduce coefficients into the symmetric range (-m/2, m/2] (the loop
    of `_sym`, inlined: Hensel lifting spends its time here)."""
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


def hensel_step(mm, f, g, h, s, t):
    """One quadratic Hensel step: from f = g*h (mod m), s*g + t*h = 1 (mod m)
    to the same relations mod mm, for any mm dividing m**2 (m itself is not
    needed), with h monic throughout."""
    e = _trunc(zz_sub(f, zz_mul(g, h)), mm)
    q, r = _divmod_mod(zz_mul(s, e), h, mm)
    gg = _trunc(zz_add(zz_add(g, zz_mul(t, e)), zz_mul(q, g)), mm)
    hh = _trunc(zz_add(h, r), mm)
    u = _trunc(zz_sub(zz_add(zz_mul(s, gg), zz_mul(t, hh)), [1]), mm)
    b, c = _divmod_mod(zz_mul(s, u), hh, mm)
    ss = _trunc(zz_sub(s, c), mm)
    tt = _trunc(zz_sub(zz_sub(t, zz_mul(t, u)), zz_mul(b, gg)), mm)
    return gg, hh, ss, tt


def _ladder(p, l):
    """The moduli p**e of a lift to p**l, for e running up the ladder
    1, ..., ceil(l/4), ceil(l/2), l: each at most the square of the one
    before, and the last exactly p**l."""
    exps = [l]
    while exps[-1] > 1:
        exps.append((exps[-1] + 1) // 2)
    return [p**e for e in reversed(exps)]


def hensel_lift(p, f, factors, l):
    """Lift monic factors of f mod p to factors mod p**l (binary tree).

    `f` has integer coefficients, lc(f) invertible mod p, and f mod p equals
    lc * prod(factors) with each factor monic mod p.  Each split is lifted
    along `_ladder(p, l)`, so no step works mod more than p**l.
    """
    r = len(factors)
    lc = f[-1]
    if r == 1:
        inv = pow(lc % p**l, -1, p**l)
        return [_trunc([a * inv for a in f], p**l)]
    k = r // 2
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
    for mm in _ladder(p, l)[1:]:
        g, h, s, t = hensel_step(mm, f, g, h, s, t)
    return hensel_lift(p, g, factors[:k], l) + hensel_lift(p, h, factors[k:], l)


# ----------------------------------------------------------------------------
# Zassenhaus over the integers


def _stable_seed(f, p):
    acc = p
    for a in f:
        acc = (acc * 1000003 + a) % (1 << 61)
    return acc


# admissible primes whose distinct-degree factorization is compared, and the
# factor count at which the first of them is taken without looking further
_PRIME_TRIES = 3
_FEW_FACTORS = 6


def _admissible_primes(f):
    """(p, f mod p made monic) for the primes p >= 3 not dividing lc(f) at
    which f stays squarefree: those admissible for Zassenhaus.

    Every prime skipped divides lc(f) disc(f) = +-Res(f, f'), which is
    nonzero for a squarefree f.  Hadamard's bound on the Sylvester matrix
    (n - 1 rows of f, n of f') gives |Res|^2 <= ||f||^(2(n-1)) ||f'||^(2n)
    < 2^b, and k distinct primes >= 3 have a product of at least 3^k, so
    8^k <= 9^k <= |Res|^2 < 2^b: at most b // 3 primes are skipped.  One
    more proves f not squarefree, and raises InternalInvariantError.
    """
    n = len(f) - 1
    lc = f[-1]
    norm_sq = sum(a * a for a in f)
    diff_sq = sum((i * a) ** 2 for i, a in enumerate(f))
    max_skips = ((n - 1) * norm_sq.bit_length() + n * diff_sq.bit_length()) // 3
    skipped = 0
    for p in primes(3):
        if lc % p:
            fp = gf_from_zz(f, p)
            if gf_is_squarefree(fp, p):
                yield p, gf_monic(fp, p)
                continue
        skipped += 1
        if skipped > max_skips:
            raise InternalInvariantError(
                f"f is not squarefree: {skipped} primes are inadmissible, "
                f"where a squarefree f has at most {max_skips}"
            )


def _subset_degrees(degrees):
    """Bit mask of the subset sums of `degrees` (bit d set when some subset
    of them sums to d)."""
    mask = 1
    for d in degrees:
        mask |= mask << d
    return mask


def _choose_prime(f, step=1, tries=_PRIME_TRIES):
    """(p, f's distinct-degree factorization mod p, allowed degree mask).

    Tries up to `tries` admissible primes, stopping early at one with
    at most _FEW_FACTORS modular factors, and keeps the first with the
    fewest.  The mask starts at the multiples of `step`, which divides the
    degree of every factor of f, and intersects the subset-degree sums over
    every prime tried: a factor of f over Z reduces to a product of modular
    factors at each prime, so its degree is a subset sum at each.
    """
    n = len(f) - 1
    allowed = sum(1 << d for d in range(0, n + 1, step))
    best = None
    for tried, (p, fp) in enumerate(_admissible_primes(f), 1):
        ddf = gf_ddf(fp, p)
        degrees = [d for part, d in ddf for _ in range((len(part) - 1) // d)]
        allowed &= _subset_degrees(degrees)
        if best is None or len(degrees) < best[0]:
            best = (len(degrees), p, ddf)
        if (
            tried == tries
            or len(degrees) <= _FEW_FACTORS
            or allowed == 1 | (1 << n)
        ):
            break
    return best[1], best[2], allowed


def _norm2_ceil(f):
    """The least integer at or above the Euclidean norm of f."""
    sq = sum(a * a for a in f)
    root = isqrt(sq)
    return root if root * root == sq else root + 1


def _coefficients_may_divide(top, const, d, lc, rest0, norm2, lc_f):
    """False when the candidate lc * prod(subset), of degree d, is the
    multiple (lc / lc(G)) * G of no factor G of the polynomial being split.

    `top` and `const` are the candidate's x^(d-1) and constant coefficients
    as symmetric residues mod p**l, `rest0` is the constant term of the
    polynomial being split, which divides f, and `norm2` and `lc_f` are an
    integer at or above ||f||_2 and lc(f).  `_zassenhaus` gives the
    soundness argument.
    """
    if abs(top) > abs(lc) * (norm2 + (d - 1) * lc_f):
        return False
    return rest0 == 0 or (const != 0 and lc * rest0 % const == 0)


def zz_factor_squarefree(f, step=1):
    """Irreducible integer factors of a primitive squarefree f, lc(f) > 0,
    given that `step` divides the degree of each of them.

    The step is 1 for an arbitrary f, and for a Trager norm it is the one
    `factor_squarefree` derives (the module docstring gives the rule).

    An f = P(x^e), e > 1 the gcd of its exponents, is first checked against
    the degree sets at its first admissible prime, which may prove it
    irreducible.  Otherwise P is factored by `_zassenhaus` with the step
    step / gcd(step, e).  A piece P_i(x^e) of degree at least 2 * step is
    then tried by Capelli's criterion (`_capelli_irreducible`): x^e - beta,
    beta a root of P_i, is irreducible over Q(beta) unless beta / c is a
    k-th power there, for (k, c) = (l, 1) with l a prime dividing e or
    (4, -4) when 4 | e, which the norm of beta / c or a local witness rules
    out.  The witness is a degree-1 prime P of Q(beta) at which beta / c
    has no k-th root mod P: a k-th root in Q(beta) would be P-integral, as
    beta / c is, and reduce to one.  A piece the criterion does not prove
    goes to `_zassenhaus` with `step`, as does a piece below 2 * step,
    which the core returns at once.  The module docstring gives the
    arguments.  Every other f goes to `_zassenhaus` as it is.
    """
    e = 0
    for i, a in enumerate(f):
        if a:
            e = _int_gcd(e, i)
    if e <= 1:
        return _zassenhaus(f, step)
    n = len(f) - 1
    if _choose_prime(f, step, 1)[2] == 1 | (1 << n):
        return [list(f)]
    out = []
    for g in _zassenhaus(f[::e], step // _int_gcd(step, e)):
        piece = [0] * (e * (len(g) - 1) + 1)
        piece[::e] = g
        if len(piece) - 1 >= 2 * step and _capelli_irreducible(g, e):
            out.append(piece)
        else:
            out.extend(_zassenhaus(piece, step))
    return out


def _is_power(a, b, k):
    """Whether the rational a / b, a and b nonzero integers, is the k-th
    power of a rational: a / b = a b^(k-1) / b^k with b > 0, and a
    rational k-th root of an integer is an integer."""
    if b < 0:
        a, b = -a, -b
    n = a * b ** (k - 1)
    if n < 0:
        if k % 2 == 0:
            return False
        n = -n
    # Newton's method from above converges to the integer k-th root
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r**k == n
        r = s


def _capelli_irreducible(g, e):
    """True when Capelli's criterion proves the piece g(x^e) irreducible,
    g irreducible and primitive with g(0) != 0; False when it cannot,
    which never claims that the piece is reducible.

    Each condition beta not in c Q(beta)^k, (k, c) = (l, 1) for the primes
    l | e and (4, -4) when 4 | e, is proven by the norm
    N(beta / c) = (-1)^m g(0) / (lc(g) c^m), m = deg g, when that is no
    k-th power in Q (which decides it when m = 1), or by a nonzero root r
    of g mod p with r / c no k-th power mod p, at one of g's first
    _PRIME_TRIES admissible primes p.  The module docstring gives the
    argument.
    """
    m = len(g) - 1
    conditions = [
        (l, 1) for l in range(2, e + 1) if e % l == 0 and all(l % q for q in range(2, l))
    ]
    if e % 4 == 0:
        conditions.append((4, -4))
    conditions = [
        (k, c) for k, c in conditions if _is_power((-1) ** m * g[0], g[-1] * c**m, k)
    ]
    if m == 1 or not conditions:
        return not conditions
    for p, gp in itertools.islice(_admissible_primes(g), _PRIME_TRIES):
        roots = [r for r in range(1, p) if gf_eval(gp, r, p) == 0]
        conditions = [
            (k, c)
            for k, c in conditions
            if all(
                pow(r * pow(c, -1, p), (p - 1) // _int_gcd(k, p - 1), p) == 1
                for r in roots
            )
        ]
        if not conditions:
            return True
    return False


def _zassenhaus(f, step):
    """`zz_factor_squarefree` with no deflation: the Zassenhaus core.

    Zassenhaus's method:

    * Prime choice.  Up to _PRIME_TRIES admissible primes p (p does not
      divide lc(f) and f mod p is squarefree) are compared by their
      distinct-degree factorization alone; the first with the fewest
      factors is split into irreducibles (`gf_edf`), and a first prime with
      at most _FEW_FACTORS factors ends the comparison.
    * Degree sets.  A factor of f reduces to a product of modular factors
      at every prime, so its degree is a subset-degree sum at each prime
      tried, and a multiple of `step`.  The intersection of those sets is
      `allowed`; {0, n} proves f irreducible with no lift.  A subset is
      skipped unless both its degree and the cofactor's lie in `allowed`.
      An f of degree below 2 * step is returned before any prime: each of
      its factors has a positive multiple of `step` as its degree.
    * Lifting.  The factors are lifted to monic factors mod p**l by
      `hensel_lift` along its ladder of moduli, where p**l > 2 * B and B
      is the Landau-Mignotte bound (isqrt(n+1)+1) * 2**n * max|a_i| * lc.
    * Recombination.  While f is split, `rest` is the part still to split
      and rest = lc * prod(live factors) (mod p**l) with lc = lc(rest).  If
      a subset S of degree d belongs to a primitive factor G of rest over
      Z, the candidate lc * prod(S) is congruent to (lc / lc(G)) * G, an
      integer polynomial whose coefficients the two tests below know:
      - the x^(d-1) test: the lifted factors are monic, so the candidate's
        x^(d-1) coefficient is lc times the sum of the factors' x^(d_i-1)
        coefficients.  G divides f, so Mignotte's bound (Knuth, TAOCP
        vol. 2, 4.6.2) gives |G_(d-1)| <= ||f||_2 + (d-1) * lc(f), and the
        true value is at most cap = |lc| * (||f||_2 + (d-1) * lc(f)) in
        size (with ||f||_2 rounded up);
      - the constant test, when rest(0) != 0: the candidate's constant
        term c = (lc / lc(G)) * G(0) is nonzero and divides lc * rest(0),
        since G(0) divides rest(0) and lc(G) divides lc.
      With a = max|a_i|: |lc| <= lc(f) <= a, ||f||_2 <= sqrt(n+1) * a and
      d <= n - 1 give cap <= lc(f) * a * (isqrt(n+1) + 1 + n) <= B, and
      |c| <= lc(f) * |f(0)| <= B.  As B < p**l / 2, the symmetric residues
      of a true factor's coefficients are their values, so a subset that
      fails either test belongs to no factor.  The tests and the degree
      sets only skip subsets that cannot be factors, so the factors found
      are the same.
    * Certificate.  A subset that passes gets both products built, and is
      accepted when ||g||_1 * ||h||_1 <= B, which proves g * h = lc * rest
      over Z.
    """
    n = len(f) - 1
    if n <= 0:
        return []
    if n < 2 * step:
        return [list(f)]
    lc = f[-1]
    a_max = max(abs(a) for a in f)
    # Landau-Mignotte: any factor's coefficients are bounded by this.
    bound = (isqrt(n + 1) + 1) * (1 << n) * a_max * abs(lc)
    p, ddf, allowed = _choose_prime(f, step)
    if allowed == 1 | (1 << n):
        return [list(f)]
    l = 1
    pl = p
    while pl <= 2 * bound:
        pl *= p
        l += 1
    rng = random.Random(_stable_seed(f, p))
    modular = sorted(fac for part, d in ddf for fac in gf_edf(part, d, p, rng))
    if len(modular) == 1:
        return [list(f)]
    lifted = hensel_lift(p, list(f), modular, l)
    degrees = [len(g) - 1 for g in lifted]
    tops = [g[-2] for g in lifted]
    consts = [g[0] for g in lifted]
    norm2 = _norm2_ceil(f)
    # Subset recombination over the lifted factors.
    out = []
    rest = list(f)
    live = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(live):
        lcr = rest[-1]
        rest_deg = len(rest) - 1
        for combo in itertools.combinations(live, s):
            d = sum(degrees[i] for i in combo)
            if not (allowed >> d) & (allowed >> (rest_deg - d)) & 1:
                continue
            top = _sym(lcr * sum(tops[i] for i in combo), pl)
            const = lcr
            if rest[0]:
                for i in combo:
                    const = const * consts[i] % pl
                const = _sym(const, pl)
            if not _coefficients_may_divide(
                top, const, d, lcr, rest[0], norm2, lc
            ):
                continue
            g = [lcr]
            for i in combo:
                g = _trunc(zz_mul(g, lifted[i]), pl)
            h = [lcr]
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
                break
        else:
            s += 1
    if len(rest) > 1:
        out.append(rest)
    return out


# ----------------------------------------------------------------------------
# the entry points


def _primitive_ints(f):
    """The primitive integer coefficient list of a rational polynomial."""
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // _int_gcd(den, c.denominator)
    return zz_primitive([c.numerator * (den // c.denominator) for c in f.coeffs])[1]


def _monic_over_qq(f, qq):
    """The integer polynomial f made monic over the rationals `qq`."""
    lc = f[-1]
    return UniPoly._raw(qq, [qq(c, lc) for c in f])


def is_irreducible_rational(f):
    """Whether f, over the rationals, is irreducible: of positive degree,
    squarefree (coprime to f'), and one `zz_factor_squarefree` factor."""
    if f.degree < 1 or poly_gcd(f, f.derivative()).degree > 0:
        return False
    return len(zz_factor_squarefree(_primitive_ints(f.monic()))) == 1


def _norm_poly(h, field):
    """Norm of a monic h in K[x], K = L(alpha), down to L[x].

    N(h) is the product of the conjugates h^sigma (alpha -> alpha_j) over L,
    so its roots are those of all the conjugates together.  The k-th power
    sum s_k(h) of h's roots is a polynomial with coefficients in L in h's
    coefficients (Newton's identities), so s_k(h^sigma) = sigma(s_k(h)) and
    the k-th power sum of N(h)'s roots is Tr(s_k(h)).  Power sums fix only
    the monic polynomial with those roots, and N(h) is monic exactly when h
    is (its leading coefficient is N(lc h)): hence h must be monic.
    """
    count = field.degree * h.degree + 1
    sums = [s.trace() for s in newton_sums(h, count)]
    return from_power_sums(sums, field.base)


def _gf_taylor(f, c, p):
    """f(x - c) mod p, by Horner's rule in x - c."""
    out = []
    for a in reversed(f):
        nxt = [0] + out
        for i, b in enumerate(out):
            nxt[i] -= c * b
        nxt[0] += a
        out = [v % p for v in nxt]
    return out


def _split_images(h, field):
    """(p, values, images) at K's first admissible totally split prime p,
    K = `field` of degree n over L: at the n embeddings of K into F_p that
    extend the first embedding of L, the values of alpha and the images of
    the monic h, all squarefree.  A record of `modp._split_primes` is
    admissible when p divides neither the common denominator of h's
    coefficients nor alpha's, and every image is squarefree mod p."""
    n = field.degree
    vecs, den = integral_ops(field).lift(h.coeffs)
    gen = field.gen
    for sp in _split_primes(field):
        p = sp.p
        if den % p == 0 or gen.den % p == 0:
            continue
        rows = sp.rows[:n]
        images = [gf_monic(f, p) for f in _values(rows, vecs, p)]
        if all(gf_is_squarefree(f, p) for f in images):
            inv = pow(gen.den, -1, p)
            values = [v * inv % p for (v,) in _values(rows, [gen.ic], p)]
            return p, values, images


def _squarefree_norm(h, field):
    """(k, H, N): a shift k, the first of 0, 1, -1, 2, -2, ... whose image
    below is squarefree, H = h(x - k*alpha), and the norm N of H down to
    the base field L, monic over L and squarefree.

    The image.  At K's first admissible split prime p (`_split_images`)
    the first embedding of L is a degree-1 prime P of L that splits
    completely in K, so K tensor L_P is Q_p^n, one factor per embedding e
    of K above P, and N is the product over e of h(x - k alpha) mapped
    into the e-th factor.  p divides neither denominator, so h and alpha
    are integral at every prime above P: N is monic and P-integral, and
    reduces mod P to the image prod_e h_e(x - k a_e), h_e and a_e the
    images of h and alpha mod p at e.  A square g**2 dividing N, g monic,
    has P-integral coefficients (its roots are N's) and would reduce to a
    square of positive degree dividing the image: a squarefree image
    proves N squarefree, and only the accepted shift's N is built.

    The bound.  The image is squarefree unless r + k a_e = r' + k a_e' for
    roots r of h_e and r' of h_e', e != e', as each h_e is squarefree.
    The a_e are distinct mod p, so each such pair of roots rules out at
    most one k mod p: among the first (n deg h)**2 + 1 shifts one is good,
    as they are distinct mod p while their count is below p (split primes
    start at 2**20).
    """
    p, values, images = _split_images(h, field)
    tries = (field.degree * h.degree) ** 2 + 1
    for k in itertools.islice(integer_schedule(), tries):
        image = [1]
        for f, a in zip(images, values):
            image = gf_mul(image, _gf_taylor(f, k * a, p), p)
        if gf_is_squarefree(image, p):
            break
    else:
        raise InternalInvariantError(f"no squarefree image among {tries} shifts")
    shifted = h
    if k != 0:
        ka = field.coerce(k) * field.gen
        shifted = h.compose(UniPoly._raw(field, [-ka, field.one]))
    return k, shifted, _norm_poly(shifted, field)


def factor_squarefree(h, field, step=1):
    """Monic irreducible factors of a monic squarefree h over `field`,
    sorted by degree and then by text, given that `step` divides the degree
    of each of them.

    Over the rationals they are the Zassenhaus factors of h's primitive
    integer multiple.  Over K = L(alpha) the squarefree norm of
    H = h(x - k alpha) is factored over L by this function, with the step
    step * [K:L]; each factor F gives the factor gcd(H, F) of H, and that
    gcd at x + k alpha is one of h.  x -> x - k alpha is a ring
    automorphism of K[x], so the last step gives gcd(h, F(x + k alpha))
    while shifting only the gcd."""
    if isinstance(field, RationalField):
        ints = zz_factor_squarefree(_primitive_ints(h), step)
        out = [_monic_over_qq(fac, field) for fac in ints]
    elif h.degree == 1:
        return [h]
    else:
        k, shifted, norm = _squarefree_norm(h, field)
        nfactors = factor_squarefree(norm, field.base, step * field.degree)
        if len(nfactors) == 1:
            return [h]
        out = []
        back = None
        if k != 0:
            ka = field.coerce(k) * field.gen
            back = UniPoly._raw(field, [ka, field.one])  # x + k*alpha
        for fac in nfactors:
            g = poly_gcd(shifted, fac.map_into(field))
            if g.degree > 0:
                out.append(g if back is None else g.compose(back))
        if sum(g.degree for g in out) != h.degree:
            raise InternalInvariantError("norm factorization did not cover h")
    out.sort(key=lambda q: (q.degree, str(q)))
    return out
