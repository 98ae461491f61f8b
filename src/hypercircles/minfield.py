"""Minimum field of definition for curves that fail K-definability.

When some conjugations move the curve, the curve is still defined over the
fixed field L of the conjugations that do fix it (Weil, Amer. J. Math. 78
(1956)).  Over the ground field Q this module computes L explicitly from the
fixing classes' factors: M_L(x) = (x - alpha) * prod f_c(x) over those
classes is alpha's minimal polynomial over L, and its coefficients generate
L (van Hoeij, Kluners and Novocin, J. Symbolic Comput. 52 (2013)).  The
result is a Q-basis of L, a primitive element, its minimal polynomial, and
M_L itself; [L:Q] * deg M_L = [K(alpha):Q] is checked, which proves M_L is
alpha's minimal polynomial over L.
"""

import itertools

from .errors import InstanceError, InternalInvariantError
from .modp import poly_gcd
from .polynomials import UniPoly
from .rationals import RationalField


class FixedField:
    """The fixed field L inside `field`: a Q-basis, a primitive element and
    its minimal polynomial, and M_L, alpha's minimal polynomial over L
    with coefficients in K(alpha) (`relative_minpoly`)."""

    def __init__(self, field, basis, primitive, primitive_minpoly, relative_minpoly):
        self.field = field
        self.basis = basis
        self.primitive = primitive
        self.primitive_minpoly = primitive_minpoly
        self.relative_minpoly = relative_minpoly

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine = self.field, self.basis, self.primitive, self.primitive_minpoly, self.relative_minpoly
        return mine == (
            other.field, other.basis, other.primitive, other.primitive_minpoly, other.relative_minpoly
        )

    __hash__ = None

    @property
    def degree(self):
        return len(self.basis)

    @property
    def relative_degree(self):
        return self.field.degree // self.degree

    @property
    def is_rational(self):
        return self.degree == 1

    @property
    def is_whole_field(self):
        return self.degree == self.field.degree


def _is_rational(x):
    return not any(x.coords[1:])


def _minimal_polynomial(x):
    """Minimal polynomial over Q of an element of a simple extension of Q:
    the characteristic polynomial is mu^(n / deg mu), so mu is its
    squarefree part."""
    cp = x.charpoly()
    return cp // poly_gcd(cp, cp.derivative())


def _algebra_rows(field, gens):
    """The Q-algebra that `gens` generate in K(alpha), as the reduced row
    echelon form of its coordinate vectors with the columns reversed.  The
    span starts at 1, and each element that raises its rank is multiplied
    by every generator, until no product does: the span is then closed
    under the generators, so it is the algebra."""
    rows = {}  # pivot column -> row; each row is zero at the other pivots
    queue = [field.one]
    while queue:
        e = queue.pop()
        v = e.coords[::-1]
        for p, row in rows.items():
            f = v[p]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        p = next((i for i, c in enumerate(v) if c), None)
        if p is None:
            continue
        f = v[p]
        v = [c / f for c in v]
        for q, row in rows.items():
            f = row[p]
            if f:
                rows[q] = [a - f * b for a, b in zip(row, v)]
        rows[p] = v
        queue.extend(e * g for g in gens)
    return [rows[p] for p in sorted(rows)]


def minimum_field(field, fixing_classes):
    """The fixed field L of the given conjugacy classes, as a FixedField.

    `fixing_classes` are the classes whose conjugation fixes the curve; the
    identity conjugation is implicit.  L = Q and L = K(alpha) are both
    possible outcomes (empty class list gives the whole field).  A class
    list that is not the embedding set of K(alpha) over a subfield raises
    InternalInvariantError: its M_L then has degree above [K(alpha):L].

    The basis is the Q-span of M_L's coefficient algebra, row reduced with
    the columns reversed: each element is 1 at its own coordinate, 0 at the
    others' and 0 after its own, the own coordinates being the last
    independent ones.  By matroid duality (a set of columns is a basis for
    the span iff its complement is one for the conditions sigma(x) = x,
    whose kernel is L) they are the free columns of those conditions, the
    complement of their first basis, so each element is the kernel vector
    with its own free column 1 and the others 0.
    """
    if not isinstance(field.base, RationalField):
        raise InstanceError("minimum fields are computed over the ground field Q")
    n = field.degree
    m_l = UniPoly(field, [-field.gen, field.one])
    for cls in fixing_classes:
        m_l = m_l * cls.factor
    gens = [c for c in m_l.coeffs if not _is_rational(c)]
    rows = _algebra_rows(field, gens)
    m = len(rows)
    if m * m_l.degree != n:
        raise InternalInvariantError(
            f"M_L has degree {m_l.degree} and its coefficients generate a field "
            f"of degree {m}: the classes are not the embeddings over a subfield"
        )
    basis = tuple(field.element(row[::-1]) for row in reversed(rows))
    # primitive element: basis elements first, then small integer combinations
    for cand in _primitive_candidates(basis, field):
        mp = _minimal_polynomial(cand)
        if mp.degree == m:
            return FixedField(
                field=field,
                basis=basis,
                primitive=cand,
                primitive_minpoly=mp,
                relative_minpoly=m_l,
            )
    raise InternalInvariantError("no primitive element found for the fixed field")


def _primitive_candidates(basis, field):
    """The basis elements, then sum k_i b_i for integer vectors k in order
    of height max |k_i|, up to a height that proves a primitive element is
    among them.  When m = [L:Q] >= 2, rational candidates generate Q, so
    they are skipped.

    The bound.  sum k_i b_i is primitive iff its images under the m
    embeddings of L are distinct.  Two distinct embeddings tau, tau' differ
    on some b_i, since the b_i span L, so sum k_i (tau b_i - tau' b_i) is a
    nonzero linear form in k; there are at most m(m - 1)/2 such forms up to
    sign.  Their product has degree m(m - 1)/2, so by Schwartz-Zippel it
    vanishes on at most a fraction m(m - 1)/2 / (2h + 1) of the cube
    |k_i| <= h, and some k there avoids every form once
    2h + 1 > m(m - 1)/2.
    """
    m = len(basis)
    if m == 1:
        yield from basis
        return
    for b in basis:
        if not _is_rational(b):
            yield b
    bound = (m * (m - 1) // 2 + 1) // 2
    for height in range(1, bound + 1):
        for combo in itertools.product(range(-height, height + 1), repeat=m):
            if max(abs(c) for c in combo) != height:
                continue
            acc = field.zero
            for c, b in zip(combo, basis):
                if c:
                    acc = acc + b * field.base.coerce(c)
            if not _is_rational(acc):
                yield acc
