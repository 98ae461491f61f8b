"""Minimum field of definition for curves that fail K-definability.

When some conjugations move the curve, the curve is still defined over the
intersection L of the fixed fields of the conjugations that do fix it.  Over
the ground field Q this module computes L explicitly: a Q-basis, a primitive
element, and its minimal polynomial, by intersecting the kernels of the
linearized invariance conditions sigma(x) = x.

Whenever [K(alpha) : L] >= 2 there is also an explicit tower model L(alpha)
(`relative_model`).  Rerunning the definability decision over L(alpha)/L
gives DefinedOverK, which certifies that the curve is defined over L.
"""

import itertools
from dataclasses import dataclass
from operator import mul

from .errors import InstanceError, InternalInvariantError
from .linalg import kernel_basis, rref
from .numberfield import NumberField
from .polynomials import UniPoly, poly_gcd
from .rationals import RationalField


@dataclass
class FixedField:
    field: NumberField
    basis: tuple
    primitive: object
    primitive_minpoly: UniPoly

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


def invariance_system(cls):
    """Q-linear conditions on alpha-power coordinates for sigma(x) = x.

    sigma sends alpha to the class's designated root; the returned rows are
    rational vectors of length n = deg K(alpha), one row per flattened
    coordinate of sigma(alpha^j) - alpha^j.
    """
    rel = cls.relative_field
    field = rel.base
    if not isinstance(field.base, RationalField):
        raise InstanceError("invariance systems require a ground field of Q")
    cols = []
    for j in range(field.degree):
        power = field.gen**j
        diff = cls.conjugate(power) - rel.coerce(power)
        # coordinates over K(alpha), then each one's over Q
        cols.append([q for c in diff.coords for q in c.coords])
    return [list(row) for row in zip(*cols)]


def _minimal_polynomial(x):
    """Minimal polynomial over Q of an element of a simple extension of Q:
    the characteristic polynomial is mu^(n / deg mu), so mu is its
    squarefree part."""
    cp = x.charpoly()
    return cp // poly_gcd(cp, cp.derivative())


def minimum_field(field, fixing_classes):
    """The fixed field L of the given conjugacy classes, as a FixedField.

    `fixing_classes` are the classes whose conjugation fixes the curve; the
    identity conjugation is implicit.  L = Q and L = K(alpha) are both
    possible outcomes (empty class list gives the whole field).
    """
    if not isinstance(field.base, RationalField):
        raise InstanceError("minimum fields are computed over the ground field Q")
    n = field.degree
    system = []
    for cls in fixing_classes:
        system.extend(invariance_system(cls))
    if not system:
        vectors = [
            [field.base.one if i == j else field.base.zero for i in range(n)]
            for j in range(n)
        ]
    else:
        vectors = kernel_basis(system, n, field.base)
    basis = tuple(field.element(v) for v in vectors)
    m = len(basis)
    if m == 0:
        raise InternalInvariantError("fixed field lost the rationals")
    # primitive element: basis elements first, then small integer combinations
    best = None
    for cand in _primitive_candidates(basis, field):
        mp = _minimal_polynomial(cand)
        if mp.degree == m:
            best = (cand, mp)
            break
    if best is None:
        raise InternalInvariantError("no primitive element found for the fixed field")
    primitive, mp = best
    return FixedField(field=field, basis=basis, primitive=primitive, primitive_minpoly=mp)


def _primitive_candidates(basis, field):
    for b in basis:
        yield b
    m = len(basis)
    if m <= 1:
        return
    for height in range(1, 9):
        for combo in itertools.product(range(-height, height + 1), repeat=m):
            if max(abs(c) for c in combo) != height:
                continue
            acc = field.zero
            for c, b in zip(combo, basis):
                if c:
                    acc = acc + b * field.base.coerce(c)
            if acc:
                yield acc


def relative_model(field, fixed):
    """Tower model L(alpha) of K(alpha) over its subfield L: (E, rewrite).

    E is L(alpha) with L = Q(primitive), defined by alpha's minimal
    polynomial over L, of degree r = [K(alpha) : L]; `rewrite` maps elements
    of K(alpha) to E.  The products primitive^j * alpha^i (j < deg L, i < r)
    are a Q-basis of K(alpha), since 1, alpha, .., alpha^(r-1) is an L-basis;
    coordinates in it are tower coordinates, and those of alpha^r give the
    relative minimal polynomial.  There is no tower when r = 1, L = K(alpha).
    """
    r = fixed.relative_degree
    if r == 1:
        raise InstanceError("the minimum field is the whole field: no relative model")
    qq = field.base
    n = field.degree
    m = fixed.degree
    lfield = NumberField(qq, fixed.primitive_minpoly, "g")
    prim, gen = fixed.primitive, field.gen
    cols = [(prim**j * gen**i).coords for i in range(r) for j in range(m)]
    # invert the basis matrix B: row reduce [B | 1]
    aug = [list(row) + [qq.zero] * n for row in zip(*cols)]
    for i in range(n):
        aug[i][n + i] = qq.one
    rows, pivots = rref(aug, qq)
    if pivots != list(range(n)):
        raise InternalInvariantError("primitive-power basis is singular")
    binv = [row[n:] for row in rows]

    def to_tower_coords(x):
        y = [sum(map(mul, brow, x.coords)) for brow in binv]
        return [lfield.element(y[i * m : (i + 1) * m]) for i in range(r)]

    top = to_tower_coords(field.gen**r)
    relpoly = UniPoly(lfield, [-c for c in top] + [lfield.one])
    tower = NumberField(lfield, relpoly, field.name)

    def rewrite(x):
        return tower.element(to_tower_coords(field.coerce(x)))

    return tower, rewrite
