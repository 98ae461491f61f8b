"""Number-field towers: arithmetic axioms, trace/norm/charpoly, conjugation."""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import NumberField, QQ, Rational, UniPoly, poly_gcd
from hypercircles.errors import InternalInvariantError
from hypercircles.hypercircle import conjugacy_classes
from hypercircles.numberfield import ConjugacyClass, integral_ops

from oracles import (
    euclid_gcd,
    nf_conjugate,
    tmul_by_convolution_and_division,
    trace_by_power_sums,
)
from test_modp import parity_fields

small_rats = st.builds(
    Rational,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=4),
)


def quartic():
    return NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 1]), "a")


def tower():
    K = NumberField(QQ, UniPoly(QQ, [-2, 0, 1]), "a")  # a^2 = 2
    y = UniPoly(K, [K.gen, K.zero, K.one])  # x^2 + a
    return NumberField(K, y, "b")


def elements(field):
    """Elements of a field of any tower depth, from small rational leaves."""
    if not isinstance(field, NumberField):
        return small_rats
    return st.lists(
        elements(field.base), min_size=field.degree, max_size=field.degree
    ).map(field.element)


def test_generator_satisfies_minpoly():
    field = quartic()
    assert field.gen**4 == field.coerce(2)
    L = tower()
    assert L.gen * L.gen == -L.coerce(L.base.gen)


def test_coords_round_trip():
    field = quartic()
    v = [Rational(3, 2), Rational(-1), Rational(0), Rational(5, 7)]
    e = field.element(v)
    assert list(e.coords) == v
    L = tower()
    K = L.base
    w = [K.element([Rational(1, 3), Rational(2)]), K.element([Rational(0), Rational(-5, 2)])]
    assert list(L.element(w).coords) == w


@given(st.data())
@settings(max_examples=40)
def test_field_axioms_on_tower(data):
    L = tower()
    x = data.draw(elements(L))
    y = data.draw(elements(L))
    z = data.draw(elements(L))
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x - x == L.zero
    if y:
        assert (x / y) * y == x


@functools.lru_cache(maxsize=None)
def quintic_class_field():
    """The relative field of the size-4 conjugacy class of x^5 - 2."""
    K = NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 0, 1]), "a")
    (cls,) = [c for c in conjugacy_classes(K)[1] if c.size == 4]
    return cls.relative_field


def degree_one_field():
    """x - a^2 over Q(2^(1/4)): a relative field of degree 1."""
    field = quartic()
    return ConjugacyClass(UniPoly(field, [-(field.gen**2), field.one]), "c").relative_field


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_round_trip(data):
    for field in (quartic(), tower(), quintic_class_field(), degree_one_field()):
        x = data.draw(elements(field))
        if not x:
            continue
        assert x * x.inverse() == field.one
        assert (field.one / x) == x.inverse()


def test_zero_inverse_raises():
    field = quartic()
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_zero_divisor_inverse_raises():
    # x^2 - 1 = (x - 1)(x + 1): gen - 1 is a nonzero zero divisor
    Q2 = NumberField(QQ, UniPoly(QQ, [-1, 0, 1]), "a")
    with pytest.raises(InternalInvariantError, match="non-invertible"):
        (Q2.gen - Q2.one).inverse()
    # y^2 + 1 = (y - i)(y + i) over Q(i), one level up
    K = NumberField(QQ, UniPoly(QQ, [1, 0, 1]), "i")
    L = NumberField(K, UniPoly(K, [K.one, K.zero, K.one]), "y")
    with pytest.raises(InternalInvariantError, match="non-invertible"):
        (L.gen - K.gen).inverse()


def test_trace_norm_goldens():
    field = quartic()
    a = field.gen
    assert a.trace() == Rational(0)
    assert (a * a).trace() == Rational(0)
    assert field.coerce(7).trace() == Rational(28)
    assert a.norm() == Rational(-2)
    assert (a + 1).norm() == Rational(-1)  # product of (1 + root) over x^4 = 2
    assert field.coerce(3).norm() == Rational(81)


def test_charpoly_of_generator_is_minpoly():
    field = quartic()
    assert field.gen.charpoly() == field.minpoly
    # non-primitive element: charpoly is a power of the minimal polynomial
    sq = field.gen * field.gen  # degree 2 over Q
    cp = sq.charpoly()
    x = UniPoly.gen(QQ)
    assert cp == (x**2 - 2) ** 2


# the four complex roots of x^4 - 2
QUARTIC_ROOTS = [2**0.25 * 1j**k for k in range(4)]


def test_power_traces_match_float_roots():
    field = quartic()
    for k in range(6):
        tr = (field.gen**k).trace()
        want = sum(r**k for r in QUARTIC_ROOTS)
        assert abs(complex(want) - float(tr.numerator) / float(tr.denominator)) < 1e-6


def test_trace_matches_float_embeddings():
    field = quartic()
    v = [Rational(3), Rational(-2), Rational(1, 2), Rational(5)]
    e = field.element(v)
    emb = sum(
        sum(float(c) * r**k for k, c in enumerate(v)) for r in QUARTIC_ROOTS
    )
    tr = e.trace()
    assert abs(emb - float(tr.numerator) / float(tr.denominator)) < 1e-6


def test_conjugation_consistency():
    field = quartic()
    _, classes = conjugacy_classes(field)
    a = field.gen
    x = field.element([Rational(1), Rational(2), Rational(0), Rational(-1)])
    for cls in classes:
        rel = cls.relative_field
        root = cls.root
        # the designated root satisfies the class factor
        assert not cls.factor.map_into(rel)(root)
        # conjugation is a ring homomorphism
        y = field.element([Rational(0), Rational(1), Rational(1), Rational(3)])
        assert cls.conjugate(x * y) == cls.conjugate(x) * cls.conjugate(y)
        assert cls.conjugate(x + y) == cls.conjugate(x) + cls.conjugate(y)
        # rationals are fixed
        assert cls.conjugate(field.coerce(Rational(7, 3))) == rel.coerce(Rational(7, 3))
        # alpha maps to the root
        assert cls.conjugate(a) == root


def test_trace_decomposes_over_classes():
    # Summing x with its image under every non-identity embedding (pulled
    # back through the relative fields) must reproduce the absolute trace.
    field = quartic()
    _, classes = conjugacy_classes(field)
    x = field.element([Rational(2), Rational(1), Rational(-3), Rational(1, 2)])
    total = x
    for cls in classes:
        y = cls.conjugate(x)
        total = total + (y.retract() if cls.size == 1 else y.trace())
    coords = list(total.coords)
    assert coords[1:] == [Rational(0)] * 3
    assert coords[0] == x.trace()


def test_degree_one_relative_field():
    field = quartic()
    # x - a^2 over K(alpha): a degree-1 "extension"
    factor = UniPoly(field, [-(field.gen**2), field.one])
    cls = ConjugacyClass(factor, "c")
    rel = cls.relative_field
    assert rel.degree == 1
    assert rel.coerce(field.gen).coords[0] == field.gen
    assert cls.root == rel.coerce(field.gen**2)
    x = rel.coerce(field.gen) + rel.one
    assert x * x.inverse() == rel.one


def test_retract():
    field = quartic()
    lifted = field.coerce(Rational(5, 3))
    assert lifted.retract() == Rational(5, 3)
    with pytest.raises(InternalInvariantError):
        field.gen.retract()


def test_mixed_level_arithmetic():
    L = tower()
    K = L.base
    x = L.gen + K.gen  # lifts the base element
    assert x - K.gen == L.gen
    assert (x * K.gen).field is L


def _three_levels():
    """Q(a)(b)(c) with a^2 = 2, b^2 = -a and c^3 = -b/3, whose generator
    scale is 3: -b/3 has norm -2/81 to Q, not a cube, so x^3 + b/3 is
    irreducible."""
    L = tower()
    return NumberField(L, UniPoly(L, [L.gen / 3, L.zero, L.zero, L.one]), "c")


def test_coerce_carries_an_element_of_an_equal_field():
    """An element of a field structurally equal to one of the base chain,
    as a second load of one instance builds, coerces as that field's own
    element does, at every level, and mixes in arithmetic and equality;
    the carried element keeps its vector."""
    M, twin = _three_levels(), _three_levels()
    assert twin == M and twin is not M
    rng = random.Random(7)
    below, mine = twin, M
    while isinstance(below, NumberField):
        x = below.element([rng.randint(-9, 9) for _ in range(below.degree)])
        same = mine.element(x.coords)
        carried = M.coerce(x)
        assert carried == M.coerce(same) and carried.field is M
        assert mine.coerce(x).ic == x.ic and mine.coerce(x).field is mine
        assert x == same and same * x == same * same and (same + x).field is mine
        below, mine = below.base, mine.base


def test_coerce_pads_block_zero_from_every_level():
    """Q is the root of the flat layout: an int, a Rational and an element
    of each lower level of a three-level tower coerce to the element whose
    vector has theirs as block 0 over their denominator, which is the
    element `element` builds from coordinates; `coords` and `retract`
    round-trip."""
    M = _three_levels()
    L = M.base
    K = L.base
    rng = random.Random(5)

    def leaf():
        return Rational(rng.randint(-9, 9), rng.choice((1, 2, 6)))

    def elem(field):
        if field is QQ:
            return leaf()
        return field.element([elem(field.base) for _ in range(field.degree)])

    def built(x, field):
        """x from coordinates, level by level from x's own field up."""
        below = M
        chain = []
        while below is not field:
            chain.append(below)
            below = below.base
        for up in reversed(chain):
            x = up.element([x])
        return x

    for _ in range(5):
        for field in (QQ, K, L, M):
            x = elem(field)
            lifted = M.coerce(x)
            assert lifted == built(x, field)
            if field is QQ:
                vec, den = (x.numerator,), x.denominator
            else:
                vec, den = x.ic, x.den
            assert lifted.ic == vec + (0,) * (M.absolute_degree - len(vec))
            assert lifted.den == den
        three = M.coerce(3)
        assert three == built(Rational(3), QQ) and three.ic[0] == 3 and three.den == 1
        z = elem(M)
        assert M.element(z.coords) == z
        for field in (K, L, M):
            below = elem(field.base)
            assert field.coerce(below).retract() == below
    assert isinstance(K.coerce(Rational(1, 2)).retract(), Rational)
    other = NumberField(QQ, UniPoly(QQ, [-3, 0, 1]), "r")
    with pytest.raises(TypeError):
        M.coerce(other.gen)
    with pytest.raises(TypeError):
        K.coerce(M.gen)
    assert integral_ops(QQ).lift([Rational(1, 2), 3]) == ([(1,), (6,)], 2)
    x = UniPoly.gen(QQ)
    for _ in range(6):
        h = UniPoly(QQ, [leaf() for _ in range(rng.randint(0, 2))] + [1])
        f = h * UniPoly(QQ, [leaf() for _ in range(3)] + [1])
        g = h * (x - leaf())
        assert poly_gcd(f, g) == euclid_gcd(f, g)


# --- coordinate-vector kernels: active backend vs. plain comprehensions ---

from hypercircles import numberfield as nf  # noqa: E402

leaf_ints = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-(10**40), max_value=10**40),
)
vectors = st.lists(leaf_ints, min_size=1, max_size=5).map(tuple)


@given(st.data())
@settings(max_examples=120)
def test_tensor_kernel_parity(data):
    import math

    a = data.draw(vectors)
    b = data.draw(vectors)
    k = min(len(a), len(b))
    a, b = a[:k], b[:k]
    scale = data.draw(st.integers(min_value=-7, max_value=7))
    assert nf._tadd(a, b) == tuple(x + y for x, y in zip(a, b))
    assert nf._tsub(a, b) == tuple(x - y for x, y in zip(a, b))
    assert nf._tneg(a) == tuple(-x for x in a)
    assert nf._tscale(a, scale) == tuple(x * scale for x in a)
    assert nf._tbool(a) == any(x != 0 for x in a)
    assert nf._tcontent(a) == math.gcd(*a, 0)
    g = nf._tcontent(a)
    if g:
        assert nf._tdiv(nf._tscale(a, 6), 6) == a


FIRST_LEVEL_FIELDS = {
    "pure-quintic": [-2, 0, 0, 0, 0, 1],  # Q(2^(1/5))
    "scaled-cubic": [Rational(1, 3), Rational(-1, 2), 0, 1],  # theta = 6 gen
    "phi7": [1, 1, 1, 1, 1, 1, 1],
}


@pytest.mark.parametrize("name", sorted(FIRST_LEVEL_FIELDS))
@given(st.data())
@settings(max_examples=60)
def test_first_level_product_matches_convolution(name, data):
    # the compiled build multiplies with `_tensorcore.conv_reduce`, the pure
    # build with the inline loop of `_tmul`; both must match the reference
    field = NumberField(QQ, UniPoly(QQ, FIRST_LEVEL_FIELDS[name]), "a")
    coords = st.lists(leaf_ints, min_size=field.degree, max_size=field.degree)
    a = tuple(data.draw(coords))
    b = tuple(data.draw(coords))
    assert field._tmul(a, b) == tmul_by_convolution_and_division(field, a, b)


def _sextic_class_field():
    """The relative field of a size-2 conjugacy class of x^6 - 2."""
    K = NumberField(QQ, UniPoly(QQ, [-2, 0, 0, 0, 0, 0, 1]), "a")
    return next(c.relative_field for c in conjugacy_classes(K)[1] if c.size == 2)


TOWERS = {
    "tower": tower,
    "x^5-2 size 4": quintic_class_field,
    "x^6-2 size 2": _sextic_class_field,
    "degree 1": degree_one_field,
}


def _dyadic_element(rng, field):
    """An element with every rational leaf odd over 2, 4 or 8, so that it
    has a non-unit denominator at every tower level."""
    if not isinstance(field, NumberField):
        return Rational(2 * rng.randint(-6, 5) + 1, rng.choice((2, 4, 8)))
    return field.element([_dyadic_element(rng, field.base) for _ in range(field.degree)])


@pytest.mark.parametrize("name", list(TOWERS))
def test_tower_product_matches_polynomial_product(name):
    """Above the first level a product is that of the two coordinate lists
    as polynomials over the base, reduced mod the defining polynomial."""
    field = TOWERS[name]()
    base = field.base
    rng = random.Random(f"tower:{name}")
    for _ in range(6):
        x, y = _dyadic_element(rng, field), _dyadic_element(rng, field)
        assert len(x.ic) == field.absolute_degree
        prod = UniPoly(base, list(x.coords)) * UniPoly(base, list(y.coords))
        want = list((prod % field.minpoly).coeffs)
        want += [base.zero] * (field.degree - len(want))
        assert list((x * y).coords) == want


def test_tensor_multiply_big_coordinates():
    # products with ~40-digit coordinates must stay exact end to end
    field = quartic()
    big = 10**40 + 7
    x = field.element([Rational(big), Rational(1, big), Rational(0), Rational(-big)])
    y = x * x.inverse()
    assert y == field.one


def _levels(field):
    while isinstance(field, NumberField):
        yield field
        field = field.base


def _matrix_cases():
    """(name, level) for every level of every `parity_fields()` tower."""
    for name, field in parity_fields().items():
        for depth, level in enumerate(_levels(field)):
            yield f"{name}[{depth}]", level


def _conjugation_cases():
    """(name, class) for each level over a number field as the class of
    its own defining polynomial, and the conjugacy classes of every first
    level of degree >= 2.  Not every such map is a conjugation (the class
    fields of x^5 - 2 and x^6 - 2 give one, `L`'s a -> b does not), but
    each is linear over the base, which is all the matrix relies on."""
    for name, level in _matrix_cases():
        if isinstance(level.base, NumberField):
            yield name, ConjugacyClass(level.minpoly, "z")
        elif level.degree >= 2:
            for cls in conjugacy_classes(level)[1]:
                yield f"{name} size {cls.size}", cls


def test_conjugation_matrix_matches_horner():
    rng = random.Random("conjugate")
    for name, cls in _conjugation_cases():
        field = cls.factor.field
        xs = [field.gen, field.one, field.zero]
        xs += [_dyadic_element(rng, field) for _ in range(4)]
        for x in xs:
            assert cls.conjugate(x) == nf_conjugate(x, cls), name


def test_trace_matrix_matches_power_sums():
    rng = random.Random("trace")
    for name, level in _matrix_cases():
        xs = [level.gen, level.one, level.zero]
        xs += [_dyadic_element(rng, level) for _ in range(4)]
        for x in xs:
            assert x.trace() == trace_by_power_sums(x), name
