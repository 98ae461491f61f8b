"""Number-field towers: arithmetic axioms, trace/norm/charpoly, conjugation."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import NumberField, QQ, Rational, UniPoly
from hypercircles.errors import InternalInvariantError
from hypercircles.hypercircle import conjugacy_classes
from hypercircles.numberfield import ConjugacyClass, nf_conjugate

from oracles import tmul_by_convolution_and_division

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


def test_power_traces_match_float_roots():
    field = quartic()
    roots = np.roots([1, 0, 0, 0, -2])  # x^4 - 2
    traces = field.power_traces()
    for k, tr in enumerate(traces):
        want = np.sum(roots**k)
        assert abs(complex(want) - float(tr.numerator) / float(tr.denominator)) < 1e-6


def test_trace_matches_float_embeddings():
    field = quartic()
    roots = np.roots([1, 0, 0, 0, -2])
    v = [Rational(3), Rational(-2), Rational(1, 2), Rational(5)]
    e = field.element(v)
    emb = sum(
        sum(float(c) * r**k for k, c in enumerate(v)) for r in roots
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
        assert nf_conjugate(x * y, cls) == nf_conjugate(x, cls) * nf_conjugate(y, cls)
        assert nf_conjugate(x + y, cls) == nf_conjugate(x, cls) + nf_conjugate(y, cls)
        # rationals are fixed
        assert nf_conjugate(field.coerce(Rational(7, 3)), cls) == rel.coerce(
            Rational(7, 3)
        )
        # alpha maps to the root
        assert nf_conjugate(a, cls) == root


def test_trace_decomposes_over_classes():
    # Summing x with its image under every non-identity embedding (pulled
    # back through the relative fields) must reproduce the absolute trace.
    field = quartic()
    _, classes = conjugacy_classes(field)
    x = field.element([Rational(2), Rational(1), Rational(-3), Rational(1, 2)])
    total = x
    for cls in classes:
        y = nf_conjugate(x, cls)
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


# --- coordinate-tensor kernels: active backend vs. reference recursion ---

from hypercircles import numberfield as nf  # noqa: E402


def _ref_map(f, *ts):
    if type(ts[0][0]) is int:
        return tuple(f(*xs) for xs in zip(*ts))
    return tuple(_ref_map(f, *xs) for xs in zip(*ts))


def _ref_leaves(t):
    for x in t:
        if type(x) is int:
            yield x
        else:
            yield from _ref_leaves(x)


leaf_ints = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-(10**40), max_value=10**40),
)
flat_tensors = st.lists(leaf_ints, min_size=1, max_size=5).map(tuple)
nested_tensors = st.one_of(
    flat_tensors,
    st.lists(flat_tensors.filter(lambda t: len(t) == 3), min_size=2, max_size=4).map(
        tuple
    ),
)


@given(st.data())
@settings(max_examples=120)
def test_tensor_kernel_parity(data):
    import math

    a = data.draw(nested_tensors)
    b = data.draw(nested_tensors.filter(lambda t: type(t[0]) is type(a[0])))
    if type(a[0]) is not int:
        # align nested shapes
        k = min(len(a), len(b))
        a, b = a[:k], b[:k]
    else:
        k = min(len(a), len(b))
        a, b = a[:k], b[:k]
    scale = data.draw(st.integers(min_value=-7, max_value=7))
    assert nf._tadd(a, b) == _ref_map(lambda x, y: x + y, a, b)
    assert nf._tsub(a, b) == _ref_map(lambda x, y: x - y, a, b)
    assert nf._tneg(a) == _ref_map(lambda x: -x, a)
    assert nf._tscale(a, scale) == _ref_map(lambda x: x * scale, a)
    assert nf._tbool(a) == any(x != 0 for x in _ref_leaves(a))
    assert nf._tcontent(a) == math.gcd(*_ref_leaves(a), 0)
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


def test_tensor_multiply_big_coordinates():
    # products with ~40-digit coordinates must stay exact end to end
    field = quartic()
    big = 10**40 + 7
    x = field.element([Rational(big), Rational(1, big), Rational(0), Rational(-big)])
    y = x * x.inverse()
    assert y == field.one
