"""Gaussian rationals: the Scalar arithmetic, its int-first parts and
refusals, render_scalar against its inverse (parse_scalar), and the powers
of i that findim.sparse_apply multiplies by."""
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kmalg.findim import CoeffMap, sparse_apply
from kmalg.scalars import I, ONE, Scalar, ZERO, render_scalar, vec_to_scalars
from oracles import fraction_backed, i_power, parse_scalar

rationals = st.builds(
    Fraction, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=9)
)
scalars = st.builds(Scalar, rationals, rationals)


def test_basics():
    assert Scalar(1, 2) + Scalar(3, -1) == Scalar(4, 1)
    assert Scalar(0, 1) * Scalar(0, 1) == Scalar(-1)
    assert ONE / I == Scalar(0, -1)
    assert not ZERO
    assert Scalar(Fraction(1, 2)).is_real()
    assert not I.re and I.im


def test_i_powers():
    """findim.sparse_apply's power argument, on the 1 x 1 identity and the
    vector 1, is i^power for every power, negative ones included."""
    assert [i_power(k) for k in range(4)] == [ONE, I, Scalar(-1), Scalar(0, -1)]
    for k in range(-9, 10):
        assert vec_to_scalars(sparse_apply(CoeffMap.identity(1).sparse, ((1, 0), 1), power=k)) == (i_power(k),)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_division_and_conjugation(a, b):
    if b:
        assert (a / b) * b == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(scalars)
def test_render_parse_round_trip(a):
    assert parse_scalar(render_scalar(a)) == a


def test_render_forms():
    assert render_scalar(ZERO) == "0"
    assert render_scalar(Scalar(Fraction(3, 2))) == "3/2"
    assert render_scalar(I) == "i"
    assert render_scalar(-I) == "-i"
    assert render_scalar(Scalar(Fraction(1, 2), -3)) == "1/2-3·i"
    assert render_scalar(Scalar(-1, 1)) == "-1+i"


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.re = Fraction(2)


# -- integer-first representation ---------------------------------------------

parts = st.one_of(st.integers(-50, 50), rationals, st.booleans())
mixed_scalars = st.builds(Scalar, parts, parts)
floats = st.floats(allow_nan=False, allow_infinity=False)


def _canonical(part):
    """A part is an int exactly when its denominator is 1, else a Fraction."""
    if type(part) is int:
        return True
    return type(part) is Fraction and part.denominator != 1


@given(floats, parts)
def test_float_parts_are_refused(x, other):
    with pytest.raises(TypeError):
        Scalar(x)
    with pytest.raises(TypeError):
        Scalar(other, x)
    with pytest.raises(TypeError):
        Scalar(x, other)


def test_other_part_types_are_refused():
    for bad in (Decimal("0.5"), 1j, "1", None):
        with pytest.raises(TypeError):
            Scalar(bad)


@given(mixed_scalars, floats)
def test_float_operands_are_refused(a, x):
    for op in (
        lambda: a + x, lambda: x + a, lambda: a - x, lambda: x - a,
        lambda: a * x, lambda: x * a, lambda: a / x, lambda: x / a,
    ):
        with pytest.raises(TypeError):
            op()


@given(mixed_scalars, mixed_scalars)
def test_parts_are_int_exactly_when_integral(a, b):
    results = [a, b, a + b, a - b, a * b, -a, a.conjugate(), parse_scalar(render_scalar(a))]
    if b:
        results.append(a / b)
    for s in results:
        assert _canonical(s.re) and _canonical(s.im), repr(s)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_integral_parts_are_ints(n, m):
    s = Scalar(Fraction(n), Fraction(m * 6, 3))
    assert type(s.re) is int and type(s.im) is int
    assert (s.re, s.im) == (n, 2 * m)
    assert type(Scalar(True).re) is int


@given(parts, parts)
def test_int_and_fraction_backed_values_agree(re, im):
    fast, slow = Scalar(re, im), fraction_backed(re, im)
    assert fast == slow and slow == fast
    assert hash(fast) == hash(slow)
    assert render_scalar(fast) == render_scalar(slow)
    assert str(fast) == str(slow)
    assert parse_scalar(render_scalar(slow)) == fast
