"""Real blow-ups of Q(i) equations: the coordinates FiniteLieAlgebra._solve
finds (oracles.coords) against the hand-written per-matrix blow-up
(coords_reference), element for element and in the same order."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import serialize
from kmalg.findim import LieAlgebraError
from kmalg.scalars import ONE, Scalar, ZERO

from oracles import coords, coords_reference, matrix

parts = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
gaussians = st.builds(Scalar, parts, parts)


# -- coords against the hand-written blow-up ------------------------------------

REGISTRY_ALGEBRAS = [entry[0] for entry in serialize.registry().values()]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REGISTRY_ALGEBRAS), st.data())
def test_coords_round_trip_and_match_reference(algebra, data):
    c = tuple(data.draw(gaussians) for _ in range(algebra.dim))
    m = matrix(algebra, c)
    assert coords(algebra, m) == c
    assert coords_reference(algebra, m) == c


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REGISTRY_ALGEBRAS), st.data())
def test_coords_of_any_matrix_agree_with_reference(algebra, data):
    size = algebra.matrix_size
    m = tuple(tuple(data.draw(gaussians) for _ in range(size)) for _ in range(size))
    try:
        expected = coords_reference(algebra, m)
    except LieAlgebraError:
        with pytest.raises(LieAlgebraError):
            coords(algebra, m)
        return
    assert coords(algebra, m) == expected


@pytest.mark.parametrize("algebra", [a for a in REGISTRY_ALGEBRAS if a.matrix_size > 1])
def test_coords_outside_the_span_raise(algebra):
    # every registered algebra of size > 1 is traceless, so the identity is outside
    size = algebra.matrix_size
    identity = tuple(tuple(ONE if i == j else ZERO for j in range(size)) for i in range(size))
    with pytest.raises(LieAlgebraError):
        coords(algebra, identity)
