"""Real blow-ups of Q(i) equations: the references' equation builder
(real_rows writes sum alpha a + beta conj(a) = 0 as two rational rows, and
real_kernel solves a list of them, both in oracles) against the complex
values they encode; and the coordinates FiniteLieAlgebra._solve
finds (oracles.coords) against the hand-written per-matrix blow-up
(coords_reference), element for element and in the same order."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import serialize
from kmalg.findim import LieAlgebraError
from kmalg.scalars import I, ONE, Scalar, ZERO, vec_to_scalars

from oracles import coords, coords_reference, matrix, real_flatten, real_kernel, real_rows

parts = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))
gaussians = st.builds(Scalar, parts, parts)


# -- real_rows against the complex value it encodes ---------------------------

@st.composite
def equations(draw):
    nvec = draw(st.integers(1, 3))
    width = draw(st.integers(1, 3))
    unknowns = [tuple(draw(gaussians) for _ in range(width)) for _ in range(nvec)]
    term = st.tuples(st.integers(0, nvec - 1), st.integers(0, width - 1), gaussians, gaussians)
    return nvec, width, unknowns, draw(st.lists(term, max_size=6))


@settings(max_examples=300, deadline=None)
@given(equations())
def test_real_rows_encode_the_mixed_linear_value(case):
    nvec, width, unknowns, terms = case
    value = sum((alpha * unknowns[b][j] + beta * unknowns[b][j].conjugate()
                 for b, j, alpha, beta in terms), ZERO)
    # the real layout of tests/oracles.py: [re a_0 | im a_0 | re a_1 | ...]
    layout = [x for a in unknowns for x in real_flatten(a)]
    re_row, im_row = real_rows(terms, nvec, width)
    assert sum(r * x for r, x in zip(re_row, layout)) == value.re
    assert sum(r * x for r, x in zip(im_row, layout)) == value.im


def scalar_kernel(equations, nvec, width):
    """real_kernel with its numerator vectors read as Scalar vectors."""
    return [tuple(vec_to_scalars(v) for v in vecs)
            for vecs in real_kernel(equations, nvec, width)]


@settings(max_examples=200, deadline=None)
@given(equations())
def test_real_kernel_solves_its_equations(case):
    nvec, width, _, terms = case
    basis = scalar_kernel([terms], nvec, width)
    for vecs in basis:
        assert len(vecs) == nvec and all(len(v) == width for v in vecs)
        value = sum((alpha * vecs[b][j] + beta * vecs[b][j].conjugate()
                     for b, j, alpha, beta in terms), ZERO)
        assert not value
    # one equation takes away at most two real dimensions
    assert 2 * nvec * width - 2 <= len(basis) <= 2 * nvec * width


def test_real_kernel_without_equations_is_the_standard_basis():
    # width 2, one vector: columns re a[0], re a[1], im a[0], im a[1]
    assert scalar_kernel([], 1, 2) == [((ONE, ZERO),), ((ZERO, ONE),),
                                       ((I, ZERO),), ((ZERO, I),)]
    # an equation whose terms cancel leaves the standard basis too
    cancelling = [(0, 0, ONE, ZERO), (0, 0, -ONE, ZERO)]
    assert scalar_kernel([cancelling], 2, 1) == scalar_kernel([], 2, 1)


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
