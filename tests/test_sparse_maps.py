"""The sparse exact maps behind CoeffMap and FiniteAutomorphism, and the
oracles' mat_mul, against a dense reference: dense_apply and
order_reference in oracles and dense_mul here.

A map holds its matrix once, as `findim.sparse_rows` gives it: sparse
Gaussian-integer rows over one denominator in lowest terms, in ascending
column order; `matrix` is a Scalar view of them. So `compose` must give
exactly the sparse rows of the dense product, on ints, and `==` and `hash`
agree with dense equality.

Random maps mix zero entries, the units 1, i, -1, -i, other Gaussian
rationals, zero rows and identity-like matrices; every product in the
reference is a plain Scalar multiplication summed from zero.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg.findim import (
    FiniteAutomorphism,
    LieAlgebraError,
    automorphism_from_order,
    least_order,
    make_abelian,
    make_su,
    sparse_rows,
)
from kmalg.involution import CoeffMap, InvolutionError
from kmalg.loop import TwistedLoopElement
from kmalg.scalars import Scalar, ZERO
from cases import UNITS, coeff_maps, dims, loops, matrices, vectors
from oracles import apply_vec, automorphism_apply, dense_apply, mat, mat_mul, order_reference

# -- dense reference -----------------------------------------------------------

def dense_mul(a, b, conjugate=False):
    if conjugate:
        b = [[x.conjugate() for x in row] for row in b]
    return tuple(
        tuple(sum((a[i][t] * b[t][j] for t in range(len(b))), ZERO) for j in range(len(b[0])))
        for i in range(len(a))
    )


def all_ints(sparse):
    rows, den = sparse
    return type(den) is int and all(type(x) is int for row in rows for entry in row for x in entry)


def dense_is_identity(matrix):
    n = len(matrix)
    return all(matrix[i][j] == (Scalar(1) if i == j else ZERO) for i in range(n) for j in range(n))


@st.composite
def map_and(draw, what):
    n = draw(dims)
    return n, draw(coeff_maps(n)), draw(what(n))


# -- CoeffMap --------------------------------------------------------------------

@settings(deadline=None)
@given(map_and(vectors), st.integers(-5, 5))
def test_apply_vec_matches_dense(case, k):
    _, phi, vec = case
    want = dense_apply(phi.matrix, vec, phi.conjugate, phi.parity * k)
    assert apply_vec(phi, vec, k) == want


@settings(deadline=None)
@given(map_and(loops))
def test_apply_loop_matches_dense(case):
    _, phi, f = case
    s = phi.index_sign
    want = {
        s * j: dense_apply(phi.matrix, vec, phi.conjugate, phi.parity * s * j)
        for j, vec in f.coeffs.items()
    }
    assert phi.apply_loop(f) == TwistedLoopElement(f.algebra, f.twist, want)


@settings(deadline=None)
@given(st.data())
def test_coeff_map_compose_matches_dense(data):
    n = data.draw(dims)
    phi, psi = data.draw(coeff_maps(n)), data.draw(coeff_maps(n))
    f = data.draw(loops(n))
    both = phi.compose(psi)
    assert both.sparse == sparse_rows(dense_mul(phi.matrix, psi.matrix, phi.conjugate))
    assert all_ints(both.sparse) and all_ints(phi.sparse)
    assert both.apply_loop(f) == phi.apply_loop(psi.apply_loop(f))


@settings(deadline=None)
@given(st.data())
def test_equality_and_hash_agree_with_dense(data):
    """Two maps are equal, and hash alike, exactly when their dense
    matrices and their (s, d, p) are: also a map of c * rows composed with
    the identity times 1 / c, whose product numerators share the factor c,
    equals the map of rows."""
    n = data.draw(dims)
    rows = data.draw(matrices(n))
    other = rows if data.draw(st.booleans()) else data.draw(matrices(n))
    c = data.draw(st.sampled_from((2, -3, 6, Scalar(Fraction(1, 2)), Scalar(0, 2), Scalar(3, 3))))
    scaled = CoeffMap(sparse_rows([[c * x for x in row] for row in rows]))
    unscale = CoeffMap(sparse_rows([[Scalar(1) / c if i == j else ZERO for j in range(n)] for i in range(n)]))
    plain = CoeffMap(sparse_rows(rows))
    via = scaled.compose(unscale)
    assert via == plain and hash(via) == hash(plain) and via.sparse == plain.sparse
    flags = [(data.draw(st.sampled_from((1, -1))), data.draw(st.booleans()), data.draw(st.integers(0, 3)))
             for _ in range(2)]
    a, b = (CoeffMap(sparse_rows(m), *f) for m, f in zip((rows, other), flags))
    want = mat(rows) == mat(other) and flags[0] == flags[1]
    assert (a == b) == want
    if want:
        assert hash(a) == hash(b)


@settings(deadline=None)
@given(st.data())
def test_least_order_matches_the_dense_power_walk(data):
    """least_order of a signed permutation (entries 1, i, -1, -i), linear
    or conjugate-linear, is `order_reference`'s, which composes no map."""
    n = data.draw(dims)
    perm = data.draw(st.permutations(range(n)))
    rows = [[data.draw(st.sampled_from(UNITS)) if j == perm[i] else ZERO for j in range(n)] for i in range(n)]
    conjugate = data.draw(st.booleans())
    assert least_order(CoeffMap(sparse_rows(rows), conjugate=conjugate), 8) == order_reference(mat(rows), conjugate)


@settings(deadline=None)
@given(st.data())
def test_coeff_map_is_identity_matches_dense(data):
    n = data.draw(dims)
    phi = data.draw(coeff_maps(n))
    want = (
        phi.index_sign == 1 and not phi.conjugate and phi.parity == 0
        and dense_is_identity(phi.matrix)
    )
    assert phi.is_identity() == want
    plain = CoeffMap(phi.sparse)
    assert plain.is_identity() == dense_is_identity(phi.matrix)


# -- FiniteAutomorphism and mat_mul ---------------------------------------------------

@settings(deadline=None)
@given(st.data())
def test_finite_automorphism_matches_dense(data):
    n = data.draw(dims)
    alg = make_abelian(n).complexify()
    a = FiniteAutomorphism(alg, sparse_rows(data.draw(matrices(n))), data.draw(st.booleans()))
    b = FiniteAutomorphism(alg, sparse_rows(data.draw(matrices(n))), data.draw(st.booleans()))
    vec = data.draw(vectors(n))
    assert automorphism_apply(a, vec) == dense_apply(a.matrix, vec, a.conjugate)
    ab = a.compose(b)
    assert ab.matrix == dense_mul(a.matrix, b.matrix, a.conjugate)
    assert ab.conjugate == (a.conjugate != b.conjugate)
    assert automorphism_apply(ab, vec) == automorphism_apply(a, automorphism_apply(b, vec))
    assert a.is_identity() == (not a.conjugate and dense_is_identity(a.matrix))


@settings(deadline=None)
@given(st.data())
def test_mat_mul_matches_dense_on_rectangles(data):
    n, k, m = data.draw(dims), data.draw(dims), data.draw(dims)
    a, b = data.draw(matrices(n, k)), data.draw(matrices(k, m))
    assert mat_mul(a, b) == dense_mul(a, b)


# -- shapes ---------------------------------------------------------------------------

def test_sparse_rows_refuses_rows_of_unequal_length():
    """Ragged rows are refused, not read as another matrix; a rectangular
    matrix is valid, as an algebra's _cells is size^2 x dim."""
    with pytest.raises(LieAlgebraError, match="unequal length"):
        sparse_rows([[1, 0, 0], [0, 1], [0, 0, 1, 5]])
    assert sparse_rows([[1, 0, Scalar(0, 2)], [0, Fraction(1, 2), 0]]) == (
        (((0, 2, 0), (2, 0, 4)), ((1, 1, 0),)), 2)


def test_compose_refuses_maps_of_different_sizes():
    """A map composed after one of another size raises, in either order,
    and builds no product."""
    small, big = CoeffMap.identity(2), CoeffMap(sparse_rows(mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])))
    for a, b in ((small, big), (big, small)):
        with pytest.raises(InvolutionError, match="cannot compose a"):
            a.compose(b)


def test_an_automorphism_refuses_a_matrix_of_another_size():
    """A matrix whose row count is not the algebra's dimension, or whose
    sparse rows name a column past it, raises naming both sizes, built
    directly or through automorphism_from_order; extra columns that are all
    zero leave the sparse rows of the square part, which is accepted."""
    su2 = make_su(2)
    for rows, shape in (([[1, 0], [0, 1]], "2 x 2"),
                        ([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], "3 x 4")):
        for build in (lambda: FiniteAutomorphism(su2, sparse_rows(rows)),
                      lambda: automorphism_from_order(su2, rows)):
            with pytest.raises(LieAlgebraError, match=f"a {shape} matrix is not a map of the 3-dimensional"):
                build()
    padded = automorphism_from_order(su2, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert padded.sparse == CoeffMap.identity(3).sparse and padded.order == 1
