"""Generalized Cartan matrices: validation, the finite / affine /
indefinite classification and its witnesses (the positive-pivot test
against Bareiss leading minors), composite matrices, the 2 x 2 families
and the realization dimensions (against the rank of the nonzero minors)."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import cartan, linalg
from kmalg.cartan import CartanKind

from oracles import bareiss_determinant, leading_minors_oracle, rank_reference


FINITE_2X2 = {
    "a1xa1": [[2, 0], [0, 2]],
    "a2": [[2, -1], [-1, 2]],
    "b2": [[2, -1], [-2, 2]],
    "g2": [[2, -1], [-3, 2]],
}
AFFINE_2X2 = {
    "a1tilde": [[2, -2], [-2, 2]],
    "a1tilde_prime": [[2, -1], [-4, 2]],
}
DIMS = {"a1xa1": 6, "a2": 8, "b2": 10, "g2": 14}


# -- validate -----------------------------------------------------------------

def test_validate_accepts():
    assert cartan.validate([[2, -1], [-1, 2]]).n == 2
    assert cartan.validate([[2]]).n == 1


def test_validate_rejections():
    with pytest.raises(cartan.AsymmetricZero) as exc:
        cartan.validate([[2, -1], [0, 2]])
    assert exc.value.indices == (1, 0)
    with pytest.raises(cartan.NotSquare):
        cartan.validate([[2, -1]])
    with pytest.raises(cartan.DiagonalNotTwo):
        cartan.validate([[1, 0], [0, 2]])
    with pytest.raises(cartan.PositiveOffDiagonal):
        cartan.validate([[2, 1], [1, 2]])
    with pytest.raises(cartan.CartanMatrixError):
        cartan.validate([[2, -1.5], [-1, 2]])


# -- classify -----------------------------------------------------------------

def test_classify_finite_b2():
    cls = cartan.classify(cartan.validate([[2, -1], [-2, 2]]))
    assert cls.kind == CartanKind.FINITE
    av = _apply([[2, -1], [-2, 2]], cls.witness)
    assert all(x > 0 for x in av) and all(v > 0 for v in cls.witness)


def test_classify_affine_a1tilde():
    cls = cartan.classify(cartan.validate([[2, -2], [-2, 2]]))
    assert cls.kind == CartanKind.AFFINE
    assert cls.witness == (1, 1)


def test_classify_affine_twisted():
    cls = cartan.classify(cartan.validate([[2, -1], [-4, 2]]))
    assert cls.kind == CartanKind.AFFINE
    av = _apply([[2, -1], [-4, 2]], cls.witness)
    assert all(x == 0 for x in av)


def test_classify_neither_by_minor_oracle():
    m = [[2, -3], [-3, 2]]
    # oracle: det = -5 < 0 rules out finite; full rank rules out affine
    assert bareiss_determinant([[Fraction(x) for x in row] for row in m]) == -5
    assert len(linalg.rref([[Fraction(x) for x in row] for row in m])[1]) == 2
    assert cartan.classify(cartan.validate(m)).kind == CartanKind.NEITHER


@st.composite
def minor_sign_matrices(draw):
    """A k x k integer matrix L D U, L and U unit triangular and D diagonal
    in -2..2, so its leading minors d_1 ... d_c take every sign and are zero
    from the first zero d_c on; or, as often, plain small entries."""
    k = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    if draw(st.booleans()):
        return [[draw(entry) for _ in range(k)] for _ in range(k)]
    d = [draw(st.integers(-2, 2)) for _ in range(k)]
    low = [[1 if i == j else draw(entry) if j < i else 0 for j in range(k)] for i in range(k)]
    up = [[1 if i == j else draw(entry) if j > i else 0 for j in range(k)] for i in range(k)]
    return [[sum(low[i][t] * d[t] * up[t][j] for t in range(k)) for j in range(k)] for i in range(k)]


@settings(max_examples=300, deadline=None)
@given(minor_sign_matrices())
def test_positive_pivots_match_bareiss_leading_minors(m):
    """The finite-type test's one elimination agrees with the Bareiss
    leading principal minors, on ints and on Fractions."""
    expected = all(x > 0 for x in leading_minors_oracle(m))
    assert cartan._positive_leading_minors(m) is expected
    assert cartan._positive_leading_minors([[Fraction(x) for x in row] for row in m]) is expected


def _apply(m, v):
    return [sum(Fraction(m[i][j]) * v[j] for j in range(len(v))) for i in range(len(m))]


# -- decompose ------------------------------------------------------------------

def test_decompose():
    a = cartan.validate([[2, 0], [0, 2]])
    assert cartan.decompose(a) == [(0,), (1,)]
    g2 = cartan.validate([[2, -1], [-3, 2]])
    assert cartan.decompose(g2) == [(0, 1)]
    assert cartan.decompose(cartan.validate([[2]])) == [(0,)]


def test_composite_rules():
    # finite + finite -> Finite; affine + affine -> Affine; mixed otherwise
    ff = cartan.classify(cartan.validate([[2, 0], [0, 2]]))
    assert ff.kind == CartanKind.FINITE and ff.synthetic_composite
    aa = cartan.classify(cartan.validate(_block_diag([[2, -2], [-2, 2]], [[2, -2], [-2, 2]])))
    assert aa.kind == CartanKind.AFFINE and aa.synthetic_composite
    fa = cartan.classify(cartan.validate(_block_diag([[2]], [[2, -2], [-2, 2]])))
    assert fa.kind == CartanKind.MIXED
    assert fa.block_kinds == (CartanKind.FINITE, CartanKind.AFFINE)


def _block_diag(a, b):
    n, m = len(a), len(b)
    out = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = a[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = b[i][j]
    return out


# -- identify_2x2 ------------------------------------------------------------------

def test_identify_families():
    for name, m in FINITE_2X2.items():
        fam = cartan.identify_2x2(cartan.validate(m))
        assert fam.name == name
        assert fam.dimension == DIMS[name]
        # simultaneous permutation gives the same family
        swapped = [[m[1][1], m[1][0]], [m[0][1], m[0][0]]]
        assert cartan.identify_2x2(cartan.validate(swapped)).name == name
    for name, m in AFFINE_2X2.items():
        fam = cartan.identify_2x2(cartan.validate(m))
        assert fam.name == name
        assert fam.dimension is None


def test_identify_unknown_and_wrong_size():
    assert cartan.identify_2x2(cartan.validate([[2, -5], [-1, 2]])).name == "Unknown"
    with pytest.raises(cartan.WrongSize):
        cartan.identify_2x2(cartan.validate([[2]]))


def test_identify_consistent_with_classify():
    for m in FINITE_2X2.values():
        assert cartan.classify(cartan.validate(m)).kind == CartanKind.FINITE
    for m in AFFINE_2X2.values():
        assert cartan.classify(cartan.validate(m)).kind == CartanKind.AFFINE


# -- realization dims ------------------------------------------------------------------

def test_realization_dims():
    """(n, rank, 2n - rank), the rank that of the nonzero minors
    (rank_reference), on finite, affine and indefinite matrices."""
    assert cartan.realization_dims(cartan.validate([[2, -2], [-2, 2]])) == cartan.RealizationDims(2, 1, 3)
    assert cartan.realization_dims(cartan.validate([[2, -1], [-1, 2]])) == cartan.RealizationDims(2, 2, 2)
    assert cartan.realization_dims(cartan.validate([[2, 0], [0, 2]])) == cartan.RealizationDims(2, 2, 2)
    for rows in ([[2, -2], [-2, 2]], [[2, -4], [-1, 2]], [[2, -3], [-3, 2]], [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
                 [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]]):
        n, rank = len(rows), rank_reference(rows)
        assert cartan.realization_dims(cartan.validate(rows)) == cartan.RealizationDims(n, rank, 2 * n - rank)


def test_realization_dims_of_composite_affine_matrices():
    """Each affine block loses one from full rank, so two blocks lose two;
    the check that once asserted rank n - 1 refused every such matrix."""
    a1t, a2t = [[2, -2], [-2, 2]], [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    two = cartan.validate([[2, -2, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]])
    assert cartan.classify(two).kind == CartanKind.AFFINE
    assert cartan.realization_dims(two) == cartan.RealizationDims(4, 2, 6)
    mixed_sizes = cartan.validate([row + [0] * 3 for row in a1t] + [[0] * 2 + row for row in a2t])
    assert cartan.realization_dims(mixed_sizes) == cartan.RealizationDims(5, 3, 7)


# -- permutation invariance ------------------------------------------------------------

@given(st.permutations(range(4)))
def test_classify_permutation_invariant(perm):
    base = _block_diag([[2, -1], [-1, 2]], [[2, -2], [-2, 2]])
    permuted = [[base[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
    a = cartan.classify(cartan.validate(base))
    b = cartan.classify(cartan.validate(permuted))
    assert a.kind == b.kind
    assert sorted(k.value for k in a.block_kinds) == sorted(k.value for k in b.block_kinds)
