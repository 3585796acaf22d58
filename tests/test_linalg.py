"""Exact linear algebra: rref, rank, solve and nullspace on rationals and
Scalars, symmetric signatures (Sylvester's law, a Fraction reference, int
matrices), the [re | im] layout of scalars.vec_from_scalars, and the
connected components of a graph against the label-propagation reference."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from kmalg import linalg
from kmalg.scalars import Scalar, vec_from_parts, vec_from_scalars, vec_to_scalars

from oracles import components_reference, fraction_backed, real_flatten

F = Fraction


def test_rref_and_rank():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    red, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert len(pivots) == 2 and len(m[0]) - len(linalg.nullspace(m)) == 2  # rank by kernel, as cartan reads it


def test_solve_and_nullspace():
    a = [[F(2), F(-1)], [F(-1), F(2)]]
    x = linalg.solve(a, [F(1), F(1)])
    assert x == [F(1), F(1)]
    assert linalg.solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None
    null = linalg.nullspace([[F(1), F(1)]])
    assert len(null) == 1
    assert null[0][0] + null[0][1] == 0


def test_solve_over_scalars():
    a = [[Scalar(0, 1)]]
    x = linalg.solve(a, [Scalar(1)])
    assert x == [Scalar(0, -1)]


def test_signatures():
    assert linalg.symmetric_signature([[F(2), F(0)], [F(0), F(3)]]) == (2, 0, 0)
    assert linalg.symmetric_signature([[F(-1), F(0)], [F(0), F(-5)]]) == (0, 2, 0)
    # hyperbolic plane: zero diagonal, repaired by a symmetric row/col add
    assert linalg.symmetric_signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)
    assert linalg.symmetric_signature([[F(0), F(0)], [F(0), F(0)]]) == (0, 0, 2)
    assert linalg.symmetric_signature([[F(1), F(1)], [F(1), F(1)]]) == (1, 0, 1)


nonzero = st.builds(Fraction, st.integers(1, 9), st.integers(1, 5))
sparse_rationals = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
)


@st.composite
def congruent_diagonals(draw):
    """(S, (p + h, q + h, z)) with S = P^T D P: D block diagonal with p
    positive, q negative and z zero entries and h hyperbolic blocks
    [[0, c], [c, 0]] in a random order; P unit upper triangular with random
    rational entries and its columns randomly permuted."""
    p, q, z = (draw(st.integers(0, 5)) for _ in range(3))
    h = draw(st.integers(0, (15 - p - q - z) // 2))
    blocks = [[draw(nonzero)] for _ in range(p)] + [[-draw(nonzero)] for _ in range(q)]
    blocks += [[Fraction(0)] for _ in range(z)] + [[Fraction(0), draw(nonzero)] for _ in range(h)]
    blocks = draw(st.permutations(blocks))
    n = p + q + z + 2 * h
    d = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for block in blocks:
        if len(block) == 1:
            d[at][at] = block[0]
        else:
            d[at][at + 1] = d[at + 1][at] = block[1]
        at += len(block)
    upper = [[Fraction(1) if i == j else draw(sparse_rationals) if i < j else Fraction(0)
              for j in range(n)] for i in range(n)]
    order = draw(st.permutations(range(n)))
    pm = [[row[c] for c in order] for row in upper]
    dp = [[sum((d[i][t] * pm[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
          for i in range(n)]
    s = [[sum((pm[t][i] * dp[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
         for i in range(n)]
    return s, (p + h, q + h, z)


@settings(max_examples=300, deadline=None)
@given(congruent_diagonals())
def test_signature_obeys_sylvesters_law(case):
    s, expected = case
    assert linalg.symmetric_signature(s) == expected


@given(st.lists(st.builds(Scalar, st.fractions(max_denominator=6), st.fractions(max_denominator=6)), max_size=4))
def test_real_flatten_round_trip(vec):
    """scalars.vec_from_scalars writes the [re | im] layout of real_flatten
    over one denominator, and vec_to_scalars reads it back."""
    vec = tuple(vec)
    assert vec_from_scalars(vec) == vec_from_parts(real_flatten(vec))
    assert vec_to_scalars(vec_from_scalars(vec)) == vec


# -- exact division: no float on int, Fraction or Scalar entries ---------------

small_ints = st.integers(-3, 3)
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussian = st.builds(Scalar, st.one_of(small_ints, small_fractions),
                     st.one_of(small_ints, small_fractions))
ENTRIES = {"int": small_ints, "Fraction": small_fractions, "Scalar": gaussian}


@st.composite
def matrices(draw, symmetric=False, kinds=("int", "Fraction", "Scalar")):
    entry = ENTRIES[draw(st.sampled_from(kinds))]
    n = draw(st.integers(1, 5))
    ncols = n if symmetric else draw(st.integers(1, 6))
    m = [[draw(entry) for _ in range(ncols)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
    return m


def _exact(value):
    """Whether value (a result of linalg, possibly nested) holds no float:
    rationals are int or Fraction, Scalar parts are canonical."""
    if isinstance(value, (list, tuple)):
        return all(_exact(v) for v in value)
    if isinstance(value, Scalar):
        return all(type(p) is int or (type(p) is Fraction and p.denominator != 1)
                   for p in (value.re, value.im))
    return value is None or type(value) in (int, Fraction)


def _reference(m):
    """The same matrix in the Fraction-only representation: rational entries
    as Fraction, Scalar entries with Fraction parts."""
    def conv(x):
        if isinstance(x, Scalar):
            return fraction_backed(x.re, x.im)
        return Fraction(x)
    return [[conv(x) for x in row] for row in m]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rank_nullspace_exact(m):
    red, pivots = linalg.rref(m)
    assert _exact(red)
    assert (red, pivots) == linalg.rref(_reference(m))
    null = linalg.nullspace(m)
    assert _exact(null)
    assert null == linalg.nullspace(_reference(m))
    for v in null:
        assert all(not sum((a * x for a, x in zip(row, v)), 0 * v[0]) for row in m)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_exact(m, data):
    entry = ENTRIES["Scalar" if isinstance(m[0][0], Scalar) else "int"]
    b = [data.draw(entry) for _ in m]
    x = linalg.solve(m, b)
    assert _exact(x)
    assert x == linalg.solve(_reference(m), _reference([b])[0])
    if x is not None:
        for row, bv in zip(m, b):
            assert sum((a * xv for a, xv in zip(row, x)), 0 * bv) == bv


@settings(max_examples=200, deadline=None)
@given(matrices(symmetric=True, kinds=("int", "Fraction")))
def test_symmetric_signature_matches_fraction_reference(m):
    sig = linalg.symmetric_signature(m)
    assert sig == linalg.symmetric_signature(_reference(m))
    assert sum(sig) == len(m)


@st.composite
def integer_congruent_diagonals(draw):
    """(S, signature) with S = P^T D P an int matrix: D diagonal with
    entries in -3..3 and P unit upper triangular with int entries, its
    columns permuted. Eliminating S divides ints by ints, and any inexact
    quotient leaves a residue where the Schur complement must be zero."""
    n = draw(st.integers(1, 7))
    d = [draw(st.integers(-3, 3)) for _ in range(n)]
    upper = [[1 if i == j else draw(st.integers(-2, 2)) if i < j else 0 for j in range(n)]
             for i in range(n)]
    order = draw(st.permutations(range(n)))
    pm = [[row[c] for c in order] for row in upper]
    s = [[sum(pm[t][i] * d[t] * pm[t][j] for t in range(n)) for j in range(n)]
         for i in range(n)]
    expected = (sum(x > 0 for x in d), sum(x < 0 for x in d), sum(x == 0 for x in d))
    return s, expected


@settings(max_examples=300, deadline=None)
@given(integer_congruent_diagonals())
def test_signature_on_int_matrices_is_exact(case):
    s, expected = case
    assert all(type(x) is int for row in s for x in row)
    assert linalg.symmetric_signature(s) == expected


@st.composite
def graphs(draw):
    """A vertex count n <= 12 and edges among its vertices: self-loops,
    repeated and reversed pairs and isolated vertices all occur."""
    n = draw(st.integers(0, 12))
    if not n:
        return 0, []
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    extra = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return n, edges + [(j, i) for i, j in extra]


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_components_match_the_reference(graph):
    n, edges = graph
    assert linalg.components(n, edges) == components_reference(n, edges)
