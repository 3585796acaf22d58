"""Finite-dimensional Lie algebras: the su, sl, so and abelian families,
direct sums, the integer structure and Killing tables (against the
constants solved from the basis matrices), coordinates, and finite
automorphisms (orders, the bracket check and Killing invariance)."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kmalg import findim, linalg, serialize
from kmalg.findim import (
    CoeffMap,
    FiniteAutomorphism,
    IdealBlock,
    _unit,
    automorphism_from_order,
    check_bracket,
    direct_sum,
    entrywise_conjugation_automorphism,
    make_abelian,
    make_sl,
    make_so,
    make_su,
    mat_add,
    mat_scale,
    sparse_rows,
)
from kmalg.kmext import jacobi_residual
from kmalg.loop import untwisted
from kmalg.osaka import build_catalog_a1, complex_conjugation_counterexample, euclidean_osaka
from kmalg.rand import TrialRng, random_extended_element
from kmalg.scalars import I, Scalar, ZERO, vec_from_scalars

from cases import (HALF_I_SL2, KERNEL_ALGEBRAS, QUARTER_SU2, SWAP, UNITS, WIDE_COORDS, entries, general,
                   lanes_are_ints, scaled_algebra)
from oracles import (
    automorphism_apply,
    bracket_reference,
    check_bracket_reference,
    construction_error_reference,
    coords,
    coords_reference,
    eigenspace_reference,
    eigenspace_support_reference,
    is_semisimple,
    killing_reference,
    mat,
    matrix,
    order_reference,
    scalar_bracket,
    scalar_killing,
    scalar_reference,
    solved_tables,
)

E1 = (Scalar(1), ZERO, ZERO)
E2 = (ZERO, Scalar(1), ZERO)
E3 = (ZERO, ZERO, Scalar(1))


# -- constructors -----------------------------------------------------------

def test_sl_dimensions():
    assert make_sl(2).dim == 3
    assert make_sl(3).dim == 8
    assert direct_sum(make_sl(2), make_sl(2)).dim == 6


def test_sl_rejects_small():
    with pytest.raises(findim.LieAlgebraError):
        make_sl(1)


def test_su2_basis_is_standard():
    su2 = make_su(2)
    i = Scalar(0, 1)
    assert su2.basis[0] == mat([[i, 0], [0, -i]])
    assert su2.basis[1] == mat([[0, 1], [-1, 0]])
    assert su2.basis[2] == mat([[0, i], [i, 0]])
    assert su2.dim == 3 and su2.field == "R"


def test_su_closure_is_rational():
    c, _ = solved_tables(make_su(2).basis)
    for j in range(3):
        for k in range(3):
            for x in c[j][k]:
                assert x.is_real()


def test_su2_complexification_matches_sl2():
    """Change of basis carrying the anti-Hermitian basis into (H, E, F)
    transports the structure constants exactly."""
    a1 = make_su(2).complexify()
    sl2 = make_sl(2, "C")
    t = [coords(sl2, b) for b in a1.basis]  # each su2 basis vector in sl2 coords

    def to_sl2(vec):
        out = [ZERO] * 3
        for c, row in zip(vec, t):
            for i, x in enumerate(row):
                out[i] = out[i] + c * x
        return tuple(out)

    rng = TrialRng("sl2-transport")
    for _ in range(25):
        x = tuple(rng.scalar() for _ in range(3))
        y = tuple(rng.scalar() for _ in range(3))
        assert to_sl2(scalar_bracket(a1, x, y)) == scalar_bracket(sl2, to_sl2(x), to_sl2(y))


def assert_declared_blocks_are_ideals(g):
    """Each declared block is an ideal read from the solved structure
    constants: [block, g] lies in the block, and [block, block] = 0 when
    abelian."""
    c, _ = solved_tables(g.basis)
    for block in g.blocks:
        inside = set(block.indices)
        for j in block.indices:
            for k in range(g.dim):
                assert {m for m, x in enumerate(c[j][k]) if x} <= inside
                if block.kind == "abelian" and k in inside:
                    assert not any(c[j][k])


def test_so_dimensions_and_split():
    assert make_so(5, "C").dim == 10
    assert make_so(3, "R").dim == 3
    so4 = make_so(4)
    assert so4.dim == 6
    assert [(b.kind, len(b.indices)) for b in so4.blocks] == [("simple", 3), ("simple", 3)]
    assert_declared_blocks_are_ideals(so4)


def test_abelian():
    ab = make_abelian(1)
    assert all(not any(solved_tables(ab.basis)[0][j][k]) for j in range(1) for k in range(1))
    assert scalar_killing(ab, (Scalar(1),), (Scalar(1),)) == ZERO
    g = direct_sum(make_abelian(1), make_su(2))
    assert [(b.kind, len(b.indices)) for b in g.blocks] == [("abelian", 1), ("simple", 3)]
    assert_declared_blocks_are_ideals(g)


# -- killing form -------------------------------------------------------------

def test_killing_su2_against_trace_oracle():
    su2 = make_su(2)
    assert scalar_killing(su2, E1, E1) == killing_reference(su2, E1, E1)
    assert scalar_killing(su2, E1, E1) == Scalar(-8)
    rng = TrialRng("killing-su2")
    for _ in range(20):
        x = tuple(scalar_reference(rng, real_only=True) for _ in range(3))
        y = tuple(scalar_reference(rng, real_only=True) for _ in range(3))
        assert scalar_killing(su2, x, y) == killing_reference(su2, x, y)


def test_killing_sl2r_h():
    sl2r = make_sl(2, "R")
    h = E1  # first basis vector is H = E11 - E22
    assert scalar_killing(sl2r, h, h) == Scalar(8)
    assert scalar_killing(sl2r, h, h) == killing_reference(sl2r, h, h)


def test_killing_so_oracle():
    so5 = make_so(5, "C")
    rng = TrialRng("killing-so5")
    for _ in range(5):
        x = tuple(rng.scalar() for _ in range(10))
        y = tuple(rng.scalar() for _ in range(10))
        assert scalar_killing(so5, x, y) == killing_reference(so5, x, y)


def test_killing_abelian_vanishes():
    ab = make_abelian(3)
    rng = TrialRng("killing-ab")
    x = tuple(scalar_reference(rng, real_only=True) for _ in range(3))
    assert scalar_killing(ab, x, x) == ZERO


def test_semisimple_nondegenerate():
    for g in (make_su(2), make_sl(3), make_so(5, "C"), make_so(4)):
        assert is_semisimple(g)
    assert not is_semisimple(make_abelian(2))


# -- algebra laws ---------------------------------------------------------------

def test_antisymmetry_and_jacobi_on_all_basis_triples():
    for g in (make_su(2), make_sl(3), make_so(4)):
        basis = [tuple(Scalar(1) if i == j else ZERO for i in range(g.dim)) for j in range(g.dim)]
        for x in basis:
            for y in basis:
                assert scalar_bracket(g, x, y) == tuple(-c for c in scalar_bracket(g, y, x))
        for x in basis:
            for y in basis:
                for z in basis:
                    total = [ZERO] * g.dim
                    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                        term = scalar_bracket(g, scalar_bracket(g, a, b), c)
                        total = [t + u for t, u in zip(total, term)]
                    assert not any(total)


def test_non_closed_basis_rejected():
    sl2 = make_sl(2, "C")
    # span{E, F} is not bracket-closed: [E, F] = H escapes
    e_mat, f_mat = sl2.basis[1], sl2.basis[2]
    with pytest.raises(findim.LieAlgebraError):
        findim.FiniteLieAlgebra(
            "ef-span", "C", [e_mat, f_mat], [findim.IdealBlock("simple", (0, 1))]
        )


def test_non_orthogonal_blocks_rejected():
    su2 = make_su(2)
    with pytest.raises(findim.LieAlgebraError):
        findim.FiniteLieAlgebra(
            "bad-split", "R", su2.basis,
            [findim.IdealBlock("simple", (0,)), findim.IdealBlock("simple", (1, 2))],
        )


# -- the integer-numerator kernel against the Scalar reference ------------------

_parts = st.integers(-6, 6) | st.fractions(min_value=-4, max_value=4, max_denominator=6)
_scalars = st.one_of(
    st.just(ZERO),
    st.builds(Scalar, _parts),  # real
    st.builds(lambda im: Scalar(0, im), _parts),  # purely imaginary
    st.builds(Scalar, _parts, _parts),
)


@st.composite
def _algebra_and_vectors(draw):
    g = draw(st.sampled_from(KERNEL_ALGEBRAS))
    vec = st.lists(_scalars, min_size=g.dim, max_size=g.dim).map(tuple)
    return g, draw(vec), draw(vec)


def _assert_exact(values):
    for v in values:
        for part in (v.re, v.im):
            assert type(part) is int or (type(part) is Fraction and part.denominator != 1)


def test_kernel_algebras_need_division():
    assert QUARTER_SU2._sc_den == 2 and HALF_I_SL2._sc_den == 2
    assert scalar_killing(QUARTER_SU2, E1, E1) == Scalar(Fraction(-1, 2))
    assert not scalar_killing(HALF_I_SL2, E1, E1).re and scalar_killing(HALF_I_SL2, E1, E1)


@settings(max_examples=300, deadline=None)
@given(case=_algebra_and_vectors())
@example(case=(QUARTER_SU2, *WIDE_COORDS))
@example(case=(HALF_I_SL2, *WIDE_COORDS))
def test_bracket_and_killing_match_reference(case):
    """The examples bracket coordinates of serialize.MAX_DIGITS digits over
    mixed denominators, on real and on non-real constants over D_s = 2;
    every lane of the bracket and every decoded numerator is an int."""
    g, x, y = case
    with lanes_are_ints():
        br = scalar_bracket(g, x, y)
    assert br == bracket_reference(g, x, y)
    _assert_exact(br)
    b = scalar_killing(g, x, y)
    assert b == killing_reference(g, x, y)
    _assert_exact((b,))


# -- the bracket tables ------------------------------------------------------------

def test_bracket_tables_walk_only_what_the_grading_meets(monkeypatch):
    """On su2c/2 and sl2c/2 an even-even exponent pair walks none of the 6
    structure constants and every other parity pair walks 2; an untwisted
    algebra and su2su2c under the swap of its summands walk every one. Each
    table holds the constants whose coordinates lie in the supports of the
    eigenspaces, the nonzero rows of their projectors
    (`eigenspace_support_reference`), times the twist order m, as int lanes
    at the width asked for. Replacing _sc on the algebra itself gives new
    tables."""
    kinds = [serialize.lookup_algebra(*kind) for kind in (("su2c", 2), ("sl2c", 2), ("su2c", 1), ("su2su2c", 1))]
    for algebra, twist in kinds + [SWAP]:
        m = twist.order
        for w in (5, 40):
            tables = algebra.bracket_tables(w, twist)
            assert [[len(table) for table in row] for row in tables] == (
                [[0, 2], [2, 2]] if algebra.dim == 3 and m == 2 else [[len(algebra._sc)] * m] * m)
            for a in range(m):
                for b in range(m):
                    left, right = (eigenspace_support_reference(twist, p) for p in (a, b))
                    assert tables[a][b] == tuple((j, k, r, m * s + (m * t << w))
                                                 for j, k, r, s, t in algebra._sc if j in left and k in right)
                    assert all(type(v) is int for entry in tables[a][b] for v in entry)
    algebra, twist = kinds[0]
    j, k, r, s, t = algebra._sc[0]
    monkeypatch.setattr(algebra, "_sc", ((j, k, r, s + 1, t),) + algebra._sc[1:])
    for tables, m in ((algebra.bracket_tables(5, twist), 2), (algebra.bracket_tables(5), 1)):
        old, new = ((j, k, r, m * (v + (t << 5))) for v in (s, s + 1))
        entries = [entry for row in tables for table in row for entry in table]
        assert new in entries and old not in entries


def test_real_constants_hold_one_table_set_per_twist():
    """After 300 Jacobi triples per registered kind at degree 6, each
    registered algebra, all of whose constants are real, holds one set of
    lane tables per twist whatever widths the triples asked for, and two
    widths get the same tables. HALF_I_SL2 has non-real constants, whose
    lanes move with the width, so it keeps one set per width."""
    for algebra, twists in serialize.registry().values():
        for twist in twists.values():
            for t in range(300):
                rng = TrialRng(1, t)
                jacobi_residual(*(random_extended_element(algebra, twist, rng) for _ in range(3)))
            assert algebra.bracket_tables(5, twist) is algebra.bracket_tables(90, twist)
        held = algebra._tables[2]
        assert len(held) == len({sparse for sparse, _ in held})
    assert HALF_I_SL2.bracket_tables(5) != HALF_I_SL2.bracket_tables(9)
    assert {w for _, w in HALF_I_SL2._tables[2]} >= {5, 9}


def test_each_twist_eigenspace_is_solved_once(monkeypatch):
    """300 Jacobi triples per registered kind, over a new copy of each
    registered twist, solve each (twist, parity) eigenspace at most once:
    the twist holds what it solved, and nothing else takes a nullspace."""
    calls = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda rows: calls.append(len(rows)) or nullspace(rows))
    for algebra, twists in serialize.registry().values():
        for twist in twists.values():
            copy = FiniteAutomorphism(algebra, twist.sparse)
            calls.clear()
            for t in range(300):
                rng = TrialRng(1, t)
                jacobi_residual(*(random_extended_element(algebra, copy, rng) for _ in range(3)))
            assert 1 <= len(calls) <= 2 and calls == [algebra.dim] * len(calls), (algebra.name, twist.order)
            for parity in (0, 1):
                copy.eigenspace(parity)
            assert len(calls) <= 2


@st.composite
def _involutive_signed_permutations(draw):
    """A signed permutation map of order at most 2 on a kernel algebra (of
    dimension 1 to 10): disjoint transpositions, each with one sign on both
    its entries, and a sign on each fixed point. It need not keep the
    bracket; its eigenspaces are solved on first use."""
    algebra = draw(st.sampled_from(KERNEL_ALGEBRAS))
    n = algebra.dim
    order, pairs = draw(st.permutations(range(n))), draw(st.integers(0, n // 2))
    rows = [[0] * n for _ in range(n)]
    for i in range(pairs):
        a, b, sign = order[2 * i], order[2 * i + 1], draw(st.sampled_from((1, -1)))
        rows[a][b] = rows[b][a] = sign
    for a in order[2 * pairs:]:
        rows[a][a] = draw(st.sampled_from((1, -1)))
    return FiniteAutomorphism(algebra, sparse_rows(rows))


_HELD_TWISTS = ([twist for _, twists in serialize.registry().values() for twist in twists.values()]
                + [rec.real_form.twist for rec in build_catalog_a1()] + [SWAP[1]])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(_HELD_TWISTS), _involutive_signed_permutations()))
def test_eigenspaces_match_the_reference(twist):
    """The eigenspaces a twist holds are those of its matrix
    (`eigenspace_reference`): on every registered twist, every catalog
    sigma, the swap of su2su2c and random signed permutations of order at
    most 2."""
    assert twist.order in (1, 2) and eigenspace_reference(twist)


# -- the integer tables against the solved reference -------------------------------

THIRD_SO3 = scaled_algebra(make_so(3), Scalar(Fraction(1, 3)), "R")  # D_s = 3
_SU2, _SL2 = make_su(2), make_sl(2)
_U1_SU2 = direct_sum(make_abelian(1), _SU2)
# {E11, i E11}: independent over R, dependent over C; a real algebra may hold it
R_NOT_C = findim.FiniteLieAlgebra("E11,iE11", "R", [mat([[1, 0], [0, 0]]), mat([[I, 0], [0, 0]])],
                                  [IdealBlock("abelian", (0, 1))])
TABLE_CASES = {
    "sl2": _SL2, "sl3": make_sl(3), "su2": _SU2, "su3": make_su(3),
    "so3": make_so(3), "so4": make_so(4), "so5": make_so(5), "so5C": make_so(5, "C"),
    "abelian0": make_abelian(0), "abelian1": make_abelian(1), "abelian2": make_abelian(2),
    "su2_C": _SU2.complexify(), "so4_C": make_so(4).complexify(), "abelian1_C": make_abelian(1).complexify(),
    "quarter-su2": QUARTER_SU2, "half-i-sl2": HALF_I_SL2, "third-so3": THIRD_SO3,
    "su2+su2": direct_sum(_SU2, _SU2), "u1+su2": _U1_SU2, "sl2+sl3": direct_sum(_SL2, make_sl(3)),
    "quarter-su2+third-so3": direct_sum(QUARTER_SU2, THIRD_SO3),  # D_s = lcm(2, 3)
    "half-i-sl2+sl2": direct_sum(HALF_I_SL2, _SL2),
    "su4": make_su(4), "so7": make_so(7), "E11,iE11": R_NOT_C,
    **{f"registry-{name}": alg for name, (alg, _) in serialize.registry().items()},
    **{f"catalog-{rec.name}": rec.real_form.algebra
       for rec in [*build_catalog_a1(), euclidean_osaka(), complex_conjugation_counterexample()]},
    # refused inputs: (field, basis, blocks, the reason)
    "non-real": ("R", [mat_scale(Scalar(0, 1), _SL2.basis[0]), *_SL2.basis[1:]], _SL2.blocks,
                 "non-real structure constant"),
    "non-orthogonal": ("R", _U1_SU2.basis,
                       [IdealBlock("abelian", (0,)), *(IdealBlock("simple", (i,)) for i in (1, 2, 3))],
                       "blocks 1 and 2 are not bracket-orthogonal"),  # (1, 3) and (2, 3) fail too
    "dependent": ("R", [*_SU2.basis, _SU2.basis[0]], [IdealBlock("simple", (0, 1, 2, 3))],
                  "linearly dependent"),
}


@pytest.mark.parametrize("label", sorted(TABLE_CASES))
def test_integer_tables_match_the_solved_reference(label):
    """_sc, _sc_den, _killing_rows and the Killing form on every unit pair
    equal the tables solved from the Scalar commutators of the basis
    matrices alone (solved_tables), on every registered and catalog
    algebra among others; an input the reference refuses is refused for
    its reason, a non-orthogonal split naming its lowest block pair."""
    case = TABLE_CASES[label]
    if isinstance(case, tuple):
        field, basis, blocks, reason = case
        assert construction_error_reference(field, basis, blocks) == reason
        with pytest.raises(findim.LieAlgebraError, match=reason):
            findim.FiniteLieAlgebra(label, field, basis, blocks)
        return
    g = case
    assert construction_error_reference(g.field, g.basis, g.blocks) is None
    c, killing = solved_tables(g.basis)
    entries = [(j, k, m, x) for j in range(g.dim) for k in range(g.dim) for m, x in enumerate(c[j][k]) if x]
    nums, den = vec_from_scalars([x for *_, x in entries])
    assert g._sc_den == den
    assert g._sc == tuple((j, k, m, re, im) for (j, k, m, _), re, im in zip(entries, nums, nums[len(entries):]))
    assert (g._killing_rows, g._killing_den) == sparse_rows(killing)
    units = [tuple(Scalar(1) if i == n else ZERO for i in range(g.dim)) for n in range(g.dim)]
    for j in range(g.dim):
        for l in range(g.dim):
            assert scalar_killing(g, units[j], units[l]) == killing[j][l]


# -- one elimination per algebra -----------------------------------------------------

def test_real_but_not_complex_independence_builds():
    """The independence check is over R: z E11 has the coordinates
    (re z, im z), as the per-matrix reference finds them."""
    assert R_NOT_C._sc == () and R_NOT_C._sc_den == 1
    m = mat([[Scalar(Fraction(2, 3), -5), 0], [0, 0]])
    assert coords(R_NOT_C, m) == coords_reference(R_NOT_C, m) == (Scalar(Fraction(2, 3)), Scalar(-5))
    off = mat([[1, 0], [0, 1]])
    with pytest.raises(findim.LieAlgebraError, match="not in the span"):
        coords(R_NOT_C, off)


@pytest.mark.parametrize("size", [1, 3])
def test_coords_refuse_a_matrix_of_another_size(size):
    """A matrix is read entry by entry against the basis's entries, so one
    of another size is refused, not truncated or solved on fewer equations."""
    with pytest.raises(findim.LieAlgebraError, match="is not 2 x 2"):
        coords(_SU2, mat([[1] * size] * size))


SPAN_ALGEBRAS = {"su2": _SU2, "su3": make_su(3), "sl3": make_sl(3), "so4": make_so(4),
                 **{f"abelian{k}": make_abelian(k) for k in range(3)}}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SPAN_ALGEBRAS)), st.data())
def test_coords_match_the_per_matrix_reference(label, data):
    """coords of a Q(i) combination of the basis is the combination's
    coefficients, as the per-matrix reference finds them; the combination
    plus a multiple of a matrix unit is solved or refused as the reference
    solves or refuses it, with the same message."""
    g = SPAN_ALGEBRAS[label]
    c = tuple(data.draw(_scalars) for _ in range(g.dim))
    m = matrix(g, c)
    assert coords(g, m) == coords_reference(g, m) == c
    n = g.matrix_size
    p, q = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    off = mat_add(m, mat_scale(data.draw(_scalars), _unit(n, p, q)))
    try:
        expected = coords_reference(g, off)
    except findim.LieAlgebraError as exc:
        with pytest.raises(findim.LieAlgebraError) as got:
            coords(g, off)
        assert str(got.value) == str(exc)
    else:
        assert coords(g, off) == expected


def test_construction_is_one_elimination(monkeypatch):
    """A solved construction row-reduces once, whatever its dimension, and
    does not solve on the side; so does one coords call."""
    calls = []
    rref = findim.linalg.rref

    def counted(rows):
        calls.append(len(rows))
        return rref(rows)

    def refused(*args):
        raise AssertionError("findim must not call linalg.solve")

    monkeypatch.setattr(findim.linalg, "rref", counted)
    monkeypatch.setattr(findim.linalg, "solve", refused)
    for g in (_SU2, make_su(3), make_so(4), make_abelian(0), R_NOT_C):
        calls.clear()
        h = findim.FiniteLieAlgebra(g.name, g.field, g.basis, g.blocks)
        assert len(calls) == 1 and h._sc == g._sc
        calls.clear()
        coords(h, g.basis[-1] if g.dim else mat([[0]]))
        assert len(calls) == 1


# -- automorphisms -----------------------------------------------------------------

def test_entrywise_conjugation_on_su2():
    mu = entrywise_conjugation_automorphism(make_su(2))
    assert mu.order == 2
    assert not mu.conjugate  # real algebra: a linear involution
    assert mu.matrix == mat([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])


def test_identity_order_one():
    ident = untwisted(make_su(2))
    assert ident.order == 1
    check_bracket(make_su(2), ident)


def test_not_automorphism_rejected():
    su2 = make_su(2)
    bogus = FiniteAutomorphism(su2, sparse_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(findim.NotAutomorphismError):
        check_bracket(su2, bogus)


@pytest.mark.parametrize("diag, pair", [((1, 1, -1), (0, 1)), ((1, I, I), (1, 2))])
def test_automorphism_from_order_names_the_first_broken_pair(diag, pair):
    """A finite-order map that breaks the bracket raises
    NotAutomorphismError on the first basis pair (row-major) the Scalar
    reference finds broken."""
    su2 = make_su(2).complexify()
    rows = [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
    phi = FiniteAutomorphism(su2, sparse_rows(rows))
    units = (E1, E2, E3)
    broken = [(j, k) for j in range(3) for k in range(3)
              if automorphism_apply(phi, bracket_reference(su2, units[j], units[k]))
              != bracket_reference(su2, automorphism_apply(phi, units[j]), automorphism_apply(phi, units[k]))]
    assert broken[0] == pair
    with pytest.raises(findim.NotAutomorphismError) as err:
        automorphism_from_order(su2, rows)
    assert err.value.pair == pair


_I_SL2 = scaled_algebra(make_sl(2, "C"), I, "C")  # constants i c_jk: purely imaginary
# every registered twist, the catalog's twists, real structures and loop
# maps, the swap of su(2)+su(2), and entrywise conjugation on two algebras
# with non-real constants, each with its algebra
_MAPS = ([(phi.algebra, phi) for _, twists in serialize.registry().values() for phi in twists.values()]
         + [(rec.real_form.algebra, m) for rec in build_catalog_a1()
            for m in (rec.real_form.twist, rec.real_form.conj, rec.involution.loop_map) if m is not None]
         + [SWAP] + [(g, entrywise_conjugation_automorphism(g)) for g in (HALF_I_SL2, _I_SL2)])


@st.composite
def _algebra_and_map(draw):
    """An algebra and a CoeffMap of its size: a permutation signed by the
    units 1, i, -1, -i, a sparse Gaussian-rational matrix, either linear or
    conjugate-linear, or one entry of a map of _MAPS replaced."""
    kind = draw(st.sampled_from(["signed permutation", "sparse", "corrupted"]))
    if kind == "corrupted":
        g, phi = draw(st.sampled_from(_MAPS))
        rows, conjugate = [list(row) for row in phi.matrix], phi.conjugate
        rows[draw(st.integers(0, g.dim - 1))][draw(st.integers(0, g.dim - 1))] = draw(entries)
    else:
        g, conjugate = draw(st.sampled_from(KERNEL_ALGEBRAS + [_I_SL2])), draw(st.booleans())
        n = g.dim
        if kind == "signed permutation":
            perm = draw(st.permutations(range(n)))
            signs = draw(st.lists(st.sampled_from(UNITS), min_size=n, max_size=n))
            cells = {(i, perm[i]): signs[i] for i in range(n)}
        else:
            cells = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), general,
                                         max_size=2 * n))
        rows = [[cells.get((i, j), ZERO) for j in range(n)] for i in range(n)]
    return g, CoeffMap(sparse_rows(rows), conjugate=conjugate)


def _broken_pair(check, g, cmap):
    try:
        check(g, cmap)
    except findim.NotAutomorphismError as err:
        return err.pair
    return None


@settings(max_examples=200, deadline=None)
@given(case=_algebra_and_map())
@example(case=_MAPS[-1])
@example(case=(_I_SL2, CoeffMap(sparse_rows([[I, 0, 0], [0, -I, 0], [0, 0, -I]]), conjugate=True)))
def test_check_bracket_matches_the_reference(case):
    """check_bracket and the per-pair bracket of the images raise on the
    same first broken pair, or neither raises. The examples are entrywise
    conjugation on i sl(2, C), whose constants are purely imaginary, which
    keeps the bracket, and a conjugate-linear diagonal map that does not."""
    g, cmap = case
    assert _broken_pair(check_bracket, g, cmap) == _broken_pair(check_bracket_reference, g, cmap)


def test_check_bracket_brackets_no_element(monkeypatch):
    """check_bracket reads the structure constants alone: with
    FiniteLieAlgebra.bracket and sparse_apply refusing every call, every
    map of _MAPS still passes."""
    def refuse(*args):
        raise AssertionError("check_bracket called a bracket or a map image")

    monkeypatch.setattr(findim.FiniteLieAlgebra, "bracket", refuse)
    monkeypatch.setattr(findim, "sparse_apply", refuse)
    for g, phi in _MAPS:
        check_bracket(g, phi)


def test_automorphism_from_order_composes_each_power_once(monkeypatch):
    """The order is found once, from the powers: an order-k map costs
    k - 1 compositions, with no second pass over its powers."""
    calls = []
    compose = FiniteAutomorphism.compose
    monkeypatch.setattr(FiniteAutomorphism, "compose", lambda a, b: calls.append(1) or compose(a, b))
    su2c = make_su(2).complexify()
    assert automorphism_from_order(su2c, [[1, 0, 0], [0, -1, 0], [0, 0, -1]]).order == 2
    assert len(calls) == 1
    calls.clear()
    assert automorphism_from_order(make_su(2), [[0, -1, 0], [1, 0, 0], [0, 0, 1]]).order == 4
    assert len(calls) == 3


_SU2_SU2 = direct_sum(_SU2, _SU2)


@settings(deadline=None)
@given(st.data())
def test_order_is_read_off_the_powers(data):
    """A FiniteAutomorphism's order is the least k <= 8 with phi^k the
    identity, or None: on signed permutations of the basis of su(2) and
    su(2)+su(2), linear or conjugate-linear, it equals a dense power walk
    that composes no map."""
    g = data.draw(st.sampled_from([_SU2.complexify(), _SU2_SU2.complexify()]))
    perm = data.draw(st.permutations(range(g.dim)))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=g.dim, max_size=g.dim))
    rows = mat([[signs[i] if j == perm[i] else 0 for j in range(g.dim)] for i in range(g.dim)])
    conjugate = data.draw(st.booleans())
    assert FiniteAutomorphism(g, sparse_rows(rows), conjugate).order == order_reference(rows, conjugate)


@pytest.mark.parametrize("rows, order", [
    ([[0, -1, 0], [1, 0, 0], [0, 0, 1]], 4),  # a quarter turn about E3
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], None),  # unipotent: no power is the identity
], ids=["rotation", "unipotent"])
def test_order_of_a_rotation_and_a_unipotent_map(rows, order):
    """The order is the power walk's, and automorphism_from_order refuses a
    map with none up to 8."""
    phi = FiniteAutomorphism(_SU2, sparse_rows(rows))
    assert phi.order == order_reference(phi.matrix, False) == order
    if order is None:
        with pytest.raises(findim.WrongOrderError):
            automorphism_from_order(_SU2, rows)
    else:
        assert automorphism_from_order(_SU2, rows).order == order


def test_killing_invariance_under_automorphisms():
    su2c = make_su(2).complexify()
    adg = automorphism_from_order(su2c, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert adg.order == 2
    muc = entrywise_conjugation_automorphism(su2c)
    assert muc.conjugate
    rng = TrialRng("killing-invariance")
    for _ in range(15):
        x = tuple(rng.scalar() for _ in range(3))
        y = tuple(rng.scalar() for _ in range(3))
        b = scalar_killing(su2c, x, y)
        assert scalar_killing(su2c, automorphism_apply(adg, x), automorphism_apply(adg, y)) == b
        # conjugate-linear automorphisms conjugate the value
        assert scalar_killing(su2c, automorphism_apply(muc, x), automorphism_apply(muc, y)) == b.conjugate()
