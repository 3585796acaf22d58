"""Block bases and the split on Gaussian-integer numerators: block bases
from integer equation rows (also on the full complex algebra, with no real
structure; no other module compares them), K and P vectors as one int sum per exponent,
loop Killing values summed from killing_raw, and rref dividing only pivots
that are not 1. Each is checked against its Scalar-path reference in
oracles (block_basis_real_kernel, combine_reference and
fixed_and_eigenspaces_reference, loop_killing_reference, rref_reference),
and none of them may produce a float."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import linalg, serialize
from kmalg.findim import FiniteLieAlgebra, make_su, mat_scale, sparse_rows
from kmalg.involution import CoeffMap, RealFormDescriptor, _combine, fixed_and_eigenspaces
from kmalg.kmext import ExtendedElement
from kmalg.loop import TwistedLoopElement, loop_killing, twist_eigenbasis, untwisted
from kmalg.osaka import build_catalog_a1, complex_conjugation_counterexample, euclidean_osaka
from kmalg.scalars import I, ONE, Scalar, ZERO, vec_to_scalars
from oracles import (
    block_basis_real_kernel,
    combine_reference,
    fixed_and_eigenspaces_reference,
    kp_blocks,
    loop_killing_reference,
    rref_reference,
)

ALGEBRAS = [("su2c", 1), ("su2c", 2), ("sl2c", 1), ("sl2c", 2), ("su2su2c", 1)]
KEYS = [(0,)] + [(k, -k) for k in range(1, 5)] + [("cd",)]
_SU2 = make_su(2)
# su(2) scaled by (1 + i)/3: its Killing entries are not Gaussian integers
SCALED = FiniteLieAlgebra("(1+i)/3 su(2)", "C",
                          [mat_scale(Scalar(Fraction(1, 3), Fraction(1, 3)), b) for b in _SU2.basis],
                          _SU2.blocks)
KINDS = [serialize.lookup_algebra(*a) for a in ALGEBRAS] + [(SCALED, untwisted(SCALED))]

rationals = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
gaussians = st.builds(Scalar, rationals, rationals)
# nonzero entries of a conjugation matrix: signs, units, and entries over a denominator
ENTRIES = [ONE, -ONE, I, -I, Scalar(2), Scalar(1, 1), Scalar(Fraction(1, 2)), Scalar(0, Fraction(-2, 3))]


def element_parts(x):
    """Every rational a report could be built from: the numerators and
    denominator of each loop term, and the parts of c and d."""
    out = [x.c.re, x.c.im, x.d.re, x.d.im]
    for nums, den in x.loop.terms.values():
        out.extend(nums)
        out.append(den)
    return out


# -- block_basis against the real_kernel path ----------------------------------------

@st.composite
def real_forms(draw, shape, parity):
    """A form over a registered algebra whose conjugation is diagonal or a
    signed permutation (a permutation times a diagonal of ENTRIES), with
    the given parity and any index sign and cd scale."""
    algebra, twist = serialize.lookup_algebra(*draw(st.sampled_from(ALGEBRAS)))
    n = algebra.dim
    perm = list(range(n)) if shape == "diagonal" else draw(st.permutations(range(n)))
    diag = [draw(st.sampled_from(ENTRIES)) for _ in range(n)]
    matrix = [[diag[j] if perm[i] == j else ZERO for j in range(n)] for i in range(n)]
    conj = CoeffMap(sparse_rows(matrix), index_sign=draw(st.sampled_from([1, -1])), conjugate=True, parity=parity)
    return RealFormDescriptor(name="drawn", algebra=algebra, twist=twist, conj=conj,
                              cd_scale=draw(st.sampled_from([ONE, I])))


@pytest.mark.parametrize("parity", [0, 1, 2, 3])
@pytest.mark.parametrize("shape", ["diagonal", "signed-permutation"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_basis_matches_real_kernel_path(shape, parity, data):
    rf = data.draw(real_forms(shape, parity))
    for key in KEYS:
        assert rf.block_basis(key) == block_basis_real_kernel(rf, key)


@pytest.mark.parametrize("alg,order", [a for a in ALGEBRAS if a[1] == 2])
@pytest.mark.parametrize("parity", [1, 3])
def test_order_two_twists_with_odd_parity_match_real_kernel_path(alg, order, parity):
    # the identity conjugation at odd parity, with either index sign, on a
    # twisted algebra: both kinds of equation in one elimination
    algebra, twist = serialize.lookup_algebra(alg, order)
    for sign in (1, -1):
        conj = CoeffMap(CoeffMap.identity(algebra.dim).sparse, index_sign=sign, conjugate=True, parity=parity)
        rf = RealFormDescriptor(name="odd", algebra=algebra, twist=twist, conj=conj)
        for key in KEYS:
            assert rf.block_basis(key) == block_basis_real_kernel(rf, key)


@pytest.mark.parametrize("alg,order", ALGEBRAS)
def test_full_complex_blocks_match_real_kernel_path(alg, order):
    """The algebra with no real structure, with every c/d line."""
    algebra, twist = serialize.lookup_algebra(alg, order)
    for cd_scale in (None, ONE, I):
        rf = RealFormDescriptor(name="full", algebra=algebra, twist=twist, conj=None, cd_scale=cd_scale)
        for key in KEYS:
            assert rf.block_basis(key) == block_basis_real_kernel(rf, key)


def test_catalog_blocks_match_real_kernel_path():
    records = build_catalog_a1() + [euclidean_osaka(), complex_conjugation_counterexample()]
    for rec in records:
        rf = rec.real_form
        for key in rf.block_keys(4):
            assert rf.block_basis(key) == block_basis_real_kernel(rf, key), (rec.name, key)


# -- K and P vectors against the Scalar combination ---------------------------------

@st.composite
def loops(draw, algebra, twist, exponents):
    """A graded Scalar-tuple loop dict: at each drawn exponent k, Gaussian
    multiples of the twist eigenbasis at k's parity, zero terms left out."""
    terms = {}
    for k in draw(exponents):
        coords = algebra.zero_coords()
        for b in twist_eigenbasis(algebra, twist, k % twist.order):
            c = draw(gaussians)
            coords = tuple(x + c * y for x, y in zip(coords, vec_to_scalars(b)))
        if any(coords):
            terms[k] = coords
    return terms


EXPONENTS = st.lists(st.integers(-3, 3), max_size=3, unique=True)


@st.composite
def combinations(draw):
    """Elements of one algebra and twist with terms over assorted
    denominators, some with c or d, and a nonzero rational vector."""
    algebra, twist = draw(st.sampled_from(KINDS))
    elems = [ExtendedElement(TwistedLoopElement(algebra, twist, draw(loops(algebra, twist, EXPONENTS))),
                             draw(st.sampled_from([ZERO, ONE, I, Scalar(Fraction(2, 3))])),
                             draw(st.sampled_from([ZERO, ONE, -I])))
             for _ in range(draw(st.integers(1, 4)))]
    coeffs = draw(st.lists(rationals, min_size=len(elems), max_size=len(elems)).filter(any))
    return elems, coeffs


@settings(max_examples=300, deadline=None)
@given(combinations())
def test_combine_matches_scalar_chain(case):
    elems, coeffs = case
    assert _combine(elems, coeffs) == combine_reference(elems, coeffs)


@pytest.mark.parametrize("rec", build_catalog_a1() + [euclidean_osaka(), complex_conjugation_counterexample()],
                         ids=lambda rec: rec.name)
def test_split_matches_scalar_split(rec):
    # the K and P vectors of every block, in order, against the split that
    # combines them as Scalars and eliminates with rref_reference
    t = rec.real_form.truncate(4)
    want = kp_blocks(fixed_and_eigenspaces_reference(rec.involution, t))
    assert kp_blocks(fixed_and_eigenspaces(rec.involution, t)) == want


# -- loop_killing against the Scalar reference ----------------------------------------

@st.composite
def loop_pairs(draw):
    """Two Scalar-tuple loops over one kind whose parts have denominators up
    to 6, the second mostly at exponents mirroring the first's."""
    algebra, twist = draw(st.sampled_from(KINDS))
    f = draw(loops(algebra, twist, EXPONENTS))
    mirrors = st.lists(st.sampled_from(sorted({-k for k in f} | {0})), unique=True)
    return algebra, twist, f, draw(loops(algebra, twist, st.one_of(mirrors, EXPONENTS)))


@settings(max_examples=300, deadline=None)
@given(loop_pairs())
def test_loop_killing_matches_reference(case):
    algebra, twist, fs, gs = case
    f, g = TwistedLoopElement(algebra, twist, fs), TwistedLoopElement(algebra, twist, gs)
    assert loop_killing(f, g) == loop_killing_reference(algebra, fs, gs)


def test_loop_killing_reaches_denominators_other_than_one():
    # a term over 3 paired with one over 5 on the scaled su(2), whose
    # Killing denominator is not 1 either
    e = (Scalar(Fraction(1, 3)), ZERO, ZERO)
    h = (Scalar(0, Fraction(2, 5)), ZERO, ZERO)
    f = TwistedLoopElement(SCALED, untwisted(SCALED), {1: e})
    g = TwistedLoopElement(SCALED, untwisted(SCALED), {-1: h})
    assert f.terms[1][1] == 3 and g.terms[-1][1] == 5 and SCALED._killing_den != 1
    value = loop_killing(f, g)
    assert value == loop_killing_reference(SCALED, {1: e}, {-1: h}) != 0


# -- rref against the reference elimination ------------------------------------------

@st.composite
def matrices(draw):
    """Rational matrices whose entries are mostly 0, 1 and -1, so pivots of
    1, of -1 and of other values all occur, along with zero columns."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), rationals)
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=500, deadline=None)
@given(matrices())
def test_rref_matches_reference(rows):
    before = [list(r) for r in rows]
    red, pivots = linalg.rref(rows)
    assert (red, pivots) == rref_reference(rows)
    assert rows == before  # the input is not mutated


# -- no float on any of these paths ---------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(real_forms("signed-permutation", 1), st.sampled_from(KEYS[:-1]), combinations(), loop_pairs(),
       matrices())
def test_no_path_produces_a_float(rf, key, combination, pair, rows):
    # every value each integer path hands on is an int or a Fraction
    parts = [x for e in rf.block_basis(key) for x in element_parts(e)]
    parts += element_parts(_combine(*combination))
    algebra, twist, fs, gs = pair
    value = loop_killing(TwistedLoopElement(algebra, twist, fs), TwistedLoopElement(algebra, twist, gs))
    parts += [value.re, value.im]
    parts += [x for row in linalg.rref(rows)[0] for x in row]
    assert all(type(x) is int or type(x) is Fraction for x in parts)
