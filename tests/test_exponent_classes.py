"""The loop Gram and the work per block: killing_gram pairs only elements
whose terms meet and signs each connected component of the nonzero
entries on its own, truncate solves each block of its period once, and
fixed_and_eigenspaces reads the matrix of an involution off one
elimination per block. The Gram is checked against all pairs
(killing_gram_reference in oracles) on drawn bases, some whose exponent
classes repeat up to renaming, and on materialized catalog truncations;
truncate against every block solved (truncate_reference); the split of
drawn maps against every block solved (fixed_and_eigenspaces_reference)."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import loop, serialize
from kmalg.involution import (
    CoeffMap,
    InvolutionDescriptor,
    InvolutionError,
    RealFormDescriptor,
    fixed_and_eigenspaces,
)
from kmalg.findim import sparse_rows
from kmalg.loop import (
    MismatchError,
    NonRealPairingError,
    TwistedLoopElement,
    killing_gram,
    loop_killing,
    loop_monomial,
    untwisted,
    zero_loop,
)
from kmalg.osaka import (
    build_catalog_a1,
    catalog_record,
    complex_conjugation_counterexample,
    euclidean_osaka,
)
from kmalg.scalars import Scalar
from oracles import (
    components_reference,
    dense_killing_gram,
    fixed_and_eigenspaces_reference,
    killing_gram_reference,
    kp_blocks,
    materialize,
    truncate_reference,
)

# -- killing_gram against all pairs ---------------------------------------------

SU2C, _ = serialize.lookup_algebra("su2c", 1)
SL2C, _ = serialize.lookup_algebra("sl2c", 1)


def _expect_same_gram(basis, reference):
    """killing_gram(basis) equals reference(basis): the same matrix and
    verdict, in one block per connected component of the matrix's nonzero
    entries, or a NonRealPairingError with the same message."""
    try:
        expected = reference(basis)
    except NonRealPairingError as exc:
        with pytest.raises(NonRealPairingError) as got:
            killing_gram(basis)
        assert str(got.value) == str(exc)
        return
    assert dense_killing_gram(basis) == expected
    edges = [(i, j) for i, row in enumerate(expected[0]) for j, x in enumerate(row) if x]
    assert [members for members, _ in killing_gram(basis)[0]] == components_reference(len(basis), edges)


rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
coefficients = st.one_of(st.just(Scalar(0)), st.builds(Scalar, rationals))


@st.composite
def loop_bases(draw):
    """Up to 12 elements on one untwisted algebra, each with 1-3 of the
    exponent pairs {k, -k}, |k| <= 3, so some elements bridge exponent
    classes and k = 0 occurs. Either a_{-k} = conj(a_k), as in the compact
    form of su2c (definite or degenerate Grams), or the coefficients at k
    and -k are drawn apart, either one possibly absent. About one element in
    twenty is multiplied by i, and a quarter of the bases hold a zero
    element."""
    algebra = draw(st.sampled_from([SU2C, SL2C]))
    twist = untwisted(algebra)
    compact = draw(st.booleans())
    basis = []
    for _ in range(draw(st.integers(0, 12))):
        terms = {}
        for k in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
            if compact:
                vec = tuple(Scalar(draw(rationals), draw(rationals) if k else 0)
                            for _ in range(algebra.dim))
                terms[k] = vec
                terms[-k] = tuple(c.conjugate() for c in vec)
            else:
                for exponent in draw(st.sampled_from([(k,), (-k,), (k, -k)])):
                    terms[exponent] = tuple(draw(coefficients) for _ in range(algebra.dim))
        f = TwistedLoopElement(algebra, twist, terms)
        # an occasional element times i pairs non-real with the real ones
        basis.append(f.scale(Scalar(0, 1)) if draw(st.integers(0, 19)) == 0 else f)
    if draw(st.integers(0, 3)) == 0:
        basis.insert(draw(st.integers(0, len(basis))), zero_loop(algebra, twist))
    return basis


@settings(max_examples=300, deadline=None)
@given(loop_bases())
def test_killing_gram_matches_all_pairs(basis):
    _expect_same_gram(basis, killing_gram_reference)


@st.composite
def renamed_bases(draw):
    """Bases whose exponent classes repeat up to renaming. A template of 1-5
    elements on |k| <= 3 (supports such as {1, 3} and {2, 3} bridge one
    class) is copied 2-4 times. Each copy moves the template's nonzero |k|
    by an increasing map into a range of its own, keeps or drops the
    degree-0 terms (copies that keep them join one class through k = 0), and
    may swap the coefficients at k and -k of one element, a near miss for a
    renaming; half the copies list the template in another order. The
    copies are interleaved, each keeping its order, so a repeated class is
    not contiguous. About one template element in eight is times i in every
    copy, so the first non-real pair can lie in any repeat of its class."""
    algebra = draw(st.sampled_from([SU2C, SL2C]))
    twist = untwisted(algebra)
    template = []
    for _ in range(draw(st.integers(1, 5))):
        terms = {}
        for k in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
            for exponent in draw(st.sampled_from([(k,), (-k,), (k, -k)])):
                terms[exponent] = tuple(draw(coefficients) for _ in range(algebra.dim))
        template.append((terms, draw(st.integers(0, 7)) == 0))
    moved = sorted({abs(k) for terms, _ in template for k in terms} - {0})
    copies = []
    for c in range(draw(st.integers(2, 4))):
        targets = sorted(draw(st.lists(st.integers(10 * c + 1, 10 * c + 9), unique=True,
                                       min_size=len(moved), max_size=len(moved))))
        rename = {0: 0, **dict(zip(moved, targets))}
        keep_zero = draw(st.booleans())
        swapped = draw(st.integers(0, 4 * len(template)))
        order = range(len(template))
        if draw(st.booleans()):
            order = draw(st.permutations(order))
        copy = []
        for e in order:
            terms, times_i = template[e]
            new = {(1 if k > 0 else -1) * rename[abs(k)]: vec
                   for k, vec in terms.items() if k or keep_zero}
            if e == swapped:
                new = {-k: vec for k, vec in new.items()}
            f = TwistedLoopElement(algebra, twist, new)
            copy.append(f.scale(Scalar(0, 1)) if times_i else f)
        copies.append(copy)
    interleave = draw(st.permutations([c for c, copy in enumerate(copies) for _ in copy]))
    basis = [copies[c].pop(0) for c in interleave]
    if draw(st.integers(0, 3)) == 0:
        basis.insert(draw(st.integers(0, len(basis))), zero_loop(algebra, twist))
    return basis


@settings(max_examples=300, deadline=None)
@given(renamed_bases())
def test_killing_gram_reuses_classes_equal_up_to_renaming(basis):
    _expect_same_gram(basis, killing_gram_reference)


GRAM_RECORDS = build_catalog_a1() + [euclidean_osaka(), complex_conjugation_counterexample()]


@pytest.mark.parametrize("rec", GRAM_RECORDS, ids=lambda rec: rec.name)
def test_killing_gram_matches_all_pairs_on_the_catalog(rec):
    basis = materialize(rec.real_form.truncate(24)).loops
    _expect_same_gram(basis, killing_gram_reference)


def _meeting_pairs(basis):
    """The pairs i <= j in which a term at k of one element meets a term at
    -k of the other, found by scanning every pair."""
    return sorted((i, j) for i, f in enumerate(basis) for j in range(i, len(basis))
                  if any(-k in basis[j].terms for k in f.terms))


def test_killing_gram_pairs_only_terms_that_meet(monkeypatch):
    """loop_killing runs once on each pair i <= j whose terms meet and on no
    other, on every catalog form; a truncation passes its base blocks
    only, so the pairings at degree 60 are those at degree 4."""
    counts = {}
    for rec in build_catalog_a1():
        for degree in (4, 60):
            basis = rec.real_form.truncate(degree).loops
            index = {id(f): i for i, f in enumerate(basis)}
            assert len(index) == len(basis)
            called = []

            def counting_loop_killing(f, g):
                called.append((index[id(f)], index[id(g)]))
                return loop_killing(f, g)

            with monkeypatch.context() as patch:
                patch.setattr(loop, "loop_killing", counting_loop_killing)
                _, verdict = killing_gram(basis)
            assert verdict == killing_gram_reference(basis)[1]
            assert sorted(called) == _meeting_pairs(basis)
            counts[rec.name, degree] = len(called)
        assert counts[rec.name, 60] == counts[rec.name, 4] > 0


def test_killing_gram_names_the_first_non_real_pair_in_row_major_order():
    # classes {|k| = 1}: 0, 3, 4 and {|k| = 2}: 1, 2; pairs (1, 2) and (3, 4)
    # are non-real, (0, 3) and (0, 4) vanish since B(X, Y) = 0
    tw = untwisted(SU2C)
    x, y = (Scalar(1), Scalar(0), Scalar(0)), (Scalar(0), Scalar(1), Scalar(0))

    def pair(k, vec):
        return TwistedLoopElement(SU2C, tw, {k: vec, -k: vec})

    i = Scalar(0, 1)
    basis = [pair(1, x), pair(2, x), pair(2, x).scale(i), pair(1, y), pair(1, y).scale(i)]
    with pytest.raises(NonRealPairingError, match=r"pairing \(1,2\)"):
        killing_gram(basis)
    with pytest.raises(NonRealPairingError, match=r"pairing \(1,2\)"):
        killing_gram_reference(basis)


def test_killing_gram_rejects_a_mismatch_in_another_class():
    x = (Scalar(1), Scalar(0), Scalar(0))
    f = loop_monomial(SU2C, untwisted(SU2C), 1, x)
    for other in (loop_monomial(SL2C, untwisted(SL2C), 2, x), zero_loop(SL2C, untwisted(SL2C))):
        with pytest.raises(MismatchError):
            killing_gram([f, other])


# -- period-P blocks ------------------------------------------------------------

PERIOD_FORMS = [
    (alg, order, sign, parity)
    for alg, order in (("su2c", 1), ("su2c", 2), ("sl2c", 2), ("su2su2c", 1))
    for sign in (1, -1)
    for parity in range(4)
]


@pytest.mark.parametrize("alg,order,sign,parity", PERIOD_FORMS)
def test_truncate_blocks_equal_direct_block_bases(alg, order, sign, parity):
    algebra, twist = serialize.lookup_algebra(alg, order)
    conj = CoeffMap(CoeffMap.identity(algebra.dim).sparse, index_sign=sign, conjugate=True,
                    parity=parity)
    rf = RealFormDescriptor(name="period test", algebra=algebra, twist=twist, conj=conj)
    assert materialize(rf.truncate(12)).blocks == truncate_reference(rf, 12).blocks


def _solved_keys(monkeypatch, rf, n_max):
    """The keys truncate(n_max) solves, in order, and the truncation."""
    calls = []
    block_basis = RealFormDescriptor.block_basis

    def counting_block_basis(self, key):
        calls.append(key)
        return block_basis(self, key)

    monkeypatch.setattr(RealFormDescriptor, "block_basis", counting_block_basis)
    return calls, rf.truncate(n_max)


def test_truncate_solves_only_the_first_period(monkeypatch):
    """I[Id,mu] is twisted and its parity is 0, so the period is 2: the
    truncation holds the blocks up to (2, -2) and names the later ones by
    them."""
    rf = catalog_record("I[Id,mu]").real_form
    solved, truncation = _solved_keys(monkeypatch, rf, 60)
    assert solved == rf.block_keys(2) == [key for key, _ in truncation.blocks]
    assert [key for key, _ in truncation.layout()] == rf.block_keys(60)


def test_truncate_solves_four_blocks_at_odd_parity(monkeypatch):
    algebra, twist = serialize.lookup_algebra("su2c", 1)
    conj = CoeffMap(CoeffMap.identity(algebra.dim).sparse, conjugate=True, parity=1)
    rf = RealFormDescriptor(name="odd parity", algebra=algebra, twist=twist, conj=conj)
    solved, truncation = _solved_keys(monkeypatch, rf, 60)
    assert solved == rf.block_keys(4) == [key for key, _ in truncation.blocks]
    assert [key for key, _ in truncation.layout()] == rf.block_keys(60)


# -- one elimination per eigen-split block ----------------------------------------


SPLIT_RECORDS = build_catalog_a1() + [euclidean_osaka(), complex_conjugation_counterexample()]
_BY_ALGEBRA = {}
for _rec in SPLIT_RECORDS:
    _BY_ALGEBRA.setdefault(id(_rec.real_form.algebra), []).append(_rec.involution)


@st.composite
def split_cases(draw):
    """A record's form, a truncation degree and a map built from one or two
    involutions acting on the same algebra, scaled by 1, -1, 2 or i and
    possibly conjugated by a real unipotent g (g phi g^-1 has a non-symmetric
    matrix on the blocks): some preserve the form and square to the
    identity, some do neither."""
    rec = draw(st.sampled_from(SPLIT_RECORDS))
    rf = rec.real_form
    pool = _BY_ALGEBRA[id(rf.algebra)]
    factors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2))
    loop_map = factors[0].loop_map
    epsilon = factors[0].epsilon
    for phi in factors[1:]:
        loop_map = loop_map.compose(phi.loop_map)
        epsilon *= phi.epsilon
    scale = draw(st.sampled_from([1, -1, 2, Scalar(0, 1)]))
    loop_map = CoeffMap(sparse_rows([[x * scale for x in row] for row in loop_map.matrix]),
                        loop_map.index_sign, loop_map.conjugate, loop_map.parity)
    dim = rf.algebra.dim
    a, b = draw(st.permutations(range(dim)))[:2] if dim > 1 else (0, 0)
    t = draw(st.sampled_from([0, 1, -2])) if dim > 1 else 0
    g, g_inv = ([[Scalar(1 if i == j else c if (i, j) == (a, b) else 0) for j in range(dim)]
                 for i in range(dim)] for c in (t, -t))
    loop_map = CoeffMap(sparse_rows(g)).compose(loop_map).compose(CoeffMap(sparse_rows(g_inv)))
    phi = InvolutionDescriptor(name="candidate", loop_map=loop_map, epsilon=epsilon)
    return phi, rf.truncate(draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_eigen_split_matches_the_reference_on_drawn_maps(case):
    """The split, or the error of the first failing block, equals
    fixed_and_eigenspaces_reference's, every block solved."""
    phi, truncation = case
    try:
        expected = kp_blocks(fixed_and_eigenspaces_reference(phi, truncation))
    except InvolutionError as exc:
        with pytest.raises(InvolutionError) as got:
            fixed_and_eigenspaces(phi, truncation)
        assert type(got.value) is type(exc)
        return
    assert kp_blocks(fixed_and_eigenspaces(phi, truncation)) == expected
