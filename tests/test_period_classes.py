"""The period-P lemma: block equations repeat with period P, the lcm of the
twist's order and 4 / gcd(4, parity) for each map involved (1 on an
untwisted form of parity 0, 2 for an order-2 twist or an even nonzero
parity, 4 for an odd parity), so the oracle walk
(bracket_verdicts_reference in oracles) brackets one representative block
pair per class, every class occurring from degree 2P on, and
fixed_and_eigenspaces splits no block beyond (P, -P), which the split
names as shifts. Each is checked against the all-pairs or every-block
reference in oracles on the diagonal and permutation real forms over four
registered algebras (all three periods), and on every catalog split
(period 1, or 2 when twisted), intact and with one block's K vectors
corrupted. The closure verdict, read off the maps, is checked against
all pairs wherever the form's tau is a real structure, and names its
failure elsewhere; it and osaka_verify make no loop bracket at any
degree."""
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import kmext, loop, serialize
from kmalg.findim import sparse_rows
from kmalg.involution import (
    CoeffMap,
    InvolutionDescriptor,
    RealFormDescriptor,
    _period,
    Truncation,
    fixed_and_eigenspaces,
)
from kmalg.loop import TwistedLoopElement, twist_eigenbasis
from kmalg.osaka import build_catalog_a1, catalog_record, osaka_verify
from kmalg.scalars import I, ONE, Scalar, ZERO
from oracles import (
    bracket_verdicts_reference,
    classes_reference,
    fixed_and_eigenspaces_reference,
    graded,
    kp_blocks,
    materialize,
    replace,
    representative_pairs_reference,
    verify_cartan_relations_reference,
    verify_cartan_relations_walk as verify_cartan_relations,
    verify_closed_reference,
)

PAIRS = [("su2c", 1), ("su2c", 2), ("sl2c", 1), ("sl2c", 2)]
SIGNS = list(itertools.product((1, -1), repeat=3))
NAMES = [rec.name for rec in build_catalog_a1()]


def _form(pair, perm, signs, index_sign, parity, scale):
    """The real form fixed by i^{parity k} P conj(a_{index_sign k}), P the
    signed permutation matrix with row i holding signs[i] at column perm[i]."""
    algebra, twist = serialize.lookup_algebra(*pair)
    matrix = [[Scalar(signs[i]) if j == perm[i] else ZERO for j in range(3)] for i in range(3)]
    return RealFormDescriptor("form", algebra, twist,
                              CoeffMap(sparse_rows(matrix), index_sign, True, parity), scale)


DIAGONAL = [_form(pair, (0, 1, 2), signs, s, p, scale) for pair in PAIRS for signs in SIGNS
            for s in (1, -1) for p in range(4) for scale in (ONE, I)]


def real_structure_failure(rf):
    """None when the form's tau is a real structure, else the reason
    a failed verify_closed must name, found by imaging rather than from the
    lemma's matrix conditions: "grading broken" when tau sends a basis
    vector of a twist piece at degree 0 or 1 out of the piece, "tau^2 != 1
    on the loop algebra" when tau applied twice does not return it."""
    tau, twist = rf.conj, rf.twist
    monomials = [TwistedLoopElement.from_vecs(rf.algebra, twist, {k: v})
                 for k in (0, 1) for v in twist_eigenbasis(rf.algebra, twist, k % twist.order)]
    images = [tau.apply_loop(f) for f in monomials]
    if not all(graded(f) for f in images):
        return "grading broken"
    if any(tau.apply_loop(f) != g for f, g in zip(images, monomials)):
        return "tau^2 != 1 on the loop algebra"
    return None


def test_closure_matches_all_pairs_on_every_diagonal_form():
    """All 512 diagonal forms at degree 8 = 2P for P = 4, the least degree
    at which every class of block pairs occurs on every period. Where tau
    squares to -1 on odd degrees (s = -1, odd parity) closure fails naming
    that, whatever the pairs give."""
    verdicts, periods, reasons = Counter(), Counter(), Counter()
    for rf in DIAGONAL:
        truncation = rf.truncate(8)
        verdict = rf.verify_closed()
        reason = real_structure_failure(rf)
        if reason is None:
            assert bool(verdict) == verify_closed_reference(rf, truncation)
        else:
            assert not verdict and verdict.witness == reason
        reasons[reason] += 1
        verdicts[bool(verdict)] += 1
        periods[_period(rf.twist, rf.conj)] += 1
    assert len(DIAGONAL) == 512 and verdicts[True] and verdicts[False]
    assert periods == {1: 64, 2: 192, 4: 256}
    assert reasons == {None: 384, "tau^2 != 1 on the loop algebra": 128}


def test_period_is_the_lcm_of_the_twist_order_and_each_parity_period():
    """A parity p alone repeats with period 1, 4, 2, 4 for p = 0, 1, 2, 3
    mod 4 and the twist with its order, so, as every one is a power of 2,
    the period is the largest of them."""
    own = {0: 1, 1: 4, 2: 2, 3: 4}
    for order in (1, 2):
        algebra, twist = serialize.lookup_algebra("su2c", order)
        maps = {p: CoeffMap(CoeffMap.identity(algebra.dim).sparse, parity=p) for p in range(-4, 8)}
        assert _period(twist) == _period(twist, None) == _period(twist, None, None) == order
        for p, m in maps.items():
            assert _period(twist, m) == _period(twist, None, m) == _period(twist, m, None) == max(order, own[p % 4])
            for q, n in maps.items():
                assert _period(twist, m, n) == max(order, own[p % 4], own[q % 4])
    # the form's twist and conj and the involution's loop map: phi's parity
    # counts, and the untwisted catalog form IV has period 1
    rec = catalog_record("IV")
    rf, matrix = rec.real_form, rec.involution.loop_map.sparse
    assert _period(rf.twist, rf.conj, rec.involution.loop_map) == 1
    assert _period(rf.twist, rf.conj, CoeffMap(matrix, -1, False, 2)) == 2
    assert _period(rf.twist, rf.conj, CoeffMap(matrix, -1, False, 1)) == 4
    twisted = catalog_record("III[Id,mu]")
    assert _period(twisted.real_form.twist, twisted.real_form.conj, twisted.involution.loop_map) == 2


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PAIRS), st.sampled_from(list(itertools.permutations(range(3)))),
       st.sampled_from(SIGNS), st.sampled_from((1, -1)), st.integers(0, 3),
       st.sampled_from((ONE, I)), st.integers(1, 9))
def test_closure_matches_all_pairs_on_permutation_forms(pair, perm, signs, s, parity, scale, degree):
    """Where tau is a real structure, the verdict from the maps is the
    all-pairs one at every degree; elsewhere closure fails naming why."""
    rf = _form(pair, perm, signs, s, parity, scale)
    truncation = rf.truncate(degree)
    reason = real_structure_failure(rf)
    verdict = rf.verify_closed()
    if reason is None:
        assert bool(verdict) == verify_closed_reference(rf, truncation)
    else:
        assert not verdict and verdict.witness == reason


def _corrupted(dec):
    """dec, then for each block of its degree with K vectors: dec with every
    block explicit (`materialize`) and that block's first K vector moved to
    P, with it multiplied by i, and with every K vector moved to P (the
    block's vectors keep their order, only the signs change)."""
    yield dec
    full = materialize(dec)
    for i, (key, k_basis, p_basis) in enumerate(kp_blocks(full)):
        if not k_basis:
            continue
        for ks, ps in ((k_basis[1:], p_basis + k_basis[:1]),
                       ([k_basis[0].scale(I)] + k_basis[1:], p_basis),
                       ([], k_basis + p_basis)):
            blocks = list(full.blocks)
            blocks[i] = (key, [(e, 1) for e in ks] + [(e, -1) for e in ps])
            yield replace(full, blocks=tuple(blocks))


def _span(dec):
    """The truncation whose blocks are K and P of dec, every block of its
    degree."""
    return Truncation(dec.real_form, dec.n_max,
                      tuple((key, [(e, 0) for e, _ in items]) for key, items in materialize(dec).blocks))


def _check_closure_of_the_split(dec):
    """The closure half of the walk verify_cartan_relations makes
    (bracket_verdicts_reference) against all pairs of K and P, on every
    corruption: a K vector times i leaves the form, so some are not
    closed."""
    closures = [bracket_verdicts_reference(c, False) for c in _corrupted(dec)]
    assert closures == [(verify_closed_reference(c.real_form, _span(c)), False) for c in _corrupted(dec)]
    assert {closed for closed, _ in closures} == {True, False}


@pytest.mark.parametrize("name", NAMES)
def test_cartan_relations_match_all_pairs_on_corrupted_splits(name):
    rec = catalog_record(name)
    dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(6))
    verdicts = [verify_cartan_relations(c) for c in _corrupted(dec)]
    assert verdicts == [verify_cartan_relations_reference(c) for c in _corrupted(dec)]
    _check_closure_of_the_split(dec)
    # the intact split holds; every corruption, blocks (5, -5) and (6, -6)
    # included, is caught
    assert verdicts[0] and not any(verdicts[1:])
    assert len(verdicts) == 1 + 3 * sum(1 for _, k_basis, _ in kp_blocks(dec) if k_basis)


@pytest.mark.parametrize("name", NAMES)
def test_shifted_eigenspace_blocks_equal_the_solved_ones(name):
    rec = catalog_record(name)
    truncation = rec.real_form.truncate(9)
    got = fixed_and_eigenspaces(rec.involution, truncation)
    want = fixed_and_eigenspaces_reference(rec.involution, truncation)
    assert kp_blocks(got) == kp_blocks(want)


# Period-4 splits: phi = i^{k} M a_{-k} with M = diag(1, -1, -1) (an
# involutive automorphism of su2c), epsilon -1, on the closed odd-parity
# diagonal form and on an untwisted parity-0 one. The form's own period is
# 4 in the first and 1 in the second; the split's is 4 in both.
ODD_SPLITS = {
    "odd form": _form(("su2c", 1), (0, 1, 2), (1, 1, 1), 1, 1, I),
    "even form": _form(("su2c", 1), (0, 1, 2), (1, 1, 1), -1, 0, ONE),
}
ODD_PHI = InvolutionDescriptor(
    "odd parity", CoeffMap(sparse_rows([[Scalar(s) if i == j else ZERO for j in range(3)]
                                        for i, s in enumerate((1, -1, -1))]), -1, False, 1), -1)


@pytest.mark.parametrize("name", sorted(ODD_SPLITS))
def test_period_4_splits_match_every_block_and_all_pairs(name):
    rf = ODD_SPLITS[name]
    assert _period(rf.twist, rf.conj, ODD_PHI.loop_map) == 4
    truncation = rf.truncate(9)
    dec = fixed_and_eigenspaces(ODD_PHI, truncation)
    want = fixed_and_eigenspaces_reference(ODD_PHI, truncation)
    assert kp_blocks(dec) == kp_blocks(want)
    verdicts = [verify_cartan_relations(c) for c in _corrupted(dec)]
    assert verdicts == [verify_cartan_relations_reference(c) for c in _corrupted(dec)]
    _check_closure_of_the_split(dec)
    assert verdicts[0] and not any(verdicts[1:])
    assert len(verdicts) == 1 + 3 * sum(1 for _, k_basis, _ in kp_blocks(dec) if k_basis)


def _counting_brackets(monkeypatch):
    """Counts, under "loop_bracket", every loop bracket the library makes:
    each goes through loop_bracket_raw, the one convolution, as bound in
    loop (loop_bracket) or in kmext (extended_bracket_raw, under
    hat_bracket and jacobi_residual)."""
    calls = Counter()

    def counting(fn):
        def wrapper(*args):
            calls["loop_bracket"] += 1
            return fn(*args)
        return wrapper

    for module in (loop, kmext):
        monkeypatch.setattr(module, "loop_bracket_raw", counting(module.loop_bracket_raw))
    return calls


def _bracket_count(monkeypatch, record, degree):
    calls = _counting_brackets(monkeypatch)
    assert osaka_verify(record, degree).all_passed
    return calls["loop_bracket"]


@pytest.mark.parametrize("name", ["I[Id,mu]", "IV"])
def test_osaka_verify_bracket_count_is_flat_in_degree(monkeypatch, name):
    """Closure and the Cartan relations are read off the maps, so
    osaka_verify brackets no loop at any degree."""
    rec = catalog_record(name)
    assert _period(rec.real_form.twist, rec.real_form.conj, rec.involution.loop_map) == {"I[Id,mu]": 2, "IV": 1}[name]
    assert [_bracket_count(monkeypatch, rec, degree) for degree in (1, 3, 4, 16)] == [0, 0, 0, 0]


def test_closure_bracket_count_is_flat_from_degree_8_at_odd_parity(monkeypatch):
    """The closed odd-parity diagonal form (su2c/1, identity conj, parity 1,
    cd_scale i) has P = 4; its truncation at any degree, below 2P = 8 or
    above it, and its closure verdict, which has no degree, bracket no
    loop."""
    rf = ODD_SPLITS["odd form"]
    assert _period(rf.twist, rf.conj) == 4
    counts = []
    for degree in (1, 7, 8, 16):
        calls = _counting_brackets(monkeypatch)
        rf.truncate(degree)
        assert rf.verify_closed()
        counts.append(calls["loop_bracket"])
    assert counts == [0, 0, 0, 0]


def test_a_hand_built_truncation_brackets_every_pair():
    """Two blocks with one key, in a truncation built by hand: it records no
    period, classes_reference finds every block its own class, and the
    pairs across the two blocks are bracketed as all others."""
    truncation = catalog_record("I[Id,Id]").real_form.truncate(6)
    blocks = list(truncation.blocks)
    twice = Truncation(truncation.real_form, 6,
                       tuple(blocks + [((1, -1), [(x.scale(I), s) for x, s in dict(blocks)[(1, -1)]])]))
    assert twice.built_period is None
    label = classes_reference(twice.blocks, 4)
    assert label == list(range(len(twice.blocks)))
    n = sum(len(its) for _, its in twice.blocks)
    assert len(list(representative_pairs_reference(twice.blocks, label))) == n * (n + 1) // 2
