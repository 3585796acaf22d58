"""The period-4 lemma: verify_closed and verify_cartan_relations bracket one
representative block pair per class, and fixed_and_eigenspaces shifts the
blocks beyond (4, -4). Each is checked against the all-pairs or
every-block reference in oracles on the diagonal and permutation real
forms over four registered algebras, and on every catalog split, intact
and with one block's K vectors corrupted."""
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import involution, serialize
from kmalg.involution import (
    CartanDecomposition,
    CoeffMap,
    EigenBlock,
    RealFormDescriptor,
    _shift4,
    _classes,
    _representative_pairs,
    fixed_and_eigenspaces,
    verify_cartan_relations,
)
from kmalg.kmext import ExtendedElement, hat_bracket
from kmalg.loop import loop_monomial
from kmalg.osaka import build_catalog_a1, catalog_record, osaka_verify
from kmalg.scalars import I, ONE, Scalar, ZERO
from oracles import (
    fixed_and_eigenspaces_reference,
    verify_cartan_relations_reference,
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
                              CoeffMap(matrix, index_sign, True, parity), scale)


DIAGONAL = [_form(pair, (0, 1, 2), signs, s, p, scale) for pair in PAIRS for signs in SIGNS
            for s in (1, -1) for p in range(4) for scale in (ONE, I)]


def test_closure_matches_all_pairs_on_every_diagonal_form():
    """All 512 diagonal forms at degree 8, the least degree at which every
    class of block pairs occurs."""
    verdicts = Counter()
    for rf in DIAGONAL:
        truncation = rf.truncate(8)
        verdict = rf.verify_closed(truncation)
        assert verdict == verify_closed_reference(rf, truncation)
        verdicts[verdict] += 1
    assert len(DIAGONAL) == 512 and verdicts[True] and verdicts[False]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PAIRS), st.sampled_from(list(itertools.permutations(range(3)))),
       st.sampled_from(SIGNS), st.sampled_from((1, -1)), st.integers(0, 3),
       st.sampled_from((ONE, I)), st.integers(1, 9))
def test_closure_matches_all_pairs_on_permutation_forms(pair, perm, signs, s, parity, scale, degree):
    rf = _form(pair, perm, signs, s, parity, scale)
    truncation = rf.truncate(degree)
    assert rf.verify_closed(truncation) == verify_closed_reference(rf, truncation)


def _corrupted(dec):
    """dec, then for each block with K vectors: dec with that block's first
    K vector moved to P, with it multiplied by i, and with every K vector
    moved to P (the block's vectors keep their order, only the signs
    change)."""
    yield dec
    for i, b in enumerate(dec.blocks):
        if not b.k_basis:
            continue
        for block in (EigenBlock(b.key, b.k_basis[1:], b.p_basis + b.k_basis[:1]),
                      EigenBlock(b.key, [b.k_basis[0].scale(I)] + b.k_basis[1:], b.p_basis),
                      EigenBlock(b.key, [], b.k_basis + b.p_basis)):
            blocks = list(dec.blocks)
            blocks[i] = block
            yield CartanDecomposition(dec.real_form, dec.involution, dec.n_max, blocks)


@pytest.mark.parametrize("name", NAMES)
def test_cartan_relations_match_all_pairs_on_corrupted_splits(name):
    rec = catalog_record(name)
    dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(6))
    verdicts = [verify_cartan_relations(c) for c in _corrupted(dec)]
    assert verdicts == [verify_cartan_relations_reference(c) for c in _corrupted(dec)]
    # the intact split holds; every corruption, blocks (5, -5) and (6, -6)
    # included, is caught
    assert verdicts[0] and not any(verdicts[1:])
    assert len(verdicts) == 1 + 3 * sum(1 for b in dec.blocks if b.k_basis)


@pytest.mark.parametrize("name", NAMES)
def test_shifted_eigenspace_blocks_equal_the_solved_ones(name):
    rec = catalog_record(name)
    truncation = rec.real_form.truncate(9)
    got = fixed_and_eigenspaces(rec.involution, truncation).blocks
    want = fixed_and_eigenspaces_reference(rec.involution, truncation).blocks
    assert [(b.key, b.k_basis, b.p_basis) for b in got] == \
        [(b.key, b.k_basis, b.p_basis) for b in want]


def _bracket_count(monkeypatch, record, degree):
    calls = Counter()

    def counting_bracket(x, y):
        calls["hat_bracket"] += 1
        return hat_bracket(x, y)

    monkeypatch.setattr(involution, "hat_bracket", counting_bracket)
    assert osaka_verify(record, degree).all_passed
    return calls["hat_bracket"]


@pytest.mark.parametrize("name", ["I[Id,mu]", "IV"])
def test_osaka_verify_bracket_count_is_flat_in_degree(monkeypatch, name):
    rec = catalog_record(name)
    at8 = _bracket_count(monkeypatch, rec, 8)
    assert at8 == _bracket_count(monkeypatch, rec, 16)
    assert at8 > _bracket_count(monkeypatch, rec, 7)


def _shifted(blocks):
    """Keys of the blocks in the period-4 class of a lower block."""
    return {blocks[i][0] for i, cls in enumerate(_classes(blocks)) if cls != i}


def test_a_block_stands_for_its_base_only_when_it_is_the_exact_shift():
    truncation = catalog_record("I[Id,Id]").real_form.truncate(6)
    blocks = [(key, [(e, 0) for e in elems]) for key, elems in truncation.blocks]
    assert _shifted(blocks) == {(5, -5), (6, -6)}
    items = dict(blocks)
    base, block = items[(1, -1)], items[(5, -5)]
    e = base[0][0]
    with_c, with_d = ExtendedElement(e.loop, c=1), ExtendedElement(e.loop, d=1)
    constant = ExtendedElement(e.loop + loop_monomial(e.loop.algebra, e.loop.twist, 0, (ONE, ZERO, ZERO)))
    changes = [
        ({(1, -1): [(with_c, 0)] + base[1:]}, {(6, -6)}),  # base element with c
        ({(1, -1): [(with_d, 0)] + base[1:]}, {(6, -6)}),  # base element with d
        ({(5, -5): [(x, 1) for x, _ in block]}, {(6, -6)}),  # same elements, other sign
        ({(5, -5): block[1:]}, {(6, -6)}),
        ({(5, -5): block[1:] + block[:1]}, {(6, -6)}),
        # an exponent outside its block: no block stands for another
        ({(1, -1): [(constant, 0)] + base[1:], (5, -5): [(_shift4([constant])[0], 0)] + block[1:]}, set()),
        ({(6, -6): items[(6, -6)] + [(e, 0)]}, set()),
    ]
    for change, shifted in changes:
        assert _shifted([(key, change.get(key, its)) for key, its in blocks]) == shifted
    assert _shifted([(key, its) for key, its in blocks if key != (1, -1)]) == {(6, -6)}
    # two blocks with one key: every block is its own class, and the pairs
    # across the two blocks are bracketed as all others
    twice = blocks + [((1, -1), [(x.scale(I), s) for x, s in base])]
    assert _shifted(twice) == set()
    n = sum(len(its) for _, its in twice)
    assert len(list(_representative_pairs(twice))) == n * (n + 1) // 2
