"""Truncations, splits and the closure and Cartan verdicts under the
period-P lemma: block equations repeat with period P, the lcm of the
twist's order and 4 / gcd(4, parity) for each map involved (1 on an
untwisted form of parity 0, 2 for an order-2 twist or an even nonzero
parity, 4 for an odd parity), so fixed_and_eigenspaces splits no block
beyond (P, -P), which the split names as shifts, and closure and the
Cartan relations are read off the maps. The split is checked against
every block solved and the verdicts against all pairs (oracles), on the
diagonal and permutation real forms over four registered algebras (all
three periods) and on every catalog split, whose corruptions the
all-pairs reference must catch. Closure names its failure wherever tau
is no real structure, and it and osaka_verify make no loop bracket at any
degree."""
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import serialize
from kmalg.involution import CoeffMap, _period, fixed_and_eigenspaces, verify_cartan_relations
from kmalg.osaka import catalog_record, osaka_verify
from kmalg.scalars import I, ONE

from cases import (
    DIAGONAL,
    NAMES,
    ODD_PHI,
    ODD_SPLITS,
    PAIRS,
    SIGNS,
    corrupted,
    counting_brackets,
    form,
    real_structure_failure,
)
from oracles import (
    fixed_and_eigenspaces_reference,
    kp_blocks,
    replace,
    verify_cartan_relations_reference,
    verify_closed_reference,
)


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
    rf = form(pair, perm, signs, s, parity, scale)
    truncation = rf.truncate(degree)
    reason = real_structure_failure(rf)
    verdict = rf.verify_closed()
    if reason is None:
        assert bool(verdict) == verify_closed_reference(rf, truncation)
    else:
        assert not verdict and verdict.witness == reason


@pytest.mark.parametrize("name", NAMES)
def test_cartan_relations_match_all_pairs_on_corrupted_splits(name):
    """The relations read off the maps hold on each catalog record, as all
    pairs of its split at degree 6 do; all pairs of every corruption of
    that split, blocks (5, -5) and (6, -6) included, fail."""
    rec = catalog_record(name)
    dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(6))
    verdicts = [verify_cartan_relations_reference(c) for c in corrupted(dec)]
    assert bool(verify_cartan_relations(rec.real_form, rec.involution)) == verdicts[0]
    assert verdicts[0] and not any(verdicts[1:])
    assert len(verdicts) == 1 + 3 * sum(1 for _, k_basis, _ in kp_blocks(dec) if k_basis)


@pytest.mark.parametrize("name", NAMES)
def test_shifted_eigenspace_blocks_equal_the_solved_ones(name):
    rec = catalog_record(name)
    truncation = rec.real_form.truncate(9)
    got = fixed_and_eigenspaces(rec.involution, truncation)
    want = fixed_and_eigenspaces_reference(rec.involution, truncation)
    assert kp_blocks(got) == kp_blocks(want)
    assert got.dims() == {key: (len(k_basis), len(p_basis)) for key, k_basis, p_basis in kp_blocks(want)}
    # a copy through the constructor records no period
    assert got.built_period == _period(rec.real_form.twist, rec.real_form.conj, rec.involution.loop_map)
    assert replace(got).built_period is None


@pytest.mark.parametrize("name", sorted(ODD_SPLITS))
def test_period_4_splits_match_every_block_and_all_pairs(name):
    rf = ODD_SPLITS[name]
    assert _period(rf.twist, rf.conj, ODD_PHI.loop_map) == 4
    truncation = rf.truncate(9)
    dec = fixed_and_eigenspaces(ODD_PHI, truncation)
    want = fixed_and_eigenspaces_reference(ODD_PHI, truncation)
    assert kp_blocks(dec) == kp_blocks(want)
    verdicts = [verify_cartan_relations_reference(c) for c in corrupted(dec)]
    assert bool(verify_cartan_relations(rf, ODD_PHI)) == verdicts[0]
    assert verdicts[0] and not any(verdicts[1:])
    assert len(verdicts) == 1 + 3 * sum(1 for _, k_basis, _ in kp_blocks(dec) if k_basis)


def _bracket_count(monkeypatch, record, degree):
    calls = counting_brackets(monkeypatch)
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
        calls = counting_brackets(monkeypatch)
        rf.truncate(degree)
        assert rf.verify_closed()
        counts.append(calls["loop_bracket"])
    assert counts == [0, 0, 0, 0]
