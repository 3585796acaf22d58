"""One truncation per real form and degree: osaka_verify builds each block
basis and the type verdict once; and the all-pairs Cartan reference
(verify_cartan_relations_reference in oracles), which the relations read
off the maps are compared with, holds on each catalog split and fails on
a wrong one."""
from collections import Counter

import pytest

from kmalg import osaka
from kmalg.involution import RealFormDescriptor, fixed_and_eigenspaces, verify_cartan_relations
from kmalg.osaka import catalog_record, osaka_verify
from kmalg.scalars import I

from cases import NAMES
from oracles import kp_blocks, replace, verify_cartan_relations_reference


def _decomposition(name, n_max=1):
    rec = catalog_record(name)
    return fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(n_max))


def _move_one(dec, from_k):
    """dec with the first vector of the first nonempty K (or P) block moved
    to the other side."""
    blocks = list(dec.blocks)
    for i, (key, k_basis, p_basis) in enumerate(kp_blocks(dec)):
        source = k_basis if from_k else p_basis
        if source:
            moved, rest = source[0], source[1:]
            ks, ps = (rest, p_basis + [moved]) if from_k else (k_basis + [moved], rest)
            blocks[i] = (key, [(e, 1) for e in ks] + [(e, -1) for e in ps])
            return replace(dec, blocks=tuple(blocks))
    raise AssertionError("no vector to move")


def _first_k_times_i(dec):
    """dec with its first K vector multiplied by i: still a +1 eigenvector
    of the (linear) involution, but outside the real form."""
    blocks = list(dec.blocks)
    for i, (key, items) in enumerate(blocks):
        if items and items[0][1] == 1:
            blocks[i] = (key, [(items[0][0].scale(I), 1)] + items[1:])
            return replace(dec, blocks=tuple(blocks))
    raise AssertionError("no K vector")


@pytest.mark.parametrize("name", NAMES)
def test_cartan_relations_fail_on_a_wrong_split(name):
    rec = catalog_record(name)
    dec = _decomposition(name)
    assert verify_cartan_relations(rec.real_form, rec.involution)
    assert verify_cartan_relations_reference(dec)
    for wrong in (_move_one(dec, from_k=True), _move_one(dec, from_k=False), _first_k_times_i(dec)):
        assert not verify_cartan_relations_reference(wrong)


def test_osaka_verify_builds_each_block_and_the_type_once(monkeypatch):
    rec = catalog_record("III[mu,mu]")
    calls = Counter()
    block_basis, classify_type = RealFormDescriptor.block_basis, osaka.classify_type

    def counting_block_basis(self, key):
        calls["block_basis"] += 1
        return block_basis(self, key)

    def counting_classify_type(*args):
        calls["classify_type"] += 1
        return classify_type(*args)

    monkeypatch.setattr(RealFormDescriptor, "block_basis", counting_block_basis)
    monkeypatch.setattr(osaka, "classify_type", counting_classify_type)
    report = osaka_verify(rec, 3)
    assert report.all_passed
    # the form is untwisted with parity 0, so its period is 1: (0,), (1, -1)
    # and ("cd",) are solved, and (2, -2) and (3, -3), shifts of (1, -1),
    # are never built
    assert calls == {"block_basis": len(rec.real_form.block_keys(1)), "classify_type": 1}
