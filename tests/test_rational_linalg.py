"""linalg eliminates over rationals only: every caller in the library hands
it int or Fraction entries, and a twist, whose eigenspaces are kernels of a
rational matrix, must have a real matrix."""
from fractions import Fraction

import pytest

from kmalg import kmext, linalg, loop, osaka, serialize
from kmalg.findim import automorphism_from_order, direct_sum, make_su
from kmalg.loop import LoopError, killing_gram, twist_eigenbasis, untwisted, zero_loop
from kmalg.scalars import I


def test_twist_with_a_non_real_matrix_is_refused():
    sl2c, _ = serialize.lookup_algebra("sl2c", 1)
    # Ad [[0, i], [1, 0]]: H -> -H, E -> -iF, F -> iE, of order 2
    tw = automorphism_from_order(sl2c, [[-1, 0, 0], [0, 0, I], [0, -I, 0]])
    assert tw.order == 2
    with pytest.raises(LoopError, match="real matrix"):
        zero_loop(sl2c, tw)
    with pytest.raises(LoopError, match="real matrix"):
        twist_eigenbasis(sl2c, tw, 1)


def _rational_only(fn, seen):
    def wrapped(rows):
        bad = [x for row in rows for x in row if type(x) not in (int, Fraction)]
        if bad:
            raise TypeError(f"{fn.__name__} got a {type(bad[0]).__name__} entry")
        seen[fn.__name__] += 1
        return fn(rows)
    return wrapped


def test_no_scalar_reaches_elimination(monkeypatch):
    seen = {"rref": 0, "symmetric_signature": 0}
    for name in seen:
        monkeypatch.setattr(linalg, name, _rational_only(getattr(linalg, name), seen))
    for rec in osaka.build_catalog_a1():
        report = osaka.osaka_verify(rec, 3)
        assert report.all_passed, rec.name
        killing_gram(rec.real_form.truncate(3).loops)
    su2 = make_su(2)
    target = direct_sum(su2, su2).complexify()
    su2c, tw1 = serialize.lookup_algebra("su2c", 1)
    assert kmext.SplittingHom([(su2c, tw1)] * 2, target, untwisted(target)).kernel_dimension() == 1
    for name, (algebra, twists) in serialize.registry().items():
        for twist in twists.values():
            for parity in (0, 1):
                basis = loop._twist_eigenbasis(algebra, twist, parity)
                assert len(basis) <= algebra.dim, (name, twist.order, parity)
    assert all(seen.values()), seen
