"""The oracle walk over the brackets of a truncation on items over another
algebra, CoeffMap.fixes on a map that is not involutive, and the period
classes a truncation reads off the period its blocks were built with.

bracket_verdicts_reference in oracles (hat_bracket, contains and
descriptor_fixes on each representative pair), the oracle the map
verdicts are checked against, must find a truncation whose items come
from a form over another algebra not closed once a bracket is nonzero,
closed where every bracket is zero, and raise as hat_bracket does on a
pair across algebras. CoeffMap.fixes tests every exponent of its element:
on a map that is not involutive the k >= 0 half of the condition may hold
while the whole does not, so it is checked against apply_loop on involutive
maps and on maps that are not, with s = -1 and half-built elements among
them. The period classes a truncation's built_period gives (block
(k, -k), k > P, the shift of block (k - P, P - k)) are checked against
classes_reference in oracles, which rediscovers the classes from the
blocks."""
from hypothesis import given, settings, strategies as st

from kmalg.findim import make_abelian, sparse_rows
from kmalg.involution import (
    CoeffMap,
    Truncation,
    _period,
    fixed_and_eigenspaces,
)
from kmalg.loop import MismatchError, TwistedLoopElement, untwisted
from kmalg.osaka import catalog_record
from kmalg.scalars import Scalar
from oracles import bracket_verdicts_reference, classes_reference, materialize, replace
from test_integer_walk import _half_built, involutions
from test_period_classes import DIAGONAL, NAMES, ODD_PHI, ODD_SPLITS, _span
from test_sparse_maps import coeff_maps, dims, loops

_TRUNCATIONS = {}


def _truncate(rf, degree):
    """rf.truncate(degree) with every block explicit (`materialize`), built
    once per form and degree for the run."""
    key = (rf, degree)  # forms hash by identity, and the key keeps rf alive
    if key not in _TRUNCATIONS:
        _TRUNCATIONS[key] = materialize(rf.truncate(degree))
    return _TRUNCATIONS[key]


def _foreign(t, other, i):
    """t with its blocks taken from the truncation other, of a form over
    another algebra or twist: every block when i is None, else block i."""
    blocks = [o if i in (None, n) else b for n, (b, o) in enumerate(zip(t.blocks, other.blocks))]
    return Truncation(t.real_form, t.n_max, tuple(blocks), t.involution)


def _outcome(walk, t, relations):
    try:
        return walk(t, relations)
    except MismatchError as err:
        return type(err)


def test_items_over_another_algebra_leave_the_form_only_when_their_bracket_is_nonzero():
    """The same closed diagonal form (real coordinates, cd_scale i) over
    su2c/1 and sl2c/1: both conj matrices are the identity, so only the
    algebra tells the sl2c items apart."""
    su2c, sl2c = DIAGONAL[1], DIAGONAL[257]
    assert su2c.algebra is not sl2c.algebra and su2c.conj == sl2c.conj and su2c.cd_scale == sl2c.cd_scale
    assert all(bracket_verdicts_reference(_truncate(rf, 3), False) == (True, False) for rf in (su2c, sl2c))
    t = _foreign(_truncate(su2c, 3), _truncate(sl2c, 3), None)
    assert bracket_verdicts_reference(t, False) == (False, False)
    # brackets that are zero: the c and d items of the cd block (a
    # derivative of nothing), and one element with itself
    cd = Truncation(su2c, 3, (t.blocks[-1],))
    (key, items), x = cd.blocks[0], t.blocks[1][1][0]
    alone = Truncation(su2c, 3, (((1, -1), [x]),))
    assert key == ("cd",) and x[0].loop.terms
    for zero in (cd, alone):
        assert bracket_verdicts_reference(zero, False) == (True, False)
    # one block over sl2c: the pairs across algebras raise, as hat_bracket does
    mixed = _foreign(_truncate(su2c, 3), _truncate(sl2c, 3), 1)
    assert _outcome(bracket_verdicts_reference, mixed, False) is MismatchError


# -- a map that is not involutive ------------------------------------------------

def _involutive(phi):
    return phi.compose(phi).is_identity()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fixes_matches_apply_loop_on_involutive_and_other_maps(data):
    n = data.draw(dims)
    involutive = data.draw(st.booleans())
    if involutive:
        phi = data.draw(involutions(n))
    else:
        phi = data.draw(coeff_maps(n).filter(lambda m: not _involutive(m)).map(
            lambda m: CoeffMap(m.sparse, -1, m.conjugate, m.parity)).filter(lambda m: not _involutive(m)))
    assert _involutive(phi) == involutive
    f, sign = data.draw(loops(n)), data.draw(st.sampled_from((1, -1)))
    how = data.draw(st.sampled_from(("drawn", "eigen", "half")))
    if how == "eigen":
        image = phi.apply_loop(f)
        f = f + (image if sign == 1 else -image)
    elif how == "half" and phi.index_sign == -1:
        f = _half_built(phi, f, sign)
    else:
        how = "drawn"
    for s in (1, -1):
        assert phi.fixes(f, s) == (phi.apply_loop(f) == (f if s == 1 else -f))
    if involutive and how != "drawn":
        assert phi.fixes(f, sign)


def test_a_map_that_is_not_involutive_is_checked_at_every_exponent():
    """2 Id, conjugate-linear with s = -1, squares to 4 Id. On
    f = 2 e_1 t + e_1 t^-1 the check at k = 1 holds (2 conj(e_1) = 2 e_1)
    and the one at k = -1 does not (2 conj(2 e_1) != e_1)."""
    alg = make_abelian(1).complexify()
    f = TwistedLoopElement(alg, untwisted(alg), {1: (Scalar(2),), -1: (Scalar(1),)})
    phi = CoeffMap(sparse_rows([[2]]), index_sign=-1, conjugate=True)
    image = phi.apply_loop(f)
    assert image.terms[1] == f.terms[1] and image.terms[-1] != f.terms[-1]
    assert not phi.fixes(f) and image != f


# -- period classes from the built period --------------------------------------------

def _check_classes(t, built):
    """t records the period built, and for each P in {1, 2, 4} that is a
    multiple of it, classes_reference finds on t's blocks, every block of
    its degree built (`materialize`), the classes it gives: block (k, -k),
    k > P, in the class of block (j, -j), j in 1..P, j = k mod P; every
    other block its own."""
    assert t.built_period == built
    blocks = materialize(t).blocks
    for period in (1, 2, 4):
        if period % built == 0:
            assert classes_reference(blocks, period) == [
                i if key[0] == "cd" or key[0] <= period else (key[0] - 1) % period + 1
                for i, (key, _) in enumerate(blocks)]


def test_truncate_and_the_split_know_the_classes_that_classes_finds():
    """The classes the period truncate or the split built a truncation's
    blocks with gives are the ones classes_reference finds on them: on
    every catalog truncation and split at degrees 1 to 9 and 16, on the 512
    diagonal forms at degrees 1, 3, 5, 8 and 9, and on the period-4
    ODD_SPLITS at degrees 1 to 11. A copy made through the constructor (oracles.replace), and
    a truncation built by hand from a split's blocks, record no period."""
    for name in NAMES:
        rf, phi = catalog_record(name).real_form, catalog_record(name).involution
        for degree in list(range(1, 10)) + [16]:
            t = rf.truncate(degree)
            dec = fixed_and_eigenspaces(phi, t)
            _check_classes(t, _period(rf.twist, rf.conj))
            _check_classes(dec, _period(rf.twist, rf.conj, phi.loop_map))
            for hand_built in (replace(dec), replace(t), _span(dec)):
                assert hand_built.built_period is None
    assert {_period(rf.twist, rf.conj) for rf in DIAGONAL} == {1, 2, 4}
    for rf in DIAGONAL:
        for degree in (1, 3, 5, 8, 9):
            _check_classes(rf.truncate(degree), _period(rf.twist, rf.conj))
    for rf in ODD_SPLITS.values():
        for degree in range(1, 12):
            t = rf.truncate(degree)
            _check_classes(t, _period(rf.twist, rf.conj))
            _check_classes(fixed_and_eigenspaces(ODD_PHI, t), 4)
