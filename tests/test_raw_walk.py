"""CoeffMap.fixes on maps that are not involutive.

fixes tests every exponent of its element: on a map that is not
involutive the k >= 0 half of the condition may hold while the whole does
not, so it is checked against the image on the Scalar path
(apply_loop_reference in oracles) on involutive maps and on maps that are
not, with s = -1 and half-built elements among them, and on one
hand-built map whose check fails only at k = -1."""
from hypothesis import given, settings, strategies as st

from kmalg.findim import make_abelian, sparse_rows
from kmalg.involution import CoeffMap
from kmalg.loop import TwistedLoopElement, untwisted
from kmalg.scalars import Scalar
from cases import coeff_maps, dims, half_built, involutions, loops
from oracles import apply_loop_reference


def _eigen_reference(phi, f, sign):
    """Whether phi(f) = sign * f, phi applied on the Scalar path."""
    return apply_loop_reference(phi, f.coeffs) == {k: v if sign == 1 else tuple(-x for x in v)
                                                   for k, v in f.coeffs.items()}


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
        f = half_built(phi, f, sign)
    else:
        how = "drawn"
    for s in (1, -1):
        assert phi.fixes(f, s) == _eigen_reference(phi, f, s)
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
    assert not phi.fixes(f) and image != f and not _eigen_reference(phi, f, 1)
