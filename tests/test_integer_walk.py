"""Membership and the loop bracket on integers: `CoeffMap.fixes` (an
image-free apply_loop(f) == +-f) and `RealFormDescriptor.contains` against
the image on the Scalar path (apply_loop_reference in oracles), the
per-exponent `loop_bracket` against the Scalar-tuple convolution, the
shifted structure constants of `direct_sum` against solving them from the
sum's basis, and the grading check of `SplittingHom.apply`.

The maps are drawn by cases.coeff_maps (unit, non-unit and zero entries,
zero rows, singular matrices, both conjugate values, index signs +-1 and
parities 0-3), plus involutive maps (cases.involutions), so that
f + sign * phi(f) is a sign-eigenvector of phi and True verdicts are
common; the maps that are not involutive are test_raw_walk's. Loop
coefficients have denominators up to 5, and some elements lack the mirror
exponent of a term, or hold the terms at k > 0 that the ones at -k force
under s = -1, so that only the terms at negative k decide.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import kmext
from kmalg.findim import (
    automorphism_from_order,
    direct_sum,
    make_abelian,
    make_sl,
    make_so,
    make_su,
    sparse_apply,
    sparse_rows,
)
from kmalg.involution import CoeffMap, RealFormDescriptor
from kmalg.kmext import ExtendedElement, SplittingHom
from kmalg.loop import (
    GradingError,
    TwistedLoopElement,
    loop_bracket,
    loop_monomial,
    untwisted,
)
from kmalg.scalars import I, ONE, Scalar, ZERO
from cases import (
    KERNEL_ALGEBRAS,
    coeff_maps,
    dims,
    general,
    half_built,
    involutions,
    loops,
    rationals,
)
from oracles import apply_loop_reference, coords_reference, loop_bracket_reference, mat_bracket, scalar_bracket

# c and d: zero, real, imaginary or general, so that each c/d line holds some
line_scalars = st.one_of(st.just(ZERO), rationals.map(Scalar), rationals.map(lambda r: Scalar(0, r)), general)


def _eigen_reference(phi, f, sign):
    """Whether phi(f) = sign * f, phi applied on the Scalar path."""
    return apply_loop_reference(phi, f.coeffs) == {k: v if sign == 1 else tuple(-x for x in v)
                                                   for k, v in f.coeffs.items()}


def _on_line(x, scale):
    """Whether the Scalar x lies on the line scale * R (on any line when
    scale is None), read off x * conj(scale)."""
    return scale is None or not (x * scale.conjugate()).im


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fixes_matches_apply_loop(data):
    """fixes against the image, on drawn elements (a term's mirror exponent
    often missing), on f + sign * phi(f) and on half-built elements; and
    contains, on the form whose real structure is phi (made conjugate-linear
    when it is not) with each c/d line and none, against the image plus the
    c/d line test."""
    n = data.draw(dims)
    involutive = data.draw(st.booleans())
    phi = data.draw(involutions(n) if involutive else coeff_maps(n))
    f = data.draw(loops(n))
    sign = data.draw(st.sampled_from((1, -1)))
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
    if how != "drawn" and involutive:
        assert phi.fixes(f, sign)
    tau = phi if phi.conjugate else CoeffMap(phi.sparse, phi.index_sign, True, phi.parity)
    x = ExtendedElement(f, data.draw(line_scalars), data.draw(line_scalars))
    for scale in (ONE, I, None):
        rf = RealFormDescriptor("drawn", f.algebra, f.twist, tau, scale)
        want = _eigen_reference(tau, f, 1) and _on_line(x.c, scale) and _on_line(x.d, scale)
        assert rf.contains(x) == want


def test_fixes_needs_each_mirror_exponent():
    """Under s = -1 a term at k needs one at -k, even where phi maps it to
    zero: the image then has no term at k, and f does."""
    alg = make_abelian(2).complexify()
    f = TwistedLoopElement(alg, untwisted(alg), {1: (Scalar(Fraction(1, 3)), ZERO)})
    for matrix in ([[1, 0], [0, 1]], [[0, 0], [0, 0]]):
        phi = CoeffMap(sparse_rows(matrix), index_sign=-1)
        assert not phi.fixes(f) and not _eigen_reference(phi, f, 1)
    both = f + TwistedLoopElement(alg, untwisted(alg), {-1: (Scalar(Fraction(1, 3)), ZERO)})
    assert CoeffMap(sparse_rows([[1, 0], [0, 1]]), index_sign=-1).fixes(both)
    assert CoeffMap(sparse_rows([[0, 0], [0, 0]]), index_sign=-1).fixes(f - f)


@st.composite
def algebra_loops(draw):
    """Two untwisted loop elements over one of the kernel algebras of
    test_findim (dimensions 1 to 10, D_s = 2 on two of them; the registry's
    twisted pairs are test_loop_numerators'), with denominators 1 to 5."""
    alg = draw(st.sampled_from(KERNEL_ALGEBRAS)).complexify()
    coords = st.lists(st.one_of(st.just(ZERO), general), min_size=alg.dim, max_size=alg.dim)

    def element():
        degrees = draw(st.lists(st.integers(-3, 3), max_size=4, unique=True))
        return TwistedLoopElement(alg, untwisted(alg), {k: tuple(draw(coords)) for k in degrees})

    return alg, element(), element()


@settings(max_examples=200, deadline=None)
@given(algebra_loops())
def test_loop_bracket_matches_reference_on_mixed_denominators(case):
    alg, f, g = case
    assert loop_bracket(f, g).coeffs == loop_bracket_reference(alg, f.coeffs, g.coeffs)


def _ints(nums):
    return all(type(x) is int for x in nums)


@settings(max_examples=100, deadline=None)
@given(algebra_loops(), st.data())
def test_integer_paths_make_no_float(case, data):
    """Both integer paths on Fraction-backed input: every numerator and
    denominator of a loop bracket, and of the image `fixes` compares
    (`sparse_apply`), is an int, and the verdict is a bool."""
    alg, f, g = case
    for nums, den in loop_bracket(f, g).terms.values():
        assert _ints(nums) and type(den) is int and den > 0
    phi = data.draw(coeff_maps(alg.dim))
    for vec in f.terms.values():
        nums, den = sparse_apply(phi.sparse, vec, phi.conjugate, data.draw(st.integers(-4, 4)))
        assert _ints(nums) and type(den) is int and den > 0
    assert type(phi.fixes(f)) is bool and type(phi.fixes(f, -1)) is bool


@pytest.mark.parametrize("summands", [
    (make_su(2), make_su(2)),
    (make_abelian(1), make_su(2)),
    (make_su(2), make_abelian(2), make_so(3)),
    (make_sl(2), make_sl(3)),
], ids=["su2+su2", "u1+su2", "su2+u2+so3", "sl2+sl3"])
def test_direct_sum_structure_equals_the_solved_table(summands):
    g = direct_sum(*summands)
    units = [tuple(ONE if i == n else ZERO for i in range(g.dim)) for n in range(g.dim)]
    for j in range(g.dim):
        for k in range(g.dim):
            want = coords_reference(g, mat_bracket(g.basis[j], g.basis[k]))
            assert scalar_bracket(g, units[j], units[k]) == want


def test_splitting_hom_checks_the_grading_where_the_twists_differ(monkeypatch):
    """An untwisted su(2) factor beside a twisted one, into su(2)+su(2)
    twisted by the identity on the first block: the first block's odd terms
    break the target grading, and its even ones keep it. Every image is
    checked, also one graded by construction."""
    su2c = make_su(2).complexify()
    tw1 = untwisted(su2c)
    tw2 = automorphism_from_order(su2c, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    target = direct_sum(make_su(2), make_su(2)).complexify()
    diag = (1, 1, 1, -1, 1, -1)
    ttw = automorphism_from_order(target, [[diag[i] if i == j else 0 for j in range(6)]
                                           for i in range(6)])
    mixed = SplittingHom([(su2c, tw1), (su2c, tw2)], target, ttw)
    second = ExtendedElement(loop_monomial(su2c, tw2, 1, (Scalar(1), ZERO, ZERO)))
    x = (Scalar(Fraction(1, 2)), ZERO, Scalar(3))
    image = mixed.apply([ExtendedElement(loop_monomial(su2c, tw1, 2, x)), second])
    assert image.loop.coeffs == {2: x + (ZERO,) * 3, 1: (ZERO,) * 3 + (Scalar(1), ZERO, ZERO)}
    with pytest.raises(GradingError):
        mixed.apply([ExtendedElement(loop_monomial(su2c, tw1, 1, x)), second])
    # every image is checked, also where each factor is twisted as the
    # target is on its block, so that the image is graded by construction
    both = (-1, 1, -1, -1, 1, -1)
    agreeing = SplittingHom([(su2c, tw2), (su2c, tw2)], target, automorphism_from_order(
        target, [[both[i] if i == j else 0 for j in range(6)] for i in range(6)]))
    checked = []
    monkeypatch.setattr(kmext, "check_grading", checked.append)
    images = [agreeing.apply([second, second]),
              mixed.apply([ExtendedElement(loop_monomial(su2c, tw1, 2, x)), second])]
    assert checked == [y.loop for y in images]
