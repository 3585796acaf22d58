"""The Jacobi residual on raw numerators, and the random elements that feed
it.

jacobi_residual composes the raw extended brackets unreduced and reduces
once; it must equal the sum of three nested hat_brackets
(oracles.jacobi_residual_reference) exactly, on triples with nonzero,
non-real c and d and coefficients over denominators 3 and 5, and on an
algebra with one structure constant perturbed, where the Jacobi identity
fails: there both residuals are nonzero, so jacobi-check reports the
broken bracket. Pinned examples put a d over 5, or a non-real d on z
only, beside loop terms over 3, where one common denominator for x, y
and z must take in the d parts; and every accumulator and denominator
the bracket kernel returns must be an int. The pairs are the registered
ones but sl2c/1, and su2su2c under the swap of its summands, a twist whose
eigenvectors are not coordinate vectors. random_loop_element sums each
term in one accumulator, and random_extended_element draws c and d after
it; both must give the elements of the Scalar-draw reference on the
byte-slicing stream (oracles), on int and str seeds, and TrialRng must
give that stream's draws, 40 streams of 120 mixed draws.
"""
import copy
import json
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from kmalg import cli, kmext, serialize
from kmalg.kmext import ExtendedElement, hat_bracket, jacobi_residual
from kmalg.loop import MismatchError, TwistedLoopElement
from kmalg.rand import TrialRng, random_extended_element, random_loop_element
from kmalg.scalars import Scalar, ZERO

from cases import D_OVER_5, NONREAL_D, OVER_3, SU2C, SWAP
from oracles import (
    TrialRngReference,
    gaussian,
    jacobi_residual_reference,
    jacobi_terms_reference,
    random_loop_element_reference,
)

REGISTERED = [("su2c", 1), ("su2c", 2), ("sl2c", 1), ("sl2c", 2), ("su2su2c", 1), ("abelian1c", 1)]
RESIDUAL_KINDS = [serialize.lookup_algebra(*kind) for kind in REGISTERED if kind != ("sl2c", 1)] + [SWAP]

parts = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.sampled_from((3, 5))))
scalars = st.builds(Scalar, parts, parts)
nonreal = st.builds(Scalar, parts, parts.filter(bool))


def _perturbed(algebra):
    """A copy of algebra whose first structure constant has 1 added to its
    real numerator: the bracket of the copy is no Lie bracket."""
    broken = copy.copy(algebra)
    j, k, m, re, im = algebra._sc[0]
    broken._sc = ((j, k, m, re + 1, im),) + algebra._sc[1:]
    return broken


def _over(algebra, x):
    """x with its loop part moved onto algebra (same terms, same twist)."""
    return ExtendedElement(TwistedLoopElement.from_vecs(algebra, x.loop.twist, x.loop.terms), x.c, x.d)


@st.composite
def triples(draw):
    """Three elements over one registered pair, drawn by TrialRng at degree
    0 to 12, each loop scaled by a non-real Scalar over 3 or 5 and given
    drawn c and d (nonzero for at least one element)."""
    algebra, twist = draw(st.sampled_from(RESIDUAL_KINDS))
    rng = TrialRng(draw(st.integers(0, 10**6)), draw(st.integers(0, 50)))
    degree = draw(st.integers(0, 12))
    out = []
    for i in range(3):
        x = random_extended_element(algebra, twist, rng, max_degree=degree)
        c = draw(nonreal) if i == 0 else draw(scalars)
        d = draw(nonreal) if i == 0 else draw(scalars)
        out.append(ExtendedElement(x.loop.scale(draw(nonreal)), c, d))
    return out


def _over_3(kind, dx=ZERO, dz=ZERO):
    """The OVER_3 loops over kind, an (algebra, twist) pair of SU2C, as x,
    y and z with d coefficients dx, 0 and dz."""
    return [ExtendedElement(TwistedLoopElement(*kind, terms), ZERO, d) for terms, d in zip(OVER_3, (dx, ZERO, dz))]


def _accumulators(out):
    return [v for acc in out.values() for v in acc]


def _ints_only(fn, values):
    """fn, failing any call where an item of values(its result) is not of
    type int."""
    def checked(*args):
        out = fn(*args)
        bad = [v for v in values(out) if type(v) is not int]
        assert not bad, f"{fn.__name__} returned {bad[:3]}"
        return out
    return checked


@settings(max_examples=150, deadline=None)
@given(triples())
@example(_over_3(SU2C[0], dx=D_OVER_5))
@example(_over_3(SU2C[0], dz=NONREAL_D))
@example(_over_3(SU2C[1], dx=D_OVER_5))
@example(_over_3(SU2C[1], dz=NONREAL_D))
def test_residual_equals_the_nested_brackets(xyz):
    """Also: every accumulator of extended_bracket_raw and of the
    convolution beneath it (loop_bracket_raw) and every denominator of
    _denominator, under jacobi_residual and under the hat_brackets of the
    reference, holds ints only. The residual is zero
    on any Lie bracket, so the three nested brackets it sums are checked on
    the Scalar path (jacobi_terms_reference), where a kernel fault that
    keeps a Lie bracket shows. The examples put a d over 5 on x, or a
    non-real d on z only, beside loop terms over 3, on both twists of
    su2c."""
    kernel = _ints_only(kmext.extended_bracket_raw, _accumulators)
    convolution = _ints_only(kmext.loop_bracket_raw, _accumulators)
    denominator = _ints_only(kmext._denominator, lambda den: [den])
    x, y, z = xyz
    with (patch.object(kmext, "extended_bracket_raw", kernel), patch.object(kmext, "_denominator", denominator),
          patch.object(kmext, "loop_bracket_raw", convolution)):
        r = jacobi_residual(*xyz)
        assert r == jacobi_residual_reference(*xyz)
        terms = [hat_bracket(hat_bracket(a, b), w) for a, b, w in ((x, y, z), (y, z, x), (z, x, y))]
    assert [(t.loop.coeffs, t.c, t.d) for t in terms] == jacobi_terms_reference(*xyz)
    assert r.is_zero()


@settings(max_examples=100, deadline=None)
@given(triples())
@example(_over_3(SU2C[0], dx=D_OVER_5))
@example(_over_3(SU2C[0], dz=NONREAL_D))
@example(_over_3(SU2C[1], dx=D_OVER_5))
@example(_over_3(SU2C[1], dz=NONREAL_D))
def test_residual_equals_the_nested_brackets_on_a_broken_bracket(xyz):
    """On a Lie bracket both residuals are zero even where a d was dropped
    on the way: the examples of test_residual_equals_the_nested_brackets
    pin its denominators here, where the residual is not zero."""
    algebra = xyz[0].loop.algebra
    if not algebra._sc:
        return  # abelian: no structure constant to perturb
    broken = _perturbed(algebra)
    broken = [_over(broken, x) for x in xyz]
    assert jacobi_residual(*broken) == jacobi_residual_reference(*broken)


@pytest.mark.parametrize("kind", [k for k in RESIDUAL_KINDS if k[0]._sc])
def test_a_broken_bracket_gives_nonzero_residuals(kind):
    """Twenty jacobi-check triples over the perturbed copy: both residuals
    are equal on every triple and nonzero on all but at most one."""
    algebra, twist = kind
    broken = _perturbed(algebra)
    nonzero = 0
    for t in range(20):
        rng = TrialRng("broken", t)
        xyz = [_over(broken, random_extended_element(algebra, twist, rng, max_degree=6)) for _ in range(3)]
        r = jacobi_residual(*xyz)
        assert r == jacobi_residual_reference(*xyz)
        nonzero += not r.is_zero()
    assert nonzero >= 19


def test_jacobi_check_fails_on_a_broken_bracket(monkeypatch, capsys):
    """jacobi-check over su2c with the perturbed structure constants set,
    for this test only, on the registered algebra exits 1 and lists
    failures."""
    algebra, _ = serialize.lookup_algebra("su2c", 1)
    monkeypatch.setattr(algebra, "_sc", _perturbed(algebra)._sc)
    code = cli.run(["jacobi-check", "--trials", "10", "--degree", "4", "--seed", "broken"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["passed"] is False and report["failures"]


def test_mixed_operands_raise():
    a, t1 = serialize.lookup_algebra("su2c", 1)
    _, t2 = serialize.lookup_algebra("su2c", 2)
    b, u1 = serialize.lookup_algebra("sl2c", 1)
    rng = TrialRng("mixed")
    x, y = (random_extended_element(a, t1, rng) for _ in range(2))
    for other in (random_extended_element(a, t2, rng), random_extended_element(b, u1, rng)):
        for xyz in ((other, x, y), (x, other, y), (x, y, other)):
            with pytest.raises(MismatchError):
                jacobi_residual(*xyz)
            with pytest.raises(MismatchError):
                jacobi_residual_reference(*xyz)


# -- the random stream -----------------------------------------------------------

def test_trial_rng_matches_the_slicing_reference_draw_for_draw():
    for seed in range(40):
        new, old = TrialRng(seed, seed % 7), TrialRngReference(seed, seed % 7)
        for i in range(120):
            kind = i % 4
            if kind == 0:
                assert new.u32() == old.u32()
            elif kind == 1:
                assert new.randint(-seed, 3 * seed + 1) == old.randint(-seed, 3 * seed + 1)
            elif kind == 2:
                assert new.scalar() == old.scalar()
            else:
                assert gaussian(new) == gaussian(old)


# -- the random elements -----------------------------------------------------------

@pytest.mark.parametrize("kind", REGISTERED)
def test_random_elements_match_the_reference_at_degrees_0_to_12(kind):
    algebra, twist = serialize.lookup_algebra(*kind)
    for degree in range(13):
        for seed in [*range(8), "ci"]:
            new, old = TrialRng(seed, degree), TrialRngReference(seed, degree)
            for _ in range(3):
                f = random_loop_element(algebra, twist, new, max_degree=degree)
                assert f.terms == random_loop_element_reference(algebra, twist, old, max_degree=degree).terms
            x = random_extended_element(algebra, twist, new, max_degree=degree)
            want = random_loop_element_reference(algebra, twist, old, max_degree=degree)
            assert (x.loop.terms, x.c, x.d) == (want.terms, old.scalar(), old.scalar())
            assert new.u32() == old.u32()
