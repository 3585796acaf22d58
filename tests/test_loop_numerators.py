"""Loop elements store numerator vectors: every loop operation against the
Scalar-tuple reference in oracles, and the representation itself.

Coefficients mix integers, Fractions with denominators up to 7, purely
imaginary and zero entries; one element in a pair often repeats or negates
terms of the other, so sums and brackets cancel to zero. The algebras are
the registry's, in both twist orders, plus su(2) scaled by (1 + i)/3, whose
structure constants and Killing entries are not Gaussian integers, and
su2su2c with the swap of its summands as twist, whose eigenvectors are not
coordinate vectors, so the bracket walks every constant at every exponent.
"""
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

from kmalg import serialize
from kmalg.findim import FiniteLieAlgebra, make_su, mat_scale, sparse_rows
from kmalg.involution import CoeffMap
from kmalg.kmext import ExtendedElement, cocycle, hat_bracket
from kmalg.loop import (
    TwistedLoopElement,
    loop_bracket,
    loop_killing,
    twist_eigenbasis,
    untwisted,
)
from kmalg.rand import TrialRng, random_loop_element
from kmalg.scalars import Scalar, ZERO, vec_to_scalars
from cases import D_OVER_5, NONREAL_D, OVER_3, SU2C, SWAP
from oracles import (
    apply_loop_reference,
    cocycle_reference,
    gaussian,
    hat_bracket_reference,
    loop_add_reference,
    loop_bracket_reference,
    loop_derivative,
    loop_derivative_reference,
    loop_killing_reference,
    loop_neg_reference,
    loop_scale_reference,
    random_loop_element_reference,
    scalar_reference,
)

_SU2 = make_su(2)
SCALED = FiniteLieAlgebra("(1+i)/3 su(2)", "C",
                          [mat_scale(Scalar(Fraction(1, 3), Fraction(1, 3)), b) for b in _SU2.basis],
                          _SU2.blocks)
KINDS = [serialize.lookup_algebra(name, order) for name, order in (
    ("su2c", 1), ("su2c", 2), ("sl2c", 1), ("sl2c", 2), ("su2su2c", 1), ("abelian1c", 1))]
KINDS += [(SCALED, untwisted(SCALED)), SWAP]

parts = st.one_of(st.integers(-6, 6),
                  st.builds(Fraction, st.integers(-9, 9), st.integers(3, 7)))
scalars = st.one_of(
    st.just(ZERO),
    st.builds(Scalar, parts),
    st.builds(lambda im: Scalar(0, im), parts),  # purely imaginary
    st.builds(Scalar, parts, parts),
)
@st.composite
def coefficients(draw, algebra, twist, k):
    """A graded coefficient at exponent k: Scalar multiples of the twist
    eigenbasis at k's parity, summed in Scalar arithmetic."""
    out = algebra.zero_coords()
    for b in twist_eigenbasis(algebra, twist, k % twist.order):
        c = draw(scalars)
        out = tuple(x + c * y for x, y in zip(out, vec_to_scalars(b)))
    return out


@st.composite
def elements(draw, algebra, twist, like=None):
    """A Scalar-tuple dict of up to 4 terms, |k| <= 4. With like, some terms
    repeat or negate like's, so sums with it cancel there."""
    terms = {}
    for k in draw(st.lists(st.integers(-4, 4), max_size=4, unique=True)):
        terms[k] = draw(coefficients(algebra, twist, k))
    if like:
        for k in draw(st.lists(st.sampled_from(sorted(like)), unique=True)):
            sign = draw(st.sampled_from((1, -1)))
            terms[k] = tuple(sign * c for c in like[k])
    return {k: v for k, v in terms.items() if any(v)}


@st.composite
def pairs(draw):
    algebra, twist = draw(st.sampled_from(KINDS))
    f = draw(elements(algebra, twist))
    g = draw(elements(algebra, twist, like=f))
    return algebra, twist, f, g


def lift(algebra, twist, terms):
    return TwistedLoopElement(algebra, twist, terms)


def assert_canonical(f):
    """Every stored coefficient is a nonzero numerator vector in lowest
    terms: int numerators over an int denominator that is positive."""
    n = f.algebra.dim
    for vec in f.terms.values():
        nums, den = vec
        assert type(nums) is tuple and len(nums) == 2 * n
        assert type(den) is int and den > 0
        assert all(type(x) is int for x in nums)
        assert any(nums) and gcd(den, *nums) == 1


def check(result, want):
    assert_canonical(result)
    assert result.coeffs == want
    assert result == lift(result.algebra, result.twist, want)


@settings(max_examples=200, deadline=None)
@given(pairs(), scalars)
def test_vector_space_operations_match_scalar_reference(case, c):
    algebra, twist, fs, gs = case
    f, g = lift(algebra, twist, fs), lift(algebra, twist, gs)
    assert_canonical(f)
    check(f + g, loop_add_reference(fs, gs))
    check(f - g, loop_add_reference(fs, loop_neg_reference(gs)))
    check(-f, loop_neg_reference(fs))
    check(f.scale(c), loop_scale_reference(fs, c))
    check(f - f, {})


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_bracket_derivative_and_pairings_match_scalar_reference(case):
    algebra, twist, fs, gs = case
    f, g = lift(algebra, twist, fs), lift(algebra, twist, gs)
    m = twist.order
    check(loop_bracket(f, g), loop_bracket_reference(algebra, fs, gs))
    check(loop_derivative(f), loop_derivative_reference(fs, m))
    assert loop_killing(f, g) == loop_killing_reference(algebra, fs, gs)
    assert cocycle(f, g) == cocycle_reference(algebra, m, fs, gs)


@settings(max_examples=200, deadline=None)
@given(pairs(), st.data())
def test_apply_loop_matches_scalar_reference(case, data):
    algebra, twist, fs, _ = case
    n = algebra.dim
    matrix = data.draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    phi = CoeffMap(sparse_rows(matrix), index_sign=data.draw(st.sampled_from((1, -1))),
                   conjugate=data.draw(st.booleans()), parity=data.draw(st.integers(0, 3)))
    out = phi.apply_loop(lift(algebra, twist, fs))
    assert_canonical(out)
    assert out.coeffs == apply_loop_reference(phi, fs)


@settings(max_examples=200, deadline=None)
@given(pairs(), scalars.filter(bool))
def test_equality_and_hash_follow_the_scalar_coefficients(case, c):
    algebra, twist, fs, gs = case
    f, g = lift(algebra, twist, fs), lift(algebra, twist, gs)
    assert (f == g) == (fs == gs)
    # another route to the same element: scaled there and back
    back = f.scale(c).scale(Scalar(1) / c)
    assert_canonical(back)
    assert back == f and hash(back) == hash(f)
    if f == g:
        assert hash(f) == hash(g)


@settings(max_examples=200, deadline=None)
@given(pairs(), scalars, scalars, scalars, scalars)
@example((*SU2C[0], *OVER_3[:2]), ZERO, D_OVER_5, ZERO, ZERO)
@example((*SU2C[0], *OVER_3[:2]), ZERO, ZERO, ZERO, NONREAL_D)
@example((*SU2C[1], *OVER_3[:2]), ZERO, D_OVER_5, ZERO, ZERO)
@example((*SU2C[1], *OVER_3[:2]), ZERO, ZERO, ZERO, NONREAL_D)
def test_hat_bracket_matches_scalar_reference(case, xc, xd, yc, yd):
    """The derivative terms are scaled by i k d / m in one step; d ranges
    over zero, integral, non-integral and purely imaginary values. The
    examples put a d over 5, or a non-real d on y only, beside loop terms
    over 3, on both twists of su2c."""
    algebra, twist, fs, gs = case
    x = ExtendedElement(lift(algebra, twist, fs), xc, xd)
    y = ExtendedElement(lift(algebra, twist, gs), yc, yd)
    z = hat_bracket(x, y)
    assert_canonical(z.loop)
    assert (z.loop.coeffs, z.c, z.d) == hat_bracket_reference(
        algebra, twist.order, (fs, xc, xd), (gs, yc, yd))


def test_random_loop_elements_match_the_scalar_path():
    """random_loop_element builds each coefficient from its four draws in
    numerator form; over 60 seeds and every registered (algebra, twist)
    pair it gives the elements of the Scalar path and leaves the stream at
    the same place."""
    for algebra, twist in KINDS[:6]:
        for seed in range(60):
            new, old = TrialRng(seed, 3), TrialRng(seed, 3)
            for _ in range(3):
                f = random_loop_element(algebra, twist, new)
                assert f == random_loop_element_reference(algebra, twist, old)
                assert_canonical(f)
            assert new.u32() == old.u32()


def test_trial_scalars_match_the_fraction_draws():
    """Over 60 seeds TrialRng.scalar gives the Scalars of two Fraction draws,
    leaves the stream at the same place, and agrees with the numerator-form
    draw (oracles.gaussian)."""
    for seed in range(60):
        new, old = TrialRng(seed, 5), TrialRng(seed, 5)
        for _ in range(2):
            assert new.scalar() == scalar_reference(old)
        assert new.u32() == old.u32()
        assert new.scalar() == vec_to_scalars(gaussian(old))[0]
