"""Twisted loop elements: the grading and its refusals, normal form, the
loop bracket and derivative, the loop Killing form (against the
Scalar-tuple reference) and the Gram verdicts of small bases."""
from fractions import Fraction

import pytest

from kmalg.findim import FiniteAutomorphism, automorphism_from_order, make_abelian, make_sl, make_su
from kmalg.kmext import ExtendedElement, hat_bracket
from kmalg.loop import (
    Definiteness,
    GradingError,
    LoopError,
    MismatchError,
    NonRealPairingError,
    TwistedLoopElement,
    check_twist,
    killing_gram,
    loop_bracket,
    loop_killing,
    loop_monomial,
    twist_eigenbasis,
    untwisted,
)
from kmalg.rand import TrialRng, random_loop_element
from kmalg.scalars import Scalar, ZERO

from oracles import loop_derivative, loop_killing_reference, scalar_bracket, scalar_reference

SU2C = make_su(2).complexify()
TW1 = untwisted(SU2C)
TW2 = automorphism_from_order(SU2C, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])

X = (Scalar(1), ZERO, ZERO)
Y = (ZERO, Scalar(1), ZERO)


def _cos_sin_basis(n_max):
    """Real basis of the pointwise-compact loops up to degree n_max."""
    out = []
    half = Scalar(Fraction(1, 2))
    mihalf = Scalar(0, Fraction(-1, 2))
    for j in range(3):
        e = tuple(Scalar(1) if i == j else ZERO for i in range(3))
        out.append(loop_monomial(SU2C, TW1, 0, e))
        for k in range(1, n_max + 1):
            cos_t = {k: tuple(half * x for x in e), -k: tuple(half * x for x in e)}
            sin_t = {k: tuple(mihalf * x for x in e), -k: tuple(-(mihalf * x) for x in e)}
            out.append(TwistedLoopElement(SU2C, TW1, cos_t))
            out.append(TwistedLoopElement(SU2C, TW1, sin_t))
    return out


# -- structure ----------------------------------------------------------------

def test_grading_enforced():
    # odd exponent needs the -1 eigenspace (X1, X3); X2 sits in +1
    with pytest.raises(GradingError):
        loop_monomial(SU2C, TW2, 1, Y)
    loop_monomial(SU2C, TW2, 1, X)  # fine
    loop_monomial(SU2C, TW2, 2, Y)  # fine


@pytest.mark.parametrize("twist,error,message", [
    (untwisted(make_sl(2, "C")), MismatchError, "twist is defined on a different algebra"),
    (FiniteAutomorphism(SU2C, untwisted(SU2C).sparse, conjugate=True), LoopError,
     "twists must be linear automorphisms"),
    (automorphism_from_order(SU2C, [[0, -1, 0], [1, 0, 0], [0, 0, 1]]), LoopError,
     "only twist orders 1 and 2 are supported"),
], ids=["other-algebra", "conjugate-linear", "order-4"])
def test_check_twist_refusals(twist, error, message):
    with pytest.raises(error) as err:
        check_twist(SU2C, twist)
    assert str(err.value) == message


def test_mismatch_rejected():
    f = loop_monomial(SU2C, TW1, 0, X)
    g = loop_monomial(SU2C, TW2, 0, Y)
    with pytest.raises(MismatchError):
        loop_bracket(f, g)


def test_equal_twists_over_different_algebras_do_not_match():
    """Twists compare as coefficient maps, whatever their algebra: the
    untwisted su2c and sl2c are equal maps. Elements over them still
    differ, and their bracket raises."""
    sl2c = make_sl(2, "C")
    tw_sl = untwisted(sl2c)
    assert TW1 == tw_sl and hash(TW1) == hash(tw_sl)
    f, g = loop_monomial(SU2C, TW1, 0, X), loop_monomial(sl2c, tw_sl, 0, X)
    assert f != g
    with pytest.raises(MismatchError):
        hat_bracket(ExtendedElement(f), ExtendedElement(g))


def test_normal_form_drops_zeros():
    f = loop_monomial(SU2C, TW1, 1, X)
    g = f - f
    assert g.is_zero() and g.terms == {}


def test_twist_eigenbasis_dims():
    assert len(twist_eigenbasis(SU2C, TW2, 0)) == 1
    assert len(twist_eigenbasis(SU2C, TW2, 1)) == 2
    assert len(twist_eigenbasis(SU2C, TW1, 0)) == 3
    assert twist_eigenbasis(SU2C, TW1, 1) == []


# -- bracket ---------------------------------------------------------------------

def test_constant_bracket_matches_finite():
    f = loop_monomial(SU2C, TW1, 0, X)
    g = loop_monomial(SU2C, TW1, 0, Y)
    br = loop_bracket(f, g)
    assert br.coeffs == {0: scalar_bracket(SU2C, X, Y)}


def test_single_convolution_term():
    f = loop_monomial(SU2C, TW1, 1, X)
    g = loop_monomial(SU2C, TW1, -1, Y)
    br = loop_bracket(f, g)
    assert list(br.terms) == [0]
    assert br.coeff(0) == scalar_bracket(SU2C, X, Y)


def test_twisted_grading_multiplicative():
    rng = TrialRng("grading")
    for _ in range(30):
        f = random_loop_element(SU2C, TW2, rng, max_degree=5)
        g = random_loop_element(SU2C, TW2, rng, max_degree=5)
        br = loop_bracket(f, g)
        # validated construction re-checks the grading invariant
        TwistedLoopElement(SU2C, TW2, br.coeffs)


def test_bracket_bilinear_antisymmetric_jacobi():
    # 500 trials at degree <= 6, both twist orders
    for t in range(500):
        tw = TW1 if t % 2 else TW2
        rng = TrialRng("loop-laws", t)
        f = random_loop_element(SU2C, tw, rng, max_degree=6)
        g = random_loop_element(SU2C, tw, rng, max_degree=6)
        h = random_loop_element(SU2C, tw, rng, max_degree=6)
        c = rng.scalar()
        assert loop_bracket(f, g) == -loop_bracket(g, f)
        assert loop_bracket(f.scale(c) + g, h) == loop_bracket(f, h).scale(c) + loop_bracket(g, h)
        jac = (
            loop_bracket(loop_bracket(f, g), h)
            + loop_bracket(loop_bracket(g, h), f)
            + loop_bracket(loop_bracket(h, f), g)
        )
        assert jac.is_zero()


# -- derivative --------------------------------------------------------------------

def test_derivative_formulas():
    assert loop_derivative(loop_monomial(SU2C, TW1, 0, X)).is_zero()
    d = loop_derivative(loop_monomial(SU2C, TW1, 1, X))
    assert d.coeffs == {1: tuple(Scalar(0, 1) * c for c in X)}
    d2 = loop_derivative(loop_monomial(SU2C, TW2, 1, X))
    assert d2.coeffs == {1: tuple(Scalar(0, Fraction(1, 2)) * c for c in X)}


def test_derivative_is_a_derivation():
    rng = TrialRng("leibniz")
    for tw in (TW1, TW2):
        for _ in range(20):
            f = random_loop_element(SU2C, tw, rng)
            g = random_loop_element(SU2C, tw, rng)
            lhs = loop_derivative(loop_bracket(f, g))
            rhs = loop_bracket(loop_derivative(f), g) + loop_bracket(f, loop_derivative(g))
            assert lhs == rhs


# -- loop Killing form ----------------------------------------------------------------

def test_loop_killing_examples():
    f = loop_monomial(SU2C, TW1, 1, X)
    g = loop_monomial(SU2C, TW1, -1, X)
    assert loop_killing(f, g) == Scalar(-8)
    assert loop_killing(f, g) == loop_killing_reference(SU2C, f.coeffs, g.coeffs)
    assert loop_killing(f, f) == ZERO
    ab = make_abelian(2).complexify()
    tw = untwisted(ab)
    h = loop_monomial(ab, tw, 1, (Scalar(1), Scalar(2)))
    k = loop_monomial(ab, tw, -1, (Scalar(3), Scalar(1)))
    assert loop_killing(h, k) == ZERO


def test_loop_killing_symmetric_invariant():
    rng = TrialRng("killing-loop")
    for tw in (TW1, TW2):
        for _ in range(15):
            f = random_loop_element(SU2C, tw, rng)
            g = random_loop_element(SU2C, tw, rng)
            h = random_loop_element(SU2C, tw, rng)
            assert loop_killing(f, g) == loop_killing(g, f)
            assert loop_killing(f, g) == loop_killing_reference(SU2C, f.coeffs, g.coeffs)
            inv = loop_killing(loop_bracket(h, f), g) + loop_killing(f, loop_bracket(h, g))
            assert inv == ZERO


def test_pointwise_compact_elements_pair_negatively():
    rng = TrialRng("compact-negativity")
    for trial in range(25):
        # random pointwise anti-Hermitian loop: a_{-k} = conj(a_k)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 4)
            vec = tuple(rng.scalar() if k else scalar_reference(rng, real_only=True) for _ in range(3))
            terms[k] = vec
            if k:
                terms[-k] = tuple(c.conjugate() for c in vec)
        f = TwistedLoopElement(SU2C, TW1, terms)
        if f.is_zero():
            continue
        v = loop_killing(f, f)
        assert v.is_real() and v.re < 0


# -- gram verdicts ------------------------------------------------------------------------

def test_gram_su2_negative_definite():
    basis = _cos_sin_basis(2)
    assert len(basis) == 15
    _, verdict = killing_gram(basis)
    assert verdict == Definiteness.NEG_DEFINITE


def test_gram_sl2r_indefinite():
    sl2r_c = make_sl(2, "R").complexify()
    tw = untwisted(sl2r_c)
    basis = []
    for j in range(3):
        e = tuple(Scalar(1) if i == j else ZERO for i in range(3))
        for k in (-1, 0, 1):
            basis.append(loop_monomial(sl2r_c, tw, k, e))
    _, verdict = killing_gram(basis)
    assert verdict == Definiteness.INDEFINITE


def test_gram_abelian_degenerate():
    ab = make_abelian(1).complexify()
    tw = untwisted(ab)
    basis = [loop_monomial(ab, tw, k, (Scalar(1),)) for k in (-1, 0, 1)]
    _, verdict = killing_gram(basis)
    assert verdict == Definiteness.DEGENERATE


def test_gram_rejects_non_real_pairing():
    f = loop_monomial(SU2C, TW1, 0, X)
    g = loop_monomial(SU2C, TW1, 0, tuple(Scalar(0, 1) * c for c in X))
    with pytest.raises(NonRealPairingError):
        killing_gram([f, g])
