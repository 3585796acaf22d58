"""Odd exponents on untwisted loops. An untwisted loop may carry any
coefficient at any exponent, but rand.random_loop_element draws odd
exponents only from the twist piece of odd parity, which is empty when the
twist is the identity; so no random triple of jacobi-check ever holds an
odd exponent on su2c/1, sl2c/1 or su2su2c/1. Here elements with odd (and
even) exponents are built directly with from_vecs: the Jacobi residual of
any three is exactly zero and equals the sum of three nested hat_brackets
(oracles.jacobi_residual_reference), and the cocycle is antisymmetric,
satisfies the cocycle identity and is the loop Killing pairing of f with
g' (its integral form)."""
from hypothesis import given, settings, strategies as st

from kmalg import serialize
from kmalg.kmext import ExtendedElement, cocycle, jacobi_residual
from kmalg.loop import TwistedLoopElement, loop_bracket, loop_killing
from kmalg.scalars import Scalar, ZERO, vec_from_scalars
from oracles import jacobi_residual_reference, loop_derivative

UNTWISTED = ["su2c", "sl2c", "su2su2c"]
ODD = (-5, -3, -1, 1, 3, 5)

parts = st.fractions(min_value=-3, max_value=3, max_denominator=5)
scalars = st.builds(Scalar, parts, parts)


@st.composite
def odd_loops(draw, algebra, twist):
    """A loop with one to three nonzero terms, at least one at an odd
    exponent."""
    exponents = {draw(st.sampled_from(ODD))} | set(draw(st.lists(st.integers(-5, 5), max_size=2)))
    coords = st.lists(scalars, min_size=algebra.dim, max_size=algebra.dim).filter(any)
    terms = {k: vec_from_scalars(draw(coords)) for k in exponents}
    return TwistedLoopElement.from_vecs(algebra, twist, terms)


@st.composite
def odd_triples(draw):
    algebra, twist = serialize.lookup_algebra(draw(st.sampled_from(UNTWISTED)), 1)
    loops = [draw(odd_loops(algebra, twist)) for _ in range(3)]
    return [ExtendedElement(f, draw(scalars), draw(scalars)) for f in loops]


@settings(max_examples=60, deadline=None)
@given(odd_triples())
def test_jacobi_residual_is_zero_on_odd_exponents(triple):
    assert any(k % 2 for x in triple for k in x.loop.terms)
    residual = jacobi_residual(*triple)
    assert residual.is_zero()
    assert residual == jacobi_residual_reference(*triple)


@settings(max_examples=60, deadline=None)
@given(odd_triples())
def test_cocycle_identities_hold_on_odd_exponents(triple):
    f, g, h = (x.loop for x in triple)
    assert cocycle(f, g) == -cocycle(g, f)
    assert cocycle(f, f) == ZERO
    cyclic = cocycle(loop_bracket(f, g), h) + cocycle(loop_bracket(g, h), f) + cocycle(loop_bracket(h, f), g)
    assert cyclic == ZERO
    assert cocycle(f, g) == loop_killing(f, loop_derivative(g))
