"""Involutions and real forms: invariant pairs, CoeffMap composition and
application, the involution formulas and their epsilon, membership in a
real form, the Cartan split's dims and refusals, dualization, and the
conjugation and ad formulas on a form."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import involution, serialize
from kmalg.findim import (
    FiniteAutomorphism,
    NotAutomorphismError,
    automorphism_from_order,
    check_bracket,
    entrywise_conjugation_automorphism,
    make_sl,
    make_su,
    sparse_rows,
)
from kmalg.involution import (
    CoeffMap,
    InvolutionDescriptor,
    InvolutionError,
    PreservationError,
    RealFormDescriptor,
    Truncation,
    dualize,
    fixed_and_eigenspaces,
    involution_from_invariants,
    verify_cartan_relations,
)
from kmalg.kmext import ExtendedElement, central_element, derivation_element, hat_bracket
from kmalg.loop import Definiteness, killing_gram, loop_monomial, untwisted
from kmalg.osaka import build_catalog_a1, catalog_record, complex_conjugation_counterexample
from kmalg.rand import TrialRng, random_extended_element
from kmalg.scalars import I, ONE, Scalar, ZERO
from oracles import (
    automorphism_apply,
    bracket_reference,
    mat,
    materialize,
    matrix,
    nonzero_loops,
    truncation_elements,
)

SU2 = make_su(2)
SU2C = SU2.complexify()
ID_R = untwisted(SU2)
MU_R = entrywise_conjugation_automorphism(SU2)

X = (Scalar(1), ZERO, ZERO)


def _compact_form(twist):
    return RealFormDescriptor(
        name="compact", algebra=SU2C, twist=twist,
        conj=CoeffMap(CoeffMap.identity(3).sparse, index_sign=-1, conjugate=True),
        cd_scale=ONE,
    )


# -- coefficient maps ----------------------------------------------------------

def test_coeff_map_composition_and_identity():
    theta = CoeffMap(CoeffMap.identity(3).sparse, index_sign=-1, conjugate=True)
    assert theta.compose(theta).is_identity()
    refl = CoeffMap(CoeffMap.identity(3).sparse, index_sign=-1)
    assert refl.compose(refl).is_identity()
    # composition on elements equals element-wise composition
    rng = TrialRng("coeffmap")
    tw = untwisted(SU2C)
    for _ in range(20):
        from kmalg.rand import random_loop_element

        f = random_loop_element(SU2C, tw, rng)
        lhs = theta.compose(refl).apply_loop(f)
        rhs = theta.apply_loop(refl.apply_loop(f))
        assert lhs == rhs


def test_parity_map_squares_to_identity_on_elements():
    # a_k -> (-1)^k conj(a_k) is an involution
    par = CoeffMap(CoeffMap.identity(3).sparse, index_sign=1, conjugate=True, parity=2)
    tw = untwisted(SU2C)
    rng = TrialRng("parity")
    from kmalg.rand import random_loop_element

    for _ in range(10):
        f = random_loop_element(SU2C, tw, rng)
        assert par.apply_loop(par.apply_loop(f)) == f


def test_compose_matches_elementwise_application():
    """Formal composition of coefficient maps agrees with applying them in
    sequence, across conjugation, reflection and parity combinations."""
    from kmalg.rand import random_loop_element

    mu_mat = sparse_rows([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    samples = [
        CoeffMap(CoeffMap.identity(3).sparse, index_sign=-1, conjugate=True),
        CoeffMap(mu_mat, index_sign=-1),
        CoeffMap(mu_mat, index_sign=1, conjugate=True, parity=1),
        CoeffMap(CoeffMap.identity(3).sparse, index_sign=1, parity=2),
        CoeffMap(mu_mat, index_sign=-1, conjugate=True, parity=3),
    ]
    tw = untwisted(SU2C)
    rng = TrialRng("compose-elementwise")
    for a in samples:
        for b in samples:
            comp = a.compose(b)
            for _ in range(5):
                f = random_loop_element(SU2C, tw, rng, max_degree=5)
                assert comp.apply_loop(f) == a.apply_loop(b.apply_loop(f))


# -- invariant pairs -------------------------------------------------------------

def test_invariant_pairs():
    d1, gc1, tw1 = involution_from_invariants(ID_R, ID_R)
    assert tw1.order == 1 and gc1 is SU2C
    d2, _, tw2 = involution_from_invariants(ID_R, MU_R)
    assert tw2.order == 2  # sigma = mu, half-integer frequencies
    assert tw2.matrix == mat([[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    d3, _, tw3 = involution_from_invariants(MU_R, MU_R)
    assert tw3.order == 1
    for d in (d1, d2, d3):  # time reflection: a linear map with index sign -1
        assert d.epsilon == -1 and d.loop_map.index_sign == -1 and not d.loop_map.conjugate


def test_invariant_pair_decides_the_order_of_sigma_once(monkeypatch):
    """sigma's order is read off its powers, and its bracket is not
    checked: check_bracket runs on the two invariants alone, and once on an
    invariant given twice."""
    checked = []
    monkeypatch.setattr(involution, "check_bracket", lambda g, phi: checked.append(phi))
    _, _, tw = involution_from_invariants(ID_R, MU_R)
    assert checked == [ID_R, MU_R] and tw.order == 2
    checked.clear()
    _, _, tw = involution_from_invariants(MU_R, MU_R)
    assert checked == [MU_R] and tw.order == 1


def test_catalog_twists_keep_the_reference_bracket():
    """involution_from_invariants does not check that sigma = rho_minus .
    rho_plus keeps the bracket, a product of two checked linear
    automorphisms: every catalog twist keeps the Scalar reference bracket
    of its algebra on every basis pair."""
    twists = {id(rec.real_form.twist): rec.real_form for rec in build_catalog_a1()}
    assert len(twists) == 4
    for rf in twists.values():
        g, sigma = rf.algebra, rf.twist
        units = [tuple(ONE if i == j else ZERO for i in range(g.dim)) for j in range(g.dim)]
        for x in units:
            for y in units:
                assert automorphism_apply(sigma, bracket_reference(g, x, y)) == bracket_reference(
                    g, automorphism_apply(sigma, x), automorphism_apply(sigma, y))


@pytest.mark.parametrize("which", ["rho_plus", "rho_minus", "both"])
def test_a_non_automorphism_invariant_raises_its_broken_pair(which):
    """An involutive map that breaks the bracket, given as either invariant
    or as both, raises NotAutomorphismError on the pair check_bracket
    names."""
    bogus = FiniteAutomorphism(SU2, sparse_rows([[1, 0, 0], [0, 1, 0], [0, 0, -1]]))
    assert bogus.order == 2
    with pytest.raises(NotAutomorphismError) as direct:
        check_bracket(SU2, bogus)
    pair = {"rho_plus": (bogus, ID_R), "rho_minus": (ID_R, bogus), "both": (bogus, bogus)}[which]
    with pytest.raises(NotAutomorphismError) as err:
        involution_from_invariants(*pair)
    assert err.value.pair == direct.value.pair == (0, 1)


def test_invariant_pair_rejects_non_involution():
    rot = automorphism_from_order(SU2, [[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    assert rot.order == 4
    with pytest.raises(InvolutionError):
        involution_from_invariants(rot, rot)


@pytest.mark.parametrize("pair,message", [
    ((ID_R, untwisted(make_sl(2))), "the two invariants act on different algebras"),
    ((FiniteAutomorphism(SU2, ID_R.sparse, conjugate=True), ID_R),
     "invariants are automorphisms of the real algebra"),
    ((MU_R, FiniteAutomorphism(SU2, sparse_rows([[-1, 0, 0], [0, 0, 1], [0, 1, 0]]))),
     "sigma = rho_minus . rho_plus has order > 2 (out of scope)"),
], ids=["two-algebras", "conjugate-linear", "sigma-order-4"])
def test_invariant_pair_refusals(pair, message):
    """Invariants on two algebras, a conjugate-linear invariant, and two
    involutive automorphisms whose product sigma has order 4 are refused."""
    with pytest.raises(InvolutionError) as err:
        involution_from_invariants(*pair)
    assert str(err.value) == message


# -- applying involutions ----------------------------------------------------------

def test_apply_involution_formulas():
    phi, gc, tw = involution_from_invariants(ID_R, ID_R)
    const = ExtendedElement(loop_monomial(gc, tw, 0, X))
    assert phi.apply(const) == const
    osc = ExtendedElement(loop_monomial(gc, tw, 1, X))
    img = phi.apply(osc)
    assert img.loop.coeffs == {-1: X}
    c = central_element(gc, tw)
    assert phi.apply(c) == -c
    d = derivation_element(gc, tw)
    assert phi.apply(d) == -d


def test_involution_squares_and_is_homomorphism():
    for pair in ((ID_R, ID_R), (MU_R, ID_R), (MU_R, MU_R)):
        phi, gc, tw = involution_from_invariants(*pair)
        rng = TrialRng(f"inv-hom-{pair[0].matrix}-{pair[1].matrix}")
        for _ in range(15):
            x = random_extended_element(gc, tw, rng, max_degree=3)
            y = random_extended_element(gc, tw, rng, max_degree=3)
            assert phi.apply(phi.apply(x)) == x
            assert phi.apply(hat_bracket(x, y)) == hat_bracket(phi.apply(x), phi.apply(y))


def test_epsilon_forced_on_c():
    """A time reflection with epsilon = +1 would not be a homomorphism: the
    cocycle changes sign under reflection, so the c image must carry -1.
    The sign flip is witnessed on random pairs; an involution file that
    asks for the inconsistent combination is refused by
    `serialize.involution_from_json` (test_cli)."""
    from kmalg.kmext import cocycle
    from kmalg.rand import random_loop_element

    refl = CoeffMap(CoeffMap.identity(3).sparse, index_sign=-1)
    tw = untwisted(SU2C)
    rng = TrialRng("epsilon-regression")
    for _ in range(20):
        f = random_loop_element(SU2C, tw, rng)
        g = random_loop_element(SU2C, tw, rng)
        assert cocycle(refl.apply_loop(f), refl.apply_loop(g)) == -cocycle(f, g)


# -- kinds --------------------------------------------------------------------------

def test_check_kind():
    phi, _, _ = involution_from_invariants(ID_R, ID_R)
    assert phi.epsilon == -1
    first = InvolutionDescriptor(
        name="rotation", loop_map=CoeffMap(CoeffMap.identity(3).sparse), epsilon=1,
    )
    assert first.epsilon == 1
    compact_conj = InvolutionDescriptor(
        name="conjugation along the compact form",
        loop_map=CoeffMap(CoeffMap.identity(3).sparse, index_sign=-1, conjugate=True),
        epsilon=1,
    )
    assert compact_conj.epsilon == 1


# -- membership ---------------------------------------------------------------------

def test_membership_untwisted_forms():
    aspl_idid = catalog_record("III[Id,Id]").real_form
    aspl_mumu = catalog_record("III[mu,mu]").real_form
    tw = aspl_idid.twist
    u_su2 = ExtendedElement(loop_monomial(SU2C, tw, 1, (ZERO, Scalar(1), ZERO)))
    assert aspl_idid.contains(u_su2)
    # the same coordinates over sl2c, whose untwisted twist is the same map
    sl2c, tw_sl = serialize.lookup_algebra("sl2c", 1)
    assert tw_sl == tw
    assert not aspl_idid.contains(ExtendedElement(loop_monomial(sl2c, tw_sl, 1, (ZERO, Scalar(1), ZERO))))
    # H = -i X1 is in sl(2,R) but not su(2)
    h = ExtendedElement(loop_monomial(SU2C, tw, 1, (Scalar(0, -1), ZERO, ZERO)))
    assert aspl_mumu.contains(h)
    assert not aspl_idid.contains(h)


def test_membership_twisted_form():
    """At odd degree the twisted almost-split form holds exactly the real
    symmetric traceless coefficients (both defining conditions at once)."""
    rf = catalog_record("III[Id,mu]").real_form
    tw = rf.twist
    h = ExtendedElement(loop_monomial(SU2C, tw, 1, (Scalar(0, -1), ZERO, ZERO)))
    ef = ExtendedElement(loop_monomial(SU2C, tw, 1, (ZERO, ZERO, Scalar(0, -1))))
    assert rf.contains(h)       # H, symmetric
    assert rf.contains(ef)      # E + F, symmetric
    x1 = ExtendedElement(loop_monomial(SU2C, tw, 1, X))  # anti-Hermitian, not real
    assert not rf.contains(x1)
    # block dimension: 2 per odd signed degree
    (key, items) = rf.truncate(1).blocks[1]
    elems = [e for e, _ in items]
    assert key == (1, -1) and len(elems) == 4
    # every member's matrix at degree 1 is real symmetric traceless
    for e in elems:
        if 1 not in e.loop.terms:
            continue
        m = matrix(SU2C, e.loop.coeff(1))
        assert all(x.is_real() for row in m for x in row)
        assert m[0][1] == m[1][0] and m[0][0] == -m[1][1]
    # c, d lines are imaginary
    assert rf.contains(central_element(SU2C, tw).scale(I))
    assert not rf.contains(central_element(SU2C, tw))


def test_cd_reality_of_compact_form():
    rf = _compact_form(untwisted(SU2C))
    assert rf.contains(central_element(SU2C, rf.twist))
    assert not rf.contains(central_element(SU2C, rf.twist).scale(I))


# -- eigenspaces -------------------------------------------------------------------

def test_fixed_and_eigenspaces_dims():
    phi, gc, tw = involution_from_invariants(ID_R, ID_R)
    rf = _compact_form(tw)
    dec = fixed_and_eigenspaces(phi, rf.truncate(1))
    # oracle: K demands u_n = u_{-n} (6 parameters: u_0 and u_1), P demands
    # u_n = -u_{-n} (3 parameters) plus the two negated c, d directions
    assert dec.dims() == {(0,): (3, 0), (1, -1): (3, 3), ("cd",): (0, 2)}
    assert len(dec.k_basis) == 6
    assert len(dec.p_basis) == 5
    for e in dec.k_basis:
        for k, vec in e.loop.coeffs.items():
            assert e.loop.coeffs.get(-k) == vec  # cosine pattern
    for e in dec.p_basis:
        if e.loop.is_zero():
            assert e.c or e.d  # c, d sit in P
        for k, vec in e.loop.coeffs.items():
            assert e.loop.coeffs.get(-k) == tuple(-c for c in vec)


def test_dimension_count_matches_form():
    for name in ("I[Id,Id]", "I[Id,mu]", "I[mu,mu]", "II"):
        rec = catalog_record(name)
        dec = materialize(fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(2)))
        total = len(truncation_elements(rec.real_form.truncate(2)))
        assert len(dec.k_basis) + len(dec.p_basis) == total


def test_preservation_error():
    # multiplying coefficients by i leaves the sl(2,R)-coefficient form
    bad = InvolutionDescriptor(
        name="i-scaling",
        loop_map=CoeffMap(sparse_rows([[I if i == j else ZERO for j in range(3)] for i in range(3)]),
                          index_sign=-1),
        epsilon=-1,
    )
    rf = catalog_record("III[mu,mu]").real_form
    with pytest.raises(PreservationError):
        fixed_and_eigenspaces(bad, rf.truncate(1))


def test_an_image_outside_the_span_of_its_block_is_not_preserved():
    """A block is tested as the real span of its elements, at every exponent
    an element or an image has. With conj a -> conj(a) at each exponent,
    block (1, -1) has a real basis at t^1 and one at t^-1; a hand-built
    truncation keeping only the t^1 half gives f(t) -> f(-t) images at t^-1,
    which are in the form but not in that span."""
    rf = RealFormDescriptor(name="real coefficients", algebra=SU2C, twist=untwisted(SU2C),
                            conj=CoeffMap(CoeffMap.identity(3).sparse, conjugate=True))
    phi = InvolutionDescriptor(name="time reflection", loop_map=CoeffMap(CoeffMap.identity(3).sparse, -1),
                               epsilon=-1)
    t = rf.truncate(1)
    assert fixed_and_eigenspaces(phi, t).dims()[(1, -1)] == (3, 3)
    half = [(key, [(e, s) for e, s in items if set(e.loop.terms) == {1}] if key == (1, -1) else items)
            for key, items in t.blocks]
    assert len(dict(half)[(1, -1)]) == 3
    with pytest.raises(PreservationError, match=r"left the \(1, -1\) block"):
        fixed_and_eigenspaces(phi, Truncation(rf, 1, tuple(half)))


def test_non_involutive_map_rejected_on_eigensplit():
    # an order-4 rotation preserves the compact form but is not an involution
    rot = InvolutionDescriptor(
        name="quarter turn",
        loop_map=CoeffMap(sparse_rows([[1, 0, 0], [0, 0, -1], [0, 1, 0]]), index_sign=-1),
        epsilon=-1,
    )
    rf = _compact_form(untwisted(SU2C))
    with pytest.raises(InvolutionError):
        fixed_and_eigenspaces(rot, rf.truncate(1))


def test_cartan_relations_for_catalog():
    for name in ("III[Id,Id]", "III[mu,mu]", "IV"):
        rec = catalog_record(name)
        assert verify_cartan_relations(rec.real_form, rec.involution)


# -- duality ------------------------------------------------------------------------

def test_dualize_compact_to_almost_split():
    phi, gc, tw = involution_from_invariants(ID_R, ID_R)
    rf = _compact_form(tw)
    dual = dualize(rf, phi)
    aspl = catalog_record("III[Id,Id]").real_form
    assert dual.real_form.conj == aspl.conj
    assert dual.real_form.cd_scale == I
    assert dual.involution.loop_map == catalog_record("III[Id,Id]").involution.loop_map


def test_dualize_refuses_the_full_complex_algebra():
    rec = complex_conjugation_counterexample()
    assert rec.real_form.conj is None
    with pytest.raises(InvolutionError, match="cannot dualize the full complex algebra"):
        dualize(rec.real_form, rec.involution)


def test_dualize_is_involutive():
    phi, gc, tw = involution_from_invariants(MU_R, MU_R)
    rf = _compact_form(tw)
    dual = dualize(rf, phi)
    ddual = dualize(dual.real_form, dual.involution)
    assert ddual.real_form.conj == rf.conj
    assert ddual.real_form.cd_scale == rf.cd_scale
    assert ddual.involution.loop_map == phi.loop_map


def test_duality_flips_compactness():
    rec = catalog_record("I[mu,mu]")
    loops = rec.real_form.truncate(2).loops
    _, v = killing_gram(loops)
    assert v == Definiteness.NEG_DEFINITE
    dual_rf = catalog_record("III[mu,mu]").real_form
    loops_d = dual_rf.truncate(2).loops
    _, vd = killing_gram(loops_d)
    assert vd != Definiteness.NEG_DEFINITE


# -- Killing sign split ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["III[Id,Id]", "III[Id,mu]", "III[mu,mu]"])
def test_kp_killing_signs(name):
    rec = catalog_record(name)
    dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(2))
    _, kv = killing_gram(nonzero_loops(dec.k_basis))
    _, pv = killing_gram(nonzero_loops(dec.p_basis))
    assert kv == Definiteness.NEG_DEFINITE
    assert pv == Definiteness.POS_DEFINITE


def test_no_mixed_type():
    """Every catalog form is either compact (negative definite) or admits the
    verified Cartan split; never definite on neither side."""
    for rec in build_catalog_a1():
        loops = rec.real_form.truncate(2).loops
        _, v = killing_gram(loops)
        if v == Definiteness.NEG_DEFINITE:
            continue
        dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(2))
        _, kv = killing_gram(nonzero_loops(dec.k_basis))
        _, pv = killing_gram(nonzero_loops(dec.p_basis))
        assert kv == Definiteness.NEG_DEFINITE
        assert pv == Definiteness.POS_DEFINITE


# -- paper-style alternative formulas ---------------------------------------------------

def test_conjugation_formula_agrees_on_form():
    """f -> conj(f(-t)) acts on the untwisted compact form exactly like the
    linear representative built from the invariant pair (mu, mu)."""
    phi, gc, tw = involution_from_invariants(MU_R, MU_R)
    mu_c = entrywise_conjugation_automorphism(SU2C)
    ambient = CoeffMap(mu_c.sparse, index_sign=1, conjugate=True)
    rf = _compact_form(tw)
    for key, items in rf.truncate(2).blocks:
        for e, _ in items:
            if e.loop.is_zero():
                continue
            assert ambient.apply_loop(e.loop) == phi.loop_map.apply_loop(e.loop)


def test_ad_formula_is_conjugate_representative():
    """The twisted record's involution u_k -> -u_{-k}^T is carried to the
    Ad(diag(1,-1)) . conj formula by the constant inner rotation swapping the
    second and third compact directions."""
    rec = catalog_record("I[Id,mu]")
    stored = rec.involution.loop_map
    m_ad_mu = sparse_rows([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])  # Ad(diag(1,-1)) . mu
    ad_formula = CoeffMap(m_ad_mu, index_sign=-1)
    rot = CoeffMap(sparse_rows([[1, 0, 0], [0, 0, -1], [0, 1, 0]]))
    lhs = rot.compose(stored).compose(_inverse_rotation())
    assert lhs == ad_formula


def _inverse_rotation():
    return CoeffMap(sparse_rows([[1, 0, 0], [0, 0, 1], [0, -1, 0]]))


# -- membership of c and d without division -----------------------------------

_rationals = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)
_cd_coeffs = st.one_of(_rationals, st.builds(Scalar, _rationals, _rationals))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([ONE, I, None]),
    st.sampled_from([(ID_R, ID_R), (ID_R, MU_R)]),
    st.integers(0, 10_000),
    st.booleans(),
    _cd_coeffs,
    _cd_coeffs,
)
def test_contains_matches_division_rule(cd_scale, invariants, seed, symmetrize, c, d):
    twist = involution_from_invariants(*invariants)[2]
    theta = CoeffMap(CoeffMap.identity(3).sparse, index_sign=-1, conjugate=True)
    rf = RealFormDescriptor(name="compact", algebra=SU2C, twist=twist, conj=theta,
                            cd_scale=cd_scale)
    loop = random_extended_element(SU2C, twist, TrialRng("contains", seed), max_degree=3).loop
    if symmetrize:
        loop = loop + theta.apply_loop(loop)
    x = ExtendedElement(loop, c, d)
    expected = theta.apply_loop(loop) == loop and (
        cd_scale is None or all(not (coeff / cd_scale).im for coeff in (x.c, x.d))
    )
    assert rf.contains(x) == expected
