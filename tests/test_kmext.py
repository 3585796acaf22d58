"""The extended loop algebra: the cocycle (against the Scalar reference)
and the residue form, the extended bracket's c and d parts and the Jacobi
identity, the derived algebra and ideals, and the splitting homomorphism
and its kernel."""
import pytest

from kmalg import kmext, linalg
from kmalg.findim import automorphism_from_order, direct_sum, make_abelian, make_su
from kmalg.kmext import (
    ExtendedElement,
    GradedSubspace,
    SplittingHom,
    central_element,
    cocycle,
    derivation_element,
    hat_bracket,
    in_derived_algebra,
    is_ideal,
    jacobi_residual,
    residue_cocycle,
)
from kmalg.loop import TwistedLoopElement, loop_monomial, untwisted, zero_loop
from kmalg.rand import TrialRng, random_extended_element, random_loop_element
from kmalg.scalars import I, Scalar, ZERO

from oracles import cocycle_reference, scalar_killing

SU2C = make_su(2).complexify()
TW1 = untwisted(SU2C)
TW2 = automorphism_from_order(SU2C, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])

X = (Scalar(1), ZERO, ZERO)
Y = (ZERO, Scalar(1), ZERO)


# -- cocycle ---------------------------------------------------------------

def test_cocycle_monomials_match_oracle():
    for n in (1, 2, 5):
        f = loop_monomial(SU2C, TW1, n, X)
        g = loop_monomial(SU2C, TW1, -n, Y)
        v = cocycle(f, g)
        assert v == cocycle_reference(SU2C, 1, f.coeffs, g.coeffs)
        # omega(X e^{int}, Y e^{-int}) = -i n B(X, Y)
        assert v == Scalar(0, -n) * scalar_killing(SU2C, X, Y)


def test_cocycle_constants_vanish():
    f = loop_monomial(SU2C, TW1, 0, X)
    g = loop_monomial(SU2C, TW1, 0, Y)
    assert cocycle(f, g) == ZERO


def test_cocycle_antisymmetry_and_identity():
    rng = TrialRng("cocycle-laws")
    for tw in (TW1, TW2):
        for _ in range(30):
            f = random_loop_element(SU2C, tw, rng)
            g = random_loop_element(SU2C, tw, rng)
            h = random_loop_element(SU2C, tw, rng)
            assert cocycle(f, f) == ZERO
            assert cocycle(f, g) == -cocycle(g, f)
            assert cocycle(f, g) == cocycle_reference(SU2C, tw.order, f.coeffs, g.coeffs)
            from kmalg.loop import loop_bracket

            two_cocycle = (
                cocycle(loop_bracket(f, g), h)
                + cocycle(loop_bracket(g, h), f)
                + cocycle(loop_bracket(h, f), g)
            )
            assert two_cocycle == ZERO


def test_residue_form():
    f = loop_monomial(SU2C, TW1, 1, X)
    g = loop_monomial(SU2C, TW1, -1, Y)
    res = residue_cocycle(f, g)
    assert res == -scalar_killing(SU2C, X, Y)
    consts = residue_cocycle(
        loop_monomial(SU2C, TW1, 0, X), loop_monomial(SU2C, TW1, 0, Y)
    )
    assert consts == ZERO
    rng = TrialRng("residue")
    for _ in range(40):
        a = random_loop_element(SU2C, TW1, rng)
        b = random_loop_element(SU2C, TW1, rng)
        r = residue_cocycle(a, b)
        assert I * r == cocycle(a, b)
    twisted = loop_monomial(SU2C, TW2, 1, X)
    with pytest.raises(Exception):
        residue_cocycle(twisted, twisted)


# -- hat bracket ----------------------------------------------------------------

def test_d_acts_as_derivative():
    d = derivation_element(SU2C, TW1)
    f = ExtendedElement(loop_monomial(SU2C, TW1, 1, X))
    br = hat_bracket(d, f)
    assert br.loop.coeffs == {1: tuple(I * c for c in X)}
    assert not br.c and not br.d


def test_c_is_central():
    c = central_element(SU2C, TW1)
    rng = TrialRng("central")
    for _ in range(10):
        x = random_extended_element(SU2C, TW1, rng)
        assert hat_bracket(c, x).is_zero()
        assert hat_bracket(x, c).is_zero()
    d = derivation_element(SU2C, TW1)
    assert hat_bracket(c, d).is_zero()
    assert hat_bracket(d, d).is_zero()


def test_bracket_c_part_is_cocycle():
    f = ExtendedElement(loop_monomial(SU2C, TW1, 1, X))
    g = ExtendedElement(loop_monomial(SU2C, TW1, -1, X))
    br = hat_bracket(f, g)
    assert br.loop.is_zero()  # [X, X] = 0
    assert br.c == Scalar(0, 8)  # -i * 1 * (-8)
    assert br.c == cocycle(f.loop, g.loop)
    assert br.d == ZERO


def test_bracket_antisymmetry():
    rng = TrialRng("hat-antisym")
    for tw in (TW1, TW2):
        for _ in range(20):
            x = random_extended_element(SU2C, tw, rng)
            y = random_extended_element(SU2C, tw, rng)
            assert hat_bracket(x, y) == -hat_bracket(y, x)


# -- jacobi -----------------------------------------------------------------------

def test_jacobi_special_triples():
    c = central_element(SU2C, TW1)
    d = derivation_element(SU2C, TW1)
    rng = TrialRng("jacobi-special")
    for _ in range(10):
        f = ExtendedElement(random_loop_element(SU2C, TW1, rng))
        g = ExtendedElement(random_loop_element(SU2C, TW1, rng))
        assert jacobi_residual(c, f, g).is_zero()
        # (d, f, g) reduces to omega(f', g) + omega(f, g') = 0
        assert jacobi_residual(d, f, g).is_zero()


def test_jacobi_random():
    for name, tw in (("m1", TW1), ("m2", TW2)):
        for t in range(50):
            rng = TrialRng(f"jacobi-{name}", t)
            x = random_extended_element(SU2C, tw, rng, max_degree=4)
            y = random_extended_element(SU2C, tw, rng, max_degree=4)
            z = random_extended_element(SU2C, tw, rng, max_degree=4)
            assert jacobi_residual(x, y, z).is_zero()


def test_jacobi_on_doubled_algebra():
    double = direct_sum(make_su(2), make_su(2)).complexify()
    tw = untwisted(double)
    for t in range(50):
        rng = TrialRng("jacobi-doubled", t)
        x = random_extended_element(double, tw, rng, max_degree=3)
        y = random_extended_element(double, tw, rng, max_degree=3)
        z = random_extended_element(double, tw, rng, max_degree=3)
        assert jacobi_residual(x, y, z).is_zero()


def test_doubled_killing_is_block_diagonal():
    double = direct_sum(make_su(2), make_su(2)).complexify()
    units = [tuple(Scalar(1) if i == n else ZERO for i in range(6)) for n in range(6)]
    for i in range(3):
        for j in range(3, 6):
            assert scalar_killing(double, units[i], units[j]) == ZERO
    assert scalar_killing(double, units[0], units[0]) == Scalar(-8)


# -- derived algebra ----------------------------------------------------------------

def test_in_derived_algebra():
    f = ExtendedElement(loop_monomial(SU2C, TW1, 1, X), c=Scalar(1))
    assert in_derived_algebra(f)
    assert not in_derived_algebra(derivation_element(SU2C, TW1))
    rng = TrialRng("derived")
    for _ in range(10):
        x = random_extended_element(SU2C, TW1, rng)
        y = random_extended_element(SU2C, TW1, rng)
        assert in_derived_algebra(hat_bracket(x, y))


# -- ideals -------------------------------------------------------------------------

DOUBLE = direct_sum(make_su(2), make_su(2)).complexify()
DTW = untwisted(DOUBLE)


def _double_monomial(k, block, j):
    vec = [ZERO] * 6
    vec[3 * block + j] = Scalar(1)
    return ExtendedElement(loop_monomial(DOUBLE, DTW, k, tuple(vec)))


def _ambient_sample():
    out = [central_element(DOUBLE, DTW), derivation_element(DOUBLE, DTW)]
    for k in (-2, -1, 0, 1, 2):
        for block in (0, 1):
            for j in range(3):
                out.append(_double_monomial(k, block, j))
    return out


def test_block_with_center_is_ideal():
    gens = [_double_monomial(k, 0, j) for k in (-1, 0, 1) for j in range(3)]
    gens.append(central_element(DOUBLE, DTW))
    desc = GradedSubspace(DOUBLE, [0], include_c=True)
    assert is_ideal(gens, _ambient_sample(), desc)


def test_is_ideal_brackets_each_pair_once(monkeypatch):
    """On an ideal, is_ideal brackets each generator with each ambient
    element once: [amb, gen] = -[gen, amb] has the same nonzero parts, so
    contains gives it the same verdict, which is checked here on every
    pair and subspace of the sample."""
    gens = [_double_monomial(k, 0, j) for k in (-1, 0, 1) for j in range(3)]
    gens.append(central_element(DOUBLE, DTW))
    sample = _ambient_sample()
    descriptions = [GradedSubspace(DOUBLE, blocks, include_c=c, include_d=d)
                    for blocks in ([], [0], [1], [0, 1]) for c in (False, True) for d in (False, True)]
    for gen in gens:
        for amb in sample:
            ga, ag = hat_bracket(gen, amb), hat_bracket(amb, gen)
            assert ag == -ga
            assert all(desc.contains(ga) == desc.contains(ag) for desc in descriptions)
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return hat_bracket(x, y)

    monkeypatch.setattr(kmext, "hat_bracket", counting)
    assert is_ideal(gens, sample, GradedSubspace(DOUBLE, [0], include_c=True))
    assert len(calls) == len(gens) * len(sample)


def test_subspace_without_d_refuses_a_d_component():
    d = derivation_element(DOUBLE, DTW)
    assert not GradedSubspace(DOUBLE, [0, 1], include_c=True).contains(d)
    assert GradedSubspace(DOUBLE, [], include_d=True).contains(d)


def test_block_without_center_not_ideal():
    gens = [_double_monomial(k, 0, j) for k in (-1, 0, 1) for j in range(3)]
    desc = GradedSubspace(DOUBLE, [0], include_c=False)
    assert not is_ideal(gens, _ambient_sample(), desc)


def test_bracket_onto_c_not_ideal_without_c():
    """[X z, X z^-1] is a pure multiple of c: the loops of su2c are not an
    ideal of the extension unless the subspace holds c."""
    gens = [ExtendedElement(loop_monomial(SU2C, TW1, 1, X))]
    sample = [ExtendedElement(loop_monomial(SU2C, TW1, -1, X))]
    bracket = hat_bracket(gens[0], sample[0])
    assert bracket.c and not bracket.loop.terms
    assert not is_ideal(gens, sample, GradedSubspace(SU2C, [0], include_c=False))
    assert is_ideal(gens, sample, GradedSubspace(SU2C, [0], include_c=True))


def test_d_line_not_ideal():
    gens = [derivation_element(DOUBLE, DTW)]
    desc = GradedSubspace(DOUBLE, [], include_d=True)
    assert not is_ideal(gens, _ambient_sample(), desc)


def test_abelian_block_loops_are_ideal():
    g = direct_sum(make_abelian(1), make_su(2)).complexify()
    tw = untwisted(g)
    sample = [central_element(g, tw), derivation_element(g, tw)]
    for k in (-1, 0, 1):
        for j in range(4):
            vec = [ZERO] * 4
            vec[j] = Scalar(1)
            sample.append(ExtendedElement(loop_monomial(g, tw, k, tuple(vec))))
    gens = [e for e in sample if e.loop.terms and all(not v
            for vec in e.loop.coeffs.values() for v in vec[1:])]
    desc = GradedSubspace(g, [0], include_c=False)
    assert is_ideal(gens, sample, desc)


# -- splitting homomorphism ---------------------------------------------------------

def _factor_elements(rng, algebras_twists):
    parts = []
    for alg, tw in algebras_twists:
        parts.append(
            ExtendedElement(random_loop_element(alg, tw, rng, max_degree=3), c=rng.scalar())
        )
    return parts


@pytest.mark.parametrize("n,kernel", [(1, 0), (2, 1), (3, 2)])
def test_splitting_hom_kernel_and_homomorphism(n, kernel):
    su2 = make_su(2)
    target = direct_sum(*([su2] * n)).complexify() if n > 1 else SU2C
    ttw = untwisted(target)
    factors = [(SU2C, TW1)] * n
    hom = SplittingHom(factors, target, ttw)
    assert hom.kernel_dimension() == kernel
    pairs = []
    for t in range(25):
        rng = TrialRng(f"split-{n}", t)
        pairs.append((_factor_elements(rng, factors), _factor_elements(rng, factors)))
    assert hom.is_homomorphism_on(pairs)


def test_splitting_hom_surjective_on_truncation():
    su2 = make_su(2)
    target = direct_sum(su2, su2).complexify()
    ttw = untwisted(target)
    hom = SplittingHom([(SU2C, TW1), (SU2C, TW1)], target, ttw)
    # hit every target basis monomial and the center
    for k in (-2, 0, 2):
        for block in (0, 1):
            for j in range(3):
                want = [ZERO] * 6
                want[3 * block + j] = Scalar(1)
                parts = [
                    ExtendedElement(zero_loop(SU2C, TW1)),
                    ExtendedElement(zero_loop(SU2C, TW1)),
                ]
                parts[block] = ExtendedElement(
                    loop_monomial(SU2C, TW1, k, tuple(Scalar(1) if i == j else ZERO for i in range(3)))
                )
                img = hom.apply(parts)
                assert img.loop.coeffs == {k: tuple(want)}
    c_img = hom.apply([
        ExtendedElement(zero_loop(SU2C, TW1), c=Scalar(1)),
        ExtendedElement(zero_loop(SU2C, TW1)),
    ])
    assert c_img.c == Scalar(1) and c_img.loop.is_zero()


def test_splitting_kernel_with_twisted_factors():
    su2 = make_su(2)
    target = direct_sum(su2, su2).complexify()
    diag = (-1, 1, -1, -1, 1, -1)  # TW2 on each factor
    ttw = automorphism_from_order(target, [[diag[i] if i == j else 0 for j in range(6)]
                                           for i in range(6)])
    hom = SplittingHom([(SU2C, TW2), (SU2C, TW2)], target, ttw)
    assert hom.kernel_dimension() == 1


def test_splitting_kernel_sees_a_broken_apply(monkeypatch):
    """kernel_dimension is computed from apply, so an apply that drops one
    factor's c (one factor: kernel 0 -> 1) or one factor's degree-1 loop
    part (two factors: kernel 1 -> 1 + 3) is caught."""
    one = SplittingHom([(SU2C, TW1)], SU2C, TW1)
    target = direct_sum(make_su(2), make_su(2)).complexify()
    two = SplittingHom([(SU2C, TW1), (SU2C, TW1)], target, untwisted(target))
    assert (one.kernel_dimension(), two.kernel_dimension()) == (0, 1)
    original = SplittingHom.apply

    def drop_c(self, parts):
        first = ExtendedElement(parts[0].loop, ZERO, parts[0].d)
        return original(self, [first] + list(parts[1:]))

    monkeypatch.setattr(SplittingHom, "apply", drop_c)
    assert one.kernel_dimension() == 1

    def drop_degree_one(self, parts):
        loop = parts[0].loop
        terms = {k: v for k, v in loop.coeffs.items() if k != 1}
        first = ExtendedElement(TwistedLoopElement(loop.algebra, loop.twist, terms), parts[0].c)
        return original(self, [first] + list(parts[1:]))

    monkeypatch.setattr(SplittingHom, "apply", drop_degree_one)
    assert two.kernel_dimension() == 4


# -- center on truncations ------------------------------------------------------------

def test_center_is_spanned_by_c():
    """Solve [x, b] = 0 for x of interior degree against an ambient basis of
    higher degree: only multiples of c survive."""
    ambient = []
    for k in range(-2, 3):
        for j in range(3):
            ambient.append(
                ExtendedElement(loop_monomial(SU2C, TW1, k, tuple(Scalar(1) if i == j else ZERO for i in range(3))))
            )
    ambient.append(central_element(SU2C, TW1))
    ambient.append(derivation_element(SU2C, TW1))

    # unknown x: degrees |k| <= 1 plus c and d coordinates
    x_basis = []
    for k in (-1, 0, 1):
        for j in range(3):
            x_basis.append(
                ExtendedElement(loop_monomial(SU2C, TW1, k, tuple(Scalar(1) if i == j else ZERO for i in range(3))))
            )
    x_basis.append(central_element(SU2C, TW1))
    x_basis.append(derivation_element(SU2C, TW1))

    # the bracket is linear in x over the scalars, so solve directly over them
    rows = []
    for b in ambient:
        images = [hat_bracket(e, b) for e in x_basis]
        degrees = sorted({k for img in images for k in img.loop.terms})
        for k in degrees:
            for i in range(3):
                row = [img.loop.coeff(k)[i] for img in images]
                if any(row):
                    rows.append(row)
        for attr in ("c", "d"):
            row = [getattr(img, attr) for img in images]
            if any(row):
                rows.append(row)
    null = linalg.nullspace(rows)
    assert len(null) == 1
    v = null[0]
    c_index = len(x_basis) - 2
    assert v[c_index]
    assert all(not v[i] for i in range(len(v)) if i != c_index)
