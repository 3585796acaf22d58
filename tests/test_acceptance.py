"""Acceptance suite: one test per criterion, every tolerance exact (zero),
one PASS/FAIL line printed per criterion (visible with pytest -s / -v)."""
import functools
import time
from fractions import Fraction

from kmalg import cartan
from kmalg.cartan import CartanKind
from kmalg.findim import (
    automorphism_from_order,
    direct_sum,
    make_abelian,
    make_sl,
    make_su,
    mat_scale,
)
from kmalg.involution import (
    dualize,
    fixed_and_eigenspaces,
)
from kmalg.kmext import (
    ExtendedElement,
    cocycle,
    hat_bracket,
    jacobi_residual,
    residue_cocycle,
    SplittingHom,
)
from kmalg.loop import (
    Definiteness,
    TwistedLoopElement,
    killing_gram,
    loop_bracket,
    loop_monomial,
    untwisted,
)
from kmalg.osaka import (
    Effectiveness,
    build_catalog_a1,
    catalog_record,
    complex_conjugation_counterexample,
    duality_pairing,
    effectiveness_check,
    involution_counts,
    osaka_verify,
)
from kmalg.rand import TrialRng, random_extended_element, random_loop_element
from kmalg.scalars import I, Scalar, ZERO

from oracles import dense_killing_gram, kp_blocks, leading_minors_oracle, mat_conj, mat_transpose, matrix, nonzero_loops

SU2C = make_su(2).complexify()
SL2C = make_sl(2, "C")
TW_SU = untwisted(SU2C)
TW_SU2 = automorphism_from_order(SU2C, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
TW_SL = untwisted(SL2C)
TW_SL2 = automorphism_from_order(SL2C, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")
        return wrapper
    return deco


# -- 1 ------------------------------------------------------------------------

@criterion(1, "2x2 Cartan tables classify with families and dimensions")
def test_c01_cartan_tables():
    start = time.monotonic()
    finite = {
        "a1xa1": ([[2, 0], [0, 2]], 6),
        "a2": ([[2, -1], [-1, 2]], 8),
        "b2": ([[2, -1], [-2, 2]], 10),
        "g2": ([[2, -1], [-3, 2]], 14),
    }
    for name, (m, dim) in finite.items():
        a = cartan.validate(m)
        assert cartan.classify(a).kind == CartanKind.FINITE
        fam = cartan.identify_2x2(a)
        assert fam.name == name and fam.dimension == dim
    affine = {"a1tilde": [[2, -2], [-2, 2]], "a1tilde_prime": [[2, -1], [-4, 2]]}
    for name, m in affine.items():
        a = cartan.validate(m)
        cls = cartan.classify(a)
        assert cls.kind == CartanKind.AFFINE
        assert cartan.identify_2x2(a).name == name
        av = [sum(m[i][j] * cls.witness[j] for j in range(2)) for i in range(2)]
        assert av == [0, 0] and all(v > 0 for v in cls.witness)
    assert time.monotonic() - start < 1.0


# -- 2 ------------------------------------------------------------------------

def _affine_cycle(n):
    """Untwisted affine matrix on n nodes: the (n-1)-cycle extension."""
    if n == 2:
        return [[2, -2], [-2, 2]]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 2
        m[i][(i + 1) % n] = -1
        m[i][(i - 1) % n] = -1
    return m


@criterion(2, "affine realizations have dim_h = n + 1 for n = 2..6")
def test_c02_realization_dims():
    for n in range(2, 7):
        a = cartan.validate(_affine_cycle(n))
        assert cartan.classify(a).kind == CartanKind.AFFINE
        dims = cartan.realization_dims(a, cartan.classify(a))
        assert dims.l == n - 1
        assert dims.dim_h == n + 1


# -- 3 ------------------------------------------------------------------------

@criterion(3, "1000 random Jacobi triples vanish exactly (both twists, two algebras)")
def test_c03_jacobi_suite():
    start = time.monotonic()
    combos = [
        ("su2-m1", SU2C, TW_SU),
        ("su2-m2", SU2C, TW_SU2),
        ("sl2-m1", SL2C, TW_SL),
        ("sl2-m2", SL2C, TW_SL2),
    ]
    for label, alg, tw in combos:
        for t in range(250):
            rng = TrialRng(f"acceptance-jacobi-{label}", t)
            x = random_extended_element(alg, tw, rng, max_degree=6)
            y = random_extended_element(alg, tw, rng, max_degree=6)
            z = random_extended_element(alg, tw, rng, max_degree=6)
            assert jacobi_residual(x, y, z).is_zero()
    assert time.monotonic() - start < 30.0


# -- 4 ------------------------------------------------------------------------

@criterion(4, "cocycle antisymmetry, 2-cocycle identity, integral = i * residue")
def test_c04_cocycle_identities():
    combos = [(SU2C, TW_SU), (SU2C, TW_SU2), (SL2C, TW_SL), (SL2C, TW_SL2)]
    for t in range(500):
        alg, tw = combos[t % 4]
        rng = TrialRng("acceptance-cocycle", t)
        f = random_loop_element(alg, tw, rng)
        g = random_loop_element(alg, tw, rng)
        h = random_loop_element(alg, tw, rng)
        assert cocycle(f, g) == -cocycle(g, f)
        total = (
            cocycle(loop_bracket(f, g), h)
            + cocycle(loop_bracket(g, h), f)
            + cocycle(loop_bracket(h, f), g)
        )
        assert total == ZERO
    for t in range(500):
        alg, tw = (SU2C, TW_SU) if t % 2 else (SL2C, TW_SL)
        rng = TrialRng("acceptance-residue", t)
        f = random_loop_element(alg, tw, rng)
        g = random_loop_element(alg, tw, rng)
        res = residue_cocycle(f, g)
        assert I * res == cocycle(f, g)


# -- 5 ------------------------------------------------------------------------

def _compact_su2_basis(n_max):
    out = []
    half = Scalar(Fraction(1, 2))
    mihalf = Scalar(0, Fraction(-1, 2))
    for j in range(3):
        e = tuple(Scalar(1) if i == j else ZERO for i in range(3))
        out.append(loop_monomial(SU2C, TW_SU, 0, e))
        for k in range(1, n_max + 1):
            out.append(TwistedLoopElement(SU2C, TW_SU, {
                k: tuple(half * x for x in e), -k: tuple(half * x for x in e)}))
            out.append(TwistedLoopElement(SU2C, TW_SU, {
                k: tuple(mihalf * x for x in e), -k: tuple(-(mihalf * x) for x in e)}))
    return out


@criterion(5, "Killing Gram signatures: compact NegDefinite, abelian Degenerate, split Indefinite")
def test_c05_killing_signatures():
    start = time.monotonic()
    basis = _compact_su2_basis(4)
    assert len(basis) == 27
    gram, verdict = dense_killing_gram(basis)
    assert verdict == Definiteness.NEG_DEFINITE
    # independent route: Bareiss leading principal minors alternate in sign
    minors = leading_minors_oracle(gram)
    assert all(m != 0 for m in minors)
    assert all((m > 0) == (k % 2 == 1) for k, m in enumerate(minors))

    ab = make_abelian(1).complexify()
    twa = untwisted(ab)
    ab_basis = [loop_monomial(ab, twa, k, (Scalar(1),)) for k in range(-2, 3)]
    gram_ab, verdict_ab = dense_killing_gram(ab_basis)
    assert verdict_ab == Definiteness.DEGENERATE
    assert all(not x for row in gram_ab for x in row)

    sl2r_c = make_sl(2, "R").complexify()
    twr = untwisted(sl2r_c)
    split_basis = [
        loop_monomial(sl2r_c, twr, k, tuple(Scalar(1) if i == j else ZERO for i in range(3)))
        for j in range(3) for k in (-1, 0, 1)
    ]
    _, verdict_r = killing_gram(split_basis)
    assert verdict_r == Definiteness.INDEFINITE
    assert time.monotonic() - start < 5.0


# -- 6 ------------------------------------------------------------------------

@criterion(6, "loop Gram is NegDefinite on K and PosDefinite on P for the split forms")
def test_c06_kp_sign_split():
    for name in ("III[Id,Id]", "III[Id,mu]", "III[mu,mu]"):
        rec = catalog_record(name)
        dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(3))
        _, kv = killing_gram(nonzero_loops(dec.k_basis))
        _, pv = killing_gram(nonzero_loops(dec.p_basis))
        assert kv == Definiteness.NEG_DEFINITE, name
        assert pv == Definiteness.POS_DEFINITE, name


# -- 7 ------------------------------------------------------------------------

def _matrix_of(e, k):
    return matrix(SU2C, e.loop.coeff(k))


def _neg_conj_transpose(m):
    return mat_scale(Scalar(-1), mat_conj(mat_transpose(m)))


def _neg_transpose(m):
    return mat_scale(Scalar(-1), mat_transpose(m))


_KP_PREDICATES = {
    # record name -> matrix-level map psi with K: u_k = psi(u_{-k}), P: u_k = -psi(u_{-k})
    "III[Id,Id]": _neg_conj_transpose,
    "III[Id,mu]": _neg_transpose,
    "III[mu,mu]": _neg_transpose,
}


def _entry_constraint_dim(name, k, sign):
    """Independent oracle: dimension of the stated condition's solution space
    at the degree pair {k, -k}, solved on raw matrix entries over Q.

    Unknowns are the real and imaginary parts of the 2x2 matrices u_k and
    u_{-k} (16 rationals; 8 for the zero block). Constraints: tracelessness,
    the record's membership condition, the twist grading where applicable,
    and u_k = sign * psi(u_{-k}) with psi the stated transpose map.
    """
    from kmalg import linalg

    n_mats = 1 if k == 0 else 2
    nvar = 8 * n_mats
    # variable layout: [re(u_k)_00, .., re(u_k)_11, im(u_k)_00, .., im(u_k)_11,
    #                   then the same for u_{-k}]
    def var(mat_idx, i, j, part):
        return 8 * mat_idx + (4 if part == "im" else 0) + 2 * i + j

    rows = []

    def eq(*terms):
        row = [Fraction(0)] * nvar
        for coeff, v in terms:
            row[v] += coeff
        if any(row):
            rows.append(row)

    one = Fraction(1)
    for m in range(n_mats):
        # trace zero (complex): re and im separately
        eq((one, var(m, 0, 0, "re")), (one, var(m, 1, 1, "re")))
        eq((one, var(m, 0, 0, "im")), (one, var(m, 1, 1, "im")))
        deg = k if m == 0 else -k
        for i in range(2):
            for j in range(2):
                if name == "III[Id,Id]":
                    # u in su(2): u_ij + conj(u_ji) = 0
                    eq((one, var(m, i, j, "re")), (one, var(m, j, i, "re")))
                    eq((one, var(m, i, j, "im")), (-one, var(m, j, i, "im")))
                elif name == "III[mu,mu]":
                    # u in sl(2,R): imaginary parts vanish
                    eq((one, var(m, i, j, "im")))
                else:  # III[Id,mu]: u in sl(2,R) and i^deg u in su(2)
                    eq((one, var(m, i, j, "im")))
                    # i^deg u anti-Hermitian: i^deg u_ij + conj(i^deg u_ji) = 0;
                    # for real u this reads u_ij = -(-1)^deg u_ji
                    s = -one if deg % 2 == 0 else one
                    eq((one, var(m, i, j, "re")), (-s, var(m, j, i, "re")))
    # the eigenspace condition u_k = sign * psi(u_{-k})
    other = n_mats - 1
    for i in range(2):
        for j in range(2):
            if name == "III[Id,Id]":  # psi = -conj transpose
                eq((one, var(0, i, j, "re")), (Fraction(sign), var(other, j, i, "re")))
                eq((one, var(0, i, j, "im")), (Fraction(-sign), var(other, j, i, "im")))
            else:  # psi = -transpose
                eq((one, var(0, i, j, "re")), (Fraction(sign), var(other, j, i, "re")))
                eq((one, var(0, i, j, "im")), (Fraction(sign), var(other, j, i, "im")))
    return len(linalg.nullspace(rows))


@criterion(7, "computed K/P constraints equal the stated coefficient conditions, degree by degree")
def test_c07_kp_condition_match():
    for name, psi in _KP_PREDICATES.items():
        rec = catalog_record(name)
        dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(3))
        real_entries = name == "III[mu,mu]"
        for key, k_basis, p_basis in kp_blocks(dec):
            if key == ("cd",):
                assert (len(k_basis), len(p_basis)) == (0, 2)
                continue
            k = 0 if key == (0,) else abs(key[0])
            # dimensions from the independent entry-level solve
            want = (_entry_constraint_dim(name, k, 1), _entry_constraint_dim(name, k, -1))
            assert (len(k_basis), len(p_basis)) == want, (name, key, want)
            degrees = [0] if key == (0,) else sorted(key)
            # inclusion: every computed eigenvector satisfies the condition
            for e, sign in [(e, 1) for e in k_basis] + [(e, -1) for e in p_basis]:
                for kk in degrees:
                    u_k = _matrix_of(e, kk)
                    u_mk = _matrix_of(e, -kk)
                    target = mat_scale(Scalar(sign), psi(u_mk))
                    assert u_k == target, (name, key, sign)
                    if real_entries:
                        assert all(x.is_real() for row in u_k for x in row)


# -- 8 ------------------------------------------------------------------------

@criterion(8, "all 8 catalog records verify at N=3; the complex-conjugation pair fails fix_compact")
def test_c08_catalog():
    start = time.monotonic()
    cat = build_catalog_a1()
    assert len(cat) == 8
    for rec in cat:
        rep = osaka_verify(rec, 3)
        for key, res in rep.checks.items():
            assert res.passed, f"{rec.name}/{key}: {res.detail}"
    ce_rep = osaka_verify(complex_conjugation_counterexample(), 3)
    assert not ce_rep.checks["fix_compact"].passed
    assert time.monotonic() - start < 60.0


# -- 9 ------------------------------------------------------------------------

@criterion(9, "duality reproduces the partner table and squares to the identity")
def test_c09_duality():
    rep = duality_pairing()
    assert rep.table_ok
    assert all(rep.matches.values())
    assert rep.double_dual_ok
    # explicit double-dual on every record's decomposition
    for rec in build_catalog_a1():
        dual = dualize(rec.real_form, rec.involution)
        ddual = dualize(dual.real_form, dual.involution)
        assert ddual.real_form.conj == rec.real_form.conj
        assert ddual.real_form.cd_scale == rec.real_form.cd_scale
        assert ddual.involution.loop_map == rec.involution.loop_map


# -- 10 -----------------------------------------------------------------------

@criterion(10, "splitting homomorphism: kernel dims 0/1/2 and 200 exact bracket checks")
def test_c10_splitting_hom():
    su2 = make_su(2)
    trial_budget = {1: 70, 2: 70, 3: 60}
    for n, trials in trial_budget.items():
        target = direct_sum(*([su2] * n)).complexify() if n > 1 else SU2C
        ttw = untwisted(target)
        factors = [(SU2C, TW_SU)] * n
        hom = SplittingHom(factors, target, ttw)
        assert hom.kernel_dimension() == n - 1
        pairs = []
        for t in range(trials):
            rng = TrialRng(f"acceptance-split-{n}", t)
            xs = [ExtendedElement(random_loop_element(SU2C, TW_SU, rng, max_degree=3),
                                  c=rng.scalar()) for _ in range(n)]
            ys = [ExtendedElement(random_loop_element(SU2C, TW_SU, rng, max_degree=3),
                                  c=rng.scalar()) for _ in range(n)]
            pairs.append((xs, ys))
        assert hom.is_homomorphism_on(pairs)


# -- 11 -----------------------------------------------------------------------

@criterion(11, "every catalog involution negates c and is second kind; epsilon=+1 is not effective")
def test_c11_effectiveness():
    from kmalg.kmext import central_element

    for rec in build_catalog_a1():
        assert effectiveness_check(rec) == Effectiveness.EFFECTIVE
        assert rec.involution.epsilon == -1
        scale = rec.real_form.cd_scale
        c_el = central_element(rec.real_form.algebra, rec.real_form.twist, scale)
        assert rec.involution.apply(c_el) == -c_el
    ce = complex_conjugation_counterexample()
    assert ce.involution.epsilon == 1
    assert effectiveness_check(ce) == Effectiveness.NOT_EFFECTIVE


# -- 12 -----------------------------------------------------------------------

@criterion(12, "second-kind involution counts match the exceptional table")
def test_c12_involution_counts():
    assert involution_counts() == {
        "e6(1)": 9,
        "e7(1)": 10,
        "e8(1)": 6,
        "f4(1)": 6,
        "g2(1)": 3,
    }


# -- 13 -----------------------------------------------------------------------

F = Fraction
_HAT_PINS = [
    # (algebra, twist, x terms, x.c, x.d, y terms, y.c, y.d), then [x, y]: loop terms and c
    ((SU2C, TW_SU2, {1: (Scalar(1), ZERO, Scalar(-2)), 0: (ZERO, Scalar(F(1, 2)), ZERO)}, Scalar(1), Scalar(F(3, 2)),
      {-1: (Scalar(0, 1), ZERO, Scalar(3)), 2: (ZERO, Scalar(-1, 1), ZERO)}, ZERO, Scalar(-1, F(2, 3))),
     {-1: (Scalar(F(15, 4)), ZERO, Scalar(0, F(-13, 4))), 0: (ZERO, Scalar(-6, -4), ZERO),
      1: (Scalar(F(1, 3), F(1, 2)), ZERO, Scalar(F(-2, 3), -1)), 2: (ZERO, Scalar(F(-3, 2), F(-3, 2)), ZERO),
      3: (Scalar(-4, 4), ZERO, Scalar(-2, 2))}, Scalar(-4, -24)),
    ((SL2C, TW_SL2, {1: (ZERO, Scalar(2), Scalar(0, -1)), -2: (Scalar(F(1, 3)), ZERO, ZERO)}, ZERO, Scalar(0, 1),
      {1: (ZERO, Scalar(1), Scalar(1)), 0: (Scalar(-2), ZERO, ZERO)}, Scalar(5), Scalar(F(-1, 2))),
     {-2: (Scalar(0, F(-1, 6)), ZERO, ZERO), -1: (ZERO, Scalar(F(2, 3)), Scalar(F(-2, 3))),
      1: (ZERO, Scalar(F(15, 2), F(1, 2)), Scalar(F(-1, 4), 4)), 2: (Scalar(2, 1), ZERO, ZERO)}, ZERO),
    ((SL2C, TW_SL2, {-1: (ZERO, Scalar(1), ZERO), 1: (ZERO, ZERO, Scalar(F(1, 2)))}, ZERO, ZERO,
      {1: (ZERO, ZERO, Scalar(1)), -1: (ZERO, Scalar(3), ZERO)}, ZERO, ZERO),
     {0: (Scalar(F(-1, 2)), ZERO, ZERO)}, Scalar(0, -1)),
]


@criterion(13, "hat_bracket on su2c/2 and sl2c/2 gives the pinned loop parts and c, with d on both sides")
def test_c13_hat_bracket_values():
    for (alg, twist, f, fc, fd, g, gc, gd), loop_part, c in _HAT_PINS:
        x = ExtendedElement(TwistedLoopElement(alg, twist, f), fc, fd)
        y = ExtendedElement(TwistedLoopElement(alg, twist, g), gc, gd)
        z = hat_bracket(x, y)
        assert z.loop.coeffs == loop_part
        assert (z.c, z.d) == (c, ZERO)
