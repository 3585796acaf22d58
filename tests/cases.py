"""Forms, maps, algebras and strategies that more than one test module
draws from, kept here so that no test module imports another: the random
coefficient maps and loops of the sparse-map tests, the involutions and
half-built elements of the fixes tests, the kernel algebras of the
finite-algebra tests, the loop terms over 3 of the numerator tests, the
wide terms and the int check of the lane kernels, the swap twist of
su2su2c, and the diagonal, signed-permutation and period-4 real forms with
their involutions and corrupted splits."""
import contextlib
import itertools
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

from hypothesis import strategies as st

from kmalg import findim, kmext, loop, serialize
from kmalg.findim import make_abelian, make_sl, make_so, make_su, mat_scale, sparse_rows
from kmalg.involution import CoeffMap, InvolutionDescriptor, RealFormDescriptor, Truncation
from kmalg.loop import TwistedLoopElement, twist_eigenbasis, untwisted
from kmalg.osaka import build_catalog_a1
from kmalg.scalars import I, ONE, Scalar, ZERO
from oracles import graded, kp_blocks, materialize, replace

# -- random coefficient maps and loops ------------------------------------------

UNITS = (Scalar(1), Scalar(0, 1), Scalar(-1), Scalar(0, -1))

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
general = st.builds(Scalar, rationals, rationals)
entries = st.one_of(st.just(ZERO), st.sampled_from(UNITS), general)
coords = st.one_of(st.just(ZERO), general)
dims = st.integers(1, 4)


@st.composite
def matrices(draw, n, m=None):
    m = n if m is None else m
    kind = draw(st.sampled_from(("random", "identity", "signed permutation")))
    if kind == "identity":
        rows = [[UNITS[0] if i == j else ZERO for j in range(m)] for i in range(n)]
    elif kind == "signed permutation":
        perm = draw(st.permutations(range(m)))
        rows = [[draw(st.sampled_from(UNITS)) if j == perm[i % m] else ZERO for j in range(m)]
                for i in range(n)]
    else:
        rows = [draw(st.lists(entries, min_size=m, max_size=m)) for _ in range(n)]
    # perturb one entry (possibly to zero, making a zero row more likely)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
        rows[i][j] = draw(entries)
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = [ZERO] * m
    return rows


@st.composite
def coeff_maps(draw, n):
    return CoeffMap(
        sparse_rows(draw(matrices(n))),
        index_sign=draw(st.sampled_from((1, -1))),
        conjugate=draw(st.booleans()),
        parity=draw(st.integers(0, 3)),
    )


def vectors(n):
    return st.lists(coords, min_size=n, max_size=n).map(tuple)


@st.composite
def loops(draw, n):
    alg = make_abelian(n).complexify()
    degrees = draw(st.lists(st.integers(-4, 4), max_size=4, unique=True))
    terms = {k: draw(vectors(n)) for k in degrees}
    return TwistedLoopElement(alg, untwisted(alg), terms)


nonzero = st.one_of(st.sampled_from(UNITS), general.filter(bool))


@st.composite
def involutions(draw, n):
    """A CoeffMap phi with phi(phi(f)) = f. phi^2 a_k is i^{pk(1+s)} M^2 a_k
    when linear and i^{pk(1-s)} M conj(M) a_k when conjugate-linear, so M
    pairs indices (i, j) with entries u and 1/u (1/conj(u) when
    conjugate-linear) and fixes the rest with u^2 = 1 (|u| = 1), and the
    parity p is free when the power of i vanishes (linear with s = -1,
    conjugate-linear with s = 1) and even otherwise."""
    conjugate, s = draw(st.booleans()), draw(st.sampled_from((1, -1)))
    parity = draw(st.integers(0, 3)) if conjugate == (s == 1) else 2 * draw(st.integers(0, 1))
    order = draw(st.permutations(range(n)))
    rows = [[ZERO] * n for _ in range(n)]
    i = 0
    while i < n:
        if i + 1 < n and draw(st.booleans()):
            a, b, u = order[i], order[i + 1], draw(nonzero)
            rows[a][b], rows[b][a] = u, 1 / (u.conjugate() if conjugate else u)
            i += 2
        else:
            rows[order[i]][order[i]] = draw(st.sampled_from(UNITS if conjugate else UNITS[::2]))
            i += 1
    return CoeffMap(sparse_rows(rows), s, conjugate, parity)


def half_built(phi, g, sign):
    """g's terms at negative exponents plus sign * phi of them: under s = -1
    the condition at each k > 0 holds by construction, and the one at -k
    holds exactly when phi is involutive there."""
    neg = TwistedLoopElement.from_vecs(g.algebra, g.twist, {k: v for k, v in g.terms.items() if k < 0})
    image = phi.apply_loop(neg)
    return neg + (image if sign == 1 else -image)


# -- algebras whose kernels divide ------------------------------------------------

def scaled_algebra(g, factor, field):
    """g's basis times factor: constants times factor, Killing entries times
    factor**2, so a non-integral factor leaves Gaussian integers behind."""
    return findim.FiniteLieAlgebra(f"{factor}*{g.name}", field,
                                   [mat_scale(factor, b) for b in g.basis], g.blocks)


# su(2)/4 has constants +-1/2 and B = -1/2; sl(2,C) times (1+i)/2 has
# constants +-(1+i)/2 and +-(1+i) and purely imaginary Killing entries. Both
# have D_s = 2, so the kernel's division and the imaginary parts of its
# constants and Killing entries are exercised.
QUARTER_SU2 = scaled_algebra(make_su(2), Scalar(Fraction(1, 4)), "R")
HALF_I_SL2 = scaled_algebra(make_sl(2, "C"), Scalar(Fraction(1, 2), Fraction(1, 2)), "C")
KERNEL_ALGEBRAS = [alg for alg, _ in serialize.registry().values()] + [
    make_su(2), make_sl(3), make_so(4), make_so(5, "C"), QUARTER_SU2, HALF_I_SL2]


# -- loop terms over 3 -------------------------------------------------------------

# Loop terms whose every coefficient is over 3, graded for both twists of
# su2c (even exponents on e2, odd ones on e1 and e3). With a d over 5, or a
# non-real d, they pin the denominators that putting an operand's loop
# terms and d over one denominator can get wrong.
THIRD = Fraction(1, 3)
OVER_3 = (
    {0: (ZERO, Scalar(THIRD), ZERO), 1: (Scalar(2 * THIRD, THIRD), ZERO, Scalar(-THIRD))},
    {-1: (Scalar(THIRD), ZERO, Scalar(0, THIRD)), 2: (ZERO, Scalar(-2 * THIRD), ZERO)},
    {1: (Scalar(-THIRD), ZERO, Scalar(2 * THIRD)), -2: (ZERO, Scalar(THIRD, -THIRD), ZERO)},
)
D_OVER_5 = Scalar(Fraction(2, 5))
NONREAL_D = Scalar(Fraction(1, 5), Fraction(-2, 3))
SU2C = [serialize.lookup_algebra("su2c", order) for order in (1, 2)]


# -- wide terms, and lanes on ints only ---------------------------------------------

# Coefficients whose numerators have serialize.MAX_DIGITS digits, over the
# mixed denominators 3, 7 and 11, at exponents up to 10^6 in size, graded
# for both twists of su2c as OVER_3 is; WIDE_D is a nonzero, non-real d of
# the same size. A lane width that does not grow with its operands decodes
# their brackets wrongly.
_WIDE = 10 ** (serialize.MAX_DIGITS - 1)
WIDE_COORDS = (
    (Scalar(Fraction(_WIDE + 1, 3), -_WIDE), Scalar(Fraction(-_WIDE, 7)), Scalar(3, Fraction(_WIDE - 1, 11))),
    (Scalar(0, Fraction(_WIDE, 11)), Scalar(Fraction(-2, 7), _WIDE), Scalar(-_WIDE, Fraction(_WIDE + 2, 3))),
)
WIDE = (
    {10 ** 6: (ZERO, WIDE_COORDS[0][0], ZERO), 1 - 10 ** 6: (WIDE_COORDS[0][1], ZERO, WIDE_COORDS[0][2])},
    {-10 ** 6: (ZERO, WIDE_COORDS[1][1], ZERO), 1: (WIDE_COORDS[1][0], ZERO, WIDE_COORDS[1][2])},
    {10 ** 6 - 1: (WIDE_COORDS[1][2], ZERO, WIDE_COORDS[0][0]), 2: (ZERO, WIDE_COORDS[0][2], ZERO)},
)
WIDE_D = Scalar(Fraction(_WIDE, 7), Fraction(-_WIDE - 1, 3))


@contextlib.contextmanager
def lanes_are_ints():
    """Fails the block where a lane or a decoded numerator is not an int:
    every operand lane and accumulator of findim.convolve, and every
    numerator of findim.lane_nums, as bound in findim, loop and kmext."""
    def kernel(tables, fs, gs, out):
        fs, gs = list(fs), list(gs)
        convolve(tables, fs, gs, out)
        lanes = [v for _, x in fs + gs for v in x] + [v for acc in out.values() for v in acc]
        assert all(type(v) is int for v in lanes), lanes[:3]
        return out

    def decode(lanes, w):
        nums = lane_nums(lanes, w)
        assert type(w) is int and all(type(v) is int for v in nums), nums[:3]
        return nums

    convolve, lane_nums = findim.convolve, findim.lane_nums
    with contextlib.ExitStack() as stack:
        for module in (findim, loop, kmext):
            stack.enter_context(patch.object(module, "convolve", kernel))
            stack.enter_context(patch.object(module, "lane_nums", decode))
        yield


# -- a twist whose eigenvectors are not coordinate vectors -------------------------

# The order-2 swap of the two summands of su2su2c: its eigenvectors are
# e_i +- e_{i+3}, so both eigenspaces have every coordinate in their support
# and each exponent pair of a loop bracket walks all 12 structure constants.
_DOUBLE = serialize.lookup_algebra("su2su2c", 1)[0]
SWAP = (_DOUBLE, findim.automorphism_from_order(_DOUBLE, [[int(j == (i + 3) % 6) for j in range(6)]
                                                         for i in range(6)]))


# -- diagonal, signed-permutation and period-4 forms -------------------------------

PAIRS = [("su2c", 1), ("su2c", 2), ("sl2c", 1), ("sl2c", 2)]
SIGNS = list(itertools.product((1, -1), repeat=3))
NAMES = [rec.name for rec in build_catalog_a1()]


def form(pair, perm, signs, index_sign, parity, scale):
    """The real form fixed by i^{parity k} P conj(a_{index_sign k}), P the
    signed permutation matrix with row i holding signs[i] at column perm[i]."""
    algebra, twist = serialize.lookup_algebra(*pair)
    matrix = [[Scalar(signs[i]) if j == perm[i] else ZERO for j in range(3)] for i in range(3)]
    return RealFormDescriptor("form", algebra, twist,
                              CoeffMap(sparse_rows(matrix), index_sign, True, parity), scale)


DIAGONAL = [form(pair, (0, 1, 2), signs, s, p, scale) for pair in PAIRS for signs in SIGNS
            for s in (1, -1) for p in range(4) for scale in (ONE, I)]


def real_structure_failure(rf):
    """None when the form's tau is a real structure, else the reason
    a failed verify_closed must name, found by imaging rather than from the
    lemma's matrix conditions: "grading broken" when tau sends a basis
    vector of a twist piece at degree 0 or 1 out of the piece, "tau^2 != 1
    on the loop algebra" when tau applied twice does not return it."""
    tau, twist = rf.conj, rf.twist
    monomials = [TwistedLoopElement.from_vecs(rf.algebra, twist, {k: v})
                 for k in (0, 1) for v in twist_eigenbasis(rf.algebra, twist, k % twist.order)]
    images = [tau.apply_loop(f) for f in monomials]
    if not all(graded(f) for f in images):
        return "grading broken"
    if any(tau.apply_loop(f) != g for f, g in zip(images, monomials)):
        return "tau^2 != 1 on the loop algebra"
    return None


def corrupted(dec):
    """dec, then for each block of its degree with K vectors: dec with every
    block explicit (`materialize`) and that block's first K vector moved to
    P, with it multiplied by i, and with every K vector moved to P (the
    block's vectors keep their order, only the signs change)."""
    yield dec
    full = materialize(dec)
    for i, (key, k_basis, p_basis) in enumerate(kp_blocks(full)):
        if not k_basis:
            continue
        for ks, ps in ((k_basis[1:], p_basis + k_basis[:1]),
                       ([k_basis[0].scale(I)] + k_basis[1:], p_basis),
                       ([], k_basis + p_basis)):
            blocks = list(full.blocks)
            blocks[i] = (key, [(e, 1) for e in ks] + [(e, -1) for e in ps])
            yield replace(full, blocks=tuple(blocks))


def span(dec):
    """The truncation whose blocks are K and P of dec, every block of its
    degree."""
    return Truncation(dec.real_form, dec.n_max,
                      tuple((key, [(e, 0) for e, _ in items]) for key, items in materialize(dec).blocks))


# Period-4 splits: phi = i^{k} M a_{-k} with M = diag(1, -1, -1) (an
# involutive automorphism of su2c), epsilon -1, on the closed odd-parity
# diagonal form and on an untwisted parity-0 one. The form's own period is
# 4 in the first and 1 in the second; the split's is 4 in both.
ODD_SPLITS = {
    "odd form": form(("su2c", 1), (0, 1, 2), (1, 1, 1), 1, 1, I),
    "even form": form(("su2c", 1), (0, 1, 2), (1, 1, 1), -1, 0, ONE),
}
ODD_PHI = InvolutionDescriptor(
    "odd parity", CoeffMap(sparse_rows([[Scalar(s) if i == j else ZERO for j in range(3)]
                                        for i, s in enumerate((1, -1, -1))]), -1, False, 1), -1)


def counting_brackets(monkeypatch):
    """Counts, under "loop_bracket", every loop bracket the library makes:
    each goes through convolve, the one convolution, as bound in
    loop (loop_bracket) or in kmext (extended_bracket_raw, under
    hat_bracket and jacobi_residual)."""
    calls = Counter()

    def counting(fn):
        def wrapper(*args):
            calls["loop_bracket"] += 1
            return fn(*args)
        return wrapper

    for module in (loop, kmext):
        monkeypatch.setattr(module, "convolve", counting(module.convolve))
    return calls


def _diag(signs):
    return [[Scalar(s) if i == j else ZERO for j in range(3)] for i, s in enumerate(signs)]


# Linear diagonal involutions a_k -> i^{p k} M a_{s k}, every sign pattern,
# parity and index sign; time reflection exactly when s = -1.
PHIS = [InvolutionDescriptor(f"{m}/{p}/{s}", CoeffMap(sparse_rows(_diag(m)), s, False, p), -1)
        for m in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)] for p in range(4) for s in (1, -1)]
