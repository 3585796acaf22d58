"""Independent oracles used by the test suite.

These deliberately take different computational routes from the library:
Killing values via matrix traces instead of adjoint traces, loop pairings
via symbolic trigonometric expansion and term-by-term integration instead
of the convolution rule, determinants via the Bareiss fraction-free scheme
instead of divide-and-eliminate. The real-form block bases and finite
coordinates are the hand-written real blow-ups the library used before one
equation builder in linalg served them both. The finite bracket and Killing
form are the Scalar loops the library ran before its integer-numerator
kernel, and the loop Gram matrix is built class by class as it was before
classes equal up to exponent renaming shared one computation.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from kmalg import linalg
from kmalg.findim import LieAlgebraError, mat_flatten
from kmalg.involution import InvolutionError
from kmalg.kmext import ExtendedElement
from kmalg.loop import (
    Definiteness,
    NonRealPairingError,
    TwistedLoopElement,
    loop_killing,
    zero_loop,
)
from kmalg.scalars import I, ONE, Scalar, ZERO, i_power


# -- finite Killing forms by matrix trace ---------------------------------

def _trace_of_product(x_mat, y_mat) -> Scalar:
    """tr(xy) = sum_{i,t} x_it y_ti, every product taken densely."""
    n = len(x_mat)
    return sum((x_mat[i][t] * y_mat[t][i] for i in range(n) for t in range(n)), ZERO)


def killing_sl_family(n, x_mat, y_mat) -> Scalar:
    """B(x, y) = 2n tr(xy) on sl(n) and its real forms (su(n), sl(n,R))."""
    return Scalar(2 * n) * _trace_of_product(x_mat, y_mat)


def killing_so_family(n, x_mat, y_mat) -> Scalar:
    """B(x, y) = (n-2) tr(xy) on so(n)."""
    return Scalar(n - 2) * _trace_of_product(x_mat, y_mat)


# -- the Scalar-by-Scalar finite bracket and Killing form -------------------

def bracket_reference(g, x, y):
    """FiniteLieAlgebra.bracket as it was before its integer-numerator
    kernel: one Scalar product and sum per structure-constant term."""
    out = [ZERO] * g.dim
    sc = g.structure
    for j, xj in enumerate(x):
        if not xj:
            continue
        row = sc[j]
        for k, yk in enumerate(y):
            if not yk:
                continue
            f = xj * yk
            for m, c in row[k]:
                out[m] = out[m] + f * c
    return tuple(out)


def killing_reference(g, x, y) -> Scalar:
    """FiniteLieAlgebra.killing as it was before it summed raw parts: a
    Scalar product and sum per nonzero term of the Killing matrix."""
    total = ZERO
    km = g.killing_matrix
    for j, xj in enumerate(x):
        if not xj:
            continue
        for l, yl in enumerate(y):
            if yl and km[j][l]:
                total = total + xj * yl * km[j][l]
    return total


# -- the class-by-class loop Gram matrix ---------------------------------------

def killing_gram_reference(basis):
    """loop.killing_gram as it was before classes equal up to exponent
    renaming shared one computation: every in-class pair is paired and every
    class sub-matrix signed. The body is kept verbatim."""
    for f in basis:
        basis[0]._require_match(f)
    parent = {}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for f in basis:
        roots = [find(parent.setdefault(abs(k), abs(k))) for k in f.terms]
        for r in roots:
            parent[r] = roots[0]
    label = [find(abs(next(iter(f.terms)))) if f.terms else None for f in basis]
    classes = {}
    for i, cls in enumerate(label):
        classes.setdefault(cls, []).append(i)
    n = len(basis)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in classes[label[i]]:
            if j < i:
                continue
            v = loop_killing(basis[i], basis[j])
            if not v.is_real():
                raise NonRealPairingError(f"pairing ({i},{j}) has value {v}")
            gram[i][j] = v.re
            gram[j][i] = v.re
    if n == 0:
        return gram, Definiteness.NEG_DEFINITE
    pos = neg = zero = 0
    for members in classes.values():
        p, q, z = linalg.symmetric_signature([[gram[i][j] for j in members] for i in members])
        pos, neg, zero = pos + p, neg + q, zero + z
    if zero:
        verdict = Definiteness.DEGENERATE
    elif pos == n:
        verdict = Definiteness.POS_DEFINITE
    elif neg == n:
        verdict = Definiteness.NEG_DEFINITE
    else:
        verdict = Definiteness.INDEFINITE
    return gram, verdict


# -- symbolic trigonometric integration -----------------------------------

def pointwise_pairing_spectrum(f, g, pairing):
    """Frequency -> coefficient of the expansion of pairing(f(t), g(t))."""
    freq = {}
    for k, ak in f.terms.items():
        for l, bl in g.terms.items():
            v = pairing(ak, bl)
            if v:
                freq[k + l] = freq.get(k + l, ZERO) + v
    return {q: v for q, v in freq.items() if v}


def integrate_constant_term(spectrum, twist_order):
    """(1/2pi) integral over a period of sum c_q e^{i q t / m}.

    The pointwise pairing of twist-graded loops is 2pi-periodic, so for
    m = 2 every odd grid frequency must already have cancelled; this is
    asserted rather than integrated around.
    """
    if twist_order == 2:
        for q, v in spectrum.items():
            assert q % 2 == 0 or not v, f"odd frequency {q} survived: {v}"
    return spectrum.get(0, ZERO)


def loop_killing_oracle(f, g) -> Scalar:
    alg = f.algebra
    spec = pointwise_pairing_spectrum(f, g, alg.killing)
    return integrate_constant_term(spec, f.twist.order)


def cocycle_oracle(f, g) -> Scalar:
    """(1/2pi) int <f, g'>: differentiate g symbolically, then integrate."""
    alg = f.algebra
    m = f.twist.order
    g_prime_terms = {
        l: tuple(Scalar(0, Fraction(l, m)) * c for c in vec) for l, vec in g.terms.items() if l
    }

    class _G:
        terms = g_prime_terms
        algebra = alg

    spec = pointwise_pairing_spectrum(f, _G, alg.killing)
    return integrate_constant_term(spec, m)


# -- Bareiss determinants ---------------------------------------------------

def bareiss_determinant(rows) -> Fraction:
    """Fraction-free Bareiss determinant over integers after clearing
    denominators row by row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = []
    scale = Fraction(1)
    for row in rows:
        den = 1
        for x in row:
            fr = Fraction(x)
            den = den * fr.denominator // gcd(den, fr.denominator)
        scale /= den
        m.append([int(Fraction(x) * den) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * scale * m[n - 1][n - 1]


def leading_minors_oracle(rows):
    return [
        bareiss_determinant([row[: k + 1] for row in rows[: k + 1]])
        for k in range(len(rows))
    ]


# -- the Fraction-only scalar representation --------------------------------

def fraction_backed(re, im=0) -> Scalar:
    """A Scalar whose parts are stored as Fraction even when integral, the
    way every Scalar was stored before parts became int-first. It is built
    around the constructor, which would store integral parts as int."""
    s = object.__new__(Scalar)
    Scalar.re.__set__(s, Fraction(re))
    Scalar.im.__set__(s, Fraction(im))
    return s


# -- hand-written real blow-ups -----------------------------------------------

def block_basis_reference(self, key):
    """RealFormDescriptor.block_basis as it was before it moved onto
    linalg.real_kernel: both kinds of equation blown up to rational rows by
    hand. `self` is the real form; the body is kept verbatim."""
    if key == ("cd",):
        out = []
        scales = (self.cd_scale,) if self.cd_scale is not None else (ONE, I)
        for scale in scales:
            out.append(ExtendedElement(zero_loop(self.algebra, self.twist), c=scale))
            out.append(ExtendedElement(zero_loop(self.algebra, self.twist), d=scale))
        return out
    degrees = tuple(key)
    dim = self.algebra.dim
    # unknowns: real and imaginary parts of the coords at each degree
    nvar = 2 * dim * len(degrees)
    pos = {k: i for i, k in enumerate(degrees)}
    rows = []

    def add_complex_rows(coeff_rows):
        # coeff_rows: list of (degree, jcoord, Scalar multiplier) equations == 0
        re_row = [0] * nvar
        im_row = [0] * nvar
        for deg, j, mult in coeff_rows:
            base = 2 * dim * pos[deg]
            re_row[base + j] += mult.re
            re_row[base + dim + j] += -mult.im
            im_row[base + j] += mult.im
            im_row[base + dim + j] += mult.re
        if any(re_row):
            rows.append(re_row)
        if any(im_row):
            rows.append(im_row)

    # grading constraints: (sigma - (-1)^k) a_k = 0
    if self.twist.order == 2:
        for k in degrees:
            sign = Scalar(1 if k % 2 == 0 else -1)
            for i in range(dim):
                eq = [(k, j, x) for j, _, x in self.twist.sparse[i]]
                add_complex_rows(eq + [(k, i, -sign)])
    # real-structure constraints: (conj a)_k = a_k
    if self.conj is not None:
        s = self.conj.index_sign
        for k in degrees:
            src = s * k
            if src not in pos:
                raise InvolutionError("block is not closed under the real structure")
            f = i_power(self.conj.parity * k)
            for i in range(dim):
                # i^{pk} M conj(a_src) - a_k = 0 componentwise; conj of the
                # source splits re/im with a sign, handled by writing the
                # equation on (re, im) directly.
                re_row = [0] * nvar
                im_row = [0] * nvar
                base_s = 2 * dim * pos[src]
                for j, _, x in self.conj.sparse[i]:
                    m = f * x
                    # m * conj(a_src_j): re += m.re*re_j + m.im*im_j
                    #                    im += m.im*re_j - m.re*im_j
                    re_row[base_s + j] += m.re
                    re_row[base_s + dim + j] += m.im
                    im_row[base_s + j] += m.im
                    im_row[base_s + dim + j] += -m.re
                base_k = 2 * dim * pos[k]
                re_row[base_k + i] += -1
                im_row[base_k + dim + i] += -1
                if any(re_row):
                    rows.append(re_row)
                if any(im_row):
                    rows.append(im_row)
    null = linalg.nullspace(rows) if rows else [
        [1 if t == s_ else 0 for t in range(nvar)] for s_ in range(nvar)
    ]
    out = []
    for v in null:
        terms = {}
        for k in degrees:
            base = 2 * dim * pos[k]
            vec = tuple(Scalar(v[base + j], v[base + dim + j]) for j in range(dim))
            if any(vec):
                terms[k] = vec
        out.append(ExtendedElement(TwistedLoopElement(self.algebra, self.twist, terms)))
    return out


def coords_reference(self, m):
    """FiniteLieAlgebra.coords as it was before it moved onto
    linalg.real_rows: the real blow-up written by hand. `self` is the
    algebra; the body is kept verbatim."""
    target = mat_flatten(m)
    # complex coordinates found by a real 2x-blown-up solve
    flat = [[self._flat_basis[j][i] for j in range(self.dim)] for i in range(len(target))]
    real_rows = []
    real_rhs = []
    for i, t in enumerate(target):
        row = flat[i]
        real_rows.append([c.re for c in row] + [-c.im for c in row])
        real_rows.append([c.im for c in row] + [c.re for c in row])
        real_rhs.extend([t.re, t.im])
    sol = linalg.solve(real_rows, real_rhs)
    if sol is None:
        raise LieAlgebraError("matrix is not in the span of the basis")
    return tuple(Scalar(sol[j], sol[self.dim + j]) for j in range(self.dim))
