"""Independent oracles used by the test suite.

These deliberately take different computational routes from the library:
Killing values via matrix traces instead of adjoint traces, loop pairings
via symbolic trigonometric expansion and term-by-term integration instead
of the convolution rule, determinants via the Bareiss fraction-free scheme
instead of divide-and-eliminate. The real-form block bases and finite
coordinates are the hand-written real blow-ups the library used before one
equation builder in linalg served them both. The finite bracket and Killing
form are Scalar loops over tables solved from the basis matrices alone
(solved_tables): structure constants from coords_reference of each matrix
commutator, and Killing values from traces of the ad matrices those
constants give, never the algebra's own integer tables;
construction_error_reference reads from them why an algebra must be
refused. The loop operations are those the library ran before loop
elements stored numerator vectors. The loop Gram matrix is built class by
class as it was before classes equal up to exponent renaming shared one
computation, and laid out densely from the class blocks the library now
returns.
The Scalar matrix helpers (mat_zero, mat_mul, mat_bracket, mat_conj,
mat_flatten) and matrix, the Scalar matrix of a coordinate tuple, are
findim's as they were before the basis moved onto ints (_cells); the
per-copy renderer (render_element_reference, cmd_decompose_reference)
builds such a matrix for every element of every block, as rendering did
before it read numerators and decompose rendered each base block once.
parse_element, the inverse of the rendering, and parse_scalar, the inverse
of render_scalar, live here because only the render round trips read them,
and so do the finite-element JSON schema and the admissibility verdict of
factorwise involutions, which no command reads, and the transpose,
semisimplicity test, span coordinates, the imaginary-Scalar test, the
coordinates of one matrix (coords) and the Scalar-coordinate CoeffMap and
FiniteAutomorphism applications only tests call. The closure and Cartan
checks bracket every pair of basis vectors, and the eigenspace split
solves every block, as the library did before the period-4 lemma let it
bracket one block pair per class and shift blocks beyond (4, -4); the
duality pairing dualizes twice per record, as it did before it reused the
partner's dual, with dualize re-verifying each dual's closure as it did
before the pairing lost its degree; and the involutive and expected K/P
checks apply their maps to every element, as osaka_verify did before it
read only one block per period class. The one walk over the brackets of a
truncation builds each representative pair's bracket with hat_bracket and
tests it with contains and descriptor_fixes, as it did before it decided on
raw bracket numerators, on the period classes classes_reference finds on
the blocks, as truncations did before they recorded the period their
blocks were built with, and it visits the block pairs with the quadratic
scan representative_pairs_reference, as its pair generator did before it
visited only the first later block of each class. Random Scalars are
drawn as two Fractions each, as TrialRng.scalar drew them before it was
built from the draws of TrialRng.gaussian, and TrialRngReference re-slices
its buffer on every draw, as TrialRng did before it read at an offset. The
Jacobi residual is the sum of three nested hat_brackets, as
jacobi_residual was before it composed the raw extended brackets
unreduced; jacobi_terms_reference gives its three nested brackets on the
Scalar path (nested hat_bracket_references), so that a kernel fault that
keeps a Lie bracket shows; and the loop derivative is read off hat_bracket, whose raw
kernel is the library's one derivative formula. The walk over the
brackets, bracket_verdicts_reference, decided closure (verify_closed_walk) and the
Cartan relations (verify_cartan_relations_walk) before both were read off
the coefficient maps; it is the oracle the map verdicts are checked
against. A truncation holds only its blocks up to its period;
materialize builds every block of its degree by _shift, as truncate did
(truncate_eager) before it left the later blocks unbuilt, and every
oracle that reads a truncation's blocks reads them materialized.
expected_block_dims reads a record's expected dims as ExpectedKP did
before the K/P check read the dims dict itself. replace copies a library
object through its constructor, as dataclasses.replace did before the
library's classes stopped being dataclasses. real_rows writes a Scalar
equation as two rational rows in the real layout of real_flatten, as linalg
did before FiniteLieAlgebra solved its coordinates on its basis's own
blow-up; real_kernel solves such equations, and block_basis_real_kernel is
the block basis built on it, as linalg and RealFormDescriptor.block_basis
did before the block equations became integer rows read off CoeffMap.sparse;
rref_reference divides every pivot row and updates every entry, as
linalg.rref did before it skipped pivots of 1 and zero columns; and
combine_reference sums scaled elements as Scalars, as the eigen-split did
before it summed each exponent's numerators as ints. i_power gives the
Scalar powers of i that the block-basis references multiply by.
"""
from __future__ import annotations

import hashlib
import inspect
import re
from enum import Enum
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from kmalg import cli, linalg
from kmalg.findim import (
    LieAlgebraError,
    _unit,
    mat_add,
    mat_scale,
    mat_sub,
    sparse_apply,
)
from kmalg.involution import (
    InvolutionError,
    PreservationError,
    Truncation,
    _period,
    dualize,
    fixed_and_eigenspaces,
)
from kmalg.kmext import ExtendedElement, hat_bracket, real_coords
from kmalg.serialize import (
    SCHEMA,
    SchemaError,
    _check_schema,
    _coords_from_json,
    algebra_name,
    involution_from_json,
    lookup_algebra,
    scalar_to_json,
)
from kmalg.loop import (
    Definiteness,
    NonRealPairingError,
    TwistedLoopElement,
    killing_gram,
    loop_killing,
    twist_eigenbasis,
    zero_loop,
)
from kmalg.scalars import (
    I,
    ONE,
    Scalar,
    ZERO,
    exact_div,
    vec_add,
    vec_from_parts,
    vec_from_scalars,
    vec_mul,
    vec_to_scalars,
)


def mat(rows):
    """Rows of Scalars or rationals as a tuple of Scalar row tuples."""
    return tuple(tuple(x if isinstance(x, Scalar) else Scalar(x) for x in row) for row in rows)


# -- Scalar matrices, as findim held them before its basis moved onto ints -------

def mat_zero(n):
    return tuple(tuple(ZERO for _ in range(n)) for _ in range(n))


def mat_mul(a, b):
    """a . b, over the nonzero entries of a."""
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    cols = tuple(zip(*b))
    return tuple(tuple(sum((x * col[j] for j, x in row if col[j]), ZERO) for col in cols)
                 for row in rows)


def mat_bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_conj(a):
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def mat_flatten(a):
    return [x for row in a for x in row]


def matrix(algebra, coords):
    """The matrix sum of coords[j] e_j, as FiniteLieAlgebra.matrix gave it."""
    out = mat_zero(algebra.matrix_size)
    for c, b in zip(coords, algebra.basis):
        if c:
            out = mat_add(out, mat_scale(c, b))
    return out


def i_power(k: int) -> Scalar:
    """i**k, as the coefficient maps' parity factors were read before
    RealFormDescriptor.block_basis turned its numerators by i itself."""
    return (ONE, I, Scalar(-1), Scalar(0, -1))[k % 4]


def replace(obj, **changes):
    """A copy of obj built by its class's constructor, each __init__
    parameter read off obj unless changes names it; an unknown name raises
    TypeError there. A slot the constructor does not take gets its default
    again: a Truncation copy has built_period None."""
    cls = type(obj)
    kept = {name: getattr(obj, name) for name in inspect.signature(cls).parameters}
    return cls(**{**kept, **changes})


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


# -- Scalar coordinates at the edge of the integer kernels ---------------------

def scalar_bracket(g, x, y):
    """g.bracket on Scalar coordinates: numerator vectors in and out."""
    return vec_to_scalars(g.bracket(vec_from_scalars(x), vec_from_scalars(y)))


def scalar_killing(g, x, y) -> Scalar:
    """g.killing on Scalar coordinates."""
    return g.killing(vec_from_scalars(x), vec_from_scalars(y))


# -- the finite bracket and Killing form from the basis matrices ----------------

_SOLVED = {}


def solved_tables(basis):
    """(c, K) from the basis matrices alone, never from an algebra's own
    tables: c[j][k] the Scalar coordinates of the matrix commutator
    [e_j, e_k] (coords_reference), and K[j][l] = tr(ad e_j ad e_l), the
    trace of the product of the ad matrices (ad e_j)[m][k] = c[j][k][m].
    Cached per basis."""
    basis = tuple(basis)
    if basis not in _SOLVED:
        n = len(basis)
        span = SimpleNamespace(basis=basis, dim=n)
        c = [[coords_reference(span, mat_bracket(a, b)) for b in basis] for a in basis]
        ad = [[[c[j][k][m] for k in range(n)] for m in range(n)] for j in range(n)]
        _SOLVED[basis] = c, [[_trace_of_product(ad[j], ad[l]) for l in range(n)] for j in range(n)]
    return _SOLVED[basis]


def construction_error_reference(field, basis, blocks):
    """The reason FiniteLieAlgebra refuses (field, basis, blocks), in the
    order it checks them, or None: a basis whose real Gram determinant
    (Bareiss) is zero is dependent; then the solved constants must be real
    on a real algebra, and the lowest block pair (a, b) whose basis
    vectors bracket to nonzero is not orthogonal."""
    flat = [[x for s in mat_flatten(b) for x in (s.re, s.im)] for b in basis]
    if not bareiss_determinant([[sum(x * y for x, y in zip(u, v)) for v in flat] for u in flat]):
        return "linearly dependent"
    c, _ = solved_tables(basis)
    if field == "R" and any(x.im for row in c for coords in row for x in coords):
        return "non-real structure constant"
    for a in range(len(blocks)):
        for b in range(a + 1, len(blocks)):
            if any(any(c[j][k]) for j in blocks[a].indices for k in blocks[b].indices):
                return f"blocks {a} and {b} are not bracket-orthogonal"
    return None


def bracket_reference(g, x, y):
    """[x, y] on Scalar coordinates: one Scalar product and sum per term
    x_j y_k c_jk^m of the solved constants."""
    out = [ZERO] * g.dim
    c, _ = solved_tables(g.basis)
    for j, xj in enumerate(x):
        for k, yk in enumerate(y):
            if xj and yk:
                for m, cm in enumerate(c[j][k]):
                    if cm:
                        out[m] = out[m] + xj * yk * cm
    return tuple(out)


def killing_reference(g, x, y) -> Scalar:
    """B(x, y) on Scalar coordinates: a Scalar product and sum per nonzero
    entry of the Killing matrix of solved_tables."""
    _, km = solved_tables(g.basis)
    return sum((xj * yl * km[j][l] for j, xj in enumerate(x) for l, yl in enumerate(y)
                if xj and yl and km[j][l]), ZERO)


# -- the loop layer on Scalar-tuple coefficients --------------------------------
#
# The loop operations as they were before loop elements stored numerator
# vectors: an element is a dict exponent -> tuple of Scalar, zero tuples
# dropped, and every operation is Scalar arithmetic on those tuples.

def _nonzero(terms):
    return {k: v for k, v in terms.items() if any(v)}


def dense_apply(matrix, vec, conjugate=False, power=0):
    """i^power * M conj^conjugate(vec), every entry multiplied."""
    if conjugate:
        vec = [v.conjugate() for v in vec]
    factor = Scalar(1)
    for _ in range(power % 4):
        factor = factor * Scalar(0, 1)
    return tuple(
        factor * sum((row[j] * vec[j] for j in range(len(vec))), ZERO) for row in matrix
    )


def order_reference(matrix, conjugate, limit=8):
    """The least k <= limit with phi^k the identity, or None, for phi = M
    conj^conjugate: a power walk of `dense_apply` on each unit vector and on
    i times it (a conjugate-linear power moves i e_j to -i M e_j), with no
    map composed."""
    n = len(matrix)
    starts = [tuple(unit if i == j else ZERO for i in range(n)) for j in range(n) for unit in (ONE, I)]
    vecs = starts
    for k in range(1, limit + 1):
        vecs = [dense_apply(matrix, v, conjugate) for v in vecs]
        if vecs == starts:
            return k
    return None


def loop_add_reference(f, g):
    out = dict(f)
    for k, vec in g.items():
        out[k] = tuple(a + b for a, b in zip(out[k], vec)) if k in out else vec
    return _nonzero(out)


def loop_neg_reference(f):
    return {k: tuple(-c for c in vec) for k, vec in f.items()}


def loop_scale_reference(f, c):
    return _nonzero({k: tuple(c * x for x in vec) for k, vec in f.items()})


def loop_bracket_reference(alg, f, g):
    out = {}
    for p, ap in f.items():
        for q, bq in g.items():
            val = bracket_reference(alg, ap, bq)
            k = p + q
            out[k] = tuple(a + b for a, b in zip(out[k], val)) if k in out else val
    return _nonzero(out)


def loop_derivative_reference(f, m):
    return {k: tuple(Scalar(0, Fraction(k, m)) * c for c in vec) for k, vec in f.items() if k}


def loop_killing_reference(alg, f, g) -> Scalar:
    return sum((killing_reference(alg, ak, g[-k]) for k, ak in f.items() if -k in g), ZERO)


def cocycle_reference(alg, m, f, g) -> Scalar:
    return sum((Scalar(0, Fraction(-k, m)) * killing_reference(alg, ak, g[-k])
                for k, ak in f.items() if k and -k in g), ZERO)


def hat_bracket_reference(alg, m, x, y):
    """kmext.hat_bracket on Scalar-tuple loops, x and y given as (terms, c,
    d): the derivative terms are the Scalar derivative scaled by d, then
    added (x's) or subtracted (y's), as before one multiplication by
    i k d / m per term. Returns (terms, c, d)."""
    (f, _, xd), (g, _, yd) = x, y
    loop = loop_add_reference(loop_bracket_reference(alg, f, g),
                              loop_scale_reference(loop_derivative_reference(g, m), xd))
    loop = loop_add_reference(loop, loop_neg_reference(
        loop_scale_reference(loop_derivative_reference(f, m), yd)))
    return loop, cocycle_reference(alg, m, f, g), ZERO


def apply_loop_reference(phi, f):
    s = phi.index_sign
    return _nonzero({s * j: dense_apply(phi.matrix, vec, phi.conjugate, phi.parity * s * j)
                     for j, vec in f.items()})


# -- the class-by-class loop Gram matrix ---------------------------------------

def dense_killing_gram(basis):
    """killing_gram with its class blocks laid out as the dense n x n
    matrix, zero outside the classes, beside its verdict."""
    blocks, verdict = killing_gram(basis)
    n = len(basis)
    gram = [[0] * n for _ in range(n)]
    for members, rows in blocks:
        for i, row in zip(members, rows):
            for j, x in zip(members, row):
                gram[i][j] = x
    return gram, verdict


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
    for k, ak in f.coeffs.items():
        for l, bl in g.coeffs.items():
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
    spec = pointwise_pairing_spectrum(f, g, lambda a, b: scalar_killing(alg, a, b))
    return integrate_constant_term(spec, f.twist.order)


def cocycle_oracle(f, g) -> Scalar:
    """(1/2pi) int <f, g'>: differentiate g symbolically, then integrate."""
    alg = f.algebra
    m = f.twist.order
    g_prime_terms = {
        l: tuple(Scalar(0, Fraction(l, m)) * c for c in vec) for l, vec in g.coeffs.items() if l
    }

    class _G:
        coeffs = g_prime_terms
        algebra = alg

    spec = pointwise_pairing_spectrum(f, _G, lambda a, b: scalar_killing(alg, a, b))
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
                eq = [(k, j, x) for j, x in enumerate(self.twist.matrix[i]) if x]
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
                for j, x in enumerate(self.conj.matrix[i]):
                    if not x:
                        continue
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
    """coords as it was, a FiniteLieAlgebra method, before it moved onto
    real_rows (then in linalg): the real blow-up written by hand, one solve
    per matrix, on the Scalar basis matrices. `self` is the algebra; the
    body is kept verbatim apart from the flattened basis it builds, which
    the algebra held then."""
    target = mat_flatten(m)
    flat_basis = [mat_flatten(b) for b in self.basis]
    # complex coordinates found by a real 2x-blown-up solve
    flat = [[flat_basis[j][i] for j in range(self.dim)] for i in range(len(target))]
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


# -- the Scalar equation builder and elimination -------------------------------------
#
# Real layout. A Q(i) vector v becomes the rational vector [re v | im v],
# and several unknown vectors a_0 .. a_{n-1} of one width become these
# chunks one after another, [re a_0 | im a_0 | re a_1 | im a_1 | ...].

def real_flatten(vec):
    """Scalar vector -> rational vector [re | im] (the layout above)."""
    out = [s.re for s in vec]
    out.extend(s.im for s in vec)
    return out


def real_rows(terms, nvec, width):
    """The real and imaginary part of sum alpha a_b[j] + beta conj(a_b[j]),
    one term (b, j, alpha, beta) each, as two rational rows over nvec unknown
    vectors of the given width; alpha and beta are Scalars, and beta = 0 in
    a complex-linear equation."""
    re_row = [0] * (2 * nvec * width)
    im_row = [0] * (2 * nvec * width)
    for b, j, alpha, beta in terms:
        x = 2 * width * b + j  # column of re a_b[j]; im a_b[j] is width further
        y = x + width
        re_row[x] += alpha.re + beta.re
        re_row[y] += beta.im - alpha.im
        im_row[x] += alpha.im + beta.im
        im_row[y] += alpha.re - beta.re
    return re_row, im_row


def real_kernel(equations, nvec, width):
    """Real solutions of the equations (each a list of real_rows terms), as
    a basis of nvec-tuples of numerator vectors; the standard basis when
    there is no nonzero equation."""
    rows = [row for eq in equations for row in real_rows(eq, nvec, width) if any(row)]
    n = 2 * width
    return [
        tuple(vec_from_parts(v[b * n:(b + 1) * n]) for b in range(nvec))
        for v in linalg.nullspace(rows or [[0] * (n * nvec)])
    ]


def block_basis_real_kernel(self, key):
    """RealFormDescriptor.block_basis as it was before it wrote its
    equations as integer rows from CoeffMap.sparse: Scalar terms for
    real_rows, solved by real_kernel. `self` is the real form; the
    body is kept verbatim."""
    if key == ("cd",):
        out = []
        scales = (self.cd_scale,) if self.cd_scale is not None else (ONE, I)
        for scale in scales:
            out.append(ExtendedElement(zero_loop(self.algebra, self.twist), c=scale))
            out.append(ExtendedElement(zero_loop(self.algebra, self.twist), d=scale))
        return out
    degrees = tuple(key)
    dim = self.algebra.dim
    pos = {k: b for b, k in enumerate(degrees)}
    equations = []
    if self.twist.order == 2:
        for k in degrees:
            sign = ONE if k % 2 == 0 else -ONE
            for i in range(dim):
                eq = [(pos[k], j, x, ZERO) for j, x in enumerate(self.twist.matrix[i]) if x]
                equations.append(eq + [(pos[k], i, -sign, ZERO)])
    if self.conj is not None:
        s = self.conj.index_sign
        for k in degrees:
            if s * k not in pos:
                raise InvolutionError("block is not closed under the real structure")
            f = i_power(self.conj.parity * k)
            for i in range(dim):
                eq = [(pos[s * k], j, ZERO, f * x) for j, x in enumerate(self.conj.matrix[i]) if x]
                equations.append(eq + [(pos[k], i, -ONE, ZERO)])
    return [ExtendedElement(TwistedLoopElement.from_vecs(self.algebra, self.twist,
                                                         dict(zip(degrees, vecs))))
            for vecs in real_kernel(equations, len(degrees), dim)]


def rref_reference(rows):
    """linalg.rref as it was before it skipped dividing by a pivot of 1 and
    updated only the pivot row's nonzero columns: every row divided, every
    entry updated. Returns (new_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [exact_div(x, pv) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def combine_reference(elements, coeffs):
    """involution._combine as it was before it summed numerators as ints:
    sum_j coeffs[j] elements[j] as a chain of Scalar scalings and sums,
    coeffs a nullspace vector (so not zero)."""
    parts = [e.scale(Scalar(c)) for c, e in zip(coeffs, elements) if c]
    return sum(parts[1:], parts[0])


# -- the per-copy Scalar renderer ---------------------------------------------------
#
# serialize's text rendering as it was before it read a coefficient's
# numerators and decompose rendered each base block once: every element of
# every block, a shifted copy included, went through a fresh Scalar matrix
# (`matrix`). The bodies are kept verbatim apart from their names and that
# matrix, which was FiniteLieAlgebra.matrix.

def scalar_factor_reference(s: Scalar) -> str:
    """Scalar as a multiplicative prefix: '', '-', '3/2·', 'i·', '(1/2-3·i)·'."""
    if s == Scalar(1):
        return ""
    if s == Scalar(-1):
        return "-"
    text = str(s)
    if s.re and s.im:
        return f"({text})·"
    return f"{text}·"


def render_matrix_sum_reference(algebra, coords) -> str:
    return join_reference([f"{scalar_factor_reference(v)}E{r + 1}{c + 1}"
                           for r, row in enumerate(matrix(algebra, coords)) for c, v in enumerate(row) if v])


def join_reference(parts) -> str:
    """Signed terms joined by " + " and " - "; "0" for no terms."""
    if not parts:
        return "0"
    return parts[0] + "".join(" - " + p[1:] if p.startswith("-") else " + " + p for p in parts[1:])


def exp_str_reference(k: int, m: int) -> str:
    if m == 1 or k % 2 == 0:
        return str(k // m if m == 2 else k)
    return f"({k}/2)"


def render_element_reference(x: ExtendedElement, shift: int = 0) -> str:
    """Deterministic text form, ordered by degree then c then d. shift
    moves every nonzero exponent that far further from 0, so a block past
    a truncation's built_period renders as the shift of its base block
    without being built."""
    m = x.loop.twist.order
    parts = []
    for k in sorted(x.loop.terms):
        e = k + shift if k > 0 else k - shift if k < 0 else k
        parts.append(f"({render_matrix_sum_reference(x.loop.algebra, x.loop.coeff(k))})·z^{exp_str_reference(e, m)}")
    if x.c:
        parts.append(f"{scalar_factor_reference(x.c)}c")
    if x.d:
        parts.append(f"{scalar_factor_reference(x.d)}d")
    return join_reference(parts)


def cmd_decompose_reference(args):
    """cli.cmd_decompose as it was before it rendered each base block once:
    render_element_reference of every element of every block, with the
    shift of its block."""
    degree = cli._check_degree(args.degree)
    rec = cli._catalog_record(args.form)
    inv = rec.involution
    if args.involution:
        inv = involution_from_json(cli._read_json(args.involution), rec.real_form.algebra)
    try:
        dec = fixed_and_eigenspaces(inv, rec.real_form.truncate(degree))
    except InvolutionError as exc:
        raise cli.CliError(str(exc), cli.EXIT_FAIL) from exc
    _, kv = killing_gram([e.loop for e in dec.k_basis if not e.loop.is_zero()])
    _, pv = killing_gram([e.loop for e in dec.p_basis if not e.loop.is_zero()])
    report = cli._base_report("decompose", form=args.form, degree=degree,
                              involution=args.involution)
    report["dims"] = {str(k): list(v) for k, v in sorted(dec.dims().items(), key=str)}
    # every block, one past the split's built_period rendered as a shift
    report["K"], report["P"] = [], []
    for key, b in dec.layout():
        base, items = dec.blocks[b]
        shift = 0 if key == base else key[0] - base[0]
        for e, s in items:
            report["K" if s == 1 else "P"].append(render_element_reference(e, shift))
    report["gram"] = {"K_loops": kv.value, "P_loops": pv.value}
    return report, True


# -- the inverse of render_element -----------------------------------------------

class ParseFailure(ValueError):
    pass


_TERM_RE = re.compile(r"^\((?P<body>.*)\)·z\^(?P<exp>\(?-?\d+(?:/2)?\)?)$")
_UNIT_RE = re.compile(r"^(?P<factor>.*?)E(?P<r>\d)(?P<c>\d)$")


def parse_element(text: str, algebra, twist) -> ExtendedElement:
    """Inverse of serialize.render_element for the given algebra and twist."""
    text = text.strip()
    if text == "0":
        return ExtendedElement(zero_loop(algebra, twist))
    chunks = _split_top_level(text)
    terms = {}
    c_val = ZERO
    d_val = ZERO
    m = twist.order
    for sign, chunk in chunks:
        if chunk in ("c", "-c") or chunk.endswith("·c"):
            c_val = c_val + sign * _parse_factor(chunk[:-1])
            continue
        if chunk in ("d", "-d") or chunk.endswith("·d"):
            d_val = d_val + sign * _parse_factor(chunk[:-1])
            continue
        mt = _TERM_RE.match(chunk)
        if not mt:
            raise ParseFailure(f"cannot parse term {chunk!r}")
        exp = mt.group("exp").strip("()")
        if "/" in exp:
            k = int(exp.split("/")[0])
            if m != 2:
                raise ParseFailure("half-integer exponent on an untwisted element")
        else:
            k = int(exp) * (2 if m == 2 else 1)
        mat_val = mat_zero(algebra.matrix_size)
        for usign, unit in _split_top_level(mt.group("body")):
            um = _UNIT_RE.match(unit)
            if not um:
                raise ParseFailure(f"cannot parse matrix unit {unit!r}")
            coeff = usign * _parse_factor(um.group("factor"))
            r, c = int(um.group("r")) - 1, int(um.group("c")) - 1
            mat_val = mat_add(mat_val, mat_scale(coeff, _unit(algebra.matrix_size, r, c)))
        vec = tuple(sign * x for x in coords(algebra, mat_val))
        if k in terms:
            vec = tuple(a + b for a, b in zip(terms[k], vec))
        terms[k] = vec
    loop = TwistedLoopElement(algebra, twist, terms)
    return ExtendedElement(loop, c_val, d_val)


def _parse_factor(text: str) -> Scalar:
    text = text.strip()
    if text.endswith("·"):
        text = text[:-1]
    if text in ("", "+"):
        return Scalar(1)
    if text == "-":
        return Scalar(-1)
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return parse_scalar(text)


def parse_scalar(text: str) -> Scalar:
    """Inverse of render_scalar."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty scalar")
    # Split an interior +/- separating real and imaginary parts.
    for pos in range(len(t) - 1, 0, -1):
        if t[pos] in "+-" and t[pos - 1] not in "+-/·":
            re_part, im_part = t[:pos], t[pos:]
            if "i" in im_part and "i" not in re_part:
                return Scalar(Fraction(re_part), _parse_im(im_part))
            break
    if "i" in t:
        return Scalar(0, _parse_im(t))
    return Scalar(Fraction(t))


def _parse_im(t: str) -> Fraction:
    sign = 1
    while t and t[0] in "+-":
        if t[0] == "-":
            sign = -sign
        t = t[1:]
    if t == "i":
        return Fraction(sign)
    if not t.endswith("·i"):
        raise ValueError(f"bad imaginary part {t!r}")
    return sign * Fraction(t[:-2])


def _split_top_level(text: str):
    """Split 'a + b - c' at depth zero into (sign, chunk) pairs."""
    out = []
    depth = 0
    sign = Scalar(1)
    cur = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and i > 0 and text[i - 1] == " " and i + 1 < len(text) and text[i + 1] == " ":
            out.append((sign, "".join(cur).strip()))
            sign = Scalar(1) if ch == "+" else Scalar(-1)
            cur = []
            i += 2
            continue
        cur.append(ch)
        i += 1
    out.append((sign, "".join(cur).strip()))
    return [(s, c) for s, c in out if c]


# -- finite algebra elements as JSON ---------------------------------------------

def finite_element_to_json(algebra, coords):
    return {
        "schema": SCHEMA,
        "algebra": algebra_name(algebra),
        "coords": [scalar_to_json(c) for c in coords],
    }


def finite_element_from_json(obj):
    _check_schema(obj)
    if "algebra" not in obj or "coords" not in obj:
        raise SchemaError("finite element needs 'algebra' and 'coords'")
    algebra, _ = lookup_algebra(obj["algebra"], 1)
    return algebra, _coords_from_json(obj["coords"], algebra.dim, "'coords'")


# -- admissibility of factorwise involutions -----------------------------------------

class Admissibility(Enum):
    ADMISSIBLE = "Admissible"
    LOCALLY_ADMISSIBLE_ONLY = "LocallyAdmissibleOnly"


def admissibility_check(per_factor) -> Admissibility:
    """Factorwise involutions extend to one involution of the whole extension
    iff their epsilon values agree."""
    eps = {phi.epsilon for phi in per_factor}
    return Admissibility.ADMISSIBLE if len(eps) <= 1 else Admissibility.LOCALLY_ADMISSIBLE_ONLY


# -- helpers only tests call ------------------------------------------------------

def mat_transpose(a):
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def is_semisimple(g) -> bool:
    """Cartan's criterion: the Killing matrix K = A + iB that g.killing
    gives on the basis is nondegenerate. Its real blow-up [[A, -B], [B, A]]
    has the determinant |det K|^2, which Bareiss computes on rationals."""
    units = [tuple(ONE if i == j else ZERO for i in range(g.dim)) for j in range(g.dim)]
    km = [[scalar_killing(g, x, y) for y in units] for x in units]
    blow_up = ([[s.re for s in row] + [-s.im for s in row] for row in km]
               + [[s.im for s in row] + [s.re for s in row] for row in km])
    return bool(bareiss_determinant(blow_up))


def coords(algebra, m):
    """Coordinates of a matrix in the algebra's basis; raises if outside the
    span: `_solve` of the numerators of m alone."""
    nums, den = vec_from_scalars(mat_flatten(m))
    return vec_to_scalars(algebra._solve([nums], den)[0])


def apply_vec(phi, vec, k=0):
    """A CoeffMap on Scalar coordinates landing at target degree k."""
    return vec_to_scalars(sparse_apply(phi.sparse, vec_from_scalars(vec), phi.conjugate, phi.parity * k))


def automorphism_apply(phi, coords):
    """A FiniteAutomorphism, or a product of two, on Scalar coordinates."""
    return vec_to_scalars(sparse_apply(phi.sparse, vec_from_scalars(coords), phi.conjugate))


def is_imaginary(s: Scalar) -> bool:
    return not s.re


def coords_in_span(basis_vectors, target):
    """Coefficients expressing target as a combination of basis_vectors.

    Returns the coefficient list, or None when target is outside the span.
    Vectors are rows; the solve runs on the transpose.
    """
    if not basis_vectors:
        return [] if not any(target) else None
    ncols = len(basis_vectors)
    a = [[basis_vectors[j][i] for j in range(ncols)] for i in range(len(target))]
    return linalg.solve(a, list(target))


def kp_blocks(dec):
    """(key, K elements, P elements) per block of a split truncation, every
    block of its degree (`materialize`)."""
    return [(key, [e for e, s in items if s == 1], [e for e, s in items if s == -1])
            for key, items in materialize(dec).blocks]


def nonzero_loops(elems):
    """The nonzero loop parts of elems, as decompose hands them to killing_gram."""
    return [e.loop for e in elems if not e.loop.is_zero()]


# -- random elements through Scalar coefficients -----------------------------------

def _fraction_reference(rng, max_num=3, max_den=2) -> Fraction:
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def scalar_reference(rng, max_num=3, max_den=2, real_only=False) -> Scalar:
    """rand.TrialRng.scalar as it was before it was built from the draws of
    TrialRng.gaussian: two Fractions from rng's integer draws. The bodies
    of this and _fraction_reference are kept verbatim."""
    re = _fraction_reference(rng, max_num, max_den)
    im = Fraction(0) if real_only else _fraction_reference(rng, max_num, max_den)
    return Scalar(re, im)


def random_loop_element_reference(algebra, twist, rng, max_degree=6, max_terms=4):
    """rand.random_loop_element as it was before it drew coefficients in
    numerator form: each one a Scalar from scalar_reference, then converted.
    The body is kept verbatim apart from that call."""
    terms = {}
    n_terms = rng.randint(1, max_terms)
    for _ in range(n_terms):
        k = rng.randint(-max_degree, max_degree)
        basis = twist_eigenbasis(algebra, twist, k % 2)
        if not basis:
            continue
        vec = ((0,) * (2 * algebra.dim), 1)
        for b in basis:
            c = scalar_reference(rng)
            if c:
                vec = vec_add(vec, vec_mul(b, vec_from_scalars((c,))))
        terms[k] = vec_add(terms[k], vec) if k in terms else vec
    return TwistedLoopElement.from_vecs(algebra, twist, terms)


class TrialRngReference:
    """rand.TrialRng as it was before u32 read its 4 bytes at a buffer
    offset: every draw re-slices the remaining buffer. Kept verbatim."""

    def __init__(self, seed, index=0):
        self._key = f"{seed}:{index}".encode()
        self._counter = 0
        self._buf = b""

    def _refill(self):
        block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
        self._counter += 1
        self._buf += block

    def _take(self, n) -> bytes:
        while len(self._buf) < n:
            self._refill()
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def randint(self, a, b) -> int:
        """Uniform-ish integer in [a, b]; bias is irrelevant for fuzzing."""
        span = b - a + 1
        return a + self.u32() % span

    def scalar(self, real_only=False) -> Scalar:
        """a/p + i b/q from the draws of gaussian(): a, b in [-3, 3] and
        p, q in [1, 2]; real_only draws a and p only."""
        a, p = self.randint(-3, 3), self.randint(1, 2)
        b, q = (0, 1) if real_only else (self.randint(-3, 3), self.randint(1, 2))
        return Scalar(Fraction(a, p), Fraction(b, q))

    def gaussian(self):
        """scalar() as a numerator form ((a q, b p), p q), from the same four
        draws a, p, b, q, building no Fraction or Scalar."""
        a, p = self.randint(-3, 3), self.randint(1, 2)
        b, q = self.randint(-3, 3), self.randint(1, 2)
        return (a * q, b * p), p * q


# -- the extended bracket composed element by element ---------------------------------

def jacobi_residual_reference(x, y, z):
    """kmext.jacobi_residual as it was before it composed the raw extended
    brackets unreduced: three nested hat_brackets, each reduced, summed as
    elements. The body is kept verbatim."""
    return (
        hat_bracket(hat_bracket(x, y), z)
        + hat_bracket(hat_bracket(y, z), x)
        + hat_bracket(hat_bracket(z, x), y)
    )


def jacobi_terms_reference(x, y, z):
    """[[x,y],z], [[y,z],x] and [[z,x],y] on the Scalar path, each a nested
    hat_bracket_reference on the structure constants solved from the
    basis matrices, as (terms, c, d). No integer kernel of the library
    runs here. A kernel fault that still leaves a Lie bracket (a d part
    left out of a common denominator, say) gives a zero residual on every
    path, jacobi_residual_reference included, but shows in these terms."""
    alg, m = x.loop.algebra, x.loop.twist.order
    x, y, z = ((w.loop.coeffs, w.c, w.d) for w in (x, y, z))
    return [hat_bracket_reference(alg, m, hat_bracket_reference(alg, m, a, b), w)
            for a, b, w in ((x, y, z), (y, z, x), (z, x, y))]


def loop_derivative(f, d=ONE):
    """d times d/dt of a loop element f, as the loop part of the extended
    bracket [d d, f] = d f' (c and d of f zero): the derivative terms of
    kmext.extended_bracket_raw, the library's one derivative formula, which
    replaced loop.loop_derivative's one multiplication by i k d / m per
    term."""
    return hat_bracket(ExtendedElement(zero_loop(f.algebra, f.twist), d=d), ExtendedElement(f)).loop


# -- all-pairs closure and Cartan checks; every block solved ------------------------

def truncation_elements(truncation):
    """Every element of a truncation, block by block, every block of its
    degree (`materialize`)."""
    return [e for _, items in materialize(truncation).blocks for e, _ in items]


def verify_closed_reference(rf, truncation) -> bool:
    """RealFormDescriptor.verify_closed before the period-4 lemma: every
    unordered pair of truncated basis elements is bracketed."""
    flat = truncation_elements(truncation)
    return all(rf.contains(hat_bracket(x, y)) for i, x in enumerate(flat) for y in flat[i:])


def classes_reference(blocks, period):
    """Period-P class (P = period, `truncate`) of each block of a list of
    (key, [(element, sign)]) pairs, by position: block (k, -k), k > P, joins
    the class of block (k-P, P-k) when its items are that block's with the
    same signs and each element shifted (`_shift`), all with c = d = 0. Any
    other block is its own class, as is every block if two share a key or
    an element has an exponent outside its block (the lemma needs it).
    This is involution._classes, which rediscovered the classes before a
    truncation recorded the period its blocks were built with, kept
    verbatim."""
    keys, label = [key for key, _ in blocks], list(range(len(blocks)))
    if len(set(keys)) < len(keys) or any(
            not set(e.loop.terms) <= set(key) for key, items in blocks for e, _ in items):
        return label
    pos = {key: i for i, key in enumerate(keys)}
    for i, (key, items) in enumerate(blocks):
        j = None if key[0] == "cd" or key[0] <= period else pos.get((key[0] - period, period - key[0]))
        if j is None:
            continue
        base = blocks[j][1]
        if all(not e.c and not e.d for e, _ in base) and _shift(base, period) == items:
            label[i] = label[j]
    return label


def representative_pairs_reference(blocks, label):
    """involution._representative_pairs as it was before it visited only
    the first later block of each class: every block pair (i, i2), i <= i2,
    is scanned and keyed on a frozenset. Kept verbatim."""
    seen = set()
    for i, (_, xs) in enumerate(blocks):
        for i2, (_, ys) in enumerate(blocks[i:], i):
            cls = (frozenset((label[i], label[i2])), i == i2)
            if cls not in seen:
                seen.add(cls)
                for j, x in enumerate(xs):
                    for y in xs[j:] if i == i2 else ys:
                        yield x, y


def descriptor_fixes(phi, x, sign=1) -> bool:
    """Whether phi.apply(x) == sign * x."""
    return phi.apply(x) == (x if sign == 1 else -x)


def bracket_verdicts_reference(t, relations):
    """involution.bracket_verdicts before it decided on raw bracket
    numerators: each representative pair's bracket is built with
    hat_bracket and tested with contains and descriptor_fixes. The body is
    kept verbatim apart from those two names and the pair generator (the
    classes, found by _representative_pairs then, are now passed in)."""
    t = materialize(t)
    rf, phi = t.real_form, t.involution
    holds = relations and phi is not None
    period = _period(rf.twist, rf.conj, None if phi is None else phi.loop_map)
    for (x, sx), (y, sy) in representative_pairs_reference(t.blocks, classes_reference(t.blocks, period)):
        z = hat_bracket(x, y)
        if z.is_zero():
            continue
        if not rf.contains(z):
            return False, False
        if holds and not descriptor_fixes(phi, z, sx * sy):
            holds = False
    return True, holds


def verify_cartan_relations_reference(dec) -> bool:
    """verify_cartan_relations before the period-4 lemma: every unordered
    pair of K/P vectors is bracketed, on every block of the degree
    (`materialize`). The body is kept verbatim apart from that."""
    dec = materialize(dec)
    rf, phi = dec.real_form, dec.involution
    signed = [(x, 1) for x in dec.k_basis] + [(y, -1) for y in dec.p_basis]
    for i, (x, sx) in enumerate(signed):
        for y, sy in signed[i:]:
            z = hat_bracket(x, y)
            if z.is_zero():
                continue
            if not rf.contains(z):
                return False
            if phi.apply(z) != (z if sx == sy else -z):
                return False
    return True


def fixed_and_eigenspaces_reference(phi, truncation):
    """involution.fixed_and_eigenspaces as it was before it shifted the
    blocks beyond (4, -4): every block of the degree (`materialize`) is
    solved. The body is kept verbatim apart from the containers it reads
    and builds."""
    truncation = materialize(truncation)
    rf = truncation.real_form
    blocks = []
    for key, items in truncation.blocks:
        elems = [e for e, _ in items]
        if not elems:
            blocks.append((key, []))
            continue
        degrees = [0] if key == ("cd",) else sorted(set(key))
        images = []
        for e in elems:
            img = phi.apply(e)
            if not rf.contains(img):
                raise PreservationError(
                    f"{phi.name} does not preserve real form {rf.name} on block {key}"
                )
            images.append(img)
        left = PreservationError(f"image under {phi.name} left the {key} block of {rf.name}")
        window = set(degrees)
        if any(k not in window for img in images for k in img.loop.terms):
            raise left
        # one elimination on [block basis | images], real coordinates as rows
        columns = [real_coords(x, degrees) for x in elems + images]
        red, pivots = rref_reference(list(zip(*columns)))
        n = len(elems)
        if any(c >= n for c in pivots):
            raise left
        # matrix of phi on the block: column j holds the coordinates of image j
        m = [[0] * n for _ in range(n)]
        for r, c in enumerate(pivots):
            m[c] = red[r][n:]
        k_vecs = linalg.nullspace([[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)])
        p_vecs = linalg.nullspace([[m[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)])
        if len(k_vecs) + len(p_vecs) != n:
            raise InvolutionError(f"{phi.name} does not square to the identity on block {key}")
        k_basis = [combine_reference(elems, v) for v in k_vecs]
        p_basis = [combine_reference(elems, v) for v in p_vecs]
        blocks.append((key, [(e, 1) for e in k_basis] + [(e, -1) for e in p_basis]))
    return Truncation(rf, truncation.n_max, tuple(blocks), phi)


def dualize_reference(rf, phi):
    """involution.dualize as it was when it re-verified the dual form's
    closure, which was decided on a truncation then and is read off the
    maps now."""
    dual = dualize(rf, phi)
    if not dual.real_form.verify_closed():
        raise InvolutionError("dual form is not closed under the bracket")
    return dual


def duality_pairing_reference(catalog):
    """(matches, double_dual_ok) of osaka.duality_pairing as it was before it
    dualized each record once: every record's dual and double dual built,
    each re-verified closed. The loop is kept verbatim apart from the
    degree it passed to dualize_reference."""
    by_name = {r.name: r for r in catalog}
    matches = {}
    double_ok = True
    for rec in catalog:
        dual = dualize_reference(rec.real_form, rec.involution)
        partner = by_name[rec.dual_name]
        same = (
            dual.real_form.conj == partner.real_form.conj
            and dual.real_form.cd_scale == partner.real_form.cd_scale
            and dual.involution.loop_map == partner.involution.loop_map
        )
        matches[rec.name] = same
        ddual = dualize_reference(dual.real_form, partner.involution)
        if not (
            ddual.real_form.conj == rec.real_form.conj
            and ddual.real_form.cd_scale == rec.real_form.cd_scale
            and ddual.involution.loop_map == rec.involution.loop_map
        ):
            double_ok = False
    return matches, double_ok


# -- the closure and Cartan walk ----------------------------------------------------

def verify_closed_walk(rf, truncation) -> bool:
    """RealFormDescriptor.verify_closed as it was before closure was read
    off the maps: the closure half of the walk over one representative
    block pair per period class (bracket_verdicts_reference)."""
    if truncation.real_form is not rf:
        raise InvolutionError(f"truncation of {truncation.real_form.name}, not {rf.name}")
    return bracket_verdicts_reference(truncation, False)[0]


def verify_cartan_relations_walk(dec) -> bool:
    """involution.verify_cartan_relations as it was before the relations
    were read off the maps: [K,K] in K, [K,P] in P, [P,P] in K, exactly on
    a split truncation (bracket_verdicts_reference); false on a plain
    one."""
    return all(bracket_verdicts_reference(dec, True))


# -- involutive and expected K/P checks on every element ------------------------------

def graded(f) -> bool:
    """Whether each coefficient a_k of the loop f satisfies the twist
    grading sigma a_k = (-1)^k a_k (always, when f is untwisted), sigma
    applied densely."""
    if f.twist.order == 1:
        return True
    return all(dense_apply(f.twist.matrix, vec) == (vec if k % 2 == 0 else tuple(-x for x in vec))
               for k, vec in f.coeffs.items())


def involutive_reference(rf, phi, truncation):
    """(preserved, squares) of osaka_verify's involutive check as it was
    before it read only the blocks that are their own period class: phi is
    applied to every truncated basis element. An image preserves the form
    when it lies in the form and is twist-graded, which contains does not
    test and the Cartan split does (as the real span of its block)."""
    basis = truncation_elements(truncation)
    images = [phi.apply(e) for e in basis]
    preserved = all(rf.contains(img) and graded(img.loop) for img in images)
    squares = all(phi.apply(img) == e for e, img in zip(basis, images))
    return preserved, squares


def check_expected_kp_reference(record, dec):
    """osaka._check_expected_kp as it was before it skipped the blocks
    past the split's built period. The body is kept verbatim apart from
    reading each block's K and P through kp_blocks, every block of the
    degree, the expected map from the split's involution, as the record no
    longer holds one, and the expected dims through expected_block_dims."""
    exp, expected_map = record.expected_kp, dec.involution.loop_map
    for key, k_basis, p_basis in kp_blocks(dec):
        want_k, want_p = expected_block_dims(exp, key)
        if (len(k_basis), len(p_basis)) != (want_k, want_p):
            return False, (
                f"block {key}: dims {(len(k_basis), len(p_basis))}"
                f" != expected {(want_k, want_p)}"
            )
        if key == ("cd",):
            if want_k == 0 and any(e.c or e.d for e in k_basis):
                return False, "c/d directions appeared in K"
            continue
        for e in k_basis:
            if expected_map.apply_loop(e.loop) != e.loop:
                return False, f"K vector in block {key} violates the expected condition"
        for e in p_basis:
            if expected_map.apply_loop(e.loop) != -e.loop:
                return False, f"P vector in block {key} violates the expected condition"
    return True, "eigenspaces match the expected conditions and dimensions"


def expected_block_dims(dims, key):
    """The (K, P) dims a record's expected_kp dict gives block key: this is
    ExpectedKP.block_dims, kept verbatim apart from reading the dict, from
    before the K/P check read the dict itself."""
    if key == ("cd",):
        return dims["cd"]
    if key == (0,):
        return dims["zero"]
    k = key[0]
    return dims["even_pair" if k % 2 == 0 else "odd_pair"]


# -- the explicit blocks of a truncation --------------------------------------------

def _shift(items, period):
    """(element, sign) items with every exponent of each element's loop part
    moved period further from 0 (c and d dropped), signs kept. This is
    involution._shift, which built the blocks past a truncation's period
    before they were left unbuilt, kept verbatim."""
    return [(ExtendedElement(e.loop.from_vecs(e.loop.algebra, e.loop.twist, {
        k + (period if k > 0 else -period): v for k, v in e.loop.terms.items()})), s)
        for e, s in items]


def materialize(truncation):
    """The truncation with every block of its degree explicit: each block
    past its built_period is built as the `_shift` of the base block it
    repeats (`Truncation.layout`). The copy records no built_period, as one
    built by hand; a truncation with none is returned as it is."""
    if truncation.built_period is None:
        return truncation
    blocks = []
    for key, b in truncation.layout():
        base, items = truncation.blocks[b]
        blocks.append((key, items if key == base else _shift(items, key[0] - base[0])))
    return Truncation(truncation.real_form, truncation.n_max, tuple(blocks), truncation.involution)


def truncate_eager(rf, n_max):
    """RealFormDescriptor.truncate as it was before it left the blocks past
    its period unbuilt: block (k, -k), k > P, is built as block
    (k - P, P - k) `_shift`ed. The body is kept verbatim apart from the
    built_period it no longer records, as every block is explicit, and the
    twist the period now reads."""
    period, blocks = _period(rf.twist, rf.conj), {}
    for key in rf.block_keys(n_max):
        blocks[key] = ([(e, 0) for e in rf.block_basis(key)] if key[0] == "cd" or key[0] <= period
                       else _shift(blocks[(key[0] - period, period - key[0])], period))
    return Truncation(rf, n_max, tuple(blocks.items()))
