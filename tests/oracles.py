"""One independent reference per src subject: Scalar arithmetic where the
library runs on Gaussian-integer numerators, every pair, block or element
where it reads the maps or one block per period class, constants solved
from the basis matrices where it reads its own tables. The table names
each src function (under kmalg) whose value a report prints or that
decides an osaka_verify check, then each kernel beneath them, with its
one reference here and the test that compares them. A change that
replaces a src path replaces its row's reference and adds no second one.
Parsers, JSON writers and constant tables (identify_2x2, involution_counts,
the catalog) have no reference; the acceptance suite pins them.

    src function                                  reference
        the test that compares them
    cartan.classify                               leading_minors_oracle
        test_cartan::test_positive_pivots_match_bareiss_leading_minors
    cartan.realization_dims                       rank_reference
        test_cartan::test_realization_dims
    kmext.hat_bracket                             hat_bracket_reference
        test_loop_numerators::test_hat_bracket_matches_scalar_reference
    kmext.jacobi_residual                         jacobi_residual_reference
        test_raw_residual::test_residual_equals_the_nested_brackets
    rand.TrialRng                                 TrialRngReference
        test_integer_trials::test_draws_match_the_reference_on_every_span
    rand.random_extended_element                  random_loop_element_reference
        test_raw_residual::test_random_elements_match_the_reference_at_degrees_0_to_12
    serialize.render_element                      render_element_reference
        test_numerator_render::test_render_element_at_a_shift_equals_the_per_copy_renderer
    serialize.element_renderer                    cmd_decompose_reference
        test_numerator_render::test_decompose_equals_the_per_copy_renderer
    loop.killing_gram                             killing_gram_reference
        test_exponent_classes::test_killing_gram_matches_all_pairs
    involution.RealFormDescriptor.block_basis     block_basis_real_kernel
        test_integer_split::test_block_basis_matches_real_kernel_path
    involution.RealFormDescriptor.truncate        truncate_reference
        test_exponent_classes::test_truncate_blocks_equal_direct_block_bases
    involution.Truncation.layout                  truncate_reference
        test_degree_free::test_catalog_forms_match_the_materialized_path
    involution.Truncation.dims                    fixed_and_eigenspaces_reference
        test_period_classes::test_shifted_eigenspace_blocks_equal_the_solved_ones
    involution.fixed_and_eigenspaces              fixed_and_eigenspaces_reference
        test_period_classes::test_period_4_splits_match_every_block_and_all_pairs
    involution.RealFormDescriptor.verify_closed   verify_closed_reference
        test_period_classes::test_closure_matches_all_pairs_on_permutation_forms
    involution.verify_cartan_relations            verify_cartan_relations_reference
        test_map_verdicts::test_map_verdicts_match_all_pairs_wherever_tau_is_a_real_structure
    osaka.osaka_verify                            involutive_reference
        test_one_bracket_pass::test_bracket_verdicts_match_all_pairs_on_every_diagonal_form
    osaka._check_expected_kp                      check_expected_kp_reference
        test_one_bracket_pass::test_involutive_and_expected_kp_match_every_element_on_the_catalog
    osaka.duality_pairing                         duality_pairing_reference
        test_osaka::test_duality_pairing_agrees_with_two_dualizations_when_partners_differ

    findim.FiniteLieAlgebra                       construction_error_reference
        test_findim::test_integer_tables_match_the_solved_reference
    findim.FiniteLieAlgebra.bracket               bracket_reference
        test_findim::test_bracket_and_killing_match_reference
    findim.FiniteLieAlgebra.killing               killing_reference
        test_findim::test_bracket_and_killing_match_reference
    findim.FiniteLieAlgebra._solve                coords_reference
        test_findim::test_coords_match_the_per_matrix_reference
    findim.sparse_apply                           dense_apply
        test_sparse_maps::test_apply_vec_matches_dense
    findim.least_order                            order_reference
        test_findim::test_order_is_read_off_the_powers
    findim.CoeffMap.apply_loop                    apply_loop_reference
        test_loop_numerators::test_apply_loop_matches_scalar_reference
    findim.CoeffMap.fixes                         apply_loop_reference
        test_integer_walk::test_fixes_matches_apply_loop
    loop.loop_bracket                             loop_bracket_reference
        test_integer_walk::test_loop_bracket_matches_reference_on_mixed_denominators
    loop.loop_killing                             loop_killing_reference
        test_integer_split::test_loop_killing_matches_reference
    kmext.cocycle                                 cocycle_reference
        test_integer_trials::test_cocycle_matches_the_scalar_reference
    linalg.rref                                   rref_reference
        test_integer_split::test_rref_matches_reference
    involution._combine                           combine_reference
        test_integer_split::test_combine_matches_scalar_chain

Every other name here is a helper: Scalar matrices (matrix, mat_*), the
Scalar edge of the integer kernels, explicit blocks (materialize,
kp_blocks), copies (replace), parse_scalar, and the references' parts.
"""
from __future__ import annotations

import hashlib
import inspect
import itertools
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

from kmalg import cli, linalg
from kmalg.findim import LieAlgebraError, mat_add, mat_scale, mat_sub, sparse_apply
from kmalg.involution import InvolutionError, PreservationError, Truncation, dualize, fixed_and_eigenspaces
from kmalg.kmext import ExtendedElement, hat_bracket, real_coords
from kmalg.serialize import involution_from_json
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


# -- Scalar matrices -------------------------------------------------------------

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
    """The Scalar matrix sum of coords[j] e_j."""
    out = mat_zero(algebra.matrix_size)
    for c, b in zip(coords, algebra.basis):
        if c:
            out = mat_add(out, mat_scale(c, b))
    return out


def i_power(k: int) -> Scalar:
    """i**k."""
    return (ONE, I, Scalar(-1), Scalar(0, -1))[k % 4]


def replace(obj, **changes):
    """A copy of obj through its class's constructor, each parameter read off
    obj unless changes names it: a Truncation copy has built_period None."""
    cls = type(obj)
    kept = {name: getattr(obj, name) for name in inspect.signature(cls).parameters}
    return cls(**{**kept, **changes})


def _trace_of_product(x_mat, y_mat) -> Scalar:
    """tr(xy) = sum_{i,t} x_it y_ti, every product taken densely."""
    n = len(x_mat)
    return sum((x_mat[i][t] * y_mat[t][i] for i in range(n) for t in range(n)), ZERO)


def scalar_bracket(g, x, y):
    """g.bracket on Scalar coordinates: numerator vectors in and out."""
    return vec_to_scalars(g.bracket(vec_from_scalars(x), vec_from_scalars(y)))


def scalar_killing(g, x, y) -> Scalar:
    """g.killing on Scalar coordinates."""
    return g.killing(vec_from_scalars(x), vec_from_scalars(y))


# -- the finite bracket and Killing form solved from the basis matrices ---------

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
# A loop is a dict exponent -> tuple of Scalar, zero tuples dropped, and
# every operation is Scalar arithmetic on those tuples.

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
    """[x, y] on Scalar-tuple loops, x and y given as (terms, c, d): the
    loop bracket, plus x's d times y's derivative, minus y's d times x's,
    and the cocycle as c. Returns (terms, c, d)."""
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


# -- the loop Gram matrix -----------------------------------------------------------

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
    """Every pair i <= j in row-major order paired, then the signature of
    the whole matrix: (gram, verdict), or NonRealPairingError naming the
    first non-real pair."""
    n = len(basis)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = loop_killing(basis[i], basis[j])
            if not v.is_real():
                raise NonRealPairingError(f"pairing ({i},{j}) has value {v}")
            gram[i][j] = gram[j][i] = v.re
    if n == 0:
        return gram, Definiteness.NEG_DEFINITE
    pos, neg, zero = linalg.symmetric_signature(gram)
    if zero:
        return gram, Definiteness.DEGENERATE
    if pos == n:
        return gram, Definiteness.POS_DEFINITE
    if neg == n:
        return gram, Definiteness.NEG_DEFINITE
    return gram, Definiteness.INDEFINITE


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


def rank_reference(rows):
    """The largest k with a nonzero k x k minor (Bareiss), every minor
    tried."""
    n, m = len(rows), len(rows[0]) if rows else 0
    for k in range(min(n, m), 0, -1):
        if any(bareiss_determinant([[rows[i][j] for j in cols] for i in picked])
               for picked in itertools.combinations(range(n), k) for cols in itertools.combinations(range(m), k)):
            return k
    return 0


def fraction_backed(re, im=0) -> Scalar:
    """A Scalar whose parts are stored as Fraction even when integral, the
    way every Scalar was stored before parts became int-first. It is built
    around the constructor, which would store integral parts as int."""
    s = object.__new__(Scalar)
    Scalar.re.__set__(s, Fraction(re))
    Scalar.im.__set__(s, Fraction(im))
    return s


# -- coordinates and block bases by real blow-ups --------------------------------

def coords_reference(self, m):
    """The coordinates of the matrix m in the basis of the algebra `self`:
    one real blow-up written by hand and one solve per matrix, on the
    Scalar basis matrices."""
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
    """The basis of one block of the real form `self`: its twist and real
    structure equations as Scalar terms for real_rows, on the maps' Scalar
    matrices, solved by real_kernel."""
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
    """Reduced row echelon form with every pivot row divided and every
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
    """sum_j coeffs[j] elements[j] as a chain of Scalar scalings and sums,
    coeffs a nullspace vector (so not zero)."""
    parts = [e.scale(Scalar(c)) for c, e in zip(coeffs, elements) if c]
    return sum(parts[1:], parts[0])


# -- the per-copy Scalar renderer ---------------------------------------------------
#
# Every element of every block, a shifted copy included, rendered through
# a fresh Scalar matrix (`matrix`).

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
    """The decompose report with render_element_reference of every element
    of every block, at the shift of its block."""
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


def kp_blocks(dec):
    """(key, K elements, P elements) per block of a split truncation, every
    block of its degree (`materialize`)."""
    return [(key, [e for e, s in items if s == 1], [e for e, s in items if s == -1])
            for key, items in materialize(dec).blocks]


def nonzero_loops(elems):
    """The nonzero loop parts of elems, as decompose hands them to killing_gram."""
    return [e.loop for e in elems if not e.loop.is_zero()]


# -- the random stream and elements through Scalar coefficients --------------------

def _fraction_reference(rng, max_num=3, max_den=2) -> Fraction:
    num = rng.randint(-max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def scalar_reference(rng, max_num=3, max_den=2, real_only=False) -> Scalar:
    """A coefficient as two Fractions from rng's integer draws."""
    re = _fraction_reference(rng, max_num, max_den)
    im = Fraction(0) if real_only else _fraction_reference(rng, max_num, max_den)
    return Scalar(re, im)


def random_loop_element_reference(algebra, twist, rng, max_degree=6, max_terms=4):
    """A random loop element, each coefficient a Scalar from
    scalar_reference, converted to numerators."""
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
    """The SHA-256 counter stream of rand.TrialRng, every draw re-slicing
    the remaining bytes of the buffer."""

    def __init__(self, seed, index=0):
        self._key = f"{seed}:{index}".encode()
        self._counter = 0
        self._buf = b""

    def u32(self) -> int:
        while len(self._buf) < 4:
            self._buf += hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
        out, self._buf = self._buf[:4], self._buf[4:]
        return int.from_bytes(out, "big")

    def randint(self, a, b) -> int:
        """Uniform-ish integer in [a, b]; bias is irrelevant for fuzzing."""
        span = b - a + 1
        return a + self.u32() % span

    def scalar(self, real_only=False) -> Scalar:
        """a/p + i b/q: a, b in [-3, 3] and p, q in [1, 2]; real_only draws
        a and p only."""
        a, p = self.randint(-3, 3), self.randint(1, 2)
        b, q = (0, 1) if real_only else (self.randint(-3, 3), self.randint(1, 2))
        return Scalar(Fraction(a, p), Fraction(b, q))


def gaussian(rng):
    """A coefficient as a numerator form ((a q, b p), p q), from the four
    draws a, p, b, q of scalar(), building no Fraction or Scalar."""
    a, p = rng.randint(-3, 3), rng.randint(1, 2)
    b, q = rng.randint(-3, 3), rng.randint(1, 2)
    return (a * q, b * p), p * q


def jacobi_residual_reference(x, y, z):
    """Three nested hat_brackets, each reduced, summed as elements."""
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
    bracket [d d, f] = d f' (c and d of f zero): the library's one
    derivative formula."""
    return hat_bracket(ExtendedElement(zero_loop(f.algebra, f.twist), d=d), ExtendedElement(f)).loop


# -- every pair, every element, every block: the verdicts and the split -------------

def truncation_elements(truncation):
    """Every element of a truncation, block by block, every block of its
    degree (`materialize`)."""
    return [e for _, items in materialize(truncation).blocks for e, _ in items]


def verify_closed_reference(rf, truncation) -> bool:
    """Whether every unordered pair of truncated basis elements brackets
    into the form."""
    flat = truncation_elements(truncation)
    return all(rf.contains(hat_bracket(x, y)) for i, x in enumerate(flat) for y in flat[i:])


def verify_cartan_relations_reference(dec) -> bool:
    """[K,K] in K, [K,P] in P, [P,P] in K: every unordered pair of K/P
    vectors bracketed, on every block of the degree (`materialize`)."""
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
    """The Cartan split with every block of the degree (`materialize`)
    solved: one rref_reference of [block basis | images] per block, the K
    and P vectors kernel vectors of phi minus or plus 1, combined as
    Scalars."""
    truncation = materialize(truncation)
    rf = truncation.real_form
    blocks = []
    for key, items in truncation.blocks:
        elems = [e for e, _ in items]
        if not elems:
            blocks.append((key, []))
            continue
        degrees = [0] if key == ("cd",) else sorted(set(key))
        images = [phi.apply(e) for e in elems]
        if not all(rf.contains(img) for img in images):
            raise PreservationError(f"{phi.name} does not preserve real form {rf.name} on block {key}")
        left = PreservationError(f"image under {phi.name} left the {key} block of {rf.name}")
        if any(k not in degrees for img in images for k in img.loop.terms):
            raise left
        # one elimination on [block basis | images], real coordinates as rows
        red, pivots = rref_reference(list(zip(*(real_coords(x, degrees) for x in elems + images))))
        n = len(elems)
        if any(c >= n for c in pivots):
            raise left
        # matrix of phi on the block: column j holds the coordinates of image j
        m = [[0] * n for _ in range(n)]
        for r, c in enumerate(pivots):
            m[c] = red[r][n:]
        vecs = {sign: linalg.nullspace([[m[i][j] - (sign if i == j else 0) for j in range(n)] for i in range(n)])
                for sign in (1, -1)}
        if len(vecs[1]) + len(vecs[-1]) != n:
            raise InvolutionError(f"{phi.name} does not square to the identity on block {key}")
        blocks.append((key, [(combine_reference(elems, v), sign) for sign in (1, -1) for v in vecs[sign]]))
    return Truncation(rf, truncation.n_max, tuple(blocks), phi)


def dualize_reference(rf, phi):
    """dualize, then the dual form's closure re-verified."""
    dual = dualize(rf, phi)
    if not dual.real_form.verify_closed():
        raise InvolutionError("dual form is not closed under the bracket")
    return dual


def duality_pairing_reference(catalog):
    """(matches, double_dual_ok): every record's dual and double dual
    built, each re-verified closed, and compared map by map."""
    def same(dual, rec):
        return ((dual.real_form.conj, dual.real_form.cd_scale, dual.involution.loop_map)
                == (rec.real_form.conj, rec.real_form.cd_scale, rec.involution.loop_map))

    by_name = {r.name: r for r in catalog}
    matches, double_ok = {}, True
    for rec in catalog:
        dual, partner = dualize_reference(rec.real_form, rec.involution), by_name[rec.dual_name]
        matches[rec.name] = same(dual, partner)
        double_ok = double_ok and same(dualize_reference(dual.real_form, partner.involution), rec)
    return matches, double_ok


def graded(f) -> bool:
    """Whether each coefficient a_k of the loop f satisfies the twist
    grading sigma a_k = (-1)^k a_k (always, when f is untwisted), sigma
    applied densely."""
    if f.twist.order == 1:
        return True
    return all(dense_apply(f.twist.matrix, vec) == (vec if k % 2 == 0 else tuple(-x for x in vec))
               for k, vec in f.coeffs.items())


def involutive_reference(rf, phi, truncation):
    """(preserved, squares) of osaka_verify's involutive check: phi applied
    to every truncated basis element. An image preserves the form when it
    lies in the form and is twist-graded, which contains does not test and
    the Cartan split does (as the real span of its block)."""
    basis = truncation_elements(truncation)
    images = [phi.apply(e) for e in basis]
    preserved = all(rf.contains(img) and graded(img.loop) for img in images)
    squares = all(phi.apply(img) == e for e, img in zip(basis, images))
    return preserved, squares


def check_expected_kp_reference(record, dec):
    """(passed, detail) of the K/P check on every block of the degree
    (kp_blocks): each block's dims against the record's, and each K (P)
    vector fixed (negated) by the split's involution map, applied."""
    exp, expected_map = record.expected_kp, dec.involution.loop_map
    for key, k_basis, p_basis in kp_blocks(dec):
        want_k, want_p = exp["cd" if key == ("cd",) else "zero" if key == (0,) else
                             "even_pair" if key[0] % 2 == 0 else "odd_pair"]
        if (len(k_basis), len(p_basis)) != (want_k, want_p):
            return False, f"block {key}: dims {(len(k_basis), len(p_basis))} != expected {(want_k, want_p)}"
        for side, vectors, sign in (("K", k_basis, 1), ("P", p_basis, -1)):
            if key != ("cd",) and any(expected_map.apply_loop(e.loop) != (e.loop if sign == 1 else -e.loop)
                                      for e in vectors):
                return False, f"{side} vector in block {key} violates the expected condition"
    return True, "eigenspaces match the expected conditions and dimensions"


def _shift(items, period):
    """(element, sign) items with every exponent of each element's loop part
    moved period further from 0 (c and d dropped), signs kept."""
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


def truncate_reference(rf, n_max):
    """The degree-n_max truncation of rf with every block solved."""
    return Truncation(rf, n_max, tuple((key, [(e, 0) for e in rf.block_basis(key)])
                                       for key in rf.block_keys(n_max)))
