"""Exact matrix realizations of finite-dimensional reductive Lie algebras.

An algebra is a basis of square matrices over Gaussian rationals together
with its structure constants (solved and verified at construction), an
ideal split into abelian and simple blocks, the Killing form via adjoint
traces, and finite-order automorphisms checked against the bracket.

Every map of the package is one `CoeffMap`, a_k -> i^{pk} M conj^d(a_{sk}):
twists, invariants and sigma, and the real structures and involutions of
`involution`. A `FiniteAutomorphism` is one with s = 1 and p = 0 that
also holds its algebra and its order. A map holds M once, as sparse
Gaussian-integer rows over one denominator in lowest terms (`sparse_rows`,
the one reader of Scalar or int rows); it composes, compares and hashes on
those ints, and its `matrix` is a Scalar view built on demand.

The basis (`_cells`), the structure constants, solved from commutators
summed on its numerators, and the Killing matrix are held on ints, each
over one denominator. The bracket and the Killing form take numerator
vectors (see `scalars`) and reduce a result once; automorphisms act on them the same way.
Every bracket of elements, finite or loop, is one walk of a table of the constants
(`convolve`) on lanes, there alone; `check_bracket` brackets basis images on _sc's
Gaussian-integer numerators directly. On lanes a + bi is one int a + (b << W) (i -> 2^W maps Z[i] onto
Z/N, N = 2^(2W) + 1). A caller packs on entry at a W one bit past a bound on all
it tests or decodes, and decodes on exit (`lane_nums`: v the balanced residue
mod N, a that of v mod 2^W, b = (v - a) >> W)."""
from __future__ import annotations

from collections import defaultdict
from math import lcm

from . import linalg
from .scalars import ZERO, Scalar, exact_div, vec_canon, vec_from_parts, vec_from_scalars, vec_neg, vec_to_scalars
from .value import Value

Matrix = tuple  # tuple of row tuples of Scalar


class LieAlgebraError(ValueError):
    pass


class NotAutomorphismError(LieAlgebraError):
    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"bracket of basis pair ({i},{j}) is not preserved")


class WrongOrderError(LieAlgebraError):
    pass


# -- small exact matrix helpers: the Scalar edge where bases are written -------

def mat_add(a, b) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


# -- sparse exact linear maps ----------------------------------------------

def sparse_rows(rows):
    """M as (rows, D) from rows of Scalars or rationals, all of one length
    (M may be rectangular): per row the (j, re, im) integer numerators of
    its nonzero entries, ascending in j, over one denominator D, in lowest
    terms."""
    if len({len(row) for row in rows}) > 1:
        raise LieAlgebraError("matrix rows are of unequal length")
    flat = [x if isinstance(x, Scalar) else Scalar(x) for row in rows for x in row]
    return _sparse_from_vec(vec_from_scalars(flat), len(rows))


def _sparse_from_vec(vec, n):
    """The sparse rows of the n-row matrix given row-major by vec, as
    `sparse_rows` gives them when vec is in lowest terms."""
    (nums, den), w = vec, len(vec[0]) // (2 * n) if n else 0
    return tuple(tuple((j, a, b) for j, a, b in zip(range(w), nums[i * w:], nums[n * w + i * w:]) if a or b)
                 for i in range(n)), den


def sparse_apply(sparse, vec, conjugate=False, power=0):
    """The numerator vector of i^power * M conj^conjugate(vec), from the
    sparse rows of M: its products summed as ints and reduced once."""
    rows, dm = sparse
    nums, den = vec
    n = len(nums) // 2
    re_in, im_in = nums[:n], (nums[n:] if not conjugate else [-b for b in nums[n:]])
    for _ in range(power % 4):  # i^power M conj(v) = M (i^power conj(v))
        re_in, im_in = [-b for b in im_in], re_in
    re_out, im_out = [], []
    for row in rows:
        re = im = 0
        for j, s, t in row:
            a, b = re_in[j], im_in[j]
            re += s * a - t * b
            im += s * b + t * a
        re_out.append(re)
        im_out.append(im)
    return vec_canon(re_out + im_out, den * dm)


def numerator_sum(terms, den):
    """S, the sum of the |numerators| of terms {k: (numerators, d)} over
    den, a multiple of every d."""
    return sum(sum(map(abs, nums)) * (den // d) for nums, d in terms.values())


def to_lanes(terms, den, w):
    """The (exponent, lanes of width w) pairs of terms {k: (numerators
    [re | im], d)} over den, a multiple of every d."""
    out = []
    for k, (nums, d) in terms.items():
        f = den // d
        out.append((k, [(a + (b << w)) * f for a, b in zip(nums, nums[len(nums) // 2:])]))
    return out


def lane_nums(lanes, w):
    """The numerators [re | im] of lanes of width w (module docstring)."""
    big, top, half = (1 << 2 * w) + 1, 1 << (2 * w - 1), 1 << (w - 1)
    re, im = [], []
    for v in lanes:
        v = (v + top) % big - top
        b = (v + half) >> w  # a = v - (b << w) is v's balanced residue mod 2^w
        re.append(v - (b << w))
        im.append(b)
    return re + im


def convolve(tables, fs, gs, out):
    """The bracket kernel: for (exponent, lanes) pairs fs over D_x and gs
    over D_y, add x_j y_k c over D_x D_y D_s at r of out[p + q] (made where
    missing) for each entry (j, k, r, c) of tables[p % m][q % m]; return out."""
    m = len(tables)
    for p, x in fs:
        row = tables[p % m]
        for q, y in gs:
            table = row[q % m]
            if table:
                acc = out.get(p + q)
                if acc is None:
                    acc = out[p + q] = [0] * len(x)
                for j, k, r, c in table:
                    acc[r] += x[j] * y[k] * c
    return out


class IdealBlock(Value):
    __slots__ = ("kind", "indices")

    def __init__(self, kind: str, indices: tuple):
        self.kind = kind  # "abelian" | "simple"
        self.indices = indices


class FiniteLieAlgebra:
    """Reductive Lie algebra given by an exact matrix basis.

    field is "R" or "C". For a real algebra the matrices may have complex
    entries (e.g. su(n)); reality means the structure constants are real and
    elements are real linear combinations of the basis.
    """

    def __init__(self, name, field, basis, blocks, *, _structure=None):
        """_structure, when given, is the (_sc, _sc_den) `_compute_structure`
        would solve for (`direct_sum` shifts its summands'); its reality and
        block orthogonality are checked as a solved one's are, and the
        basis's independence is the caller's to guarantee."""
        if field not in ("R", "C"):
            raise LieAlgebraError(f"field must be 'R' or 'C', got {field!r}")
        self.name = name
        self.field = field
        self.basis = tuple(basis)
        self.blocks = tuple(blocks)
        self.dim = len(self.basis)
        self.matrix_size = len(self.basis[0]) if self.basis else 1
        self._complexified = None
        covered = sorted(i for b in self.blocks for i in b.indices)
        if covered != list(range(self.dim)):
            raise LieAlgebraError("ideal blocks must partition the basis indices")
        s = self.matrix_size
        # the basis held once, on ints: row i lists entry i (row-major) of every e_j
        self._cells = sparse_rows([[b[i // s][i % s] for b in self.basis] for i in range(s * s)])
        # the nonzero structure constants c_jk^m as (j, k, m, re, im) over _sc_den
        self._sc, self._sc_den = self._compute_structure() if _structure is None else _structure
        self._tables = (None, 0, {})  # (_sc, constant_norm, {(twist.sparse, scale, W): tables})
        self._check_field_reality()
        self._check_block_orthogonality()
        self._killing_rows, self._killing_den = self._killing_table()

    # -- construction-time verification ---------------------------------

    def _compute_structure(self):
        """(_sc, _sc_den) from the coordinates of each [e_j, e_k], in
        row-major order over the lcm of their denominators. The commutators
        with j < k are summed on the numerators of _cells, over D^2 (D its
        denominator), and one `_solve` of them gives them all, and so checks
        the basis's independence: [e_k, e_j] is the negated [e_j, e_k], and
        [e_j, e_j] = 0."""
        n, s, cells = self.dim, self.matrix_size, self._cells[0]
        rows = [[[] for _ in range(s)] for _ in range(n)]  # rows[j][r]: (c, re, im) of row r of e_j
        for i, cell in enumerate(cells):
            for j, a, b in cell:
                rows[j][i // s].append((i % s, a, b))
        pairs, commutators = [(j, k) for j in range(n) for k in range(j + 1, n)], []
        for j, k in pairs:
            acc = [0] * (2 * s * s)
            for x, y, sign in ((j, k, 1), (k, j, -1)):
                for r, row in enumerate(rows[x]):
                    for c, a, b in row:
                        for t, p, q in rows[y][c]:
                            acc[r * s + t] += sign * (a * p - b * q)
                            acc[s * s + r * s + t] += sign * (a * q + b * p)
            commutators.append(acc)
        sols = dict(zip(pairs, self._solve(commutators, self._cells[1] ** 2)))
        sols.update({(k, j): vec_neg(v) for (j, k), v in sols.items()})
        den = lcm(*(d for _, d in sols.values()))
        return tuple((j, k, m, re * (den // d), im * (den // d)) for (j, k), (nums, d) in sorted(sols.items())
                     for m, re, im in zip(range(n), nums, nums[n:]) if re or im), den

    def _check_field_reality(self):
        if self.field == "R" and any(t for *_, t in self._sc):
            raise LieAlgebraError(f"{self.name}: non-real structure constant on a real algebra")

    def _check_block_orthogonality(self):
        block = {i: a for a, b in enumerate(self.blocks) for i in b.indices}
        crossing = [(block[j], block[k]) for j, k, *_ in self._sc if block[j] < block[k]]
        if crossing:
            a, b = min(crossing)
            raise LieAlgebraError(f"{self.name}: blocks {a} and {b} are not bracket-orthogonal")

    def _killing_table(self):
        """tr(ad e_j ad e_l) = sum over k, m of c_jk^m c_lm^k, summed on the
        numerators of _sc, as sparse rows over one denominator."""
        n, sc = self.dim, {(j, k, m): (a, b) for j, k, m, a, b in self._sc}
        re, im = [0] * (n * n), [0] * (n * n)
        for (j, k, m), (a, b) in sc.items():
            for l in range(n):
                s, t = sc.get((l, m, k), (0, 0))
                re[j * n + l] += a * s - b * t
                im[j * n + l] += a * t + b * s
        return _sparse_from_vec(vec_canon(re + im, self._sc_den ** 2), n)

    # -- coordinates -----------------------------------------------------

    def _solve(self, targets, den):
        """The coordinates of each target, the [re | im] integer numerators
        of a matrix's entries (row-major) over den, as numerator vectors, from
        one `linalg.rref`: the real blow-up of _cells (two rows per matrix
        entry, its real and imaginary part, and columns re c_j, then im c_j)
        with one column per target beside it. Every re c_j column is a pivot
        exactly when the basis is independent over R, and a pivot past the
        basis columns marks a target outside the span; either raises. Free
        variables are 0, as in `linalg.solve`. The reduction of the basis
        columns does not depend on the targets beside them, so each target
        gets the solution a solve of it alone would give, times den / D on
        numerators over den and D (_cells'), which the result undoes."""
        n, (cells, d) = self.dim, self._cells
        if any(len(t) != 2 * len(cells) for t in targets):
            raise LieAlgebraError(f"matrix is not {self.matrix_size} x {self.matrix_size}")
        rows = []
        for i, cell in enumerate(cells):
            re, im = [0] * n, [0] * n
            for j, a, b in cell:
                re[j], im[j] = a, b
            rows.append(re + [-b for b in im] + [t[i] for t in targets])
            rows.append(im + re + [t[len(cells) + i] for t in targets])
        red, pivots = linalg.rref(rows)
        if pivots[:n] != list(range(n)):
            raise LieAlgebraError("basis matrices are linearly dependent")
        if pivots and pivots[-1] >= 2 * n:
            raise LieAlgebraError("matrix is not in the span of the basis")
        sols = [[0] * (2 * n) for _ in targets]
        for r, c in enumerate(pivots):
            for sol, x in zip(sols, red[r][2 * n:]):
                sol[c] = x
        return [vec_canon([x * d for x in nums], e * den) for nums, e in map(vec_from_parts, sols)]

    def zero_coords(self):
        return (ZERO,) * self.dim

    # -- bracket and Killing form ----------------------------------------

    def constant_norm(self, scale=1):
        """C, kept with the tables: each part of scale [x, y] over D_x D_y D_s,
        and their |sum|, is at most C S_x S_y, S the sum of |numerators|."""
        if self._tables[0] is not self._sc:
            sums = {}
            for j, k, _, s, t in self._sc:
                sums[j, k] = sums.get((j, k), 0) + abs(s) + abs(t)
            self._tables = (self._sc, max(sums.values(), default=0), {})
        return self._tables[1] * scale

    def bracket_tables(self, w, twist=None, scale=1):
        """tables[a][b], a, b < m the twist's order (one whole table with no
        twist): the c_jk^r that `convolve` walks for exponents p = a, q = b
        mod m, as (j, k, r, the lane of scale c_jk^r at width w), j and k in
        the coordinate supports of the (-1)^a and (-1)^b eigenspaces: the
        nonzero rows of their projectors D I +- M (M over D). Built on first
        use and keyed on the _sc object itself."""
        self.constant_norm()
        held, key = self._tables[2], (None if twist is None else twist.sparse, scale, w)
        if key not in held:
            supports = [range(self.dim)]
            if twist is not None:
                cells, den = twist.sparse
                supports = [{j for j, row in enumerate(cells) if row != ((j, -sign * den, 0),)}
                            for sign in (1, -1)[:twist.order]]
            held[key] = tuple(tuple(
                tuple((j, k, r, scale * (s + (t << w))) for j, k, r, s, t in self._sc
                      if j in left and k in right) for right in supports) for left in supports)
        return held[key]

    def bracket(self, x, y):
        """[x, y] of numerator vectors x and y: `convolve` on their lanes, W
        one bit past C S_x S_y (`constant_norm`), and the whole table at one
        exponent, and one decode and reduction."""
        (xn, dx), (yn, dy) = x, y
        w = (self.constant_norm() * sum(map(abs, xn)) * sum(map(abs, yn))).bit_length() + 1
        acc = [0] * self.dim
        convolve(self.bracket_tables(w), to_lanes({0: x}, dx, w), to_lanes({0: y}, dy, w), {0: acc})
        return vec_canon(lane_nums(acc, w), dx * dy * self._sc_den)

    def killing(self, x, y) -> Scalar:
        """Trace of ad(x) ad(y) for numerator vectors x and y: one Scalar of
        `killing_raw` on their numerators."""
        (xn, dx), (yn, dy) = x, y
        n = self.dim
        if len(xn) != 2 * n or len(yn) != 2 * n:
            raise LieAlgebraError("coordinate vector has the wrong dimension")
        re, im = self.killing_raw(xn, yn)
        den = dx * dy * self._killing_den
        return Scalar(exact_div(re, den), exact_div(im, den))

    def killing_raw(self, xn, yn):
        """The Killing form unreduced: for numerator lists xn over D_x and
        yn over D_y, the int pair (re, im) of B(x, y) over D_x D_y D_K
        (D_K = _killing_den), summed over the nonzero entries of the basis
        Gram matrix."""
        n = self.dim
        re = im = 0
        for j, a, b in zip(range(n), xn, xn[n:]):
            if not (a or b):
                continue
            for l, c, d in self._killing_rows[j]:
                e, f = yn[l], yn[n + l]
                if e or f:
                    p, q = a * e - b * f, a * f + b * e
                    re += p * c - q * d
                    im += p * d + q * c
        return re, im

    def abelian_indices(self):
        return tuple(i for b in self.blocks if b.kind == "abelian" for i in b.indices)

    def simple_blocks(self):
        return tuple(b for b in self.blocks if b.kind == "simple")

    def complexify(self) -> "FiniteLieAlgebra":
        """Same basis viewed over C. Cached so twists can share identity.
        `_solve` already solves over C, so the structure constants, and all
        derived from them, are this algebra's: the twin copies them."""
        if self.field == "C":
            return self
        if self._complexified is None:
            twin = object.__new__(type(self))
            twin.__dict__.update(vars(self), name=self.name + "_C", field="C")
            self._complexified = twin
        return self._complexified

    def __repr__(self):
        return f"FiniteLieAlgebra({self.name!r}, dim={self.dim}, field={self.field})"


# -- constructors -------------------------------------------------------

def _unit(n, i, j, value=1) -> Matrix:
    rows = [[ZERO] * n for _ in range(n)]
    rows[i][j] = value if isinstance(value, Scalar) else Scalar(value)
    return tuple(tuple(r) for r in rows)


_SL_CACHE = {}
_SU_CACHE = {}
_SO_CACHE = {}
_AB_CACHE = {}


def make_sl(n: int, field="C") -> FiniteLieAlgebra:
    """sl(n): traceless matrices; basis E_ij (i != j) and H_i = E_ii - E_i+1,i+1."""
    if n < 2:
        raise LieAlgebraError("make_sl needs n >= 2")
    key = (n, field)
    if key not in _SL_CACHE:
        basis = []
        for i in range(n - 1):
            basis.append(mat_sub(_unit(n, i, i), _unit(n, i + 1, i + 1)))
        for i in range(n):
            for j in range(n):
                if i != j:
                    basis.append(_unit(n, i, j))
        name = f"sl({n},{field})"
        _SL_CACHE[key] = FiniteLieAlgebra(
            name, field, basis, [IdealBlock("simple", tuple(range(n * n - 1)))]
        )
    return _SL_CACHE[key]


def make_su(n: int) -> FiniteLieAlgebra:
    """su(n): anti-Hermitian traceless matrices, real algebra, entries in {1, i}."""
    if n < 2:
        raise LieAlgebraError("make_su needs n >= 2")
    if n not in _SU_CACHE:
        i_ = Scalar(0, 1)
        basis = []
        for k in range(n - 1):
            basis.append(mat_sub(_unit(n, k, k, i_), _unit(n, k + 1, k + 1, i_)))
        for p in range(n):
            for q in range(p + 1, n):
                basis.append(mat_sub(_unit(n, p, q), _unit(n, q, p)))
                basis.append(mat_add(_unit(n, p, q, i_), _unit(n, q, p, i_)))
        _SU_CACHE[n] = FiniteLieAlgebra(
            f"su({n})", "R", basis, [IdealBlock("simple", tuple(range(n * n - 1)))]
        )
    return _SU_CACHE[n]


def make_so(n: int, field="R") -> FiniteLieAlgebra:
    """so(n): antisymmetric matrices. For n = 4 the basis is adapted to the
    split into two commuting 3-dimensional simple ideals."""
    if n < 3:
        raise LieAlgebraError("make_so needs n >= 3")
    key = (n, field)
    if key not in _SO_CACHE:
        pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
        ls = {pq: mat_sub(_unit(n, pq[0], pq[1]), _unit(n, pq[1], pq[0])) for pq in pairs}
        if n == 4:
            plus = [
                mat_add(ls[(1, 2)], ls[(0, 3)]),
                mat_add(mat_scale(Scalar(-1), ls[(0, 2)]), ls[(1, 3)]),
                mat_add(ls[(0, 1)], ls[(2, 3)]),
            ]
            minus = [
                mat_sub(ls[(1, 2)], ls[(0, 3)]),
                mat_sub(mat_scale(Scalar(-1), ls[(0, 2)]), ls[(1, 3)]),
                mat_sub(ls[(0, 1)], ls[(2, 3)]),
            ]
            basis = plus + minus
            blocks = [IdealBlock("simple", (0, 1, 2)), IdealBlock("simple", (3, 4, 5))]
        else:
            basis = [ls[pq] for pq in pairs]
            blocks = [IdealBlock("simple", tuple(range(len(basis))))]
        _SO_CACHE[key] = FiniteLieAlgebra(f"so({n},{field})", field, basis, blocks)
    return _SO_CACHE[key]


def make_abelian(k: int, field="R") -> FiniteLieAlgebra:
    """k-dimensional abelian algebra realized by diagonal matrix units."""
    if k < 0:
        raise LieAlgebraError("make_abelian needs k >= 0")
    key = (k, field)
    if key not in _AB_CACHE:
        size = max(k, 1)
        basis = [_unit(size, i, i) for i in range(k)]
        blocks = [IdealBlock("abelian", tuple(range(k)))] if k else []
        _AB_CACHE[key] = FiniteLieAlgebra(f"abelian({k},{field})", field, basis, blocks)
    return _AB_CACHE[key]


def direct_sum(*algebras, name=None) -> FiniteLieAlgebra:
    """Block-diagonal direct sum; blocks and structure constants
    concatenate with shifted indices, the constants over the lcm of the
    summands' denominators, and none cross summands. They are passed in,
    not solved for: a block-diagonal sum of independent bases is
    independent, so there is nothing the solve could refuse."""
    if not algebras:
        raise LieAlgebraError("direct_sum of nothing")
    field = algebras[0].field
    if any(g.field != field for g in algebras):
        raise LieAlgebraError("direct_sum requires a common field")
    total = sum(g.matrix_size for g in algebras)
    den = lcm(*(g._sc_den for g in algebras))
    basis, blocks, sc, zero = [], [], [], (ZERO,) * total
    offset_mat = offset_idx = 0
    for g in algebras:
        left, right = (ZERO,) * offset_mat, (ZERO,) * (total - offset_mat - g.matrix_size)
        basis.extend((zero,) * len(left) + tuple(left + row + right for row in b) + (zero,) * len(right)
                     for b in g.basis)
        for blk in g.blocks:
            blocks.append(IdealBlock(blk.kind, tuple(offset_idx + i for i in blk.indices)))
        f, o = den // g._sc_den, offset_idx
        sc.extend((o + j, o + k, o + m, s * f, t * f) for j, k, m, s, t in g._sc)
        offset_mat += g.matrix_size
        offset_idx += g.dim
    if name is None:
        name = "+".join(g.name for g in algebras)
    return FiniteLieAlgebra(name, field, basis, blocks, _structure=(tuple(sc), den))


# -- coefficient maps and automorphisms ---------------------------------------

class InvolutionError(ValueError):
    pass


class CoeffMap:
    """(Phi a)_k = i^{parity*k} * M . conj^conjugate(a_{index_sign*k}),
    every map of the package (module docstring). M is held once, as
    `sparse`: the (rows, D) that `sparse_rows` gives, so equal matrices
    have equal tuples; `matrix` is a Scalar view of it."""

    __slots__ = ("sparse", "index_sign", "conjugate", "parity")

    def __init__(self, sparse, index_sign=1, conjugate=False, parity=0):
        self.sparse = sparse
        if index_sign not in (1, -1):
            raise InvolutionError("index_sign must be +-1")
        self.index_sign = index_sign
        self.conjugate = bool(conjugate)
        self.parity = parity % 4

    @classmethod
    def identity(cls, dim):
        return cls((tuple(((i, 1, 0),) for i in range(dim)), 1))

    @property
    def matrix(self) -> Matrix:
        rows, den = self.sparse
        cells = [{j: Scalar(exact_div(a, den), exact_div(b, den)) for j, a, b in row} for row in rows]
        return tuple(tuple(c.get(j, ZERO) for j in range(len(rows))) for c in cells)

    def apply_loop(self, f):
        """The image of f. It may break the grading; no image reaches a bracket:
        `fixed_and_eigenspaces` reads images through `contains` and `real_coords`."""
        # source degree j contributes to target degree s*j
        s, p = self.index_sign, self.parity
        return f.from_vecs(f.algebra, f.twist, {
            s * j: sparse_apply(self.sparse, vec, self.conjugate, p * s * j) for j, vec in f.terms.items()})

    def fixes(self, f, sign=1) -> bool:
        """Whether apply_loop(f) == sign * f, with no image built: the image
        at each exponent k of f comes from the term at s*k (False when there
        is none) and must equal the term at k, negated when sign is -1. Terms
        are in lowest terms, so tuple equality is value equality."""
        s, p, terms = self.index_sign, self.parity, f.terms
        for k, vec in terms.items():
            source, want = terms.get(s * k), vec if sign == 1 else vec_neg(vec)
            if source is None or sparse_apply(self.sparse, source, self.conjugate, p * k) != want:
                return False
        return True

    def compose(self, other) -> "CoeffMap":
        """self after other, as one coefficient map: M_1 conj^d_1(M_2) on
        the sparse rows' ints, over D_1 D_2, in `sparse_rows` form. Maps of
        different sizes raise InvolutionError."""
        s1, d1 = self.index_sign, self.conjugate
        (rows1, den1), (rows2, den2), flip = self.sparse, other.sparse, -1 if d1 else 1
        n = len(rows1)
        if len(rows2) != n:
            raise InvolutionError(f"cannot compose a {n} x {n} map after a {len(rows2)} x {len(rows2)} one")
        acc = [0] * (2 * n * n)
        for i, row in enumerate(rows1):
            for j, a, b in row:
                for k, c, d in rows2[j]:
                    acc[i * n + k] += a * c - flip * b * d
                    acc[n * n + i * n + k] += flip * a * d + b * c
        sparse = _sparse_from_vec(vec_canon(acc, den1 * den2), n)
        parity = (self.parity + other.parity * s1 * flip) % 4
        return CoeffMap(sparse, s1 * other.index_sign, d1 != other.conjugate, parity)

    def __eq__(self, other):
        if not isinstance(other, CoeffMap):
            return NotImplemented
        return self is other or (
            self.sparse == other.sparse
            and self.index_sign == other.index_sign
            and self.conjugate == other.conjugate
            and self.parity == other.parity
        )

    def __hash__(self):
        return hash((self.sparse, self.index_sign, self.conjugate, self.parity))

    def is_identity(self):
        return self == CoeffMap.identity(len(self.sparse[0]))

    def __repr__(self):
        return f"CoeffMap(s={self.index_sign}, conj={self.conjugate}, parity={self.parity})"


class FiniteAutomorphism(CoeffMap):
    """Linear or conjugate-linear automorphism of algebra in basis
    coordinates: a CoeffMap with index sign 1 and parity 0, and its order,
    read off its powers (`least_order` up to 8; None past 8). The sparse
    rows must be algebra.dim rows naming no column past it, else
    LieAlgebraError; a wider matrix whose extra columns are all zero has
    the sparse rows of its square part, so it is accepted as that."""

    __slots__ = ("algebra", "order")

    def __init__(self, algebra, sparse, conjugate=False):
        rows, n = sparse[0], algebra.dim
        width = max((j + 1 for row in rows for j, _, _ in row), default=0)
        if len(rows) != n or width > n:
            raise LieAlgebraError(f"a {len(rows)} x {max(width, len(rows))} matrix is not a map of the"
                                  f" {n}-dimensional {algebra.name}")
        super().__init__(sparse, conjugate=conjugate)
        self.algebra = algebra
        self.order = least_order(self, 8)


def least_order(phi, limit):
    """The least k <= limit with phi^k the identity, or None: k - 1
    compositions phi . phi^(k-1)."""
    power = phi
    for k in range(1, limit + 1):
        if power.is_identity():
            return k
        if k < limit:
            power = phi.compose(power)
    return None


def check_bracket(g, cmap):
    """Raise NotAutomorphismError(j, k) for the first basis pair (row-major)
    whose bracket cmap's matrix M conj^conjugate does not keep:
    M conj^conjugate(c_jk) != [M e_j, M e_k], c_jk = [e_j, e_k]. One walk
    over _sc sums, for each pair j < k, D_M M conj^conjugate(c_jk) minus
    M_pj M_qk c_pq over every constant c_pq whose rows p and q of M meet
    columns j and k, on Gaussian-integer numerators over D_M^2 D_s (M over
    D_M); a pair fails when a sum is nonzero. Only pairs j < k are
    checked: both sides vanish at j = k, and by antisymmetry (k, j) fails
    exactly when (j, k) does, which comes first in row-major order."""
    n, (rows, dm), flip = g.dim, cmap.sparse, -1 if cmap.conjugate else 1
    columns = [[] for _ in range(n)]
    for p, row in enumerate(rows):
        for j, a, b in row:
            columns[j].append((p, a, b))
    sums = defaultdict(lambda: [0] * (2 * n))  # per pair (j, k), [re | im] over D_M^2 D_s
    for p, q, r, s, t in g._sc:
        if p < q:  # + D_M M conj(c_pq^r e_r) at pair (p, q)
            acc = sums[p, q]
            u, v = s * dm, flip * t * dm
            for i, a, b in columns[r]:
                acc[i] += a * u - b * v
                acc[n + i] += a * v + b * u
        for j, a, b in rows[p]:  # - M_pj M_qk c_pq^r at pair (j, k)
            for k, c, d in rows[q]:
                if j < k:
                    acc = sums[j, k]
                    e, f = a * c - b * d, a * d + b * c
                    acc[r] -= e * s - f * t
                    acc[n + r] -= e * t + f * s
    broken = [pair for pair, acc in sums.items() if any(acc)]
    if broken:
        raise NotAutomorphismError(*min(broken))


def automorphism_from_order(g, matrix_rows, conjugate=False):
    """Build an automorphism, refusing one whose order (read off its
    powers) is past 8, and check that it keeps the bracket."""
    phi = FiniteAutomorphism(g, sparse_rows(matrix_rows), conjugate)
    if phi.order is None:
        raise WrongOrderError("no order up to 8 found")
    check_bracket(g, phi)
    return phi


def entrywise_conjugation_automorphism(g) -> FiniteAutomorphism:
    """x -> conj(x) entrywise on matrices. On a real algebra this is a linear
    involution of the basis; on a complex algebra it is conjugate-linear.
    The conjugates are the numerators of _cells with im negated."""
    (cells, den), size = g._cells, len(g._cells[0])
    conjugates = [[0] * (2 * size) for _ in range(g.dim)]
    for i, cell in enumerate(cells):
        for j, a, b in cell:
            conjugates[j][i], conjugates[j][size + i] = a, -b
    rows = list(zip(*(vec_to_scalars(v) for v in g._solve(conjugates, den))))
    return automorphism_from_order(g, rows, conjugate=(g.field == "C"))

