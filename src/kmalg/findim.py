"""Exact matrix realizations of finite-dimensional reductive Lie algebras.

An algebra is a basis of square matrices over Gaussian rationals together
with its structure constants (computed and verified at construction), an
ideal split into abelian and simple blocks, the Killing form via adjoint
traces, and finite-order automorphisms checked against the bracket.

The bracket runs on ints: the structure constants are also kept as
Gaussian-integer numerators over one denominator D_s, the arguments as
numerators over their least common denominators D_x and D_y, and each output
coordinate is divided once by D_x D_y D_s; each output Scalar is built once.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from . import linalg
from .scalars import I_POWERS, ONE, ZERO, Scalar, exact_div

Matrix = tuple  # tuple of row tuples of Scalar


class LieAlgebraError(ValueError):
    pass


class NotAutomorphismError(LieAlgebraError):
    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"bracket of basis pair ({i},{j}) is not preserved")


class WrongOrderError(LieAlgebraError):
    pass


# -- small exact matrix helpers ----------------------------------------

def mat(rows) -> Matrix:
    out = []
    for row in rows:
        out.append(tuple(x if isinstance(x, Scalar) else Scalar(x) for x in row))
    return tuple(out)


def mat_zero(n) -> Matrix:
    return tuple(tuple(ZERO for _ in range(n)) for _ in range(n))


def mat_add(a, b) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b, conjugate=False) -> Matrix:
    """a . conj^conjugate(b), one sparse column of the product at a time."""
    rows = sparse_rows(a)
    return tuple(zip(*(sparse_apply(rows, col, conjugate) for col in zip(*b))))


def mat_bracket(a, b) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_transpose(a) -> Matrix:
    return tuple(tuple(a[j][i] for j in range(len(a))) for i in range(len(a[0])))


def mat_conj(a) -> Matrix:
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def mat_flatten(a):
    return [x for row in a for x in row]


# -- sparse exact linear maps ----------------------------------------------

def sparse_rows(matrix):
    """Per row, the (j, q, entry) triples of its nonzero entries. q is k when
    the entry is i^k (one of 1, i, -1, -i) and None for any other entry."""
    return tuple(
        tuple((j, I_POWERS.index(x) if x in I_POWERS else None, x) for j, x in enumerate(row) if x)
        for row in matrix
    )


def sparse_apply(rows, vec, conjugate=False, power=0):
    """i^power * M conj^conjugate(vec), from the sparse rows of M.

    Zero source coordinates are skipped and no sum starts from ZERO. A unit
    entry i^q acts by a sign change or a re/im swap; only other entries
    multiply.
    """
    out = []
    for row in rows:
        re = im = None
        for j, q, x in row:
            v = vec[j]
            if not v:
                continue
            if q is None:
                p = x * (v.conjugate() if conjugate else v)
                a, b, q = p.re, p.im, power
            else:
                a, b, q = v.re, (-v.im if conjugate else v.im), q + power
            q %= 4
            if q == 1:
                a, b = -b, a
            elif q == 2:
                a, b = -a, -b
            elif q == 3:
                a, b = b, -a
            re, im = (a, b) if re is None else (re + a, im + b)
        out.append(ZERO if re is None else Scalar(re, im))
    return tuple(out)


def sparse_is_identity(rows) -> bool:
    return all(len(row) == 1 and row[0][:2] == (i, 0) for i, row in enumerate(rows))


# -- Gaussian-integer numerators -------------------------------------------

def _scaled(part, den):
    """part * den as an int; den is a multiple of part's denominator."""
    return part * den if type(part) is int else part.numerator * (den // part.denominator)


def _numerators(vec):
    """(j, re, im) int numerators of vec's nonzero coordinates over D, and D."""
    nz = []
    den = 1
    for j, v in enumerate(vec):
        a, b = v.re, v.im
        if a or b:
            nz.append((j, a, b))
            if type(a) is not int:
                den = lcm(den, a.denominator)
            if type(b) is not int:
                den = lcm(den, b.denominator)
    if den == 1:
        return nz, 1
    return [(j, _scaled(a, den), _scaled(b, den)) for j, a, b in nz], den


@dataclass(frozen=True)
class IdealBlock:
    kind: str  # "abelian" | "simple"
    indices: tuple


class FiniteLieAlgebra:
    """Reductive Lie algebra given by an exact matrix basis.

    field is "R" or "C". For a real algebra the matrices may have complex
    entries (e.g. su(n)); reality means the structure constants are real and
    elements are real linear combinations of the basis.
    """

    def __init__(self, name, field, basis, blocks, check=True):
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
        flat = [linalg.real_flatten(mat_flatten(b)) for b in self.basis]
        if self.dim and linalg.rank(flat) != self.dim:
            raise LieAlgebraError("basis matrices are linearly dependent")
        self._flat_basis = [mat_flatten(b) for b in self.basis]
        self.structure = self._compute_structure()
        if check:
            self._check_field_reality()
            self._check_block_orthogonality()
        den = self._sc_den = _numerators([c for row in self.structure for es in row for _, c in es])[1]
        self._sc_num = tuple(
            tuple(tuple((m, _scaled(c.re, den), _scaled(c.im, den)) for m, c in es) for es in row)
            for row in self.structure)
        self.killing_matrix = tuple(
            tuple(self._ad_trace(j, l) for l in range(self.dim)) for j in range(self.dim)
        )
        self._killing_rows = tuple(
            tuple((l, c.re, c.im) for l, c in enumerate(row) if c) for row in self.killing_matrix
        )

    # -- construction-time verification ---------------------------------

    def _compute_structure(self):
        sc = []
        for j in range(self.dim):
            row = []
            for k in range(self.dim):
                br = mat_bracket(self.basis[j], self.basis[k])
                coords = self.coords(br)
                row.append(tuple((m, c) for m, c in enumerate(coords) if c))
            sc.append(row)
        return sc

    def _check_field_reality(self):
        if self.field == "R":
            for j in range(self.dim):
                for k in range(self.dim):
                    for _, c in self.structure[j][k]:
                        if not c.is_real():
                            raise LieAlgebraError(
                                f"{self.name}: non-real structure constant on a real algebra"
                            )

    def _check_block_orthogonality(self):
        for a in range(len(self.blocks)):
            for b in range(a + 1, len(self.blocks)):
                for j in self.blocks[a].indices:
                    for k in self.blocks[b].indices:
                        if self.structure[j][k]:
                            raise LieAlgebraError(
                                f"{self.name}: blocks {a} and {b} are not bracket-orthogonal"
                            )

    # -- coordinates -----------------------------------------------------

    def coords(self, m: Matrix):
        """Coordinates of a matrix in the basis; raises if outside the span."""
        target = mat_flatten(m)
        # complex coordinates found by a real 2x-blown-up solve
        rows, rhs = [], []
        for i, t in enumerate(target):
            rows.extend(linalg.real_rows(
                [(0, j, b[i], ZERO) for j, b in enumerate(self._flat_basis)], 1, self.dim))
            rhs.extend(linalg.real_flatten((t,)))
        sol = linalg.solve(rows, rhs)
        if sol is None:
            raise LieAlgebraError("matrix is not in the span of the basis")
        return linalg.real_unflatten(sol)

    def matrix(self, coords) -> Matrix:
        out = mat_zero(self.matrix_size)
        for c, b in zip(coords, self.basis):
            if c:
                out = mat_add(out, mat_scale(c, b))
        return out

    def zero_coords(self):
        return (ZERO,) * self.dim

    # -- bracket and Killing form ----------------------------------------

    def bracket(self, x, y):
        """[x, y] in coordinates: numerators of x and y over D_x and D_y
        times the integer structure constants over D_s, summed as ints and
        divided once by D_x D_y D_s (not at all when it is 1)."""
        xs, dx = _numerators(x)
        ys, dy = _numerators(y)
        re, im = [0] * self.dim, [0] * self.dim
        sc = self._sc_num
        for j, a, b in xs:
            row = sc[j]
            for k, c, d in ys:
                entries = row[k]
                if not entries:
                    continue
                p, q = a * c - b * d, a * d + b * c
                for m, s, t in entries:
                    re[m] += p * s - q * t
                    im[m] += p * t + q * s
        den = dx * dy * self._sc_den
        if den == 1:
            return tuple(Scalar(r, i) if r or i else ZERO for r, i in zip(re, im))
        return tuple(Scalar(exact_div(r, den), exact_div(i, den)) if r or i else ZERO
                     for r, i in zip(re, im))

    def _ad_trace(self, j, l):
        """tr(ad e_j ad e_l) = sum over k, m of c_jk^m c_lm^k."""
        sc = self.structure
        return sum((c * d for k in range(self.dim) for m, c in sc[j][k]
                    for k2, d in sc[l][m] if k2 == k), ZERO)

    def killing(self, x, y) -> Scalar:
        """Trace of ad(x) ad(y): raw parts summed over the nonzero entries of
        the basis Gram matrix (a real one skips two products), one Scalar."""
        if len(x) != self.dim or len(y) != self.dim:
            raise LieAlgebraError("coordinate vector has the wrong dimension")
        re = im = 0
        for j, xj in enumerate(x):
            a, b = xj.re, xj.im
            if not (a or b):
                continue
            for l, c, d in self._killing_rows[j]:
                e, f = y[l].re, y[l].im
                if e or f:
                    p, q = a * e - b * f, a * f + b * e
                    re += p * c - q * d if d else p * c
                    im += p * d + q * c if d else q * c
        return Scalar(re, im)

    def is_semisimple(self) -> bool:
        return bool(linalg.determinant([list(r) for r in self.killing_matrix]))

    def abelian_indices(self):
        return tuple(i for b in self.blocks if b.kind == "abelian" for i in b.indices)

    def simple_blocks(self):
        return tuple(b for b in self.blocks if b.kind == "simple")

    def complexify(self) -> "FiniteLieAlgebra":
        """Same basis viewed over C. Cached so twists can share identity."""
        if self.field == "C":
            return self
        if self._complexified is None:
            self._complexified = FiniteLieAlgebra(
                self.name + "_C", "C", self.basis, self.blocks, check=False
            )
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
    """Block-diagonal direct sum; blocks concatenate with shifted indices."""
    if not algebras:
        raise LieAlgebraError("direct_sum of nothing")
    field = algebras[0].field
    if any(g.field != field for g in algebras):
        raise LieAlgebraError("direct_sum requires a common field")
    total = sum(g.matrix_size for g in algebras)
    basis = []
    blocks = []
    offset_mat = 0
    offset_idx = 0
    for g in algebras:
        for b in g.basis:
            rows = [[ZERO] * total for _ in range(total)]
            for i in range(g.matrix_size):
                for j in range(g.matrix_size):
                    rows[offset_mat + i][offset_mat + j] = b[i][j]
            basis.append(tuple(tuple(r) for r in rows))
        for blk in g.blocks:
            blocks.append(IdealBlock(blk.kind, tuple(offset_idx + i for i in blk.indices)))
        offset_mat += g.matrix_size
        offset_idx += g.dim
    if name is None:
        name = "+".join(g.name for g in algebras)
    return FiniteLieAlgebra(name, field, basis, blocks)


# -- automorphisms -------------------------------------------------------

class FiniteAutomorphism:
    """Linear or conjugate-linear automorphism in basis coordinates."""

    def __init__(self, algebra, matrix_rows, conjugate_linear=False, order=None):
        self.algebra = algebra
        self.matrix = mat(matrix_rows)
        self.sparse = sparse_rows(self.matrix)
        self.conjugate_linear = bool(conjugate_linear)
        self.order = order

    def apply(self, coords):
        return sparse_apply(self.sparse, coords, self.conjugate_linear)

    def compose(self, other) -> "FiniteAutomorphism":
        """self after other."""
        prod = mat_mul(self.matrix, other.matrix, self.conjugate_linear)
        return FiniteAutomorphism(
            self.algebra, prod, self.conjugate_linear != other.conjugate_linear
        )

    def is_identity(self) -> bool:
        return not self.conjugate_linear and sparse_is_identity(self.sparse)

    def __eq__(self, other):
        if not isinstance(other, FiniteAutomorphism):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.conjugate_linear == other.conjugate_linear
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((id(self.algebra), self.conjugate_linear, self.matrix))

    def __repr__(self):
        kind = "conjugate-linear" if self.conjugate_linear else "linear"
        return f"FiniteAutomorphism({self.algebra.name}, {kind}, order={self.order})"


def identity_automorphism(g) -> FiniteAutomorphism:
    rows = [[ONE if i == j else ZERO for j in range(g.dim)] for i in range(g.dim)]
    return FiniteAutomorphism(g, rows, conjugate_linear=False, order=1)


def check_automorphism(g, phi: FiniteAutomorphism) -> FiniteAutomorphism:
    """Verify bracket preservation and the declared finite order, exactly."""
    basis_coords = [
        tuple(ONE if i == j else ZERO for i in range(g.dim)) for j in range(g.dim)
    ]
    images = [phi.apply(v) for v in basis_coords]
    for j in range(g.dim):
        for k in range(g.dim):
            lhs_vec = [ZERO] * g.dim
            for m, c in g.structure[j][k]:
                lhs_vec[m] = c
            lhs = phi.apply(tuple(lhs_vec))
            rhs = g.bracket(images[j], images[k])
            if lhs != rhs:
                raise NotAutomorphismError(j, k)
    if phi.order is None:
        raise WrongOrderError("automorphism must declare its order")
    if phi.order < 1:
        raise WrongOrderError("order must be positive")
    power = phi
    for k in range(1, phi.order):
        if power.is_identity():
            raise WrongOrderError(f"order {phi.order} declared but {k} suffices")
        power = phi.compose(power)
    if not power.is_identity():
        raise WrongOrderError(f"phi**{phi.order} is not the identity")
    return phi


def automorphism_from_order(g, matrix_rows, conjugate_linear=False, max_order=8):
    """Build an automorphism, deriving its exact order; verified."""
    phi = FiniteAutomorphism(g, matrix_rows, conjugate_linear)
    power = phi
    for k in range(1, max_order + 1):
        if power.is_identity():
            phi.order = k
            return check_automorphism(g, phi)
        power = phi.compose(power)
    raise WrongOrderError(f"no order up to {max_order} found")


def entrywise_conjugation_automorphism(g) -> FiniteAutomorphism:
    """x -> conj(x) entrywise on matrices. On a real algebra this is a linear
    involution of the basis; on a complex algebra it is conjugate-linear."""
    rows_t = [g.coords(mat_conj(b)) for b in g.basis]
    rows = [[rows_t[j][i] for j in range(g.dim)] for i in range(g.dim)]
    return automorphism_from_order(g, rows, conjugate_linear=(g.field == "C"))

