"""Generalized Cartan matrices: validation, finite/affine classification,
decomposability, the 2x2 family tables and realization dimension bookkeeping.

Classification per indecomposable block is decided exactly: finite type via
positive leading principal minors (read off the pivots of one elimination),
affine type via rank n-1 together with a strictly positive rational null
vector. Witness vectors are reconstructed and re-verified entrywise, so a
Finite/Affine verdict always ships its own proof.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import linalg
from .scalars import exact_div
from .value import Value


class CartanMatrixError(ValueError):
    """Rejection of a would-be generalized Cartan matrix."""


class NotSquare(CartanMatrixError):
    pass


class DiagonalNotTwo(CartanMatrixError):
    def __init__(self, i):
        self.index = i
        super().__init__(f"axiom (1) violated: a[{i}][{i}] != 2")


class PositiveOffDiagonal(CartanMatrixError):
    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"axiom (1) violated: a[{i}][{j}] > 0 off the diagonal")


class AsymmetricZero(CartanMatrixError):
    def __init__(self, i, j):
        self.indices = (i, j)
        super().__init__(f"axiom (2) violated: a[{i}][{j}] = 0 but a[{j}][{i}] != 0")


class WrongSize(CartanMatrixError):
    pass


class ClassificationError(ArithmeticError):
    """An exact classification step contradicted another: a library fault."""


class GeneralizedCartanMatrix(Value):
    """Validated integer matrix with 2s on the diagonal, non-positive
    off-diagonal entries and a symmetric zero pattern."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        self.entries = entries

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]


def validate(entries) -> GeneralizedCartanMatrix:
    """Check the generalized-Cartan-matrix axioms and freeze the matrix."""
    if not isinstance(entries, (list, tuple)) or any(
            not isinstance(row, (list, tuple)) or len(row) != len(entries) for row in entries):
        raise NotSquare("matrix is not square")
    n = len(entries)
    if not n:
        raise CartanMatrixError("matrix is empty")
    for i in range(n):
        for j in range(n):
            v = entries[i][j]
            # bool is an int subclass, but true and false are not entries
            if not isinstance(v, int) or isinstance(v, bool):
                raise CartanMatrixError(f"entry a[{i}][{j}] is not an integer")
    for i in range(n):
        if entries[i][i] != 2:
            raise DiagonalNotTwo(i)
    for i in range(n):
        for j in range(n):
            if i != j and entries[i][j] > 0:
                raise PositiveOffDiagonal(i, j)
    for i in range(n):
        for j in range(n):
            if i != j and entries[i][j] == 0 and entries[j][i] != 0:
                raise AsymmetricZero(i, j)
    return GeneralizedCartanMatrix(tuple(tuple(r) for r in entries))


class CartanKind(Enum):
    FINITE = "Finite"
    AFFINE = "Affine"
    NEITHER = "Neither"
    MIXED = "Mixed"  # composite matrices only; not a notion for blocks


class CartanClass(Value):
    __slots__ = ("kind", "witness", "components", "block_kinds", "synthetic_composite")

    def __init__(self, kind: CartanKind, witness: tuple | None, components: tuple, block_kinds: tuple,
                 synthetic_composite: bool):
        self.kind = kind
        self.witness = witness  # positive rational v with Av>0 (Finite) or Av=0 (Affine)
        self.components = components  # index blocks, each a tuple of indices
        self.block_kinds = block_kinds  # CartanKind per block
        self.synthetic_composite = synthetic_composite  # True when the whole-matrix kind merges >1 block


class RealizationDims(Value):
    __slots__ = ("n", "l", "dim_h")

    def __init__(self, n: int, l: int, dim_h: int):
        self.n = n
        self.l = l
        self.dim_h = dim_h


def decompose(a: GeneralizedCartanMatrix):
    """Connected components of the zero-pattern graph, ordered by least index."""
    n = a.n
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and (a[i, j] != 0 or a[j, i] != 0):
                    seen[j] = True
                    stack.append(j)
        blocks.append(tuple(sorted(comp)))
    return blocks


def _submatrix(a: GeneralizedCartanMatrix, idx):
    return [[Fraction(a[i, j]) for j in idx] for i in idx]


def _classify_block(a: GeneralizedCartanMatrix, idx):
    """(kind, witness) for one indecomposable block."""
    sub = _submatrix(a, idx)
    k = len(idx)
    if _positive_leading_minors(sub):
        ones = [Fraction(1)] * k
        v = linalg.solve(sub, ones)
        _check_witness(sub, v, strict=True)
        return CartanKind.FINITE, tuple(v)
    null = linalg.nullspace(sub)  # rank k - 1 exactly when the kernel is a line
    if len(null) == 1:
        v = null[0]
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            v = [abs(x) for x in v]
            _check_witness(sub, v, strict=False)
            return CartanKind.AFFINE, tuple(v)
    return CartanKind.NEITHER, None


def _positive_leading_minors(sub):
    """Whether every leading principal minor D_1, ..., D_k of sub is
    positive, from one elimination without row exchanges: while D_1, ...,
    D_{c-1} are nonzero the c-th pivot is D_c / D_{c-1}, so the minors are
    all positive exactly when every pivot is, and the first pivot that is
    not stops the elimination."""
    m = [list(row) for row in sub]
    for c, pivot_row in enumerate(m):
        pv = pivot_row[c]
        if pv <= 0:
            return False
        for row in m[c + 1:]:
            f = exact_div(row[c], pv)
            if f:
                row[c:] = [a - f * b for a, b in zip(row[c:], pivot_row[c:])]
    return True


def _check_witness(sub, v, strict):
    if v is None or any(x <= 0 for x in v):
        raise ClassificationError("witness vector missing or not entrywise positive")
    av = [sum(row[j] * v[j] for j in range(len(v))) for row in sub]
    ok = all(x > 0 for x in av) if strict else all(x == 0 for x in av)
    if not ok:
        raise ClassificationError("witness vector fails its defining condition")


def classify(a: GeneralizedCartanMatrix) -> CartanClass:
    """Classify into Finite / Affine / Neither (blockwise, exactly).

    A single indecomposable matrix gets its block kind. For composite
    matrices the merged label is synthetic: Finite iff all blocks are Finite,
    Affine iff all blocks are Affine, Mixed otherwise; witnesses concatenate.
    """
    comps = decompose(a)
    kinds = []
    witnesses = []
    for idx in comps:
        kind, w = _classify_block(a, idx)
        kinds.append(kind)
        witnesses.append(w)
    if len(comps) == 1:
        kind = kinds[0]
    elif all(k == CartanKind.FINITE for k in kinds):
        kind = CartanKind.FINITE
    elif all(k == CartanKind.AFFINE for k in kinds):
        kind = CartanKind.AFFINE
    else:
        kind = CartanKind.MIXED
    witness = None
    if kind in (CartanKind.FINITE, CartanKind.AFFINE):
        v = [Fraction(0)] * a.n
        for idx, w in zip(comps, witnesses):
            for pos, val in zip(idx, w):
                v[pos] = val
        witness = tuple(v)
    return CartanClass(
        kind=kind,
        witness=witness,
        components=tuple(comps),
        block_kinds=tuple(kinds),
        synthetic_composite=len(comps) > 1,
    )


class Family2x2(Value):
    __slots__ = ("name", "dimension")

    def __init__(self, name: str, dimension: int | None):
        self.name = name
        self.dimension = dimension  # None for the infinite-dimensional affine families


UNKNOWN_FAMILY = Family2x2("Unknown", None)

# Off-diagonal pairs {a12, a21} identify the 2x2 families up to simultaneous
# row/column permutation.
_FAMILY_TABLE = (
    (frozenset([0]), Family2x2("a1xa1", 6)),
    (frozenset([-1]), Family2x2("a2", 8)),
    (frozenset([-1, -2]), Family2x2("b2", 10)),
    (frozenset([-1, -3]), Family2x2("g2", 14)),
    (frozenset([-2]), Family2x2("a1tilde", None)),
    (frozenset([-1, -4]), Family2x2("a1tilde_prime", None)),
)


def identify_2x2(a: GeneralizedCartanMatrix) -> Family2x2:
    """Match a against the classical 2x2 tables."""
    if a.n != 2:
        raise WrongSize(f"identify_2x2 needs a 2x2 matrix, got {a.n}x{a.n}")
    key = frozenset([a[0, 1], a[1, 0]])
    for pat, fam in _FAMILY_TABLE:
        if key == pat:
            return fam
    return UNKNOWN_FAMILY


def realization_dims(a: GeneralizedCartanMatrix) -> RealizationDims:
    """(n, rank, 2n - rank). An affine matrix of b indecomposable blocks
    must have rank n - b, one less than full in each block."""
    n = a.n
    l = n - len(linalg.nullspace(_submatrix(a, range(n))))
    cls = classify(a)
    if cls.kind == CartanKind.AFFINE and l != n - len(cls.components):
        raise ClassificationError(f"affine matrix of {len(cls.components)} blocks has rank {l}")
    return RealizationDims(n=n, l=l, dim_h=2 * n - l)
