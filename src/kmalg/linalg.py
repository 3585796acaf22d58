"""Exact dense linear algebra over rational (int or Fraction) entries.

Everything here is plain Gaussian elimination with exact division, no
fraction-free tricks. Every division goes through `scalars.exact_div`, so
two int entries divide to an int or a Fraction, never to a float. Updates
like a - f * b are not normalised, so a result may hold an integer as
Fraction(n, 1), which equals, hashes and prints as n; the zeros and ones
the routines make up are the ints 0 and 1. Matrices stay small:
`killing-gram` signs a truncation's base blocks only, one Gram block per
connected component of the nonzero entries (5 to 18 per catalog form, each
1 x 1 or 2 x 2, at any degree), the eigen-split solves all images of a block in one
`rref`, and an algebra's construction solves every commutator of its
basis in one (98 x 252 for so(7)). Matrices are lists of row lists; functions never mutate inputs.

The module holds no Scalar code: its callers write Q(i) equations as rational
rows themselves. A Q(i) vector v becomes the rational vector [re v | im v],
which a numerator vector of `scalars` already is;
`RealFormDescriptor.block_basis` writes its equations in that layout as
integer rows, and `FiniteLieAlgebra` row-reduces the real blow-up of its
basis. The rows fed to `rref` may be integer numerators: scaling a row by a
nonzero integer changes neither its kernel nor its pivots, and the reduced
form of a row space is unique.
"""
from __future__ import annotations

from .scalars import exact_div


def _clone(rows):
    return [list(r) for r in rows]


def rref(rows):
    """Reduced row echelon form. Returns (new_rows, pivot_columns).

    Only the nonzero entries of a pivot row are divided by its pivot, and
    only when the pivot is not 1 (negated when it is -1); each elimination
    step updates only those columns, the only ones a - f * b changes."""
    m = _clone(rows)
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
        pivot_row = m[r]
        pv = pivot_row[c]
        nonzero = [(j, x) for j, x in enumerate(pivot_row) if x]
        if pv != 1:
            nonzero = [(j, -x if pv == -1 else exact_div(x, pv)) for j, x in nonzero]
            for j, x in nonzero:
                pivot_row[j] = x
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if f and i != r:
                for j, x in nonzero:
                    row[j] -= f * x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def solve(a_rows, b):
    """One rational solution x of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if not a_rows:
        return [] if not any(b) else None
    ncols = len(a_rows[0])
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][-1]
    return x


def nullspace(a_rows):
    """Basis of the kernel of a rational matrix A, as a list of vectors."""
    if not a_rows:
        return []
    ncols = len(a_rows[0])
    red, pivots = rref(a_rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def symmetric_signature(rows):
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Congruence diagonalization on the live block, the Schur complement on
    the indices not yet pivoted on, in their original order. Each step takes
    the first nonzero diagonal entry of the block as pivot; if there is none,
    adding row and column j to row and column i for the first nonzero (i, j)
    makes the diagonal entry 2 m[i][j]; a zero block is all zero count. The
    pivot leaves the block and each live row meeting it is reduced once, so
    the block stays symmetric without a column pass. By Sylvester's law of
    inertia every congruence diagonalization gives the same signature.
    """
    live = _clone(rows)
    pos = neg = 0
    while live:
        idx = next((i for i, row in enumerate(live) if row[i]), None)
        if idx is None:
            pair = next(((i, j) for i, row in enumerate(live) for j, x in enumerate(row) if x),
                        None)
            if pair is None:
                return pos, neg, len(live)
            i, j = pair
            live[i] = [a + b for a, b in zip(live[i], live[j])]
            for row in live:
                row[i] = row[i] + row[j]
            idx = i
        pivot_row = live.pop(idx)
        d = pivot_row.pop(idx)
        if d > 0:
            pos += 1
        else:
            neg += 1
        for row in live:
            f = row.pop(idx)
            if f:
                f = exact_div(f, d)
                row[:] = [a - f * b for a, b in zip(row, pivot_row)]
    return pos, neg, 0
