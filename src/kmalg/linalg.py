"""Exact dense linear algebra over rational (int or Fraction) entries.

Everything here is plain Gaussian elimination with exact division, no
fraction-free tricks. Every division goes through `scalars.exact_div`, so
two int entries divide to an int or a Fraction, never to a float. Updates
like a - f * b are not normalised, so a result may hold an integer as
Fraction(n, 1), which equals, hashes and prints as n; the zeros and ones
the routines make up are the ints 0 and 1. Matrices stay small:
`killing-gram` signs a truncation's base blocks only, one Gram block per
exponent class up to renaming (2 or 3 of at most 12 x 12 per catalog form,
at any degree), and the eigen-split solves all images of a block in one
`rref`. Matrices are lists of row lists; functions never mutate inputs.

Real layout. A Q(i) vector v becomes the rational vector [re v | im v]
(`real_flatten` for a Scalar vector; a numerator vector of `scalars` is
already its numerators in this layout), and several unknown vectors
a_0 .. a_{n-1} of one width become these chunks one after another,
[re a_0 | im a_0 | re a_1 | im a_1 | ...]. `real_rows` writes an equation
sum alpha a_b[j] + beta conj(a_b[j]) = 0 with Scalar alpha and beta in that
layout (`FiniteLieAlgebra.coords` solves with it);
`RealFormDescriptor.block_basis` writes its equations there as integer
rows itself. The rows fed to `rref` may be integer numerators: scaling a
row by a nonzero integer changes neither its kernel nor its pivots, and
the reduced form of a row space is unique. Nothing that leaves this
module is a Scalar.
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


def rank(rows) -> int:
    return len(rref(rows)[1])


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


def determinant(rows):
    """Exact determinant of a rational matrix by fraction Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = _clone(rows)
    det = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        inv_rows = m[c]
        pv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = exact_div(m[i][c], pv)
                m[i] = [a - f * b for a, b in zip(m[i], inv_rows)]
    return det


def leading_principal_minors(rows):
    """List [det(A_1), ..., det(A_n)] of leading principal minors."""
    n = len(rows)
    return [determinant([row[: k + 1] for row in rows[: k + 1]]) for k in range(n)]


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


# -- real layout of complex vectors ------------------------------------

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
