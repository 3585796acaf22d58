"""Twisted loop algebras over algebraic loops.

Elements are finite expansions sum_k a_k e^{i k t / m} with coefficients in a
complexified finite Lie algebra and twist automorphism sigma, a real matrix of
order m in {1, 2}; the grading invariant sigma(a_k) = (-1)^k a_k is enforced
at construction. The pointwise bracket becomes coefficient convolution, the
derivative multiplies by i k / m, and the loop Killing form is the constant
Fourier coefficient of the pointwise Killing pairing (normalized by 1/2pi).

Coefficients. `terms` maps each exponent k to a_k as a numerator vector (see
`scalars`): Gaussian-integer numerators over one positive denominator, in
lowest terms and never zero. So equality, hashing and zero tests compare int
tuples, and +, -, scale, the bracket, the derivative, the Killing form, the
cocycle and the coefficient maps of `involution` all run on ints. Scalar is
the type at the edge: the constructor takes Scalar coordinates, `coeff` and
`coeffs` give them back, and c, d, real coordinates, JSON and rendering
read Scalars or rationals. A loop bracket sums its finite brackets into one
int accumulator per output exponent (`loop_bracket_raw`) and reduces each
exponent once; each exponent pair walks only the structure constants its
twist eigenspaces meet (`findim.convolve`), so operands must be graded, and
`from_vecs` callers pass graded vectors. The derivative terms of the
extended bracket are added as ints by `kmext.extended_bracket_raw`.
"""
from __future__ import annotations

from enum import Enum
from math import lcm

from . import linalg
from .findim import CoeffMap, FiniteAutomorphism, FiniteLieAlgebra, convolve, sparse_apply
from .scalars import (
    Scalar,
    exact_div,
    vec_add,
    vec_canon,
    vec_from_parts,
    vec_from_scalars,
    vec_mul,
    vec_neg,
    vec_to_scalars,
)


class LoopError(ValueError):
    pass


class GradingError(LoopError):
    pass


class MismatchError(LoopError):
    """Operands over different algebras or twists."""


class NonRealPairingError(LoopError):
    """A Killing Gram entry came out non-real on a claimed real basis."""


def check_twist(algebra: FiniteLieAlgebra, twist: FiniteAutomorphism):
    if twist.algebra is not algebra:
        raise MismatchError("twist is defined on a different algebra")
    if twist.conjugate:
        raise LoopError("twists must be linear automorphisms")
    if twist.order not in (1, 2):
        raise LoopError("only twist orders 1 and 2 are supported")
    if any(im for row in twist.sparse[0] for _, _, im in row):
        raise LoopError("twists must have a real matrix")


class TwistedLoopElement:
    """Finite map from integer exponent k (frequency k/m) to a coefficient
    numerator vector; no zero coefficients are stored."""

    __slots__ = ("algebra", "twist", "terms")

    def __init__(self, algebra, twist, terms):
        """terms maps exponents to Scalar coordinates; the twist and the
        grading are checked."""
        check_twist(algebra, twist)
        clean = {}
        for k, coords in terms.items():
            vec = vec_from_scalars(coords)
            if any(vec[0]):
                clean[int(k)] = vec
        self.algebra, self.twist, self.terms = algebra, twist, clean
        check_grading(self)

    @classmethod
    def from_vecs(cls, algebra, twist, terms):
        """An element from graded numerator vectors, unchecked: the one
        constructor that checks nothing. Zero vectors are dropped; terms is
        copied only when it holds one, so it must not change afterwards."""
        for nums, _ in terms.values():
            if not any(nums):
                terms = {k: vec for k, vec in terms.items() if any(vec[0])}
                break
        f = object.__new__(cls)
        f.algebra, f.twist, f.terms = algebra, twist, terms
        return f

    # -- vector-space structure ----------------------------------------
    def __add__(self, other):
        self._require_match(other)
        terms = dict(self.terms)
        for k, vec in other.terms.items():
            terms[k] = vec_add(terms[k], vec) if k in terms else vec
        return self.from_vecs(self.algebra, self.twist, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.from_vecs(self.algebra, self.twist, {k: vec_neg(v) for k, v in self.terms.items()})

    def scale(self, c):
        c = c if isinstance(c, Scalar) else Scalar(c)
        c = vec_from_scalars((c,))
        return self.from_vecs(self.algebra, self.twist, {k: vec_mul(v, c) for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, TwistedLoopElement):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.twist == other.twist
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.algebra), frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def coeff(self, k):
        """Scalar coordinates of a_k."""
        vec = self.terms.get(k)
        return vec_to_scalars(vec) if vec else self.algebra.zero_coords()

    @property
    def coeffs(self):
        """Exponent -> Scalar coordinates, for the nonzero terms."""
        return {k: vec_to_scalars(v) for k, v in self.terms.items()}

    def _require_match(self, other):
        if self.algebra is not other.algebra or (self.twist is not other.twist
                                                 and self.twist != other.twist):
            raise MismatchError("loop elements live over different algebras or twists")

    def __repr__(self):
        return f"TwistedLoopElement({self.algebra.name}, m={self.twist.order}, support={sorted(self.terms)})"


def check_grading(f: TwistedLoopElement):
    """Raise GradingError unless, for an order-2 twist sigma, every
    coefficient of f has sigma(a_k) = (-1)^k a_k."""
    if f.twist.order == 2:
        for k, vec in f.terms.items():
            if sparse_apply(f.twist.sparse, vec) != (vec_neg(vec) if k % 2 else vec):
                raise GradingError(
                    f"coefficient at exponent {k} is not in the required twist eigenspace"
                )


def zero_loop(algebra, twist) -> TwistedLoopElement:
    return TwistedLoopElement(algebra, twist, {})


def loop_monomial(algebra, twist, k, coords) -> TwistedLoopElement:
    """coords * e^{i k t / m}; grading is validated."""
    return TwistedLoopElement(algebra, twist, {k: tuple(coords)})


def untwisted(algebra) -> FiniteAutomorphism:
    """The identity automorphism: the twist of an untwisted loop algebra."""
    return FiniteAutomorphism(algebra, CoeffMap.identity(algebra.dim).sparse)


# -- operations ----------------------------------------------------------

def over_one_denominator(terms):
    """(exponent, numerators) pairs of terms over their least common
    denominator D, and D."""
    den = lcm(*(d for _, d in terms.values()))
    return over_denominator(terms, den), den


def over_denominator(terms, den):
    """(exponent, numerators) pairs of terms over den, a multiple of every
    denominator of terms; a term already over den is not copied."""
    return [(k, nums if d == den else [x * (den // d) for x in nums]) for k, (nums, d) in terms.items()]


def loop_bracket_raw(alg, twist, fs, gs, out, scale=1):
    """The convolution of `loop_bracket` on prepared operands, unreduced:
    for (exponent, numerators) lists fs over D_f and gs over D_g
    (`over_one_denominator`) of elements graded by twist, `findim.convolve`
    adds scale times sum [a_p, b_q] over D_f D_g D_s into out[p + q] on
    `alg.bracket_tables(twist, scale)`, and out is returned."""
    return convolve(alg.bracket_tables(twist, scale), fs, gs, out)


def loop_bracket(f: TwistedLoopElement, g: TwistedLoopElement) -> TwistedLoopElement:
    """Pointwise bracket: coefficient convolution [f,g]_k = sum [a_p, b_q].
    f's terms go over one denominator and g's over another, the raw
    accumulators come from `loop_bracket_raw`, and each output exponent is
    reduced once."""
    f._require_match(g)
    alg = f.algebra
    (fs, df), (gs, dg) = over_one_denominator(f.terms), over_one_denominator(g.terms)
    den = df * dg * alg._sc_den
    out = loop_bracket_raw(alg, f.twist, fs, gs, {})
    return f.from_vecs(alg, f.twist, {k: vec_canon(acc, den) for k, acc in out.items()})


def loop_killing(f: TwistedLoopElement, g: TwistedLoopElement) -> Scalar:
    """(1/2pi) integral of B(f(t), g(t)): the constant Fourier coefficient,
    sum_k B(a_k, b_{-k}). Exact: the int pairs of `killing_raw` are summed
    over the lcm of their denominators and reduced once, into one Scalar."""
    f._require_match(g)
    alg, other = f.algebra, g.terms
    re = im = 0
    den = 1
    for k, (a, da) in f.terms.items():
        pair = other.get(-k)
        if pair is not None:
            b, db = pair
            s, t = alg.killing_raw(a, b)
            d = da * db
            if d != den:
                common = lcm(den, d)
                re, im = re * (common // den), im * (common // den)
                s, t, den = s * (common // d), t * (common // d), common
            re += s
            im += t
    den *= alg._killing_den
    return Scalar(exact_div(re, den), exact_div(im, den))


class Definiteness(Enum):
    NEG_DEFINITE = "NegDefinite"
    POS_DEFINITE = "PosDefinite"
    INDEFINITE = "Indefinite"
    DEGENERATE = "Degenerate"


def killing_gram(basis):
    """Exact Gram matrix of loop_killing on a list of loop elements, by
    connected components, plus a definiteness verdict from the exact
    signature.

    A degree-k coefficient pairs only with a degree -k one, so an entry
    (i, j) can be nonzero only when a term at k of one element meets a term
    at -k of the other. The basis is indexed by exponent, and loop_killing
    runs only on the pairs i <= j that meet. The nonzero off-diagonal
    entries join their two elements, and the Gram matrix is returned as a
    list of (members, sub-matrix) pairs, one per connected component,
    members its basis indices in order; every other entry of the matrix is
    zero. The signature is the sum of the signatures of the components'
    sub-matrices: grouping the basis by component is a permutation
    congruence, so by Sylvester's law of inertia the sum is the signature
    of the whole matrix.

    Entries must come out real; a non-real value means the basis does not
    span a real subspace and raises NonRealPairingError for the first such
    (i, j), i <= j, in row-major order. Degenerate (nonzero radical) takes
    precedence in the verdict; an empty basis is NegDefinite.

    Truncations pass their base blocks only. A block (k, -k) past a
    truncation's period is its base block with each exponent moved a
    multiple of P further from 0 (`RealFormDescriptor.truncate`), so it
    repeats its base block's entries. Repeating a block c >= 1 times
    multiplies its signature by c, which changes no verdict, and its copies
    come after the base blocks, so the first non-real pair is the same. The
    size and the diagonal at the degree are the base blocks' read with
    their multiplicities (`Truncation.counts`, `layout`); no shifted block
    is built or walked.
    """
    for f in basis:
        basis[0]._require_match(f)
    at = {}  # exponent -> indices of the elements with a term there
    for i, f in enumerate(basis):
        for k in f.terms:
            at.setdefault(k, []).append(i)
    n = len(basis)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    entries = {}
    for i, f in enumerate(basis):
        for j in sorted({j for k in f.terms for j in at.get(-k, ()) if j >= i}):
            v = loop_killing(f, basis[j])
            if not v.is_real():
                raise NonRealPairingError(f"pairing ({i},{j}) has value {v}")
            if v.re:
                entries[i, j] = entries[j, i] = v.re
                parent[find(j)] = find(i)
    components = {}
    for i in range(n):
        components.setdefault(find(i), []).append(i)
    blocks = []
    pos = neg = zero = 0
    for members in components.values():
        rows = [[entries.get((i, j), 0) for j in members] for i in members]
        blocks.append((members, rows))
        p, q, z = linalg.symmetric_signature(rows)
        pos, neg, zero = pos + p, neg + q, zero + z
    if zero:
        verdict = Definiteness.DEGENERATE
    elif neg == n:
        verdict = Definiteness.NEG_DEFINITE
    elif pos == n:
        verdict = Definiteness.POS_DEFINITE
    else:
        verdict = Definiteness.INDEFINITE
    return blocks, verdict


_EIGENBASIS_CACHE = {}


def twist_eigenbasis(algebra, twist, parity):
    """Basis of the twist eigenspace with eigenvalue (-1)^parity, as
    numerator vectors."""
    return twist_eigenspace(algebra, twist, parity)[0]


def twist_eigenspace(algebra, twist, parity):
    """The twist eigenspace with eigenvalue (-1)^parity, computed once per
    algebra, twist and parity, as (basis, D, vectors): its basis as
    numerator vectors (`_twist_eigenbasis`), and the same basis over their
    least common denominator D, each vector the (j, numerator) pairs of its
    nonzero coordinates. The basis is real, as the twist is."""
    key = (id(algebra), twist.sparse, parity % 2)  # sparse names a linear twist exactly
    space = _EIGENBASIS_CACHE.get(key)
    if space is None:
        basis = _twist_eigenbasis(algebra, twist, parity)
        den = lcm(*(d for _, d in basis))
        vectors = tuple(tuple((j, x * (den // d)) for j, x in enumerate(nums[:algebra.dim]) if x)
                        for nums, d in basis)
        space = _EIGENBASIS_CACHE[key] = basis, den, vectors
    return space


def _twist_eigenbasis(algebra, twist, parity):
    """The kernel of the rational matrix M - (-1)^parity I of a twist M,
    which `check_twist` has made sure is real: that of D M - (-1)^parity D I,
    read off M's sparse numerators over D."""
    check_twist(algebra, twist)
    (sparse, den), sign = twist.sparse, -1 if parity % 2 else 1
    cells = [{j: re for j, re, _ in entries} for entries in sparse]
    rows = [[c.get(j, 0) - (sign * den if i == j else 0) for j in range(algebra.dim)] for i, c in enumerate(cells)]
    return [vec_from_parts(v + [0] * algebra.dim) for v in linalg.nullspace(rows)]
