"""Involutions, real forms, Cartan decompositions and duality for the
extended twisted loop algebras.

A coefficient map (Phi a)_k = i^{p k} M conj^delta(a_{s k}), one
`findim.CoeffMap`, is every map this module needs: the twist sigma and the
invariants rho_+- (`FiniteAutomorphism`s, s = 1 and p = 0), involutions in
standard form f(t) -> rho(f(eps t)), real-structure conjugations, and their
compositions. Real forms are fixed sets of conjugate-linear coefficient
maps together with a reality line for c and d. A Cartan decomposition is a
truncation whose basis carries signs, +1 on K and -1 on P. Duality
K + P -> K + iP is composition of descriptors.

Closure and the Cartan relations are read off the maps, with no loop
bracket and no degree. Let tau be the form's real structure: (tau a)_k =
i^{pk} M conj(a_{sk}), and c -> l^2 conj(c), d -> l^2 conj(d) on its c/d
line l R (l = cd_scale, so l^2 = +-1); let sigma = M conj act on g.

Lemma. The form is closed under the bracket exactly when (a) sigma
commutes with the twist; (b) tau^2 = 1 on the loop algebra L, i.e.
M conj(M) is 1 on the twist piece of even degree and, on the piece of odd
degree (all of g when untwisted), (-1)^p when s = -1 and 1 when s = 1;
(c) sigma is an antilinear automorphism of g; (d) l^2 = -s. A form failing
(a) or (b) is not a real form and counts as not closed.
Proof. By (a) and (b) tau is an antilinear involution of L, so L = F + iF
for F = Fix(tau), and F is closed iff tau[x, y] = [tau x, tau y]. On
monomials tau[a e_j, b e_l] = i^{ps(j+l)} sigma[a, b] e_{s(j+l)} and
[tau a e_j, tau b e_l] = i^{psj + psl} [sigma a, sigma b] e_{s(j+l)}; every
pair of twist pieces occurs, so this is (c). d/dt multiplies e_j by ij/m,
so tau(f') = -s (tau f)' while [tau d, tau f] = l^2 (tau f)': this is (d).
The cocycle w(a e_j, b e_-j) = -(ij/m) B(a, b) has w(tau f, tau g) =
-s conj w(f, g) under (c), as B(sigma a, sigma b) = conj B(a, b), and
tau(w c) = l^2 conj(w) c: (d) again. QED. With no c/d line (cd_scale None)
the form holds both lines and (d) fails. With no real structure (conj None)
the loops are all of L, and the cocycle stays on a c/d line iff B = 0.

Cartan relations. [K,K] in K, [K,P] in P and [P,P] in K say that phi keeps
the bracket on the form. The same computation for psi, the linear map that
agrees with phi there (phi, or phi tau when phi is conjugate-linear), shows
that they hold exactly when psi's matrix is an automorphism of g and its
factor on c (epsilon, or epsilon l^2) is its index sign. On a form with no
tau, psi = phi, and a conjugate-linear psi needs minus its index sign.

Membership in a real form and the eigenvector tests (the expected K/P
conditions) build no image: `CoeffMap.fixes` images each term of the
element from its mirror exponent and compares it with the term there.
"""
from __future__ import annotations

from math import gcd, lcm

from . import linalg
from .findim import (
    CoeffMap,
    FiniteAutomorphism,
    FiniteLieAlgebra,
    InvolutionError,
    NotAutomorphismError,
    check_bracket,
    sparse_apply,
)
from .kmext import ExtendedElement, hat_bracket, real_coords  # hat_bracket: perfbench/selftest.py wraps it here
from .loop import TwistedLoopElement, check_twist, twist_eigenbasis, zero_loop
from .scalars import I, ONE, Scalar, ZERO, vec_canon, vec_from_parts


class PreservationError(InvolutionError):
    """Map does not preserve the real form it was asked to act on."""


class Verdict:
    """A decided check: true when it holds, else false with the witness of
    its failure (a reason string or a basis pair)."""

    __slots__ = ("witness",)

    def __init__(self, witness=None):
        self.witness = witness

    def __bool__(self):
        return self.witness is None


# -- involutions -----------------------------------------------------------

class InvolutionDescriptor:
    """Standard-form involution: loop coefficients via a CoeffMap, c and d
    scaled by epsilon = +-1. A map that reflects time (index sign -1, or +1
    when conjugate-linear) with epsilon +1 fails `effective` or the Cartan
    relations' c/d line sign."""

    __slots__ = ("name", "loop_map", "epsilon")

    def __init__(self, name: str, loop_map: CoeffMap, epsilon: int):
        if epsilon not in (1, -1):
            raise InvolutionError("epsilon must be +-1")
        self.name = name
        self.loop_map = loop_map
        self.epsilon = epsilon

    def apply(self, x: ExtendedElement) -> ExtendedElement:
        c, d = x.c, x.d
        if c or d:
            if self.loop_map.conjugate:
                c, d = c.conjugate(), d.conjugate()
            if self.epsilon == -1:
                c, d = -c, -d
        return ExtendedElement(self.loop_map.apply_loop(x.loop), c, d)


def involution_from_invariants(rho_plus: FiniteAutomorphism, rho_minus: FiniteAutomorphism,
                               name=None):
    """Second-kind involution f(t) -> rho_plus(f(-t)) on the loop algebra
    twisted by sigma = rho_minus . rho_plus.

    rho_plus and rho_minus are involutive automorphisms (or the identity) of
    the underlying real algebra; the twist order is the order of sigma and
    must be 1 or 2. Returns (descriptor, complexified algebra, twist).
    """
    g = rho_plus.algebra
    if rho_minus.algebra is not g:
        raise InvolutionError("the two invariants act on different algebras")
    for rho in (rho_plus,) if rho_minus is rho_plus else (rho_plus, rho_minus):
        if rho.conjugate:
            raise InvolutionError("invariants are automorphisms of the real algebra")
        if rho.order not in (1, 2):
            raise InvolutionError("invariants must be involutive or the identity")
        check_bracket(g, rho)
    # sigma's bracket is not checked: it is a product of two checked linear
    # automorphisms of g, and g's complexification has g's structure constants
    sigma = FiniteAutomorphism(g.complexify(), rho_minus.compose(rho_plus).sparse)
    if sigma.order not in (1, 2):
        raise InvolutionError("sigma = rho_minus . rho_plus has order > 2 (out of scope)")
    desc = InvolutionDescriptor(
        name=name or "second-kind involution",
        loop_map=CoeffMap(rho_plus.sparse, index_sign=-1),
        epsilon=-1,
    )
    return desc, sigma.algebra, sigma


# -- real forms --------------------------------------------------------------

class RealFormDescriptor:
    """Real subalgebra of the extended complex loop algebra, carved out by a
    conjugate-linear coefficient involution (the loop part is its fixed set)
    plus a reality line scale * R for each of c and d (scale 1 or i).

    conj=None together with cd_scale=None designates the whole complex
    algebra viewed as a real algebra (used by the non-example with the
    compact conjugation).
    """

    __slots__ = ("name", "algebra", "twist", "conj", "cd_scale")

    def __init__(self, name: str, algebra: FiniteLieAlgebra, twist: FiniteAutomorphism,
                 conj: CoeffMap | None, cd_scale: Scalar | None = ONE):
        check_twist(algebra, twist)
        if conj is not None and not conj.conjugate:
            raise InvolutionError("a real structure must be conjugate-linear")
        if cd_scale is not None and cd_scale not in (ONE, I):
            raise InvolutionError("cd_scale must be 1 or i")
        self.name = name
        self.algebra = algebra
        self.twist = twist
        self.conj = conj
        self.cd_scale = cd_scale

    # -- membership ------------------------------------------------------
    def contains(self, x: ExtendedElement) -> bool:
        """Whether x lies in the form: x is over the form's algebra and
        twist, its loop part is fixed by conj (`CoeffMap.fixes`), and c and d
        lie on the line cd_scale * R. As cd_scale is 1 or i, c / 1 is real
        iff c.im == 0 and c / i is real iff c.re == 0, so no division is
        needed."""
        f, c, d = x.loop, x.c, x.d
        if f.algebra is not self.algebra or f.twist != self.twist:
            return False
        if self.conj is not None and not self.conj.fixes(f):
            return False
        if self.cd_scale is None:
            return True
        if self.cd_scale == ONE:
            return not c.im and not d.im
        return not c.re and not d.re

    # -- truncated bases ---------------------------------------------------
    def block_keys(self, n_max: int):
        keys = [(0,)]
        keys.extend((k, -k) for k in range(1, n_max + 1))
        keys.append(("cd",))
        return keys

    def block_basis(self, key):
        """Exact real basis of one degree block (or of the c,d lines).

        The coefficient vectors a_k of the block solve two kinds of equation:
        the complex-linear twist grading (sigma - (-1)^k) a_k = 0 and the
        conjugate-linear real structure i^{pk} M conj(a_{sk}) - a_k = 0. Each
        is written over its map's denominator D (`CoeffMap.sparse`), as the
        integer rows of its real and imaginary part in the real layout of
        `linalg`, the degrees its unknown vectors, and the block's basis is
        the kernel of all of them, each solution split into one numerator
        vector per degree. The twist equations grade those vectors, so the
        elements build unchecked.
        """
        if key == ("cd",):
            out = []
            scales = (self.cd_scale,) if self.cd_scale is not None else (ONE, I)
            for scale in scales:
                out.append(ExtendedElement(zero_loop(self.algebra, self.twist), c=scale))
                out.append(ExtendedElement(zero_loop(self.algebra, self.twist), d=scale))
            return out
        degrees = tuple(key)
        dim = self.algebra.dim
        n = 2 * dim
        width = n * len(degrees)
        pos = {k: n * b for b, k in enumerate(degrees)}  # column of re a_k[0]
        rows = []

        def equation(terms, k, i, den):
            """Rows of sum (p + q i) x - den a_k[i] = 0, one term (column of
            re a[j], p, q, conjugate) each, x being a[j] or conj(a[j])."""
            re_row, im_row = [0] * width, [0] * width
            for x, p, q, conjugate in terms:
                re_row[x] += p
                im_row[x] += q
                re_row[x + dim] += q if conjugate else -q
                im_row[x + dim] += -p if conjugate else p
            re_row[pos[k] + i] -= den
            im_row[pos[k] + dim + i] -= den
            rows.extend(row for row in (re_row, im_row) if any(row))

        if self.twist.order == 2:
            twist_rows, den = self.twist.sparse
            for k in degrees:
                sign = den if k % 2 == 0 else -den
                for i, row in enumerate(twist_rows):
                    equation([(pos[k] + j, p, q, False) for j, p, q in row], k, i, sign)
        if self.conj is not None:
            s = self.conj.index_sign
            conj_rows, den = self.conj.sparse
            for k in degrees:
                power = self.conj.parity * k % 4
                for i, row in enumerate(conj_rows):
                    terms = []
                    for j, p, q in row:
                        for _ in range(power):  # times i
                            p, q = -q, p
                        terms.append((pos[s * k] + j, p, q, True))
                    equation(terms, k, i, den)
        return [ExtendedElement(TwistedLoopElement.from_vecs(self.algebra, self.twist, {
                    k: vec_from_parts(v[pos[k]:pos[k] + n]) for k in degrees}))
                for v in linalg.nullspace(rows or [[0] * width])]

    def truncate(self, n_max: int) -> "Truncation":
        """The degree-n_max truncation by its base blocks: (0,) .. (P, -P)
        (fewer when n_max < P) and ("cd",), each solved once.

        Period-P lemma. Block (k, -k) equations depend on k only through
        (-1)^k when the twist has order 2 and through i^{parity k}: they
        repeat with the period P = `_period(twist, conj)`, 1 on an
        untwisted form of parity 0. So for k > P the basis of block (k, -k)
        is that of its base block (b, -b), b = (k - 1) mod P + 1, with each
        exponent moved k - b further from 0. Blocks past P are never built:
        the truncation records P as its built_period and n_max as its
        degree, and `Truncation.layout` and `counts` name each block past P
        by its base block."""
        period = _period(self.twist, self.conj)
        t = Truncation(self, n_max, tuple((key, [(e, 0) for e in self.block_basis(key)])
                                          for key in self.block_keys(min(n_max, period))))
        t.built_period = period
        return t

    # -- closure -----------------------------------------------------------
    def verify_closed(self) -> Verdict:
        """Whether the form is closed (the lemma in the module docstring),
        at every degree. A failed verdict names the first failing condition:
        the basis pair (j, k) for (c), a reason string for any other."""
        tau, alg, twist = self.conj, self.algebra, self.twist
        if tau is None:  # the cocycle stays on a c/d line only when the Killing form is 0
            flat = self.cd_scale is None or not any(alg._killing_rows)
            return Verdict(None if flat else "cocycle leaves the c/d line")
        if twist.order == 2 and tau.compose(twist) != twist.compose(tau):
            return Verdict("grading broken")
        square = tau.compose(tau)  # s = 1, linear, parity 0 or 2: acts on degree k as on k mod 2
        if not all(sparse_apply(square.sparse, v, False, square.parity * k) == v
                   for k in (0, 1) for v in twist_eigenbasis(alg, twist, k % twist.order)):
            return Verdict("tau^2 != 1 on the loop algebra")
        return _automorphism_verdict(alg, tau, _line_signs(self.cd_scale))


def _line_signs(cd_scale):
    """l^2 for each c/d line l R a form holds (both when cd_scale is None)."""
    return (1, -1) if cd_scale is None else (1 if cd_scale == ONE else -1,)


def _automorphism_verdict(algebra, cmap, factors):
    """Whether cmap, scaling c by each of factors (one per c/d line),
    keeps the extended bracket; if not, the witness is the basis pair
    (j, k) on which its matrix breaks that of g, or "c/d line sign" when a
    factor is not the one the derivative picks up: s, or -s for a
    conjugate-linear map."""
    try:
        check_bracket(algebra, cmap)
    except NotAutomorphismError as err:
        return Verdict(err.pair)
    want = -cmap.index_sign if cmap.conjugate else cmap.index_sign
    return Verdict(None if all(f == want for f in factors) else "c/d line sign")


def _period(twist, *maps):
    """The period of the block equations of a form with this twist and
    these maps: the lcm of the twist's order and, for each map, 4 /
    gcd(4, parity) (a None map counts as parity 0). It is 1 for an
    identity twist with every parity 0, 2 for an order-2 twist or an even
    nonzero parity, and 4 for an odd parity."""
    return lcm(twist.order, *(4 // gcd(4, m.parity) for m in maps if m is not None))


class Truncation:
    """A real form cut at degree n_max, as (key, [(element, sign), ...])
    blocks in block_keys order. A plain truncation (involution None) gives
    every element sign 0; its Cartan split by an involution
    (`fixed_and_eigenspaces`) holds in each block its K elements (+1) and
    then its P elements (-1).

    built_period is the period P (1, 2 or 4, `_period`) `truncate` or the
    split built with. blocks then holds only the base blocks, (0,) ..
    (P, -P) and ("cd",): block (k, -k), k > P, of the degree-n_max
    truncation is base block (b, -b), b = (k - 1) mod P + 1, with every
    exponent moved k - b further from 0, and is never built; `layout`
    names it and `counts` counts it. At P = 1, (1, -1) stands for every
    block (k, -k), odd and even k alike. Not a
    constructor parameter, built_period is None on a truncation built by
    the constructor alone, a copy rebuilt through it included: every block
    of it is in blocks, and is split and checked."""

    __slots__ = ("real_form", "n_max", "blocks", "involution", "built_period")

    def __init__(self, real_form: RealFormDescriptor, n_max: int, blocks: tuple,
                 involution: InvolutionDescriptor | None = None):
        self.real_form = real_form
        self.n_max = n_max
        self.blocks = blocks
        self.involution = involution
        self.built_period = None

    @property
    def loops(self):
        """Loop parts of the degree blocks in blocks, each nonzero."""
        return [e.loop for key, items in self.blocks if key != ("cd",) for e, _ in items]

    @property
    def k_basis(self):
        return [e for _, items in self.blocks for e, s in items if s == 1]

    @property
    def p_basis(self):
        return [e for _, items in self.blocks for e, s in items if s == -1]

    def layout(self, upto=None):
        """(key, b) for each block of the degree-n_max truncation, in
        block_keys order: blocks[b] is that block or, past built_period, the
        base block it is a shift of. With upto, only the blocks (k, -k),
        k <= upto, and ("cd",) of a truncation with a built_period. Linear
        in the degree, so only the readers that print every block call it
        without upto."""
        period = self.built_period
        if period is None:
            return [(key, b) for b, (key, _) in enumerate(self.blocks)]
        cd = len(self.blocks) - 1
        return [(key, cd if key == ("cd",) else key[0] if key[0] <= period else (key[0] - 1) % period + 1)
                for key in self.real_form.block_keys(self.n_max if upto is None else min(upto, self.n_max))]

    def counts(self):
        """How many blocks of the degree-n_max truncation each of blocks
        stands for: itself and its shifts, (n_max - b) // P + 1 for base
        block (b, -b), b >= 1, P the built_period."""
        period, n = self.built_period, self.n_max
        return [1 if period is None or key[0] in ("cd", 0) else (n - key[0]) // period + 1
                for key, _ in self.blocks]

    def dims(self):
        """(K, P) dimensions of each block of the degree-n_max truncation,
        read off the block it repeats."""
        dims = [(sum(s == 1 for _, s in items), sum(s == -1 for _, s in items)) for _, items in self.blocks]
        return {key: dims[b] for key, b in self.layout()}


# -- eigenspace split ---------------------------------------------------------

def _combine(elements, coeffs):
    """sum_j coeffs[j] elements[j], coeffs a nullspace vector of rationals
    (so not zero): the element itself when coeffs is a unit vector, else,
    over the lcm L of the coefficients' denominators and the lcm D of the
    elements' term denominators, each exponent's numerators as one int
    sum, reduced once over L D, and c and d as one rational sum per part."""
    pairs = [(x, e) for x, e in zip(coeffs, elements) if x]
    if len(pairs) == 1 and pairs[0][0] == 1:
        return pairs[0][1]
    scale = lcm(*(x.denominator for x, _ in pairs))
    den = lcm(*(dk for _, e in pairs for _, dk in e.loop.terms.values()))
    sums, c, d = {}, [0, 0], [0, 0]
    for x, e in pairs:
        w = x.numerator * (scale // x.denominator)
        for k, (nums, dk) in e.loop.terms.items():
            factor = w * (den // dk)
            acc = sums.get(k)
            if acc is None:
                sums[k] = [factor * a for a in nums]
            else:
                for j, a in enumerate(nums):
                    if a:
                        acc[j] += factor * a
        for total, z in ((c, e.c), (d, e.d)):
            if z:
                total[0] += x * z.re
                total[1] += x * z.im
    f = elements[0].loop
    loop = f.from_vecs(f.algebra, f.twist, {k: vec_canon(acc, scale * den) for k, acc in sums.items()})
    return ExtendedElement(loop, *(Scalar(*z) if any(z) else ZERO for z in (c, d)))


def fixed_and_eigenspaces(phi: InvolutionDescriptor, truncation: Truncation) -> Truncation:
    """The Cartan split of a truncation of a real form: the same blocks,
    each holding the exact +1 eigenvectors of phi (K, sign +1) and then the
    -1 eigenvectors (P, sign -1). A truncation with a built_period P0 (the
    period of the form's twist and conj) is split by its base blocks up to
    (P, -P), P = `_period(twist, conj, phi's map)`, a multiple of P0: the
    blocks P0 < k <= P (only when phi's parity asks for a longer period
    than the form's) are solved with `block_basis`, and the split records
    P as its built_period. A later block is a shift of one of them, and
    phi commutes with the shift.

    It is the one pass over phi's images: each element of a block in the
    split is imaged once. phi preserves the form when each image
    is in the form and in its block's real span (which `contains` does not
    test: an image may break the twist grading), and squares to the
    identity when it maps each image back to its element, tested even
    after a block fails. The blocks are split while both hold; else the
    error of the first failing block (preservation tested first) raises
    after the pass, with verdicts = (preserved, squares).

    A block's elimination runs on the numerator columns of `real_coords`,
    and each K or P vector, a kernel vector of phi's matrix on the block
    minus or plus 1, is built by `_combine` as one int sum per exponent,
    with no Scalar arithmetic."""
    rf, n_max, built = truncation.real_form, truncation.n_max, truncation.built_period
    period = None if built is None else _period(rf.twist, rf.conj, phi.loop_map)
    base = truncation.blocks
    if period is not None and min(n_max, period) > built:
        keys = rf.block_keys(min(n_max, period))[built + 1:-1]
        base = base[:-1] + tuple((key, [(e, 0) for e in rf.block_basis(key)]) for key in keys) + base[-1:]
    preserved = squares = True
    error, blocks = None, []
    for key, items in base:
        elems = [e for e, _ in items]
        images = [phi.apply(e) for e in elems]
        block_squares = all(phi.apply(img) == e for e, img in zip(elems, images))
        squares = squares and block_squares
        if not preserved:
            continue
        if not all(rf.contains(img) for img in images):
            fault = f"{phi.name} does not preserve real form {rf.name} on block {key}"
        else:
            # one elimination on [block basis | images], real coordinates as
            # rows over every exponent any of them has
            n = len(elems)
            degrees = sorted({k for x in elems + images for k in x.loop.terms})
            columns = [real_coords(x, degrees) for x in elems + images]
            red, pivots = linalg.rref(list(zip(*columns)))
            fault = f"image under {phi.name} left the {key} block of {rf.name}" if any(
                c >= n for c in pivots) else None
        if fault:
            preserved, error = False, error or PreservationError(fault)
        elif not block_squares:
            error = error or InvolutionError(f"{phi.name} does not square to the identity on block {key}")
        if error is None:
            # matrix of phi on the block: row c of the rref, past the basis,
            # holds the coordinates of the images on basis element c
            rows = dict(zip(pivots, red))
            m = [rows[c][n:] if c in rows else [0] * n for c in range(n)]
            blocks.append((key, [(_combine(elems, v), sign) for sign in (1, -1) for v in linalg.nullspace(
                [[x - (sign if r == c else 0) for c, x in enumerate(row)] for r, row in enumerate(m)])]))
    if error is not None:
        error.verdicts = preserved, squares
        raise error
    split = Truncation(rf, n_max, tuple(blocks), phi)
    split.built_period = period
    return split


def verify_cartan_relations(rf: RealFormDescriptor, phi: InvolutionDescriptor) -> Verdict:
    """[K,K] in K, [K,P] in P, [P,P] in K for the split of rf by phi (module
    docstring), at every degree, with the witness of `_automorphism_verdict`
    for psi = phi, or phi tau when phi is conjugate-linear and the form has
    a tau."""
    psi, factors = phi.loop_map, (phi.epsilon,)
    if psi.conjugate and rf.conj is not None:
        psi = psi.compose(rf.conj)
        factors = tuple(phi.epsilon * sign for sign in _line_signs(rf.cd_scale))
    return _automorphism_verdict(rf.algebra, psi, factors)


# -- duality -------------------------------------------------------------------

class DualForm:
    __slots__ = ("real_form", "involution")

    def __init__(self, real_form: RealFormDescriptor, involution: InvolutionDescriptor):
        self.real_form = real_form
        self.involution = involution


def dualize(rf: RealFormDescriptor, phi: InvolutionDescriptor, name=None) -> DualForm:
    """K + P -> K + iP with the dual involution k + ip -> k - ip, where K
    and P are the +1/-1 eigenspaces of phi on rf.

    The dual form's conjugation is (linear extension of phi) . theta; the
    dual involution is the linear-on-the-dual-form extension of theta. This
    only builds them and has no degree: the dual form's closure, and that
    phi preserves rf and squares to the identity, are osaka_verify's
    closure and involutive checks of the records holding the forms.
    """
    if rf.conj is None:
        raise InvolutionError("cannot dualize the full complex algebra")
    if len(phi.loop_map.sparse[0]) != rf.algebra.dim:
        raise InvolutionError(f"{phi.name} and {rf.name} act on different algebras")
    theta, phi_map = rf.conj, phi.loop_map
    # the linear map agreeing with phi on the fixed set of theta
    phi_lin = phi_map.compose(theta) if phi_map.conjugate else phi_map
    theta_star = phi_lin.compose(theta)
    # epsilon = -1 turns the c/d line s R into i s R (no line counts as s = 1)
    scale = (ONE if rf.cd_scale == I else I) if phi.epsilon == -1 else rf.cd_scale
    dual_rf = RealFormDescriptor(
        name=name or rf.name + "*",
        algebra=rf.algebra,
        twist=rf.twist,
        conj=theta_star,
        cd_scale=scale,
    )
    rho_star = InvolutionDescriptor(
        name=phi.name + "*",
        loop_map=theta.compose(theta_star),
        epsilon=-1,
    )
    return DualForm(dual_rf, rho_star)
