"""The two-dimensional extension of a twisted loop algebra by a central
element c and a derivation d.

Extended elements are triples (loop, c, d). The bracket is

    [(f, rc, rd), (g, sc, sd)] = ([f,g]_pointwise + rd g' - sd f',
                                  omega(f, g), 0)

with the integral cocycle omega(f,g) = (1/2pi) int <f, g'> dt, <,> the
finite Killing form. The z-residue form of the cocycle differs from the
integral form by a factor of i (d/dt = i z d/dz): the integral form, the
one the bracket uses, is i times the residue form.

The loop part of a bracket comes from one raw kernel,
`extended_bracket_raw`: it adds the convolution (`loop.loop_bracket_raw`,
on the constants times m) and the derivative terms rd g' - sd f' of two
operands, each over one denominator of its own, into int accumulators over
m D_x D_y D_s, with no gcd and no element built. `hat_bracket` reduces each output exponent once;
`jacobi_residual` puts x, y and z over one denominator, adds its three
outer brackets into one set of accumulators and reduces only the sum.

The cocycle has one body, `_cocycle_sum`: it sums k B(a_k, b_{-k}) as ints
over one common denominator, each term from the raw Killing form
(`FiniteLieAlgebra.killing_raw`), and the cocycle is -i/m times it, built
as one Scalar (`_cocycle_value`). `cocycle` reads its operands' terms over
one denominator each; `jacobi_residual` sums its three outer cocycles, all
over one denominator, as plain ints; `residue_cocycle` is -1 times the sum.
"""
from __future__ import annotations

from math import lcm

from . import linalg
from .loop import (
    MismatchError,
    TwistedLoopElement,
    check_grading,
    loop_bracket,  # unused here; perfbench/selftest.py checks the tracer wraps this binding
    loop_bracket_raw,
    over_denominator,
    over_one_denominator,
    twist_eigenbasis,
    zero_loop,
)
from .scalars import (
    Scalar,
    ZERO,
    exact_div,
    vec_add,
    vec_canon,
    vec_support,
    vec_to_scalars,
)


class ExtendedElement:
    """loop part + c coefficient + d coefficient."""

    __slots__ = ("loop", "c", "d")

    def __init__(self, loop: TwistedLoopElement, c=ZERO, d=ZERO):
        self.loop = loop
        self.c = c if isinstance(c, Scalar) else Scalar(c)
        self.d = d if isinstance(d, Scalar) else Scalar(d)

    def __add__(self, other):
        return ExtendedElement(self.loop + other.loop, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return ExtendedElement(self.loop - other.loop, self.c - other.c, self.d - other.d)

    def __neg__(self):
        return ExtendedElement(-self.loop, -self.c, -self.d)

    def scale(self, s):
        s = s if isinstance(s, Scalar) else Scalar(s)
        return ExtendedElement(self.loop.scale(s), s * self.c, s * self.d)

    def __eq__(self, other):
        if not isinstance(other, ExtendedElement):
            return NotImplemented
        return self.loop == other.loop and self.c == other.c and self.d == other.d

    def __hash__(self):
        return hash((self.loop, self.c, self.d))

    def is_zero(self):
        return self.loop.is_zero() and not self.c and not self.d

    def __repr__(self):
        return f"ExtendedElement({self.loop!r}, c={self.c}, d={self.d})"


def real_coords(x: ExtendedElement, degrees) -> list:
    """x as one rational vector in the real layout of the `linalg`
    docstring: one [re | im] chunk of loop coordinates per given degree
    (zero where x has no term), then c.re, c.im, d.re, d.im. A chunk is
    its term's int numerators when their denominator is 1, and is divided
    only otherwise."""
    zero = ((0,) * (2 * x.loop.algebra.dim), 1)
    out = []
    for k in degrees:
        nums, den = x.loop.terms.get(k, zero)
        out.extend(nums if den == 1 else (exact_div(a, den) for a in nums))
    out.extend((x.c.re, x.c.im, x.d.re, x.d.im))
    return out


def central_element(algebra, twist, value=1) -> ExtendedElement:
    return ExtendedElement(zero_loop(algebra, twist), c=value)


def derivation_element(algebra, twist, value=1) -> ExtendedElement:
    return ExtendedElement(zero_loop(algebra, twist), d=value)


# -- cocycle --------------------------------------------------------------

def cocycle(f: TwistedLoopElement, g: TwistedLoopElement) -> Scalar:
    """(1/2pi) int <f, g'> dt = sum_k B(a_k, -(i k/m) b_{-k}). Antisymmetric.
    One Scalar of `_cocycle_sum` on f's and g's terms, each over one
    denominator."""
    f._require_match(g)
    (fs, df), (gs, dg) = over_one_denominator(f.terms), over_one_denominator(g.terms)
    return _cocycle_value(f.algebra, f.twist.order, _cocycle_sum(f.algebra, dict(fs), gs), df * dg)


def _cocycle_sum(alg, fs, gs):
    """The body of the cocycle, unreduced: for fs a map {k: a_k} of
    numerator lists over D_f and gs (exponent, numerators) pairs over D_g,
    the int pair (re, im) of sum_k k B(a_k, b_{-k}) over D_f D_g D_K
    (D_K = alg._killing_den), each term from `killing_raw`. The cocycle is
    -i/m times it, and the residue form -1 times it."""
    killing_raw = alg.killing_raw
    re = im = 0
    for q, b in gs:  # b_q pairs with a_k for k = -q
        if q:
            a = fs.get(-q)
            if a is not None:
                s, t = killing_raw(a, b)
                re -= q * s
                im -= q * t
    return re, im


def _cocycle_value(alg, m, nums, den):
    """The cocycle as one Scalar, from the numerators (re, im) of a
    `_cocycle_sum` over den D_K: -i/m times that sum."""
    re, im = nums
    return vec_to_scalars(((im, -re), m * den * alg._killing_den))[0]


def residue_cocycle(f: TwistedLoopElement, g: TwistedLoopElement) -> Scalar:
    """Res_z <f, dg/dz> = sum_k (-k) B(a_k, b_{-k}) for untwisted z-Laurent
    loops (-1 times `_cocycle_sum`). The integral form, `cocycle`, is i
    times it."""
    f._require_match(g)
    if f.twist.order != 1:
        raise MismatchError("the residue form is defined for untwisted loops")
    (fs, df), (gs, dg) = over_one_denominator(f.terms), over_one_denominator(g.terms)
    re, im = _cocycle_sum(f.algebra, dict(fs), gs)
    return vec_to_scalars(((-re, -im), df * dg * f.algebra._killing_den))[0]


# -- bracket --------------------------------------------------------------

def _denominator(*xs):
    """The least common denominator of every loop term and every d part of
    the elements xs."""
    return lcm(*(den for x in xs for _, den in x.loop.terms.values()),
               *(p.denominator for x in xs for p in (x.d.re, x.d.im)))


def _numerators(x, den):
    """x's loop terms as (exponent, numerators) pairs, and x.d as an int pair
    (re, im) or None for zero, over den, a multiple of `_denominator(x)`."""
    re, im = x.d.re, x.d.im
    rd = (re.numerator * (den // re.denominator), im.numerator * (den // im.denominator)) if re or im else None
    return over_denominator(x.loop.terms, den), rd


def extended_bracket_raw(alg, twist, fs, rd, gs, sd, out):
    """Add the loop part of [x, y] unreduced into out, and return out. x is
    its loop terms fs, (exponent, numerators) pairs, and its d coefficient
    rd, an int pair (re, im) or None for zero, all over one denominator D_x
    (`_numerators`); y is gs and sd over D_y; both are graded by twist, of
    order m. out gains [f, g] + rd g' - sd f' over m D_x D_y D_s: the
    convolution of `loop_bracket_raw` on the constants times m, and the
    derivative terms times D_s. No gcd is taken; an accumulator may be all
    zero."""
    loop_bracket_raw(alg, twist, fs, gs, out, twist.order)
    sc = alg._sc_den
    if rd:
        # rd g'_q = q i rd b_q / m = q (-s + i r) b_q / (m D_x D_y)
        r, s = rd
        _add_derivative(out, gs, -s * sc, r * sc)
    if sd:
        # -sd f'_p = p (s - i r) a_p / (m D_x D_y)
        r, s = sd
        _add_derivative(out, fs, s * sc, -r * sc)
    return out


def _add_derivative(out, terms, u, v):
    """Add k (u + i v) a_k into the accumulator out[k] for each (k, a_k) of
    terms with k nonzero, skipping the zero coordinates of a_k."""
    for k, nums in terms:
        if k:
            acc = out.get(k)
            if acc is None:
                acc = out[k] = [0] * len(nums)
            p, q, n = k * u, k * v, len(nums) // 2
            for j in range(n):
                a, b = nums[j], nums[n + j]
                if a or b:
                    acc[j] += a * p - b * q
                    acc[n + j] += a * q + b * p


def hat_bracket(x: ExtendedElement, y: ExtendedElement) -> ExtendedElement:
    """Bracket of the extended algebra; c is central, d acts by d/dt. The
    loop part is `extended_bracket_raw`, each output exponent reduced once,
    and c the cocycle."""
    f, g = x.loop, y.loop
    f._require_match(g)
    alg, m = f.algebra, f.twist.order
    dx, dy = _denominator(x), _denominator(y)
    out = extended_bracket_raw(alg, f.twist, *_numerators(x, dx), *_numerators(y, dy), {})
    den = m * dx * dy * alg._sc_den
    loop = f.from_vecs(alg, f.twist, {k: vec_canon(acc, den) for k, acc in out.items()})
    return ExtendedElement(loop, cocycle(f, g), ZERO)


def jacobi_residual(x: ExtendedElement, y: ExtendedElement, z: ExtendedElement) -> ExtendedElement:
    """[[x,y],z] + [[y,z],x] + [[z,x],y]; contract: exactly zero.

    x, y and z go over one denominator E once (`_numerators`). Every inner
    bracket is over m E^2 D_s and goes unreduced into the outer one (it has
    no d, and its c is central and drops out). Every outer bracket is over
    m^2 E^3 D_s^2 and every outer cocycle sum over m E^3 D_s D_K, so the
    three add as ints, and each exponent and c is reduced once. Raises
    MismatchError on operands over different algebras or twists."""
    f = x.loop
    f._require_match(y.loop)
    f._require_match(z.loop)
    alg, m = f.algebra, f.twist.order
    e = _denominator(x, y, z)
    ready = [_numerators(w, e) for w in (x, y, z)]
    total, cocycles = {}, []
    for a, b, h in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = extended_bracket_raw(alg, f.twist, *ready[a], *ready[b], {})
        hs, hd = ready[h]
        extended_bracket_raw(alg, f.twist, [(k, acc) for k, acc in inner.items() if any(acc)], None, hs, hd, total)
        cocycles.append(_cocycle_sum(alg, inner, hs))
    dc = m * e ** 3 * alg._sc_den  # of the outer cocycle sums, times D_K
    den = m * dc * alg._sc_den  # of the outer brackets
    # the Jacobi identity makes every accumulator zero: skip reducing them
    loop = f.from_vecs(alg, f.twist, {k: vec_canon(acc, den) for k, acc in total.items() if any(acc)})
    return ExtendedElement(loop, _cocycle_value(alg, m, tuple(map(sum, zip(*cocycles))), dc), ZERO)


def in_derived_algebra(x: ExtendedElement) -> bool:
    """The derived algebra is the loop algebra plus the center: d-free."""
    return not x.d


# -- ideals ----------------------------------------------------------------

class GradedSubspace:
    """Coefficient-block subspace description.

    Membership: loop coefficients supported on the given ideal blocks, c
    component allowed iff include_c, d component allowed iff include_d.
    """

    def __init__(self, algebra, blocks, include_c=False, include_d=False):
        self.include_c = include_c
        self.include_d = include_d
        self._allowed = {i for b in blocks for i in algebra.blocks[b].indices}

    def contains(self, x: ExtendedElement) -> bool:
        if x.c and not self.include_c:
            return False
        if x.d and not self.include_d:
            return False
        return all(vec_support(vec) <= self._allowed for vec in x.loop.terms.values())


def is_ideal(generators, ambient_sample, description: GradedSubspace) -> bool:
    """Do brackets of the generators with ambient elements stay inside the
    described subspace? Generators must satisfy the description themselves."""
    for gen in generators:
        if not description.contains(gen):
            raise ValueError("a generator lies outside the described subspace")
    for gen in generators:
        for amb in ambient_sample:
            # [amb, gen] = -[gen, amb], and contains reads only which parts
            # are nonzero: one bracket decides both
            if not description.contains(hat_bracket(gen, amb)):
                return False
    return True


# -- splitting homomorphism -------------------------------------------------

class SplittingHom:
    """phi: (+)_i derived algebras of the factors -> derived algebra of the sum.

    Loops embed blockwise; the c coefficients add up. The kernel is the
    hyperplane of pure-c tuples summing to zero, of dimension (#factors - 1).
    Every image is checked against the grading of the target twist.
    """

    def __init__(self, factors, target_algebra, target_twist):
        # factors: list of (algebra_i, twist_i); target blocks must line up
        self.factors = list(factors)
        self.target_algebra = target_algebra
        self.target_twist = target_twist
        blocks = target_algebra.blocks
        if len(blocks) != len(self.factors):
            raise MismatchError("factor count does not match target ideal blocks")
        offset = 0
        self._offsets = []
        for (alg, _), blk in zip(self.factors, blocks):
            if alg.dim != len(blk.indices):
                raise MismatchError("factor dimension does not match target block")
            if tuple(blk.indices) != tuple(range(offset, offset + alg.dim)):
                raise MismatchError("target blocks must be contiguous and ordered")
            self._offsets.append(offset)
            offset += alg.dim

    def apply(self, parts) -> ExtendedElement:
        """parts: one (loop, c) ExtendedElement per factor (d must be 0)."""
        if len(parts) != len(self.factors):
            raise MismatchError("wrong number of factor elements")
        width, terms, c_total = self.target_algebra.dim, {}, ZERO
        for part, off, (alg, twist) in zip(parts, self._offsets, self.factors):
            if part.d:
                raise MismatchError("factor elements live in derived algebras: d = 0")
            if part.loop.algebra is not alg or part.loop.twist != twist:
                raise MismatchError("factor element over the wrong algebra or twist")
            before, after = (0,) * off, (0,) * (width - off - alg.dim)
            for k, (nums, den) in part.loop.terms.items():
                vec = before + nums[:alg.dim] + after + before + nums[alg.dim:] + after, den
                terms[k] = vec_add(terms[k], vec) if k in terms else vec
            c_total = c_total + part.c
        loop = TwistedLoopElement.from_vecs(self.target_algebra, self.target_twist, terms)
        check_grading(loop)
        return ExtendedElement(loop, c_total, ZERO)

    def kernel_dimension(self) -> int:
        """Dimension of the kernel of apply on a basis of the factors'
        derived algebras truncated to degrees -1..1: each factor's c line
        and its loop coordinates at degrees 0 and +-1, one factor at a time.
        The images are flattened to real vectors; the kernel is the space of
        their real linear relations."""
        zeros = [ExtendedElement(zero_loop(alg, twist)) for alg, twist in self.factors]
        images = []
        for i, (alg, twist) in enumerate(self.factors):
            # k mod the twist order picks the (-1)^k eigenspace of an order-2
            # twist and every coordinate of an untwisted factor
            spanning = [ExtendedElement(zero_loop(alg, twist), c=1)] + [
                ExtendedElement(TwistedLoopElement.from_vecs(alg, twist, {k: vec}))
                for k in (-1, 0, 1) for vec in twist_eigenbasis(alg, twist, k % twist.order)
            ]
            images.extend(self.apply(zeros[:i] + [x] + zeros[i + 1:]) for x in spanning)
        degrees = sorted({k for y in images for k in y.loop.terms})
        flat = [real_coords(y, degrees) for y in images]
        return len(linalg.nullspace([list(row) for row in zip(*flat)]))

    def is_homomorphism_on(self, pairs) -> bool:
        """Exact check of phi[x, y] = [phi x, phi y] on supplied tuples."""
        for xs, ys in pairs:
            lhs = self.apply([hat_bracket(x, y) for x, y in zip(xs, ys)])
            rhs = hat_bracket(self.apply(xs), self.apply(ys))
            if lhs != rhs:
                return False
        return True
