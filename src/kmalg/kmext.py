"""The two-dimensional extension of a twisted loop algebra by a central
element c and a derivation d.

Extended elements are triples (loop, c, d). The bracket is

    [(f, rc, rd), (g, sc, sd)] = ([f,g]_pointwise + rd g' - sd f',
                                  omega(f, g), 0)

with the integral cocycle omega(f,g) = (1/2pi) int <f, g'> dt, <,> the
finite Killing form. The z-residue form of the cocycle differs from the
integral form by a factor of i (d/dt = i z d/dz); both are exposed and the
integral form is the one used by the bracket.
"""
from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .loop import (
    MismatchError,
    TwistedLoopElement,
    check_grading,
    loop_bracket,
    loop_derivative,
    twist_eigenbasis,
    zero_loop,
)
from .scalars import I, Scalar, ZERO, exact_div, vec_add, vec_mul, vec_support


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
    (zero where x has no term), then c.re, c.im, d.re, d.im."""
    zero = ((0,) * (2 * x.loop.algebra.dim), 1)
    out = []
    for k in degrees:
        nums, den = x.loop.terms.get(k, zero)
        out.extend(exact_div(a, den) for a in nums)
    out.extend((x.c.re, x.c.im, x.d.re, x.d.im))
    return out


def central_element(algebra, twist, value=1) -> ExtendedElement:
    return ExtendedElement(zero_loop(algebra, twist), c=value)


def derivation_element(algebra, twist, value=1) -> ExtendedElement:
    return ExtendedElement(zero_loop(algebra, twist), d=value)


# -- cocycle --------------------------------------------------------------

def cocycle(f: TwistedLoopElement, g: TwistedLoopElement) -> Scalar:
    """(1/2pi) int <f, g'> dt = sum_k B(a_k, -(i k/m) b_{-k}). Antisymmetric.
    Zero, with no sum formed, when no exponent of f meets its negative in g."""
    f._require_match(g)
    other = g.terms
    pairs = [(k, ak) for k, ak in f.terms.items() if k and -k in other]
    if not pairs:
        return ZERO
    killing, m = f.algebra.killing, f.twist.order
    return sum((killing(ak, vec_mul(other[-k], ((0, -k), m))) for k, ak in pairs), ZERO)


class ResidueCocycle(NamedTuple):
    value: Scalar
    integral_factor: Scalar  # integral form = integral_factor * residue form


INTEGRAL_OVER_RESIDUE = I


def residue_cocycle(f: TwistedLoopElement, g: TwistedLoopElement) -> ResidueCocycle:
    """Res_z <f, dg/dz> = sum_k (-k) B(a_k, b_{-k}) for untwisted z-Laurent
    loops, along with the factor i converting to the integral convention."""
    f._require_match(g)
    if f.twist.order != 1:
        raise MismatchError("the residue form is defined for untwisted loops")
    alg = f.algebra
    total = ZERO
    for k, ak in f.terms.items():
        bmk = g.terms.get(-k)
        if bmk is not None and k:
            total = total + Scalar(-k) * alg.killing(ak, bmk)
    return ResidueCocycle(total, INTEGRAL_OVER_RESIDUE)


# -- bracket --------------------------------------------------------------

def hat_bracket(x: ExtendedElement, y: ExtendedElement) -> ExtendedElement:
    """Bracket of the extended algebra; c is central, d acts by d/dt."""
    f, g = x.loop, y.loop
    f._require_match(g)
    loop_part = loop_bracket(f, g)
    if x.d:
        loop_part = loop_part + loop_derivative(g, x.d)
    if y.d:
        loop_part = loop_part + loop_derivative(f, -y.d)
    return ExtendedElement(loop_part, cocycle(f, g), ZERO)


def jacobi_residual(x: ExtendedElement, y: ExtendedElement, z: ExtendedElement) -> ExtendedElement:
    """[[x,y],z] + [[y,z],x] + [[z,x],y]; contract: exactly zero."""
    return (
        hat_bracket(hat_bracket(x, y), z)
        + hat_bracket(hat_bracket(y, z), x)
        + hat_bracket(hat_bracket(z, x), y)
    )


def in_derived_algebra(x: ExtendedElement) -> bool:
    """The derived algebra is the loop algebra plus the center: d-free."""
    return not x.d


# -- ideals ----------------------------------------------------------------

class GradedSubspace:
    """Coefficient-block subspace description.

    Membership: loop coefficients supported on the given ideal blocks, c
    component allowed iff include_c, d component allowed iff include_d.
    """

    def __init__(self, algebra, block_ids, include_c=False, include_d=False):
        self.algebra = algebra
        self.block_ids = tuple(block_ids)
        self.include_c = include_c
        self.include_d = include_d
        allowed = set()
        for b in block_ids:
            allowed.update(algebra.blocks[b].indices)
        self._allowed = allowed

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
            if not description.contains(hat_bracket(gen, amb)):
                return False
            if not description.contains(hat_bracket(amb, gen)):
                return False
    return True


# -- splitting homomorphism -------------------------------------------------

class SplittingHom:
    """phi: (+)_i derived algebras of the factors -> derived algebra of the sum.

    Loops embed blockwise; the c coefficients add up. The kernel is the
    hyperplane of pure-c tuples summing to zero, of dimension (#factors - 1).
    A factor's terms are graded by its twist, so the image is checked
    against the grading of an order-2 target twist only when some factor's
    twist differs from it on the factor's block (in order or matrix rows).
    """

    def __init__(self, factors, target_algebra, target_twist):
        # factors: list of (algebra_i, twist_i); target blocks must line up
        self.factors = list(factors)
        self.target_algebra = target_algebra
        self.target_twist = target_twist
        blocks = target_algebra.blocks
        if len(blocks) != len(self.factors):
            raise MismatchError("factor count does not match target ideal blocks")
        offset, width, agree = 0, target_algebra.dim, True
        self._offsets = []
        for (alg, twist), blk in zip(self.factors, blocks):
            if alg.dim != len(blk.indices):
                raise MismatchError("factor dimension does not match target block")
            if tuple(blk.indices) != tuple(range(offset, offset + alg.dim)):
                raise MismatchError("target blocks must be contiguous and ordered")
            pad = (ZERO,) * offset, (ZERO,) * (width - offset - alg.dim)
            agree = agree and twist.order == target_twist.order and all(
                target_twist.matrix[offset + i] == pad[0] + row + pad[1]
                for i, row in enumerate(twist.matrix))
            self._offsets.append(offset)
            offset += alg.dim
        self._graded = target_twist.order == 1 or agree

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
        if not self._graded:
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

    def bracket_in_factors(self, xs, ys):
        """Componentwise derived-algebra bracket of two factor tuples."""
        return [hat_bracket(x, y) for x, y in zip(xs, ys)]

    def is_homomorphism_on(self, pairs) -> bool:
        """Exact check of phi[x, y] = [phi x, phi y] on supplied tuples."""
        for xs, ys in pairs:
            lhs = self.apply(self.bracket_in_factors(xs, ys))
            rhs = hat_bracket(self.apply(xs), self.apply(ys))
            if lhs != rhs:
                return False
        return True
