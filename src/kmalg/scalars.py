"""Exact Gaussian-rational scalars: complex numbers with rational parts.

All arithmetic in this package runs over Q(i) so that every equality test,
rank computation and sign verdict is exact. Scalars are immutable.

Each part is stored as an ``int`` when its denominator is 1 and as a
``Fraction`` otherwise, so products of Gaussian integers (nearly all of the
structure-constant arithmetic) never pay for a gcd. ``Scalar`` accepts only
``int``, ``bool`` and ``Fraction`` parts and raises ``TypeError`` on anything
else, floats included. Python's ``int / int`` is a float, so every division
of rationals in the package goes through ``exact_div``.

Beneath Scalar, a coefficient vector of n Gaussian rationals is a numerator
vector ``(nums, den)``: ``nums`` holds the 2n integer numerators of the real
parts and then of the imaginary parts (the real layout of ``linalg``), all
over one positive ``den``. It is kept in lowest terms, gcd(den, *nums) = 1,
so that equal vectors are equal tuples; the zero vector is
``((0, ..., 0), 1)``. The loop layer stores and combines these, and
converts to Scalar only at its edge.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_Rat = (int, Fraction)


def _canonical_part(x):
    """x as a canonical part: int when its denominator is 1, else Fraction.

    Raises TypeError unless x is an int (bool included) or a Fraction.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"Scalar parts must be int or Fraction, got {type(x).__name__}")


def exact_div(a, b):
    """a / b with no float ever: two rationals give a canonical part (an int
    when the quotient is integral, else a Fraction); a Scalar operand divides
    as a Scalar."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q if isinstance(q, Scalar) else _canonical_part(q)


class Scalar:
    """A complex number re + im*i with re, im in Q. Immutable, hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _canonical_part(re))
        _set_im(self, _canonical_part(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- predicates ----------------------------------------------------
    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self):
        return not self.im

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        a, b, c, d = self.re, self.im, other.re, -other.im
        return Scalar(exact_div(a * c - b * d, n), exact_div(a * d + b * c, n))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self):
        return Scalar(self.re, -self.im)

    # -- comparison ----------------------------------------------------
    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_scalar(self)


_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, _Rat):
        return Scalar(x)
    return NotImplemented


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)

# -- numerator vectors -------------------------------------------------------

def vec_canon(nums, den):
    """(nums, den) in lowest terms, nums as a tuple; den must be positive."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple(x // g for x in nums), den // g
    return tuple(nums), den


def vec_from_parts(parts):
    """A numerator vector from its rational parts [re | im], over their
    least common denominator, which is already in lowest terms; the parts
    themselves when they are all ints."""
    dens = [x.denominator for x in parts if type(x) is not int]
    if not dens:
        return tuple(parts), 1
    den = lcm(*dens)
    return tuple(x.numerator * (den // x.denominator) for x in parts), den


def vec_from_scalars(coords):
    """Scalar coordinates as a numerator vector."""
    return vec_from_parts([s.re for s in coords] + [s.im for s in coords])


def vec_to_scalars(v):
    """The Scalar coordinates of a numerator vector."""
    nums, den = v
    n = len(nums) // 2
    return tuple(Scalar(exact_div(a, den), exact_div(b, den)) for a, b in zip(nums, nums[n:]))


def vec_add(u, v):
    (a, da), (b, db) = u, v
    d = lcm(da, db)
    fa, fb = d // da, d // db
    return vec_canon([x * fa + y * fb for x, y in zip(a, b)], d)


def vec_neg(v):
    return tuple(-x for x in v[0]), v[1]


def vec_mul(v, c):
    """c v, where c = ((p, q), e) is the numerator form of (p + q i) / e."""
    (nums, den), ((p, q), e) = v, c
    n = len(nums) // 2
    pairs = list(zip(nums, nums[n:]))
    return vec_canon([a * p - b * q for a, b in pairs] + [a * q + b * p for a, b in pairs], den * e)


def vec_support(v):
    """The set of indices of the nonzero coordinates."""
    nums = v[0]
    n = len(nums) // 2
    return {j for j, a, b in zip(range(n), nums, nums[n:]) if a or b}


def render_scalar(s: Scalar) -> str:
    """Canonical exact text form: "0", "3/2", "i", "-2·i", "1/2-3·i"."""
    if not s:
        return "0"
    if not s.im:
        return str(s.re)
    if s.im == 1:
        im = "i"
    elif s.im == -1:
        im = "-i"
    else:
        im = f"{s.im}·i"
    if not s.re:
        return im
    sign = "-" if s.im < 0 else "+"
    mag = -s.im if s.im < 0 else s.im
    im_mag = "i" if mag == 1 else f"{mag}·i"
    return f"{s.re}{sign}{im_mag}"

