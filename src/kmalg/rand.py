"""Deterministic splittable randomness for property trials.

Each trial draws from a SHA-256 counter stream keyed by (seed, trial index),
so parallel and serial runs produce identical elements and reports are
byte-reproducible across platforms.
"""
from __future__ import annotations

import hashlib
import struct
from fractions import Fraction
from math import lcm

from .kmext import ExtendedElement
from .loop import TwistedLoopElement, twist_eigenbasis
from .scalars import Scalar, ZERO, nums_add_scaled, vec_canon

_U32 = struct.Struct(">I")
GAUSSIAN_DEN = 4  # the denominator p q of every gaussian() divides it


class TrialRng:
    def __init__(self, seed, index=0):
        self._key = f"{seed}:{index}".encode()
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def _refill(self):
        """Drop the bytes read so far and append the next SHA-256 block."""
        block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
        self._counter += 1
        self._buf = self._buf[self._pos:] + block
        self._pos = 0

    def u32(self) -> int:
        """The next 4 bytes of the stream as a big-endian int, read at an
        offset into the buffer."""
        pos = self._pos
        if pos + 4 > len(self._buf):
            self._refill()
            pos = 0
        self._pos = pos + 4
        return _U32.unpack_from(self._buf, pos)[0]

    def randint(self, a, b) -> int:
        """Uniform-ish integer in [a, b]; bias is irrelevant for fuzzing."""
        span = b - a + 1
        return a + self.u32() % span

    def scalar(self) -> Scalar:
        """a/p + i b/q from the draws of gaussian(): a, b in [-3, 3] and
        p, q in [1, 2]."""
        a, p = self.randint(-3, 3), self.randint(1, 2)
        b, q = self.randint(-3, 3), self.randint(1, 2)
        return Scalar(Fraction(a, p), Fraction(b, q))

    def gaussian(self):
        """scalar() as a numerator form ((a q, b p), p q), from the same four
        draws a, p, b, q, building no Fraction or Scalar."""
        a, p = self.randint(-3, 3), self.randint(1, 2)
        b, q = self.randint(-3, 3), self.randint(1, 2)
        return (a * q, b * p), p * q


def random_loop_element(algebra, twist, rng: TrialRng, max_degree=6):
    """Random graded element of 1 to 4 drawn terms: coefficients drawn
    inside twist eigenspaces, so the grading holds by construction. Each
    exponent's basis combinations are summed in one int accumulator over
    GAUSSIAN_DEN times the lcm of the basis denominators, and reduced once."""
    accs = {}
    n_terms = rng.randint(1, 4)
    for _ in range(n_terms):
        k = rng.randint(-max_degree, max_degree)
        basis = twist_eigenbasis(algebra, twist, k % 2)
        if not basis:
            continue
        den = GAUSSIAN_DEN * lcm(*(d for _, d in basis))
        acc = accs.setdefault(k, ([0] * (2 * algebra.dim), den))[0]
        for nums, d in basis:
            (p, q), e = rng.gaussian()
            if p or q:
                s = den // (d * e)
                nums_add_scaled(acc, nums, p * s, q * s)
    return TwistedLoopElement.from_vecs(
        algebra, twist, {k: vec_canon(acc, den) for k, (acc, den) in accs.items()})


def random_extended_element(algebra, twist, rng: TrialRng, max_degree=6, with_cd=True):
    loop = random_loop_element(algebra, twist, rng, max_degree)
    c = rng.scalar() if with_cd else ZERO
    d = rng.scalar() if with_cd else ZERO
    return ExtendedElement(loop, c, d)
