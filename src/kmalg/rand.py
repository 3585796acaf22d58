"""Deterministic splittable randomness for property trials.

Each trial draws from a SHA-256 counter stream keyed by (seed, trial index),
so parallel and serial runs produce identical elements and reports are
byte-reproducible across platforms.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

from .kmext import ExtendedElement
from .loop import TwistedLoopElement, twist_eigenbasis
from .scalars import Scalar, ZERO, vec_add, vec_mul


class TrialRng:
    def __init__(self, seed, index=0):
        self._key = f"{seed}:{index}".encode()
        self._counter = 0
        self._buf = b""

    def _refill(self):
        block = hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
        self._counter += 1
        self._buf += block

    def _take(self, n) -> bytes:
        while len(self._buf) < n:
            self._refill()
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def randint(self, a, b) -> int:
        """Uniform-ish integer in [a, b]; bias is irrelevant for fuzzing."""
        span = b - a + 1
        return a + self.u32() % span

    def scalar(self, real_only=False) -> Scalar:
        """a/p + i b/q from the draws of gaussian(): a, b in [-3, 3] and
        p, q in [1, 2]; real_only draws a and p only."""
        a, p = self.randint(-3, 3), self.randint(1, 2)
        b, q = (0, 1) if real_only else (self.randint(-3, 3), self.randint(1, 2))
        return Scalar(Fraction(a, p), Fraction(b, q))

    def gaussian(self):
        """scalar() as a numerator form ((a q, b p), p q), from the same four
        draws a, p, b, q, building no Fraction or Scalar."""
        a, p = self.randint(-3, 3), self.randint(1, 2)
        b, q = self.randint(-3, 3), self.randint(1, 2)
        return (a * q, b * p), p * q


def random_loop_element(algebra, twist, rng: TrialRng, max_degree=6):
    """Random graded element of 1 to 4 drawn terms: coefficients drawn
    inside twist eigenspaces, so the grading holds by construction."""
    terms = {}
    n_terms = rng.randint(1, 4)
    for _ in range(n_terms):
        k = rng.randint(-max_degree, max_degree)
        basis = twist_eigenbasis(algebra, twist, k % 2)
        if not basis:
            continue
        vec = ((0,) * (2 * algebra.dim), 1)
        for b in basis:
            c = rng.gaussian()
            if any(c[0]):
                vec = vec_add(vec, vec_mul(b, c))
        terms[k] = vec_add(terms[k], vec) if k in terms else vec
    return TwistedLoopElement.from_vecs(algebra, twist, terms)


def random_extended_element(algebra, twist, rng: TrialRng, max_degree=6, with_cd=True):
    loop = random_loop_element(algebra, twist, rng, max_degree)
    c = rng.scalar() if with_cd else ZERO
    d = rng.scalar() if with_cd else ZERO
    return ExtendedElement(loop, c, d)
