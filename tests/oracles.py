"""Independent oracles used by the test suite.

These deliberately take different computational routes from the library:
Killing values via matrix traces instead of adjoint traces, loop pairings
via symbolic trigonometric expansion and term-by-term integration instead
of the convolution rule, determinants via the Bareiss fraction-free scheme
instead of divide-and-eliminate.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

from kmalg.scalars import Scalar, ZERO


# -- finite Killing forms by matrix trace ---------------------------------

def _trace_of_product(x_mat, y_mat) -> Scalar:
    """tr(xy) = sum_{i,t} x_it y_ti, every product taken densely."""
    n = len(x_mat)
    return sum((x_mat[i][t] * y_mat[t][i] for i in range(n) for t in range(n)), ZERO)


def killing_sl_family(n, x_mat, y_mat) -> Scalar:
    """B(x, y) = 2n tr(xy) on sl(n) and its real forms (su(n), sl(n,R))."""
    return Scalar(2 * n) * _trace_of_product(x_mat, y_mat)


def killing_so_family(n, x_mat, y_mat) -> Scalar:
    """B(x, y) = (n-2) tr(xy) on so(n)."""
    return Scalar(n - 2) * _trace_of_product(x_mat, y_mat)


# -- symbolic trigonometric integration -----------------------------------

def pointwise_pairing_spectrum(f, g, pairing):
    """Frequency -> coefficient of the expansion of pairing(f(t), g(t))."""
    freq = {}
    for k, ak in f.terms.items():
        for l, bl in g.terms.items():
            v = pairing(ak, bl)
            if v:
                freq[k + l] = freq.get(k + l, ZERO) + v
    return {q: v for q, v in freq.items() if v}


def integrate_constant_term(spectrum, twist_order):
    """(1/2pi) integral over a period of sum c_q e^{i q t / m}.

    The pointwise pairing of twist-graded loops is 2pi-periodic, so for
    m = 2 every odd grid frequency must already have cancelled; this is
    asserted rather than integrated around.
    """
    if twist_order == 2:
        for q, v in spectrum.items():
            assert q % 2 == 0 or not v, f"odd frequency {q} survived: {v}"
    return spectrum.get(0, ZERO)


def loop_killing_oracle(f, g) -> Scalar:
    alg = f.algebra
    spec = pointwise_pairing_spectrum(f, g, alg.killing)
    return integrate_constant_term(spec, f.twist.order)


def cocycle_oracle(f, g) -> Scalar:
    """(1/2pi) int <f, g'>: differentiate g symbolically, then integrate."""
    alg = f.algebra
    m = f.twist.order
    g_prime_terms = {
        l: tuple(Scalar(0, Fraction(l, m)) * c for c in vec) for l, vec in g.terms.items() if l
    }

    class _G:
        terms = g_prime_terms
        algebra = alg

    spec = pointwise_pairing_spectrum(f, _G, alg.killing)
    return integrate_constant_term(spec, m)


# -- Bareiss determinants ---------------------------------------------------

def bareiss_determinant(rows) -> Fraction:
    """Fraction-free Bareiss determinant over integers after clearing
    denominators row by row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = []
    scale = Fraction(1)
    for row in rows:
        den = 1
        for x in row:
            fr = Fraction(x)
            den = den * fr.denominator // gcd(den, fr.denominator)
        scale /= den
        m.append([int(Fraction(x) * den) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * scale * m[n - 1][n - 1]


def leading_minors_oracle(rows):
    return [
        bareiss_determinant([row[: k + 1] for row in rows[: k + 1]])
        for k in range(len(rows))
    ]


# -- the Fraction-only scalar representation --------------------------------

def fraction_backed(re, im=0) -> Scalar:
    """A Scalar whose parts are stored as Fraction even when integral, the
    way every Scalar was stored before parts became int-first. It is built
    around the constructor, which would store integral parts as int."""
    s = object.__new__(Scalar)
    Scalar.re.__set__(s, Fraction(re))
    Scalar.im.__set__(s, Fraction(im))
    return s
