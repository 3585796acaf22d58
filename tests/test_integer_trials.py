"""The random stream and the cocycle of Jacobi trials: TrialRng, the
integer cocycle and the central part of the residual.

TrialRng reads its stream as the big-endian words of each SHA-256 block;
its draws must be those of the byte-slicing reference
(oracles.TrialRngReference, with the numerator-form coefficient draw
oracles.gaussian), and the first jacobi-check triples must keep the
digests pinned below, recorded from the byte-slicing code. The cocycle is summed as ints over one denominator
and must equal the Scalar oracle. On a copy of su2c whose Killing table is
symmetric but not invariant the cocycle identity fails, so the residual's
c is nonzero, and it must equal both the nested hat_brackets and the
cocycle read off that table in Scalar arithmetic.
"""
import copy
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import serialize
from kmalg.kmext import ExtendedElement, cocycle, hat_bracket, jacobi_residual, residue_cocycle
from kmalg.loop import TwistedLoopElement
from kmalg.rand import TrialRng, random_extended_element
from kmalg.scalars import Scalar, ZERO, vec_to_scalars

from oracles import (
    TrialRngReference,
    cocycle_reference,
    gaussian,
    jacobi_residual_reference,
    killing_reference,
)

REGISTERED = [("su2c", 1), ("su2c", 2), ("sl2c", 1), ("sl2c", 2), ("su2su2c", 1), ("abelian1c", 1)]
SEEDS = ["1", "ci", "broken", 0, 5, 12345]


# -- the stream ------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_words_match_the_reference_over_five_blocks(seed):
    for index in (0, 3):
        new, old = TrialRng(seed, index), TrialRngReference(seed, index)
        assert [new.u32() for _ in range(40)] == [old.u32() for _ in range(40)]


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_the_reference_on_every_span(seed):
    """randint on spans 1 to 13, scalar and gaussian, interleaved across
    block boundaries, then the next word."""
    new, old = TrialRng(seed, 7), TrialRngReference(seed, 7)
    for _ in range(4):
        for span in range(1, 14):
            a = -(span // 2)
            assert new.randint(a, a + span - 1) == old.randint(a, a + span - 1)
            assert new.scalar() == old.scalar()
            assert gaussian(new) == gaussian(old)
    assert new.u32() == old.u32()


# SHA-256 of the JSON of the first 50 jacobi-check triples at degree 6, per
# registered pair and seed, recorded from the byte-slicing TrialRng and the
# per-term lcm of random_loop_element.
PINNED = {
    "su2c/1/1": "605c14d33e61314a72735bc82b692a74f6a022c42736ffc42bd06da84243dae9",
    "su2c/1/5": "e5bc73b784f8fb256c23abb658b002121ef5457e95e0547a6236c06437b0a047",
    "su2c/2/1": "7ea693d2b3cccee8dac26af5e52abc9314ab8e899b8fdadb9bc72cf932780b8b",
    "su2c/2/5": "84920f1ff7303c1278efc850aeb6e53719b3a593ebe548c9b13e0c6fa09d6296",
    "sl2c/1/1": "38ab9c96aa3c6f544796af65065302d5a7528051f42825175483dd834aa24412",
    "sl2c/1/5": "e869c2bb97e0f18144555ac59f2c41bbe9b5fe72db76ecf309d1b3ae2e998d39",
    "sl2c/2/1": "d86920ff822cc973132d2db43bae51b2cda84abf777bcee8a54a77f0c3eef8d4",
    "sl2c/2/5": "52e9f8fd1d626e7cbce25ef75678261f738ce7c540855c8c952ae50452038cb8",
    "su2su2c/1/1": "0c726664b87e00749708953e309edface3242c67e85713708ffce18cda84a56e",
    "su2su2c/1/5": "10bae1ce1a07f0df20f2e34533a13db2eeadef1d28f7e6e6d14638861b1ebf33",
    "abelian1c/1/1": "1c5c4aa42886cc8c9473aae0e56cd72891c91db5f4ad86a18b675d035e94c93c",
    "abelian1c/1/5": "8d3825836059f7b4678cd27ed350a19064caada2a1fa143aceb6adb3a4c02da4",
}


@pytest.mark.parametrize("kind", REGISTERED)
@pytest.mark.parametrize("seed", [1, 5])
def test_first_fifty_triples_keep_their_pinned_digest(kind, seed):
    algebra, twist = serialize.lookup_algebra(*kind)
    triples = []
    for t in range(50):
        rng = TrialRng(seed, t)
        triples.append([serialize.extended_to_json(random_extended_element(algebra, twist, rng, max_degree=6))
                        for _ in range(3)])
    text = json.dumps(triples, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[f"{kind[0]}/{kind[1]}/{seed}"]


# -- the integer cocycle ------------------------------------------------------------

parts = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.sampled_from((3, 5))))
scalars = st.builds(Scalar, parts, parts)


@st.composite
def loop_pairs(draw):
    """Two loops over one registered pair, drawn by TrialRng at degree 0 to
    6 and scaled by Scalars over 3 or 5; g's exponents are often f's
    negated, so the cocycle has terms to sum."""
    algebra, twist = serialize.lookup_algebra(*draw(st.sampled_from(REGISTERED)))
    rng = TrialRng(draw(st.integers(0, 10**6)), draw(st.integers(0, 50)))
    degree = draw(st.integers(0, 6))
    f, g = (random_extended_element(algebra, twist, rng, max_degree=degree).loop.scale(draw(scalars))
            for _ in range(2))
    if draw(st.booleans()):
        flipped = TwistedLoopElement.from_vecs(algebra, twist, {-k: v for k, v in f.terms.items()})
        g = g + flipped.scale(draw(scalars))
    return f, g


@settings(max_examples=200, deadline=None)
@given(loop_pairs(), scalars, scalars, scalars, scalars)
def test_cocycle_matches_the_scalar_reference(fg, xc, xd, yc, yd):
    f, g = fg
    alg, m = f.algebra, f.twist.order
    want = cocycle_reference(alg, m, f.coeffs, g.coeffs)
    assert cocycle(f, g) == want
    assert hat_bracket(ExtendedElement(f, xc, xd), ExtendedElement(g, yc, yd)).c == want
    if m == 1:
        residue = sum((Scalar(-k) * killing_reference(alg, a, g.coeffs[-k])
                       for k, a in f.coeffs.items() if k and -k in g.terms), ZERO)
        assert residue_cocycle(f, g) == residue


# -- a Killing table that is not invariant -------------------------------------------

def _skewed(algebra):
    """A copy of algebra whose Killing table has 1 added to the numerator of
    its (0, 0) entry: still symmetric, no longer invariant."""
    skewed = copy.copy(algebra)
    rows = list(algebra._killing_rows)
    row = {l: (re, im) for l, re, im in rows[0]}
    re, im = row.get(0, (0, 0))
    row[0] = (re + 1, im)
    rows[0] = tuple((l, *row[l]) for l in sorted(row))
    skewed._killing_rows = tuple(rows)
    return skewed


def _over(algebra, x):
    """x with its loop part moved onto algebra (same terms, same twist)."""
    return ExtendedElement(TwistedLoopElement.from_vecs(algebra, x.loop.twist, x.loop.terms), x.c, x.d)


def _table_cocycle(alg, m, f, g):
    """The cocycle of f and g on alg's Killing table, in Scalar arithmetic:
    sum_k -(i k/m) sum_{j,l} a_k[j] K[j][l] b_{-k}[l]."""
    table = [(j, l, vec_to_scalars(((re, im), alg._killing_den))[0])
             for j, row in enumerate(alg._killing_rows) for l, re, im in row]
    total = ZERO
    for k, a in f.coeffs.items():
        if k and -k in g.terms:
            b = g.coeffs[-k]
            total = total + Scalar(0, Fraction(-k, m)) * sum((a[j] * v * b[l] for j, l, v in table), ZERO)
    return total


@pytest.mark.parametrize("order", [1, 2])
def test_a_skewed_killing_table_gives_nonzero_central_residuals(order):
    """Twenty jacobi-check triples over the skewed su2c, each z completed by
    [x, y] with its exponents negated, so that every term of the inner
    bracket meets its negative in z. The loop part of each residual is
    zero and its c is the sum of the three cocycles on the skewed table;
    c is nonzero on all but the triples whose inner brackets lie in one
    abelian eigenspace, where no invariance is probed: at least 17 of 20
    on the twisted pair and 12 of 20 on the untwisted one."""
    algebra, twist = serialize.lookup_algebra("su2c", order)
    skewed = _skewed(algebra)
    m, nonzero = twist.order, 0
    for t in range(20):
        rng = TrialRng("skew", t)
        x, y, z = (_over(skewed, random_extended_element(algebra, twist, rng, max_degree=6)) for _ in range(3))
        w = hat_bracket(x, y).loop
        z = ExtendedElement(z.loop + TwistedLoopElement.from_vecs(skewed, twist, {-k: v for k, v in w.terms.items()}),
                            z.c, z.d)
        r = jacobi_residual(x, y, z)
        assert r == jacobi_residual_reference(x, y, z)
        assert r.loop.is_zero() and not r.d
        assert r.c == sum((_table_cocycle(skewed, m, hat_bracket(a, b).loop, h.loop)
                           for a, b, h in ((x, y, z), (y, z, x), (z, x, y))), ZERO)
        nonzero += bool(r.c)
    assert nonzero >= (17 if order == 2 else 12)
