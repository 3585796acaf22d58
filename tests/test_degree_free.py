"""Degree-free truncations: `truncate` builds only the base blocks (0,) ..
(P, -P) and ("cd",), and every number that grows with the degree is read
off them and their multiplicities (`Truncation.counts`, `layout`). Each is
checked against the materialized path, the same library code run on
truncations whose every block is built (`materialize` in oracles, each
block equal to it solved, `truncate_reference`): the
split's dims, the K/P check, the fix_compact count and verdict, the Gram
size and verdict, classify_type and the whole osaka_verify report, on the
8 catalog forms (with their killing-gram and decompose reports), on
hypothesis-drawn diagonal forms and on the period-4 ODD_SPLITS at degrees
1 to 20, and the killing-gram reports at degrees 60 and 200. A split
copied through its constructor (oracles.replace) keeps every block
explicit, so a corruption past the period still fails the K/P check."""
import contextlib
import io
import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import cli, serialize
from kmalg.involution import InvolutionError, RealFormDescriptor, _period, fixed_and_eigenspaces
from kmalg.loop import NonRealPairingError, killing_gram
from kmalg.osaka import (
    OsakaRecord,
    OsakaType,
    _check_expected_kp,
    catalog_record,
    classify_type,
    osaka_verify,
)
from cases import DIAGONAL, NAMES, ODD_PHI, ODD_SPLITS, PHIS
from oracles import materialize, replace, truncate_reference

DEGREES = range(1, 21)
_truncate = RealFormDescriptor.truncate


@contextlib.contextmanager
def materialized():
    """Inside, RealFormDescriptor.truncate builds every block of its degree
    (materialize), so the library runs its explicit path: every block split
    and checked, each counted once, every loop in the Gram."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RealFormDescriptor, "truncate", lambda self, n_max: materialize(_truncate(self, n_max)))
        yield


def _both(fn, *args):
    """fn(*args) on the degree-free path, then on the materialized one."""
    got = fn(*args)
    with materialized():
        return got, fn(*args)


def _report(rec, degree):
    rep = osaka_verify(rec, degree)
    return rep.computed_type, {k: (c.passed, c.detail, c.witness) for k, c in rep.checks.items()}


def _cli(argv):
    """exit code and report of one command, timing_ms dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    report = json.loads(out.getvalue())
    report.pop("timing_ms")
    return code, json.dumps(report, indent=2, ensure_ascii=False)


def _gram(truncation):
    """The Gram size, read off the multiplicities, and killing_gram's
    verdict on the truncation's loops, or its error."""
    size = sum(len(items) * count for (key, items), count in zip(truncation.blocks, truncation.counts())
               if key != ("cd",))
    try:
        return size, killing_gram(truncation.loops)[1]
    except NonRealPairingError as err:
        return size, str(err)


def _split(phi, truncation):
    try:
        return fixed_and_eigenspaces(phi, truncation)
    except InvolutionError as err:
        return type(err), str(err), err.verdicts


def _check_degree_free(rec, degree):
    """Every degree-free number of rec at degree against the materialized
    path; returns the osaka_verify report."""
    rf, phi = rec.real_form, rec.involution
    t = rf.truncate(degree)
    full = materialize(t)
    assert t.built_period == _period(rf.twist, rf.conj) and replace(t).built_period is None
    assert [key for key, _ in t.blocks] == rf.block_keys(min(degree, _period(rf.twist, rf.conj)))
    assert [key for key, _ in t.layout()] == rf.block_keys(degree)
    assert full.blocks == truncate_reference(rf, degree).blocks
    assert _gram(t) == _gram(full) and _gram(full)[0] == len(full.loops)
    assert classify_type(t) == classify_type(full)
    dec, explicit = _split(phi, t), _split(phi, full)
    if isinstance(explicit, tuple):
        assert dec == explicit
    else:
        assert dec.built_period == _period(rf.twist, rf.conj, phi.loop_map)
        assert len(dec.blocks) == min(degree, dec.built_period) + 2
        assert materialize(dec).blocks == explicit.blocks
        assert dec.dims() == explicit.dims()
        assert sum(dec.counts()) == len(explicit.blocks)
        assert _check_expected_kp(rec, dec) == _check_expected_kp(rec, explicit)
    got, want = _both(_report, rec, degree)
    assert got == want
    return got


@pytest.mark.parametrize("name", NAMES)
def test_catalog_forms_match_the_materialized_path(name):
    rec = catalog_record(name)
    for degree in DEGREES:
        computed, checks = _check_degree_free(rec, degree)
        assert all(passed for passed, _, _ in checks.values())
        for command in ("killing-gram", "decompose"):
            got, want = _both(_cli, [command, "--form", name, "--degree", str(degree)])
            assert got == want and got[0] == 0


@pytest.mark.parametrize("degree", [60, 200])
def test_killing_gram_reports_equal_the_materialized_ones(degree):
    for name in NAMES:
        got, want = _both(_cli, ["killing-gram", "--form", name, "--degree", str(degree)])
        assert got == want


def _diagonal_record(rf, phi, claimed, perturb):
    """A record of rf and phi whose expected dims are read off the explicit
    split at degree 2 (zeros when it fails), with one more K dimension on
    the even blocks when perturb is set."""
    dec = _split(phi, materialize(rf.truncate(2)))
    if isinstance(dec, tuple):
        dims = {"zero": (0, 0), "odd_pair": (0, 0), "even_pair": (0, 0), "cd": (0, 2)}
    else:
        found = dec.dims()
        dims = {"zero": found[(0,)], "odd_pair": found[(1, -1)], "even_pair": found[(2, -2)],
                "cd": found[("cd",)]}
    if perturb:
        dims["even_pair"] = (dims["even_pair"][0] + 1, dims["even_pair"][1])
    return OsakaRecord("diagonal", rf, phi, claimed, dims)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DIAGONAL), st.sampled_from(PHIS), st.integers(1, 20), st.sampled_from(OsakaType),
       st.booleans())
def test_diagonal_forms_match_the_materialized_path(rf, phi, degree, claimed, perturb):
    _check_degree_free(_diagonal_record(rf, phi, claimed, perturb), degree)


def test_diagonal_forms_reach_every_check():
    """The drawn records are not all failures: with every one of PHIS that
    splits a closed form of DIAGONAL[::7] at degree 2, at degree 7 the
    fix_compact and K/P checks both pass and fail, at all three periods."""
    outcomes = Counter()
    for rf in DIAGONAL[::7]:
        for phi in PHIS if rf.verify_closed() else ():
            if not isinstance(_split(phi, rf.truncate(2)), tuple):
                perturb = sum(outcomes.values()) % 4 == 0
                _, checks = _check_degree_free(_diagonal_record(rf, phi, OsakaType.COMPACT, perturb), 7)
                period = _period(rf.twist, rf.conj, phi.loop_map)
                outcomes.update((key, checks[key][0], period) for key in ("fix_compact", "KP_match"))
    assert set(outcomes) == {(key, ok, period) for key in ("fix_compact", "KP_match")
                             for ok in (True, False) for period in (1, 2, 4)}


@pytest.mark.parametrize("name", sorted(ODD_SPLITS))
def test_period_4_splits_match_the_materialized_path(name):
    """ODD_PHI has odd parity: the split's period is 4 on both forms, so on
    the even form, untwisted and built with period 1, the split solves
    blocks (2, -2) to (4, -4) itself."""
    rf = ODD_SPLITS[name]
    rec = OsakaRecord(name, rf, ODD_PHI, OsakaType.COMPACT,
                      {"zero": (1, 2), "even_pair": (3, 3), "odd_pair": (3, 3), "cd": (0, 2)})
    for degree in DEGREES:
        _, checks = _check_degree_free(rec, degree)
        assert checks["KP_match"][0]


def test_the_null_record_names_the_same_first_non_real_pair():
    """su2c with no real structure ("cd_scale": null) and f -> f(-t): its
    K holds x and i x, whose pairing is not real. At degrees 1, 5 and 9
    fix_compact names the same first non-real pair (i, j), in row-major
    order, as the materialized path."""
    ident = {"matrix": [[[str(int(i == j)), "0"] for j in range(3)] for i in range(3)]}
    rec = serialize.record_from_json({
        "schema": "kmalg/1", "name": "null", "algebra": "su2c", "twist_order": 1,
        "form": {"cd_scale": None}, "involution": {"rho_plus": ident}, "claimed_type": "Compact"})
    pairs = set()
    for degree in (1, 5, 9):
        got, want = _both(_report, rec, degree)
        assert got == want
        detail = got[1]["fix_compact"][1]
        pairs.add(re.search(r"non-real \(pairing (\(\d+,\d+\))", detail).group(1))
    assert len(pairs) == 1


def test_a_replaced_split_corrupted_past_the_period_fails_kp_match():
    """A copy of a split through its constructor (oracles.replace) keeps
    every block explicit (materialize), so a block past the period is
    checked: with its K and P signs swapped, or one K vector dropped, the
    K/P check fails there. I[Id,mu] is twisted, so its period is 2 and
    block (5, -5) lies past it."""
    rec = catalog_record("I[Id,mu]")
    dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(6))
    assert dec.built_period == 2 and len(dec.blocks) == 4 and _check_expected_kp(rec, dec)[0]
    full = materialize(dec)
    assert _check_expected_kp(rec, full)[0]
    i = [key for key, _ in full.blocks].index((5, -5))
    items = full.blocks[i][1]
    for corrupt, detail in (
            ([(e, 1) for e, s in items if s == -1] + [(e, -1) for e, s in items if s == 1],
             "K vector in block (5, -5) violates the expected condition"),
            (items[1:], "block (5, -5): dims (1, 2) != expected (2, 2)")):
        blocks = list(full.blocks)
        blocks[i] = ((5, -5), corrupt)
        corrupted = replace(full, blocks=tuple(blocks))
        assert corrupted.built_period is None
        assert _check_expected_kp(rec, corrupted) == (False, detail)


def test_osaka_verify_is_flat_in_degree(monkeypatch):
    """At degree 100000 osaka_verify solves the base blocks and nothing
    more, (0,), (1, -1) and ("cd",) as I[Id,Id] has period 1, and reads
    the fix_compact count off their multiplicities: 3 + 3n on I[Id,Id]."""
    calls = Counter()
    block_basis = RealFormDescriptor.block_basis

    def counting(self, key):
        calls[key] += 1
        return block_basis(self, key)

    monkeypatch.setattr(RealFormDescriptor, "block_basis", counting)
    rec = catalog_record("I[Id,Id]")
    report = osaka_verify(rec, 100000)
    assert report.all_passed
    assert report.checks["fix_compact"].detail == "verdict NegDefinite on 300003 fixed loop directions"
    assert calls == Counter(rec.real_form.block_keys(1))
