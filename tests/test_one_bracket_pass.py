"""The involutive and expected K/P checks, and what osaka-catalog
brackets and images. Closure and the Cartan relations, read off the maps,
match all pairs on the 512 diagonal forms; the split's one pass over phi's
images decides the involutive check, and the K/P check reads the blocks up
to the split's built period only, each against the every-element
reference in oracles, on every catalog record at degrees 1 to 16 and on
corrupted catalog and period-4 splits (degrees 1 to 11). osaka-catalog
brackets no loop, images each element of those blocks twice, and decides
membership with no image built; dualize only builds the dual maps."""
import itertools
from collections import Counter

import pytest

from kmalg import cli, osaka, serialize
from kmalg.findim import sparse_rows
from kmalg.involution import (
    CoeffMap,
    InvolutionDescriptor,
    InvolutionError,
    PreservationError,
    RealFormDescriptor,
    _period,
    fixed_and_eigenspaces,
    verify_cartan_relations,
)
from kmalg.osaka import (
    OsakaRecord,
    OsakaType,
    _check_expected_kp,
    build_catalog_a1,
    catalog_record,
    duality_pairing,
)
from kmalg.scalars import Scalar, ZERO

from cases import (
    DIAGONAL,
    NAMES,
    ODD_PHI,
    ODD_SPLITS,
    PAIRS,
    PHIS,
    corrupted,
    counting_brackets,
    real_structure_failure,
    span,
)
from oracles import (
    check_expected_kp_reference,
    duality_pairing_reference,
    involutive_reference,
    kp_blocks,
    materialize,
    replace,
    verify_cartan_relations_reference,
    verify_closed_reference,
)


def split_verdicts(phi, truncation):
    """(preserved, squares) as osaka_verify reads them off the Cartan split
    of truncation by phi."""
    try:
        fixed_and_eigenspaces(phi, truncation)
    except InvolutionError as err:
        return err.verdicts
    return True, True


@pytest.mark.parametrize("pair", PAIRS)
def test_bracket_verdicts_match_all_pairs_on_every_diagonal_form(pair):
    """Each diagonal form of pair at degree 8 = 2P for P = 4 with two of
    PHIS and PHIS[0] (identity matrix, parity 0, s = 1, which preserves
    every form); the form is split by the first of them that preserves it
    and squares to the identity. osaka_verify's involutive check is that of
    every element, once for each pair of verdicts. Where tau is a real
    structure, closure is that of all pairs, and on a closed form the
    relations are those of all pairs of the split."""
    involutive, verdicts, checked = Counter(), Counter(), set()
    forms = [(n, rf) for n, rf in enumerate(DIAGONAL) if (rf.algebra, rf.twist.order) ==
             (serialize.lookup_algebra(*pair)[0], pair[1])]
    for n, rf in forms:
        truncation = rf.truncate(8)
        phis = [PHIS[(5 * n + j) % len(PHIS)] for j in range(2)] + PHIS[:1]
        got = [split_verdicts(phi, truncation) for phi in phis]
        assert got == [involutive_reference(rf, phi, truncation) for phi in phis]
        involutive.update(got[:2])
        for phi, v in zip(phis, got):
            if v not in checked:  # osaka_verify's involutive check, once per verdict pair
                checked.add(v)
                rec = OsakaRecord("drawn", rf, phi, OsakaType.COMPACT,
                                  dict.fromkeys(("zero", "even_pair", "odd_pair", "cd"), (0, 0)))
                check = osaka.osaka_verify(rec, 8).checks["involutive"]
                preserved, squares = want = involutive_reference(rf, phi, truncation)
                assert check.passed == all(want)
                assert check.detail == f"preserves form: {preserved}, squares to identity: {squares}"
        phi = next(phi for phi, v in zip(phis, got) if all(v))
        closed, holds = bool(rf.verify_closed()), bool(verify_cartan_relations(rf, phi))
        if real_structure_failure(rf) is None:
            assert closed == verify_closed_reference(rf, truncation)
        if closed:
            assert holds == verify_cartan_relations_reference(fixed_and_eigenspaces(phi, truncation))
        verdicts[(closed, closed and holds), _period(rf.twist, rf.conj, phi.loop_map)] += 1
    assert len(forms) == 128 and {all(v) for v in involutive} == {True, False}
    # closed and not, relations holding and not, at every period the twist
    # allows: 1 too when untwisted
    assert {v for v, _ in verdicts} == {(False, False), (True, False), (True, True)}
    assert {p for _, p in verdicts} == ({1, 2, 4} if pair[1] == 1 else {2, 4})


def _with_maps(dec):
    """dec with its involution's map m (which the K/P check reads) replaced
    by m, its parity-1 and parity-2 variants, and the identity (which fixes
    K but not P). Each keeps dec's built period where the map commutes
    with the shift by it, so the check skips the blocks past it; elsewhere
    every block is checked."""
    phi = dec.involution
    m = phi.loop_map
    for other in [m, CoeffMap.identity(len(m.matrix))] + [
            CoeffMap(m.sparse, m.index_sign, m.conjugate, p) for p in (1, 2)]:
        keep = dec.built_period and dec.built_period % _period(dec.real_form.twist, other) == 0
        changed = replace(dec if keep else materialize(dec), involution=replace(phi, loop_map=other))
        if keep:
            changed.built_period = dec.built_period
        yield changed


def _checked_copies(dec):
    """The splits whose K/P check is compared with the reference: dec and
    its corruptions (`corrupted`, then dec with the K and P vectors of one
    block swapped, for each block with both), each with the maps of
    _with_maps. A corruption is a copy of dec through its constructor
    (`replace`) with every block explicit (`materialize`) and no built
    period, so every block of it is checked. Then each corruption of the
    c/d block or of one of (0,) .. (P, -P) again, cut to those base blocks
    with dec's built period back and dec's own map: the check reads the
    changed block, and the reference its shifts too."""
    full, period, swapped = materialize(dec), dec.built_period, []
    for i, (key, k_basis, p_basis) in enumerate(kp_blocks(full)):
        if k_basis and p_basis:
            blocks = list(full.blocks)
            blocks[i] = (key, [(e, 1) for e in p_basis] + [(e, -1) for e in k_basis])
            swapped.append(replace(full, blocks=tuple(blocks)))
    for changed_dec in itertools.chain(corrupted(dec), swapped):
        yield from _with_maps(changed_dec)
        if changed_dec is dec:
            continue
        changed = [key for (key, items), (_, old) in zip(changed_dec.blocks, full.blocks) if items is not old]
        if changed and period and all(key[0] == "cd" or key[0] <= period for key in changed):
            kept = replace(changed_dec, blocks=tuple(
                (key, items) for key, items in changed_dec.blocks if key[0] == "cd" or key[0] <= period))
            kept.built_period = period
            yield kept


def test_involutive_and_expected_kp_match_every_element_on_the_catalog():
    """Also with each record's even-block dims made wrong, which the check
    reads at (2, -2) even when the split's period is 1."""
    details = set()
    for rec in build_catalog_a1():
        rf, phi = rec.real_form, rec.involution
        wrong_even = replace(rec, expected_kp={**rec.expected_kp, "even_pair": (0, 0)})
        for degree in range(1, 17):
            truncation = rf.truncate(degree)
            assert split_verdicts(phi, truncation) == involutive_reference(rf, phi, truncation)
            for changed in _with_maps(fixed_and_eigenspaces(phi, truncation)):
                for record in (rec, wrong_even):
                    got = _check_expected_kp(record, changed)
                    assert got == check_expected_kp_reference(record, changed)
                    details.add(got[1].split(" in block")[0].split(":")[0])
    assert details == {"eigenspaces match the expected conditions and dimensions",
                       "K vector", "P vector", "block (2, -2)"}


@pytest.mark.parametrize("name", NAMES)
def test_involutive_and_expected_kp_match_every_element_on_corrupted_splits(name):
    rec = catalog_record(name)
    verdicts = Counter()
    split = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(6))
    for dec in corrupted(split):
        plain = span(dec)
        got = split_verdicts(rec.involution, plain)
        assert got == involutive_reference(rec.real_form, rec.involution, plain)
        verdicts[got] += 1
    for changed in _checked_copies(split):
        assert _check_expected_kp(rec, changed) == check_expected_kp_reference(rec, changed)
    # a K vector times i leaves the form
    assert verdicts[True, True] and verdicts[False, True]


@pytest.mark.parametrize("name", sorted(ODD_SPLITS))
def test_expected_kp_matches_every_element_on_corrupted_period_4_splits(name):
    """The period-4 ODD_SPLITS at degrees 1 to 11 (_checked_copies): each
    intact split records P = 4 and holds no block past (4, -4), which its
    K/P check therefore skips. Dimensions are those of every intact
    split."""
    rf = ODD_SPLITS[name]
    rec = OsakaRecord(name, rf, ODD_PHI, OsakaType.COMPACT,
                      {"zero": (1, 2), "even_pair": (3, 3), "odd_pair": (3, 3), "cd": (0, 2)})
    outcomes = Counter()
    for degree in range(1, 12):
        dec = fixed_and_eigenspaces(ODD_PHI, rf.truncate(degree))
        assert dec.built_period == 4
        for changed in _checked_copies(dec):
            got = _check_expected_kp(rec, changed)
            assert got == check_expected_kp_reference(rec, changed)
            outcomes[changed.built_period, got[1].split(" ")[0]] += 1
    # with the skip and without it, checks pass and fail on dims and on K and P vectors
    assert set(outcomes) == {(p, d) for p in (4, None) for d in ("eigenspaces", "block", "K", "P")}


def test_osaka_catalog_makes_no_loop_bracket(monkeypatch, capsys):
    """osaka-catalog --degree 5 brackets no loop: the 8 records' closure
    checks and Cartan relations are read off the maps, and neither building
    the catalog nor pairing it brackets anything."""
    calls = counting_brackets(monkeypatch)
    for rec in build_catalog_a1():
        assert rec.real_form.verify_closed()
    assert calls["loop_bracket"] == 0

    inside = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            before = calls["loop_bracket"]
            try:
                return fn(*args, **kwargs)
            finally:
                inside[fn.__name__] += calls["loop_bracket"] - before
        return wrapper

    monkeypatch.setattr(osaka, "_CATALOG_CACHE", {})
    monkeypatch.setattr(osaka, "build_catalog_a1", counted(osaka.build_catalog_a1))
    monkeypatch.setattr(osaka, "duality_pairing", counted(osaka.duality_pairing))
    assert cli.run(["osaka-catalog", "--degree", "5"]) == 0
    capsys.readouterr()
    assert calls["loop_bracket"] == 0
    assert inside == {"build_catalog_a1": 0, "duality_pairing": 0}


def test_walk_and_membership_build_no_image(monkeypatch, capsys):
    """osaka-catalog --degree 5 brackets no loop, and
    RealFormDescriptor.contains decides its verdicts image-free
    (CoeffMap.fixes): it makes no CoeffMap.apply_loop call, though it runs
    and other checks apply maps."""
    calls = counting_brackets(monkeypatch)
    apply_loop = CoeffMap.apply_loop

    def counting_apply_loop(self, f):
        calls["apply_loop"] += 1
        return apply_loop(self, f)

    monkeypatch.setattr(CoeffMap, "apply_loop", counting_apply_loop)
    entered, inside = Counter(), Counter()

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            entered[name] += 1
            before = calls["apply_loop"]
            try:
                return fn(*args, **kwargs)
            finally:
                inside[name] += calls["apply_loop"] - before
        return wrapper

    monkeypatch.setattr(RealFormDescriptor, "contains",
                        counted(RealFormDescriptor.contains, "contains"))
    assert cli.run(["osaka-catalog", "--degree", "5"]) == 0
    capsys.readouterr()
    assert calls["loop_bracket"] == 0 and calls["apply_loop"]
    assert inside == {"contains": 0} and entered["contains"]


def test_squares_is_decided_on_every_block_after_one_fails():
    """phi: a_k -> i^k M a_k, M = [[0, i, 0], [-i, 0, 0], [0, 0, 1]] with
    M^2 = 1, on the compact form of I[Id,Id]. M does not keep the real
    constants of block (0,), on which phi squares to the identity; on
    block (1, -1) phi^2 = (-1)^k = -1. The split raises the error of block
    (0,) and still reads squares off the later blocks."""
    rec = catalog_record("I[Id,Id]")
    m = [[ZERO, Scalar(0, 1), ZERO], [Scalar(0, -1), ZERO, ZERO], [ZERO, ZERO, Scalar(1)]]
    phi = InvolutionDescriptor("odd swap", CoeffMap(sparse_rows(m), 1, False, 1), -1)
    truncation = rec.real_form.truncate(2)
    with pytest.raises(PreservationError, match=r"on block \(0,\)"):
        fixed_and_eigenspaces(phi, truncation)
    assert split_verdicts(phi, truncation) == involutive_reference(rec.real_form, phi, truncation) == (False, False)


def test_osaka_catalog_images_each_representative_element_twice(monkeypatch, capsys):
    """osaka-catalog --degree 5 applies each involution to the elements of
    the blocks the split solves (up to its built period) once for the
    image and once for its image (the split), 2 * 102 calls, with no
    image built twice, and effectiveness images each record's c once: 212
    calls."""
    calls = Counter()
    apply = InvolutionDescriptor.apply

    def counting(self, x):
        calls["apply"] += 1
        return apply(self, x)

    monkeypatch.setattr(osaka, "_CATALOG_CACHE", {})
    monkeypatch.setattr(InvolutionDescriptor, "apply", counting)
    assert cli.run(["osaka-catalog", "--degree", "5"]) == 0
    capsys.readouterr()
    assert calls["apply"] <= 212


def test_a_partner_over_another_algebra_does_not_match():
    """III[Id,Id] given its own conj and cd_scale over sl2c: the maps all
    agree, but the dual of I[Id,Id] is not that form (it is over the
    complexified su(2)), so neither record of the pair matches; the double
    duals still reproduce each record."""
    catalog = build_catalog_a1()
    rf = catalog_record("III[Id,Id]").real_form
    sl2c, twist = serialize.lookup_algebra("sl2c", 1)
    other = replace(rf, algebra=sl2c, twist=twist)
    assert other.conj == rf.conj and other.cd_scale == rf.cd_scale and sl2c.dim == 3
    changed = [replace(r, real_form=other) if r.name == "III[Id,Id]" else r for r in catalog]
    rep = duality_pairing(changed)
    assert {name for name, ok in rep.matches.items() if not ok} == {"I[Id,Id]", "III[Id,Id]"}
    assert rep.double_dual_ok and rep.table_ok
    # comparing maps alone, as the reference does, matches every record
    assert all(duality_pairing_reference(changed)[0].values())
