"""Closure and the Cartan relations read off the coefficient maps (the lemma
in involution's docstring), against all pairs of a truncation and of its
split (verify_closed_reference and verify_cartan_relations_reference in
oracles) at degree 2P, where every class of block pairs occurs.

Wherever the form's tau is a real structure (it keeps the twist grading and
squares to the identity on the loop algebra), the verdicts must be those
of all pairs: on diagonal, signed-permutation, catalog and special (the
abelian Euclidean forms and the complex algebra as a real one) forms,
with each c/d line and with none (cd_scale None), and on forms with no
real structure (conj None). Elsewhere closure fails and names why. A failed verdict
names a witness, which each row below re-checks by another route, and
osaka_verify decides both verdicts without bracketing a loop. A record
file with no real structure is the complex algebra viewed as a real
algebra only with "cd_scale": null; with the default "1" it fails closure.
"""
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import cli, involution, kmext, loop, osaka, serialize
from kmalg.findim import make_abelian, sparse_apply, sparse_rows
from kmalg.involution import (
    CoeffMap,
    InvolutionDescriptor,
    InvolutionError,
    RealFormDescriptor,
    _period,
    fixed_and_eigenspaces,
    verify_cartan_relations,
)
from kmalg.kmext import ExtendedElement, central_element, cocycle, hat_bracket
from kmalg.loop import TwistedLoopElement, twist_eigenbasis, untwisted, zero_loop
from kmalg.osaka import build_catalog_a1, catalog_record, complex_conjugation_counterexample, euclidean_osaka
from kmalg.scalars import I, ONE, Scalar, ZERO, vec_from_scalars

from cases import PAIRS, PHIS, SIGNS, form, real_structure_failure
from oracles import verify_cartan_relations_reference, verify_closed_reference

PERMS = list(itertools.permutations(range(3)))
SCALES = (ONE, I, None)
CATALOG = build_catalog_a1()
SPECIAL = [euclidean_osaka(1), euclidean_osaka(2), complex_conjugation_counterexample()]


def _no_conj(name, twist_order, scale):
    algebra, twist = serialize.lookup_algebra(name, twist_order)
    return RealFormDescriptor("no conj", algebra, twist, None, scale)


def _abelian(scale):
    """The loops of a one-dimensional abelian algebra with no real
    structure: the Killing form is 0, so the cocycle is 0 and a c/d line
    is kept."""
    algebra = make_abelian(1, "R").complexify()
    return RealFormDescriptor("abelian, no conj", algebra, untwisted(algebra), None, scale)


forms = st.one_of(
    st.builds(form, st.sampled_from(PAIRS), st.sampled_from(PERMS), st.sampled_from(SIGNS),
              st.sampled_from((1, -1)), st.integers(0, 3), st.sampled_from(SCALES)),
    st.sampled_from([rec.real_form for rec in CATALOG + SPECIAL]),
    st.builds(_no_conj, st.sampled_from(("su2c", "sl2c")), st.sampled_from((1, 2)), st.sampled_from(SCALES)),
    st.builds(_abelian, st.sampled_from(SCALES)),
)


def _involutions(rf):
    """Linear diagonal maps (PHIS on dimension 3, else plus and minus the
    identity with each index sign and parity), the catalog's involutions
    of the form's dimension, and each of them made conjugate-linear (after
    the form's tau, so that it agrees with the linear one on the form, or
    with conj applied when the form has no tau), with epsilon -1 and +1."""
    dim = rf.algebra.dim
    maps = [phi.loop_map for phi in PHIS] if dim == 3 else [
        CoeffMap(sparse_rows([[Scalar(e) if i == j else ZERO for j in range(dim)] for i in range(dim)]), s, False, p)
        for e in (1, -1) for s in (1, -1) for p in range(4)]
    maps += [rec.involution.loop_map for rec in CATALOG if len(rec.involution.loop_map.sparse[0]) == dim]
    maps += [m.compose(rf.conj) if rf.conj is not None else CoeffMap(m.sparse, m.index_sign, True, m.parity)
             for m in maps]
    return [InvolutionDescriptor("phi", m, eps) for m in maps for eps in (-1, 1)]


def _split(phi, truncation):
    try:
        return fixed_and_eigenspaces(phi, truncation)
    except InvolutionError:
        return None


@settings(max_examples=200, deadline=None)
@given(forms, st.data())
def test_map_verdicts_match_all_pairs_wherever_tau_is_a_real_structure(rf, data):
    reason = None if rf.conj is None else real_structure_failure(rf)
    phi = data.draw(st.sampled_from(_involutions(rf)))
    truncation = rf.truncate(2 * _period(rf.twist, rf.conj, phi.loop_map))
    closed = rf.verify_closed()
    if reason is not None:
        assert not closed and closed.witness == reason
        return
    assert bool(closed) == verify_closed_reference(rf, truncation)
    dec = _split(phi, truncation)
    if closed and dec is not None:
        relations = verify_cartan_relations(rf, phi)
        assert bool(relations) == verify_cartan_relations_reference(dec)


def test_cartan_verdicts_match_all_pairs_on_the_catalog_forms():
    """Every catalog form with every involution of _involutions that
    splits it at degree 4: both verdicts occur, and both kinds of witness."""
    outcomes = Counter()
    for rec in CATALOG:
        rf = rec.real_form
        for phi in _involutions(rf):
            dec = _split(phi, rf.truncate(2 * _period(rf.twist, rf.conj, phi.loop_map)))
            if dec is None:
                continue
            relations = verify_cartan_relations(rf, phi)
            assert bool(relations) == verify_cartan_relations_reference(dec)
            outcomes[bool(relations), type(relations.witness).__name__] += 1
    assert set(outcomes) == {(True, "NoneType"), (False, "tuple"), (False, "str")}


# -- witnesses -----------------------------------------------------------------------

def _matrix(rows):
    return {"matrix": [[[str(x), "0"] for x in row] for row in rows]}


IDENT = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _record(name, twist_order, conj, cd_scale):
    """An su2c record with the involution f -> f(-t) and the form given by
    conj (matrix, index sign, parity; None for no real structure)."""
    form = {"cd_scale": cd_scale}
    if conj is not None:
        rows, s, p = conj
        form["conj"] = {**_matrix(rows), "index_sign": s, "parity": p}
    return {"schema": "kmalg/1", "name": name, "algebra": "su2c", "twist_order": twist_order,
            "form": form, "involution": {"rho_plus": _matrix(IDENT)}, "claimed_type": "Compact"}


def _grading_broken(rf, witness):
    """sigma moves a basis vector of the twist piece at degree 0 out of it."""
    twist, sigma = rf.twist, rf.conj
    return any(sparse_apply(twist.sparse, img) != img for img in
               (sparse_apply(sigma.sparse, v, True) for v in twist_eigenbasis(rf.algebra, twist, 0)))


def _square_broken(rf, witness):
    """tau applied twice to a monomial at degree 1 does not return it."""
    f = TwistedLoopElement.from_vecs(rf.algebra, rf.twist, {1: twist_eigenbasis(rf.algebra, rf.twist, 0)[0]})
    return rf.conj.apply_loop(rf.conj.apply_loop(f)) != f


def _breaks_bracket(g, cmap, pair):
    """M conj^delta [e_j, e_k] != [M conj^delta e_j, M conj^delta e_k] for
    the coefficient map cmap and pair (j, k), with findim's bracket."""
    unit = [vec_from_scalars([ONE if i == n else ZERO for i in range(g.dim)]) for n in pair]
    image = [sparse_apply(cmap.sparse, u, cmap.conjugate) for u in unit]
    return sparse_apply(cmap.sparse, g.bracket(*unit), cmap.conjugate) != g.bracket(*image)


def _pair_broken(rf, witness):
    """sigma breaks the bracket of the witness pair."""
    return _breaks_bracket(rf.algebra, rf.conj, witness)


def _derivative_leaves(rf, witness):
    """[l d, f] = l f' leaves the form for f in block (1, -1) and the
    form's c/d line l R."""
    f = next(e for e in rf.block_basis((1, -1)) if not e.loop.is_zero())
    return not rf.contains(hat_bracket(ExtendedElement(zero_loop(rf.algebra, rf.twist), d=rf.cd_scale), f))


def _cocycle_leaves(rf, witness):
    """The cocycle of f at degree 1 and f at degree -1, both coordinates
    i e_0, is not on the c line."""
    f, g = (TwistedLoopElement(rf.algebra, rf.twist, {k: (I, ZERO, ZERO)}) for k in (1, -1))
    c = cocycle(f, g)
    return c and not rf.contains(central_element(rf.algebra, rf.twist, c))


CATALOG_SWAPPED = _record("swapped cd", 1, (IDENT, -1, 0), "i")  # I[Id,Id] with cd_scale i
# row: (record, the witness its closure check must name, its re-check)
WITNESS_ROWS = {
    "grading": (_record("grading", 2, ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], -1, 0), "1"),
                "grading broken", _grading_broken),
    "square": (_record("square", 1, (IDENT, -1, 1), "i"), "tau^2 != 1 on the loop algebra", _square_broken),
    "pair": (_record("pair", 1, ([[1, 0, 0], [0, 1, 0], [0, 0, -1]], -1, 0), "1"), [0, 1], _pair_broken),
    "cd_sign": (CATALOG_SWAPPED, "c/d line sign", _derivative_leaves),
    "cocycle": (_record("cocycle", 1, None, "1"), "cocycle leaves the c/d line", _cocycle_leaves),
}


@pytest.mark.parametrize("row", sorted(WITNESS_ROWS))
@pytest.mark.parametrize("degree", [1, 2, 9])
def test_a_failed_closure_names_a_witness_that_rechecks(row, degree, tmp_path, capsys):
    spec, want, recheck = WITNESS_ROWS[row]
    path = tmp_path / "record.json"
    path.write_text(json.dumps(spec))
    code = cli.run(["osaka-verify", "--record", str(path), "--degree", str(degree)])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == cli.EXIT_FAIL and err == ""
    assert rep["checks"]["closure"] is False
    assert rep["witnesses"] == {"closure": want}
    assert rep["details"]["closure"] == "real form not closed"
    rf = serialize.record_from_json(spec).real_form
    witness = rf.verify_closed().witness
    assert witness == (tuple(want) if row == "pair" else want)
    assert recheck(rf, witness)


@pytest.mark.parametrize("degree", [1, 2, 9])
def test_a_record_with_no_real_structure_and_no_cd_line_passes_closure(degree, tmp_path, capsys):
    """The cocycle row's record with "cd_scale": null is the complex
    algebra viewed as a real algebra: it holds both c/d lines, so the
    cocycle stays in it, and closure holds with no witness. Its fixed
    loops pair to non-real Killing values, which fix_compact reports as a
    failed verdict (exit 1), not an internal error."""
    spec = _record("complex", 1, None, None)
    path = tmp_path / "record.json"
    path.write_text(json.dumps(spec))
    code = cli.run(["osaka-verify", "--record", str(path), "--degree", str(degree)])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == cli.EXIT_FAIL and err == ""
    assert rep["checks"]["closure"] is True and "closure" not in rep.get("witnesses", {})
    assert rep["checks"]["fix_compact"] is False and "non-real" in rep["details"]["fix_compact"]
    rf = serialize.record_from_json(spec).real_form
    assert rf.conj is None and rf.cd_scale is None and rf.verify_closed()
    assert not _cocycle_leaves(rf, None)


def test_catalog_record_as_a_file_passes_closure_with_its_own_cd_scale(tmp_path, capsys):
    """The swapped row's record with I[Id,Id]'s cd_scale 1 is closed."""
    path = tmp_path / "record.json"
    path.write_text(json.dumps({**CATALOG_SWAPPED, "form": {**CATALOG_SWAPPED["form"], "cd_scale": "1"}}))
    cli.run(["osaka-verify", "--record", str(path), "--degree", "2"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks"]["closure"] is True and "witnesses" not in rep


def _almost_split(matrix, index_sign):
    """III[Id,Id]'s form with the linear involution a_k -> matrix a_{s k}."""
    rf = catalog_record("III[Id,Id]").real_form
    rows = [[Scalar(x) for x in row] for row in matrix]
    return rf, InvolutionDescriptor("psi", CoeffMap(sparse_rows(rows), index_sign), -1)


@pytest.mark.parametrize("row", ["pair", "cd_sign"])
def test_a_failed_cartan_verdict_names_a_witness_that_rechecks(row):
    """psi = diag(1, 1, -1) is involutive and keeps the form but not the
    bracket of g; psi = identity with s = 1 and epsilon -1 scales c by -1
    while the derivative picks up +1. Both split the form; all pairs agree."""
    rf, phi = _almost_split([[1, 0, 0], [0, 1, 0], [0, 0, -1]] if row == "pair" else IDENT,
                            -1 if row == "pair" else 1)
    dec = fixed_and_eigenspaces(phi, rf.truncate(4))
    assert rf.verify_closed()
    relations = verify_cartan_relations(rf, phi)
    assert not relations and not verify_cartan_relations_reference(dec)
    witness = relations.witness
    if row == "pair":
        assert witness == (0, 1) and _breaks_bracket(rf.algebra, phi.loop_map, witness)
    else:
        # [d, f] = f' for f in K at degree 1: phi(f') must be -f' (d is in P) but is f'
        f = next(e for e, s in dict(dec.blocks)[(1, -1)] if s == 1)
        z = hat_bracket(ExtendedElement(zero_loop(rf.algebra, rf.twist), d=ONE), f)
        assert witness == "c/d line sign" and not z.loop.is_zero() and phi.apply(z) == z


# -- what osaka_verify calls ---------------------------------------------------------

def _special_and_custom_records():
    records = CATALOG + [euclidean_osaka(), complex_conjugation_counterexample()]
    return records + [serialize.record_from_json(spec) for spec, _, _ in WITNESS_ROWS.values()]


def test_osaka_verify_decides_closure_once_and_brackets_no_loop(monkeypatch):
    calls = Counter()

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(RealFormDescriptor, "verify_closed",
                        counting(RealFormDescriptor.verify_closed, "verify_closed"))
    relations = counting(involution.verify_cartan_relations, "verify_cartan_relations")
    monkeypatch.setattr(involution, "verify_cartan_relations", relations)
    monkeypatch.setattr(osaka, "verify_cartan_relations", relations)
    for module in (loop, kmext):
        monkeypatch.setattr(module, "loop_bracket_raw", counting(module.loop_bracket_raw, "loop_bracket_raw"))
    for module in (kmext, involution):
        monkeypatch.setattr(module, "hat_bracket", counting(module.hat_bracket, "hat_bracket"))
    asked = 0
    for rec in _special_and_custom_records():
        for degree in (1, 5):
            calls.clear()
            osaka.osaka_verify(rec, degree)
            assert calls["verify_closed"] == 1
            assert calls["verify_cartan_relations"] <= 1
            assert calls["loop_bracket_raw"] == calls["hat_bracket"] == 0
            asked += calls["verify_cartan_relations"]
    # III[.] and IV ask the relations at both degrees; the complex algebra
    # fails fix_compact first
    assert asked == 2 * 4
