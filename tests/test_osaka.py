"""The OSAKA catalog and its checks: each record's osaka_verify report,
the counterexample and special records, types, effectiveness, the
duality pairing (against dualizing every record twice), irreducibility
and the involution count table."""
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from kmalg import osaka
from kmalg.findim import direct_sum, make_abelian, make_su, sparse_rows
from kmalg.involution import (
    CoeffMap,
    InvolutionDescriptor,
    InvolutionError,
    RealFormDescriptor,
    dualize,
    fixed_and_eigenspaces,
)
from kmalg.kmext import ExtendedElement
from kmalg.loop import TwistedLoopElement, untwisted
from kmalg.osaka import (
    Effectiveness,
    OsakaRecord,
    OsakaType,
    build_catalog_a1,
    catalog_record,
    classify_type,
    complex_conjugation_counterexample,
    duality_pairing,
    effectiveness_check,
    euclidean_osaka,
    involution_counts,
    irreducibility_check,
    osaka_verify,
)
from kmalg.scalars import ONE, Scalar, ZERO
from oracles import duality_pairing_reference, materialize, replace

CHECK_KEYS = [
    "closure", "involutive", "fix_compact", "fix_abelian_zero",
    "KP_match", "type", "effective", "irreducible",
]


def test_catalog_has_eight_records():
    cat = build_catalog_a1()
    assert len(cat) == 8
    assert [r.name for r in cat] == [
        "I[Id,Id]", "I[Id,mu]", "I[mu,mu]", "II",
        "III[Id,Id]", "III[Id,mu]", "III[mu,mu]", "IV",
    ]


@pytest.mark.parametrize("name", [
    "I[Id,Id]", "I[Id,mu]", "I[mu,mu]", "II",
    "III[Id,Id]", "III[Id,mu]", "III[mu,mu]", "IV",
])
def test_catalog_records_verify(name):
    rep = osaka_verify(catalog_record(name), 2)
    assert list(rep.checks) == CHECK_KEYS
    for key, res in rep.checks.items():
        assert res.passed, f"{name}/{key}: {res.detail}"


def test_counterexample_fails_fix_compact():
    rep = osaka_verify(complex_conjugation_counterexample(), 2)
    assert not rep.checks["fix_compact"].passed
    assert "c/d" in rep.checks["fix_compact"].detail
    assert rep.checks["closure"].passed
    assert rep.checks["involutive"].passed
    assert not rep.all_passed


def test_euclidean_example():
    eu = euclidean_osaka(1)
    rep = osaka_verify(eu, 3)
    assert rep.all_passed
    assert classify_type(eu.real_form.truncate(3)) == OsakaType.EUCLIDEAN
    assert effectiveness_check(eu) == Effectiveness.EFFECTIVE


def test_fixed_vectors_mixing_simple_and_abelian_blocks_fail_fix_compact():
    """On su(2) + R, an involution swapping basis vectors 0 (simple) and 3
    (abelian) fixes loops with coefficients on both blocks, such as the
    constant e_0 + e_3, so fix_compact fails whatever the Gram verdict on
    the purely simple fixed loops reads, and its detail says why."""
    g = direct_sum(make_su(2), make_abelian(1)).complexify()
    form = RealFormDescriptor("compact", g, untwisted(g),
                              CoeffMap(CoeffMap.identity(4).sparse, index_sign=-1, conjugate=True), ONE)
    swap = [[1 if j == {0: 3, 3: 0}.get(i, i) else 0 for j in range(4)] for i in range(4)]
    phi = InvolutionDescriptor("swap of e0 and e3", CoeffMap(sparse_rows(swap), index_sign=-1), -1)
    rec = OsakaRecord("mixed", form, phi, OsakaType.COMPACT,
                      {"zero": (3, 1), "even_pair": (4, 4), "odd_pair": (4, 4), "cd": (0, 2)})
    rep = osaka_verify(rec, 2)
    assert {k: v.passed for k, v in rep.checks.items()} == {
        "closure": True, "involutive": True, "fix_compact": False, "fix_abelian_zero": False,
        "KP_match": True, "type": False, "effective": True, "irreducible": True}
    assert rep.checks["fix_compact"].detail == (
        "verdict NegDefinite on 6 fixed loop directions; fixed vectors mix the simple and abelian blocks")


def test_type_fails_through_the_cartan_relations():
    """III[Id,Id] with the linear negation as its involution: every check
    before type passes but KP_match, the computed type is the claimed
    NonCompact, and type fails only because the Cartan relations fail on
    the split, naming their witness."""
    rec = replace(catalog_record("III[Id,Id]"), involution=InvolutionDescriptor(
        "negation", CoeffMap(sparse_rows([[-1 if i == j else 0 for j in range(3)] for i in range(3)])), -1))
    assert (rec.involution.loop_map.index_sign, rec.involution.loop_map.conjugate,
            rec.involution.loop_map.parity) == (1, False, 0)
    rep = osaka_verify(rec, 2)
    assert {k: v.passed for k, v in rep.checks.items()} == {
        "closure": True, "involutive": True, "fix_compact": True, "fix_abelian_zero": True,
        "KP_match": False, "type": False, "effective": True, "irreducible": True}
    assert rep.computed_type == "NonCompact"
    assert rep.checks["type"].detail == "Cartan relations failed on the split"
    assert rep.checks["type"].witness == (0, 1)


# -- effectiveness ------------------------------------------------------------

def test_catalog_effective_and_second_kind():
    from kmalg.kmext import central_element

    for rec in build_catalog_a1():
        assert effectiveness_check(rec) == Effectiveness.EFFECTIVE
        assert rec.involution.epsilon == -1
        scale = rec.real_form.cd_scale
        c_el = central_element(rec.real_form.algebra, rec.real_form.twist, scale)
        assert rec.involution.apply(c_el) == -c_el


def test_synthetic_first_kind_not_effective():
    ce = complex_conjugation_counterexample()
    assert ce.involution.epsilon == 1
    assert effectiveness_check(ce) == Effectiveness.NOT_EFFECTIVE


_FIXES_C = {
    "schema": "kmalg/1", "name": "conjugate-linear identity", "algebra": "su2c", "twist_order": 1,
    "form": {"conj": {"matrix": [[["1" if i == j else "0", "0"] for j in range(3)] for i in range(3)],
                      "index_sign": 1, "parity": 0}, "cd_scale": "i"},
    "involution": {"rho_plus": {"matrix": [[["1" if i == j else "0", "0"] for j in range(3)]
                                           for i in range(3)]},
                   "conjugate_linear": True, "epsilon": -1},
    "claimed_type": "Compact",
}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_epsilon_minus_one_fixing_c_raises_with_and_without_O(flags, tmp_path):
    """An involution declaring epsilon -1 that fixes c: on su2c with c on
    the line i R, the conjugate-linear identity with epsilon -1 sends c = i
    to -conj(i) = i. effective is read from the map, so the record is not
    effective: a failed verdict (exit 1) with no exception, also under
    python -O, whose detail names the contradiction with the declared
    epsilon. The name is historical: this case raised before effective was
    read from the map. III[Id,Id] with its own real structure as the
    involution is the same case."""
    path = tmp_path / "record.json"
    path.write_text(json.dumps(_FIXES_C), encoding="utf-8")
    src = str(Path(osaka.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for degree in ("2", "5"):
        out = subprocess.run([sys.executable, *flags, "-m", "kmalg.cli", "osaka-verify",
                              "--record", str(path), "--degree", degree],
                             env=env, capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (1, "")
        rep = json.loads(out.stdout)
        assert rep["checks"]["effective"] is False and rep["details"]["effective"] == "epsilon = -1, but phi(c) != -c"
    rec = catalog_record("III[Id,Id]")
    own = replace(rec, involution=InvolutionDescriptor("own real structure", rec.real_form.conj,
                                                       epsilon=-1))
    assert effectiveness_check(own) == Effectiveness.NOT_EFFECTIVE
    assert osaka_verify(own, 1).checks["effective"].passed is False


# -- classification -----------------------------------------------------------

def test_classify_types():
    assert classify_type(catalog_record("I[mu,mu]").real_form.truncate(3)) == OsakaType.COMPACT
    assert classify_type(catalog_record("III[mu,mu]").real_form.truncate(3)) == OsakaType.NON_COMPACT
    assert classify_type(euclidean_osaka(1).real_form.truncate(3)) == OsakaType.EUCLIDEAN


def test_semisimple_euclidean_split():
    for rec in build_catalog_a1():
        assert rec.real_form.algebra.simple_blocks()  # semisimple loop part
    assert not euclidean_osaka(1).real_form.algebra.simple_blocks()


# -- type II and IV structure ----------------------------------------------------

def test_type_ii_fixed_dimension():
    """Fix of the swap record is one compact loop algebra: dimension
    3(2N+1) at truncation N, realized by the graph elements (f, f(-t))."""
    rec = catalog_record("II")
    for n in (1, 2, 3):
        dec = fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(n))
        assert len(materialize(dec).k_basis) == sum(k for k, _ in dec.dims().values()) == 3 * (2 * n + 1)
    # explicit graph elements are fixed
    alg, tw = rec.real_form.algebra, rec.real_form.twist
    rng_vecs = [
        ({1: (Scalar(Fraction(1, 2)), ZERO, ZERO, ZERO, ZERO, ZERO),
          -1: (ZERO, ZERO, ZERO, Scalar(Fraction(1, 2)), ZERO, ZERO)}),
    ]
    for terms in rng_vecs:
        # (f, g) with g(t) = f(-t): block-2 coefficient at -k mirrors block 1 at k
        el = ExtendedElement(TwistedLoopElement(alg, tw, terms))
        assert not rec.real_form.contains(el)  # f not pointwise anti-Hermitian alone
    half = Scalar(Fraction(1, 2))
    graph = ExtendedElement(TwistedLoopElement(alg, tw, {
        1: (half, ZERO, ZERO, half, ZERO, ZERO),
        -1: (half, ZERO, ZERO, half, ZERO, ZERO),
    }))
    # (f, f(-t)) with f = X1 cos t: fixed by the swap-reflection
    assert rec.real_form.contains(graph)
    assert rec.involution.apply(graph) == graph
    # (f, -f(-t)) with the second block negated lands in P
    anti = ExtendedElement(TwistedLoopElement(alg, tw, {
        1: (half, ZERO, ZERO, -half, ZERO, ZERO),
        -1: (half, ZERO, ZERO, -half, ZERO, ZERO),
    }))
    assert rec.involution.apply(anti) == -anti


def test_type_iv_k_is_compact_loop():
    rec = catalog_record("IV")
    for n in (1, 2):
        dec = materialize(fixed_and_eigenspaces(rec.involution, rec.real_form.truncate(n)))
        assert len(dec.k_basis) == 3 * (2 * n + 1)
        for e in dec.k_basis:
            assert not e.c and not e.d


# -- duality ----------------------------------------------------------------------

def test_duality_pairing_table():
    rep = duality_pairing()
    assert rep.table_ok
    assert rep.double_dual_ok
    assert all(rep.matches.values())
    assert rep.all_passed


def test_duality_table_is_read_off_the_records():
    """table_ok holds when every record's partner names it back: on the
    catalog, and on a catalog of one pair; it fails when one record names
    another record's partner."""
    catalog = build_catalog_a1()
    pair = [r for r in catalog if r.name in ("II", "IV")]
    assert duality_pairing(pair).table_ok
    swapped = [replace(r, dual_name="III[Id,mu]") if r.name == "I[Id,Id]" else r
               for r in catalog]
    rep = duality_pairing(swapped)
    assert not rep.table_ok and not rep.all_passed


@pytest.mark.parametrize("dual_name", [None, "nowhere"])
def test_a_record_without_a_partner_fails_its_match_and_the_table(dual_name):
    """A record whose dual_name is None or names no record of the catalog
    fails its match and table_ok, where the pairing raised KeyError; the
    other records keep their matches."""
    changed = [replace(r, dual_name=dual_name) if r.name == "II" else r for r in build_catalog_a1()]
    rep = duality_pairing(changed)
    assert rep.matches["II"] is False and not rep.table_ok and not rep.all_passed
    assert all(v for name, v in rep.matches.items() if name != "II")
    alone = duality_pairing([catalog_record("II")])
    assert (alone.matches, alone.table_ok, alone.all_passed) == ({"II": False}, False, False)


def test_an_empty_catalog_pairs_nothing(monkeypatch):
    """duality_pairing([]) pairs no record; only None means the catalog."""
    monkeypatch.setattr(osaka, "build_catalog_a1", lambda: pytest.fail("built the catalog"))
    rep = duality_pairing([])
    assert (rep.matches, rep.double_dual_ok, rep.table_ok) == ({}, True, True)


def test_catalog_and_duality_take_no_eigenspace_split(monkeypatch):
    """Dualizing reads the form and the involution only: building the
    catalog and pairing it never split a truncation into K and P."""
    calls = []

    def counting_split(*args):
        calls.append(args)
        return fixed_and_eigenspaces(*args)

    monkeypatch.setattr(osaka, "fixed_and_eigenspaces", counting_split)
    monkeypatch.setattr(osaka, "_CATALOG_CACHE", {})
    catalog = build_catalog_a1()
    assert len(calls) == 0
    assert duality_pairing(catalog).all_passed
    assert len(calls) == 0


def test_duality_pairing_dualizes_each_record_once(monkeypatch):
    catalog = build_catalog_a1()
    calls = Counter()

    def counting_dualize(rf, phi, *args, **kwargs):
        calls[rf.name] += 1
        return dualize(rf, phi, *args, **kwargs)

    monkeypatch.setattr(osaka, "dualize", counting_dualize)
    rep = duality_pairing(catalog)
    assert calls == Counter({rec.real_form.name: 1 for rec in catalog})
    assert (rep.matches, rep.double_dual_ok) == duality_pairing_reference(catalog)
    assert rep.all_passed


@pytest.mark.parametrize("name, donor, field", [
    ("III[Id,Id]", "III[mu,mu]", "real_form"),
    ("III[Id,Id]", "III[mu,mu]", "involution"),
    ("I[Id,Id]", "I[mu,mu]", "involution"),
    ("III[Id,mu]", "I[Id,mu]", "real_form"),
])
def test_duality_pairing_agrees_with_two_dualizations_when_partners_differ(name, donor, field):
    """A record given another record's form or involution: where a dual no
    longer matches its partner, its double dual is computed, and the
    verdicts are those of dualizing every record twice."""
    catalog = build_catalog_a1()
    by_name = {r.name: r for r in catalog}
    changed = [replace(r, **{field: getattr(by_name[donor], field)}) if r.name == name else r
               for r in catalog]
    rep = duality_pairing(changed)
    assert (rep.matches, rep.double_dual_ok) == duality_pairing_reference(changed)
    assert not all(rep.matches.values())


def test_dualize_rejects_a_form_and_an_involution_of_different_algebras():
    """IV's involution acts on the 6-dimensional doubled algebra; given the
    3-dimensional real form of III[Id,Id], dualizing names the mismatch
    instead of failing inside the matrix product."""
    catalog = build_catalog_a1()
    by_name = {r.name: r for r in catalog}
    changed = [replace(r, real_form=by_name["III[Id,Id]"].real_form) if r.name == "IV" else r
               for r in catalog]
    with pytest.raises(InvolutionError, match="different algebras"):
        duality_pairing(changed)
    rec = by_name["IV"]
    with pytest.raises(InvolutionError, match="different algebras"):
        dualize(by_name["III[Id,Id]"].real_form, rec.involution)


def test_dual_names_are_involutive():
    cat = {r.name: r for r in build_catalog_a1()}
    for rec in cat.values():
        assert cat[rec.dual_name].dual_name == rec.name


# -- irreducibility -----------------------------------------------------------------

def test_irreducibility_of_catalog():
    for name in ("I[Id,Id]", "I[Id,mu]", "I[mu,mu]"):
        assert irreducibility_check(catalog_record(name)) == ("Irreducible", None)
    assert irreducibility_check(catalog_record("II")) == ("Irreducible", None)
    assert irreducibility_check(catalog_record("IV")) == ("Irreducible", None)


def test_product_record_is_reducible():
    """Blockwise involution on a doubled compact form leaves each block
    invariant: a reducible pair."""
    su2 = make_su(2)
    double = direct_sum(su2, su2).complexify()
    tw = untwisted(double)
    form = RealFormDescriptor(
        name="doubled compact", algebra=double, twist=tw,
        conj=CoeffMap(CoeffMap.identity(6).sparse, index_sign=-1, conjugate=True),
        cd_scale=ONE,
    )
    mu_block = [[0] * 6 for _ in range(6)]
    for i, v in enumerate([1, 1, 1, -1, 1, -1]):
        mu_block[i][i] = v
    phi = InvolutionDescriptor(
        name="blockwise", loop_map=CoeffMap(sparse_rows(mu_block), index_sign=-1),
        epsilon=-1,
    )
    rec = OsakaRecord(
        name="product", real_form=form, involution=phi,
        claimed_type=OsakaType.COMPACT,
        expected_kp={"zero": (4, 2), "even_pair": (6, 6), "odd_pair": (6, 6), "cd": (0, 2)},
    )
    rep = osaka_verify(rec, 2)
    for key in ("closure", "involutive", "fix_compact", "fix_abelian_zero", "KP_match"):
        assert rep.checks[key].passed, f"{key}: {rep.checks[key].detail}"
    verdict, witness = irreducibility_check(rec)
    assert verdict == "Reducible"
    assert witness == (0,)


# -- counts ------------------------------------------------------------------------

def test_involution_counts_table():
    assert involution_counts() == {
        "e6(1)": 9, "e7(1)": 10, "e8(1)": 6, "f4(1)": 6, "g2(1)": 3,
    }
