"""Orthogonal symmetric affine Kac-Moody algebras (OSAKAs).

An OSAKA is a real form of a geometric affine Kac-Moody algebra together
with an involution whose fixed algebra meets the semisimple part in a
compact loop algebra and the abelian part trivially. This module verifies
the defining conditions exactly on truncations, classifies compact /
non-compact / Euclidean type, checks effectiveness and irreducibility,
pairs records under duality, and builds the full catalog for the rank-one
untwisted affine algebra: three compact records over the loop algebra of
su(2), the swap record over su(2) x su(2), the three almost-split records
with their Cartan involutions, and the doubled record dual to the swap.
"""
from __future__ import annotations

from enum import Enum

from . import findim
from .findim import direct_sum, make_abelian, make_su
from .involution import (
    CheckResult,
    CoeffMap,
    InvolutionDescriptor,
    InvolutionError,
    RealFormDescriptor,
    Truncation,
    dualize,
    fixed_and_eigenspaces,
    involution_from_invariants,
    verify_cartan_relations,
)
from .kmext import central_element
from .loop import Definiteness, NonRealPairingError, killing_gram, untwisted
from .scalars import ONE, vec_support
from .value import Value


class OsakaType(Enum):
    COMPACT = "Compact"
    NON_COMPACT = "NonCompact"
    EUCLIDEAN = "Euclidean"


class Effectiveness(Enum):
    EFFECTIVE = "Effective"
    NOT_EFFECTIVE = "NotEffective"


class OsakaRecord:
    __slots__ = ("name", "real_form", "involution", "claimed_type", "expected_kp", "dual_name")

    def __init__(self, name: str, real_form: RealFormDescriptor, involution: InvolutionDescriptor,
                 claimed_type: OsakaType, expected_kp: dict, dual_name: str | None = None):
        self.name = name
        self.real_form = real_form
        self.involution = involution
        self.claimed_type = claimed_type
        self.expected_kp = expected_kp  # (K, P) dims of blocks 'zero', 'even_pair', 'odd_pair' and 'cd'
        self.dual_name = dual_name


class OsakaReport(Value):
    __slots__ = ("name", "checks", "computed_type")
    __hash__ = None

    def __init__(self, name: str, checks: dict | None = None, computed_type: str | None = None):
        self.name = name
        self.checks = {} if checks is None else checks
        self.computed_type = computed_type

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks.values())


# -- core checks ----------------------------------------------------------

def osaka_verify(record: OsakaRecord, n_max: int = 3) -> OsakaReport:
    """All defining checks, exactly, at truncation degree n_max. Closure and
    the Cartan relations read only the maps (the lemma in involution's
    docstring), so they hold at every degree, and a failed one names its
    witness; every other check reads the one truncation built here, whose
    split (`fixed_and_eigenspaces`) decides the involutive check."""
    report = OsakaReport(record.name)
    rf, phi = record.real_form, record.involution
    truncation = rf.truncate(n_max)

    preserved = squares = True
    try:
        dec = fixed_and_eigenspaces(phi, truncation)
    except InvolutionError as err:
        dec, (preserved, squares) = truncation, err.verdicts
    report.checks["closure"] = closed = rf.verify_closed()
    report.checks["involutive"] = CheckResult(
        preserved and squares,
        f"preserves form: {preserved}, squares to identity: {squares}",
    )
    if not (closed and preserved and squares):
        report.checks["fix_compact"] = CheckResult(False, "prerequisites failed")
        report.checks["fix_abelian_zero"] = CheckResult(False, "prerequisites failed")
        report.checks["KP_match"] = CheckResult(False, "prerequisites failed")
        return report

    # (c) the fixed algebra must be a loop algebra over the semisimple part
    # with negative definite loop Killing form: no fixed c/d directions, no
    # fixed abelian loop leakage into the pairing, Gram neg definite. The
    # split holds its base blocks, each counted with its shifts
    # (`Truncation.counts`); killing_gram's verdict on them is the verdict
    # at the degree (its docstring).
    fixed_cd_free = all(not e.c and not e.d for e in dec.k_basis)
    ss = {i for b in rf.algebra.simple_blocks() for i in b.indices}
    fixed_ss_loops, directions, mixed = [], 0, False
    for (_, items), count in zip(dec.blocks, dec.counts()):
        for e, sign in items:
            supports = [vec_support(vec) for vec in e.loop.terms.values()]
            if sign != 1 or not supports:
                continue
            if all(s <= ss for s in supports):
                fixed_ss_loops.append(e.loop)
                directions += count
            elif any(s & ss for s in supports):
                mixed = True
    if fixed_ss_loops:
        try:
            verdict = killing_gram(fixed_ss_loops)[1].value
        except NonRealPairingError as err:  # not real, so not negative definite
            verdict = f"non-real ({err})"
        gram_ok = verdict == Definiteness.NEG_DEFINITE.value
        detail = f"verdict {verdict} on {directions} fixed loop directions"
    else:
        gram_ok = True
        detail = "no fixed semisimple loop directions"
    report.checks["fix_compact"] = CheckResult(
        fixed_cd_free and gram_ok and not mixed,
        detail + ("" if fixed_cd_free else "; fixed c/d directions present")
        + ("; fixed vectors mix the simple and abelian blocks" if mixed else ""),
    )

    # (d) Fix meets the abelian part (constant loops in the abelian block)
    # trivially.
    ab = set(rf.algebra.abelian_indices())
    ab_fixed = []
    for e in dec.k_basis:
        const = e.loop.terms.get(0)
        if const is not None and vec_support(const) & ab and len(e.loop.terms) == 1:
            ab_fixed.append(e)
    report.checks["fix_abelian_zero"] = CheckResult(
        not ab_fixed, f"{len(ab_fixed)} fixed constant abelian directions"
    )

    # (e) expected K/P conditions match the computed eigenspaces per block.
    report.checks["KP_match"] = CheckResult(*_check_expected_kp(record, dec))

    computed = classify_type(truncation)
    report.checks["type"] = _check_type(record, computed, report.checks["fix_compact"].passed)
    # the verdict is read from phi; the detail names what phi does to c
    # only when that contradicts the declared epsilon
    effective = effectiveness_check(record) == Effectiveness.EFFECTIVE
    report.checks["effective"] = CheckResult(effective, f"epsilon = {phi.epsilon}" + (
        "" if effective == (phi.epsilon == -1) else f", but phi(c) {'=' if effective else '!='} -c"))
    verdict, witness = irreducibility_check(record)
    report.checks["irreducible"] = CheckResult(
        verdict == "Irreducible", f"witness blocks: {witness}" if witness else ""
    )
    report.computed_type = computed.value
    return report


def _check_expected_kp(record: OsakaRecord, dec: Truncation):
    """Exact subspace equality per block of a split: the dims agree with
    the record's, and the K (P) vectors are fixed (negated) by the split's
    involution map. A split with a built_period P holds its base blocks
    only: a block past them is a shift of one by a multiple of P, so it
    has the same dims, and the map, which commutes with the shift, fixes
    and negates its vectors exactly when those of its base block. So the
    walk over the blocks (`Truncation.layout`) runs `CoeffMap.fixes` on
    each base block once, and reads dims up to (max(P, 2), -max(P, 2)):
    past that, k has the parity of a block already read. At P = 1 the even
    blocks repeat (1, -1), so "even_pair" is read at (2, -2). The first
    failing key is thus the first failing block at the degree."""
    exp, phi_map = record.expected_kp, dec.involution.loop_map
    period = dec.built_period
    for key, b in dec.layout(None if period is None else max(period, 2)):
        base, items = dec.blocks[b]
        got = (sum(s == 1 for _, s in items), sum(s == -1 for _, s in items))
        want_k, want_p = exp["cd" if key == ("cd",) else "zero" if key == (0,) else
                             "odd_pair" if key[0] % 2 else "even_pair"]
        if got != (want_k, want_p):
            return False, f"block {key}: dims {got} != expected {(want_k, want_p)}"
        if key == ("cd",) or key != base:
            continue
        for e, s in items:  # K, then P
            if not phi_map.fixes(e.loop, s):
                side = "K" if s == 1 else "P"
                return False, f"{side} vector in block {key} violates the expected condition"
    return True, "eigenspaces match the expected conditions and dimensions"


def _check_type(record: OsakaRecord, computed: OsakaType, valid_so_far: bool) -> CheckResult:
    ok = computed == record.claimed_type
    if ok and valid_so_far and computed == OsakaType.NON_COMPACT:
        relations = verify_cartan_relations(record.real_form, record.involution)
        if not relations:
            return relations
    return CheckResult(ok, f"computed {computed.value}, claimed {record.claimed_type.value}")


def effectiveness_check(record: OsakaRecord) -> Effectiveness:
    """Effective iff the involution maps c to -c on the form's c line (on
    both 1 and i when it has none), read from its image, and not from its
    declared epsilon."""
    rf, phi = record.real_form, record.involution
    effective = all(phi.apply(central_element(rf.algebra, rf.twist, c)).c == -c for c in rf.cd_lines())
    return Effectiveness.EFFECTIVE if effective else Effectiveness.NOT_EFFECTIVE


def classify_type(truncation: Truncation) -> OsakaType:
    """Euclidean iff the loop part is abelian; else compact iff the loop
    Killing Gram of the real form is negative definite at the truncation.
    It is read off the truncation's loops, those of its base blocks: a
    block past its built_period repeats its base block's Gram entries,
    which changes no verdict (`killing_gram`)."""
    if not truncation.real_form.algebra.simple_blocks():
        return OsakaType.EUCLIDEAN
    try:
        _, verdict = killing_gram(truncation.loops)
    except NonRealPairingError:
        # not even a real form in the Killing sense; certainly not compact
        return OsakaType.NON_COMPACT
    if verdict == Definiteness.NEG_DEFINITE:
        return OsakaType.COMPACT
    return OsakaType.NON_COMPACT


def irreducibility_check(record: OsakaRecord):
    """('Irreducible', None) or ('Reducible', witness). A proper nonempty
    subcollection of simple blocks whose loop subspace is invariant under
    the involution's coefficient map is a witness."""
    blocks = record.real_form.algebra.simple_blocks()
    phi_rows = record.involution.loop_map.sparse[0]
    for mask in range(1, 2 ** len(blocks) - 1):
        witness = tuple(n for n in range(len(blocks)) if mask & (1 << n))
        inside = {i for n in witness for i in blocks[n].indices}
        if all(i in inside for i, row in enumerate(phi_rows) for j, _, _ in row if j in inside):
            return "Reducible", witness
    return "Irreducible", None


# -- catalog ------------------------------------------------------------------

_CATALOG_CACHE = {}


def _compact_conj(dim):
    return CoeffMap(CoeffMap.identity(dim).sparse, index_sign=-1, conjugate=True)


def _dims(zero, pair, cd=(0, 2), odd_pair=None):
    return {
        "zero": zero,
        "even_pair": pair,
        "odd_pair": odd_pair if odd_pair is not None else pair,
        "cd": cd,
    }


def build_catalog_a1():
    """The eight rank-one OSAKAs: I[Id,Id], I[Id,mu], I[mu,mu] (compact),
    II (swap on the doubled algebra), III[...] (almost-split duals of the
    type I records) and IV (dual of II). Representatives are chosen so that
    dualization reproduces the partner record exactly, coefficient condition
    for coefficient condition."""
    if "catalog" in _CATALOG_CACHE:
        return _CATALOG_CACHE["catalog"]
    su2 = make_su(2)
    id_r = untwisted(su2)
    mu_r = findim.entrywise_conjugation_automorphism(su2)
    double = direct_sum(su2, su2, name="su(2)+su(2)")
    swap_rows = [[1 if (i + 3) % 6 == j else 0 for j in range(6)] for i in range(6)]
    swap_r = findim.automorphism_from_order(double, swap_rows)

    # ---- type I: compact form of L(su(2)) with the three second-kind
    # involutions from the invariant pairs; type II: compact form of the
    # doubled algebra with the factor swap. Types III and IV: their exact
    # duals, in the same order, each form named in its spec.
    specs = [
        ("I[Id,Id]", id_r, id_r, "compact form [Id,Id]", "III[Id,Id]", "almost split form [Id,Id]",
         _dims((3, 0), (3, 3))),
        ("I[Id,mu]", mu_r, id_r, "compact form [Id,mu]", "III[Id,mu]", "almost split form [Id,mu]",
         _dims((1, 0), (1, 1), odd_pair=(2, 2))),
        ("I[mu,mu]", mu_r, mu_r, "compact form [mu,mu]", "III[mu,mu]", "almost split form [mu,mu]",
         _dims((1, 2), (3, 3))),
        ("II", swap_r, swap_r, "compact form of the doubled algebra", "IV", "doubled complex form",
         _dims((3, 3), (6, 6))),
    ]
    compact, duals = [], []
    for name, rp, rm, form_name, dual_name, dual_form_name, dims in specs:
        desc, gc, twist = involution_from_invariants(rp, rm, name)
        form = RealFormDescriptor(
            name=form_name, algebra=gc, twist=twist,
            conj=_compact_conj(gc.dim), cd_scale=ONE,
        )
        compact.append(OsakaRecord(
            name=name, real_form=form, involution=desc,
            claimed_type=OsakaType.COMPACT,
            expected_kp=dims,
            dual_name=dual_name,
        ))
        dual = dualize(form, desc, name=dual_form_name)
        duals.append(OsakaRecord(
            name=dual_name,
            real_form=dual.real_form,
            involution=InvolutionDescriptor(
                name=f"Cartan involution of {dual.real_form.name}",
                loop_map=dual.involution.loop_map,
                epsilon=-1,
            ),
            claimed_type=OsakaType.NON_COMPACT,
            expected_kp=dims,
            dual_name=name,
        ))
    records = compact + duals
    _CATALOG_CACHE["catalog"] = records
    return records


def catalog_record(name: str) -> OsakaRecord:
    for rec in build_catalog_a1():
        if rec.name == name:
            return rec
    raise KeyError(f"no catalog record named {name!r}")


def euclidean_osaka(k: int = 1) -> OsakaRecord:
    """(loop algebra of a k-dimensional abelian algebra, f -> -f(-t)):
    the Euclidean-type example."""
    ab = make_abelian(k, "R")
    gc = ab.complexify()
    twist = untwisted(gc)
    form = RealFormDescriptor(
        name=f"abelian loop form ({k})", algebra=gc, twist=twist,
        conj=_compact_conj(gc.dim), cd_scale=ONE,
    )
    neg = CoeffMap((tuple(((i, -1, 0),) for i in range(gc.dim)), 1), index_sign=-1)
    desc = InvolutionDescriptor(
        name="negation with time reflection", loop_map=neg, epsilon=-1,
    )
    return OsakaRecord(
        name=f"Euclidean({k})", real_form=form, involution=desc,
        claimed_type=OsakaType.EUCLIDEAN,
        expected_kp=_dims((0, k), (k, k)),
        dual_name=None,
    )


def complex_conjugation_counterexample() -> OsakaRecord:
    """The complex rank-one extension viewed as a real algebra, with
    conjugation along its compact form. Not an OSAKA: the fixed algebra
    keeps the c and d lines, so it is not a loop algebra; osaka_verify
    fails the fix_compact check."""
    a1 = make_su(2).complexify()
    twist = untwisted(a1)
    form = RealFormDescriptor(
        name="complex algebra as real", algebra=a1, twist=twist, conj=None, cd_scale=None,
    )
    desc = InvolutionDescriptor(
        name="conjugation along the compact form",
        loop_map=_compact_conj(3),
        epsilon=1,
    )
    return OsakaRecord(
        name="complex+compact-conjugation", real_form=form, involution=desc,
        claimed_type=OsakaType.NON_COMPACT,
        expected_kp=_dims((3, 3), (6, 6), cd=(2, 2)),
        dual_name=None,
    )


# -- duality pairing -----------------------------------------------------------

class PairingReport(Value):
    __slots__ = ("matches", "double_dual_ok", "table_ok")
    __hash__ = None

    def __init__(self, matches: dict, double_dual_ok: bool, table_ok: bool):
        self.matches = matches
        self.double_dual_ok = double_dual_ok
        self.table_ok = table_ok

    @property
    def all_passed(self):
        return self.table_ok and self.double_dual_ok and all(self.matches.values())


def _same_real_form(a: RealFormDescriptor, b: RealFormDescriptor) -> bool:
    """Equal conj and cd_scale over the same algebra and twist objects."""
    return (a.algebra is b.algebra and a.twist is b.twist
            and a.conj == b.conj and a.cd_scale == b.cd_scale)


def _same_form(dual, rec: OsakaRecord) -> bool:
    """Whether a DualForm has rec's real form and involution loop map."""
    return (_same_real_form(dual.real_form, rec.real_form)
            and dual.involution.loop_map == rec.involution.loop_map)


def duality_pairing(catalog=None) -> PairingReport:
    """Dualize every record once and compare with its declared partner: the
    algebra and twist objects, the conjugation map, the c/d reality scale
    and the involution's coefficient map must agree exactly (matches). The
    dual of (the record's dual form, the partner's involution) must
    reproduce the record (double_dual_ok); when the dual has the partner's
    real form, that is the partner's own dual, not recomputed. Each
    partner must name its record back as its dual (table_ok); a record
    whose dual_name names no record fails its match and table_ok. The pairing
    compares maps and has no degree: a matched dual is the partner's form,
    whose closure osaka_verify checks at its degree.
    """
    catalog = build_catalog_a1() if catalog is None else catalog
    by_name = {r.name: r for r in catalog}
    duals = {rec: dualize(rec.real_form, rec.involution) for rec in catalog}
    matches = {}
    double_ok = True
    for rec, dual in duals.items():
        partner = by_name.get(rec.dual_name)
        matches[rec.name] = partner is not None and _same_form(dual, partner)
        if partner is None:
            continue
        if _same_real_form(dual.real_form, partner.real_form):
            ddual = duals[partner]
        else:
            ddual = dualize(dual.real_form, partner.involution)
        if not _same_form(ddual, rec):
            double_ok = False
    table_ok = all(rec.dual_name in by_name and by_name[rec.dual_name].dual_name == rec.name
                   for rec in catalog)
    return PairingReport(matches, double_ok, table_ok)


# -- static metadata -------------------------------------------------------------

_SECOND_KIND_COUNTS = {
    "e6(1)": 9,
    "e7(1)": 10,
    "e8(1)": 6,
    "f4(1)": 6,
    "g2(1)": 3,
}


def involution_counts() -> dict:
    """Second-kind involution counts for the exceptional untwisted families."""
    return dict(_SECOND_KIND_COUNTS)
