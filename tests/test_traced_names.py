"""The benchmark's traced names resolve on the current program, on any
Python: every span, counter and alias target of perfbench/tracer.py and
perfbench/selftest.py is a function once the CLI is imported, and
CoeffMap.apply_loop is defined in CoeffMap's own body, where the tracer
looks for it. The tracer's read of a map's `matrix` view agrees with the
sparse rows the map holds. The perfbench files are imported, never
changed."""
import importlib
import os
import sys
import types

import pytest

import kmalg.cli  # noqa: F401  (the tracer resolves names after this import)
import kmalg.involution
from kmalg import serialize
from kmalg.findim import sparse_rows
from kmalg.osaka import build_catalog_a1, complex_conjugation_counterexample, euclidean_osaka

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracer"), importlib.import_module("selftest")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_traced_name_resolves_to_a_function(perfbench):
    tracer, selftest = perfbench
    targets = [(m, p) for m, p, _ in tracer.SPANS + tracer.COUNTERS] + list(selftest.ALIASES)
    assert ("kmalg.involution", "CoeffMap.apply_loop") in targets
    unresolved = [t for t in targets if not isinstance(tracer.resolve(*t), types.FunctionType)]
    assert unresolved == []


def test_apply_loop_is_coeff_maps_own():
    assert "apply_loop" in vars(kmalg.involution.CoeffMap)


def test_the_tracers_monomial_read_agrees_with_the_sparse_rows(perfbench):
    """tracer._is_monomial reads a map's derived `matrix`: on every catalog
    and special record's loop map and conj, every registry twist and a
    map that is not monomial, it agrees with the map's sparse rows, and the
    view has its nonzero entries where the rows do."""
    tracer, _ = perfbench
    records = build_catalog_a1() + [euclidean_osaka(), complex_conjugation_counterexample()]
    maps = [m for rec in records for m in (rec.involution.loop_map, rec.real_form.conj) if m is not None]
    maps += [twist for _, twists in serialize.registry().values() for twist in twists.values()]
    maps.append(kmalg.involution.CoeffMap(sparse_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])))
    for m in maps:
        rows = m.sparse[0]
        assert tracer._is_monomial(m) == all(len(row) <= 1 for row in rows)
        assert [[j for j, x in enumerate(row) if x] for row in m.matrix] == [[j for j, _, _ in row] for row in rows]
    assert not tracer._is_monomial(maps[-1])
