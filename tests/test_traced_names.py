"""The benchmark's traced names resolve on the current program, on any
Python: every span, counter and alias target of perfbench/tracer.py and
perfbench/selftest.py is a function once the CLI is imported, and
CoeffMap.apply_loop is defined in CoeffMap's own body, where the tracer
looks for it. The perfbench files are imported, never changed."""
import importlib
import os
import sys
import types

import pytest

import kmalg.cli  # noqa: F401  (the tracer resolves names after this import)
import kmalg.involution

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
