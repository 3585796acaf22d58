"""Text rendering on numerators, once per base block: `_render_matrix_sum`
reads a coefficient's Gaussian-integer numerators through the algebra's
`_cells`, and `decompose` renders each base block's elements once and
moves only the exponents of a shifted copy. Both are checked against the
per-copy Scalar renderer of the oracles (render_element_reference and
cmd_decompose_reference), which builds a Scalar matrix for every element
of every block.
"""
import contextlib
import io
import json
import types

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import cli, serialize
from kmalg.rand import TrialRng, random_extended_element
from kmalg.scalars import vec_canon, vec_to_scalars
from oracles import cmd_decompose_reference, render_element_reference, render_matrix_sum_reference

FORMS = ["I[Id,Id]", "I[Id,mu]", "I[mu,mu]", "II", "III[Id,Id]", "III[Id,mu]", "III[mu,mu]", "IV"]


def _report_text(report):
    report = dict(report)
    report.pop("timing_ms", None)
    return json.dumps(report, indent=2, ensure_ascii=False)


def _decompose(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["decompose", *argv])
    assert code == cli.EXIT_OK
    return _report_text(json.loads(out.getvalue()))


def _reference(form, degree, involution=None):
    report, _ = cmd_decompose_reference(types.SimpleNamespace(form=form, degree=degree, involution=involution))
    return _report_text(json.loads(json.dumps(report)))


@pytest.mark.parametrize("form", FORMS)
def test_decompose_equals_the_per_copy_renderer(form):
    for degree in (0, 1, 3, 7):
        assert _decompose("--form", form, "--degree", str(degree)) == _reference(form, degree)


def _matrix(diag):
    return [[[str(d) if i == j else "0", "0"] for j in range(3)] for i, d in enumerate(diag)]


# the identity with time reflection (K = 6, P = 5 on I[Id,Id] at degree 1),
# and mu = diag(-1, 1, -1) conjugate-linear
INVOLUTIONS = {
    "identity": {"schema": "kmalg/1", "rho_plus": {"matrix": _matrix((1, 1, 1))},
                 "reflect_time": True, "conjugate_linear": False, "epsilon": -1},
    "conjugate-mu": {"schema": "kmalg/1", "rho_plus": {"matrix": _matrix((-1, 1, -1))},
                     "reflect_time": True, "conjugate_linear": True, "epsilon": -1},
}


@pytest.mark.parametrize("name", sorted(INVOLUTIONS))
def test_decompose_with_an_involution_file_equals_the_per_copy_renderer(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INVOLUTIONS[name]), encoding="utf-8")
    for form in ("I[Id,Id]", "I[mu,mu]", "III[Id,mu]"):
        for degree in (1, 3, 7):
            got = _decompose("--form", form, "--degree", str(degree), "--involution", str(path))
            assert got == _reference(form, degree, str(path))


REGISTERED = [alg for alg, _ in serialize.registry().values()]
# numerators and denominators far past 2**53, where a float would round
_nums = st.sampled_from([0, 0, 1, -1, 2]) | st.integers(-10 ** 30, 10 ** 30)
_dens = st.sampled_from([1, 2, 3, 6]) | st.integers(1, 10 ** 20)


@st.composite
def _numerator_vectors(draw):
    g = draw(st.sampled_from(REGISTERED))
    nums = draw(st.lists(_nums, min_size=2 * g.dim, max_size=2 * g.dim))
    return g, vec_canon(nums, draw(_dens))


@settings(max_examples=300, deadline=None)
@given(_numerator_vectors())
def test_matrix_sum_from_numerators_equals_the_scalar_matrix(case):
    """On random numerator vectors of every registered algebra the text is
    the Scalar matrix's, exactly: no float (which prints a "." or an
    exponent) enters between the numerators and the printed entries."""
    g, vec = case
    text = serialize._render_matrix_sum(g, vec)
    assert text == render_matrix_sum_reference(g, vec_to_scalars(vec))
    assert "." not in text and "e+" not in text and "e-" not in text


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(serialize.registry())), st.sampled_from([1, 2]), st.integers(0, 10 ** 6),
       st.integers(0, 12))
def test_render_element_at_a_shift_equals_the_per_copy_renderer(name, order, trial, shift):
    algebra, twists = serialize.registry()[name]
    twist = twists.get(order, twists[1])
    x = random_extended_element(algebra, twist, TrialRng("render", trial), max_degree=5)
    assert serialize.render_element(x, shift) == render_element_reference(x, shift)
