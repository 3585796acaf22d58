"""Hostile input at the map edge: random JSON values in each field of an
involution file (`decompose --involution`) and of a record file
(`osaka-verify --record`), run through `cli.run` in-process.

Every coefficient map read from a file passes `serialize._square_matrix`
and `findim.sparse_rows` before any check reads it. Whatever a field
holds, the command exits 0 or 1 (the verdict), or 4 (a schema error)
with one JSON {"schema", "error"} line on stderr, and prints no
traceback.
"""
import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from kmalg import cli


def _matrix(diag):
    return [[[str(d) if i == j else "0", "0"] for j in range(3)] for i, d in enumerate(diag)]


# rho_plus = mu, the involution of I[Id,mu] and I[mu,mu]; the record is
# I[mu,mu], the compact form of L(su(2)) with that involution
INVOLUTION = {"schema": "kmalg/1", "name": "mu", "rho_plus": {"matrix": _matrix((-1, 1, -1))},
              "conjugate_linear": False, "reflect_time": True, "epsilon": -1}
RECORD = {"schema": "kmalg/1", "name": "fuzzed", "algebra": "su2c", "twist_order": 1,
          "form": {"name": "compact", "conj": {"matrix": _matrix((1, 1, 1)), "index_sign": -1, "parity": 0},
                   "cd_scale": "1"},
          "involution": {k: v for k, v in INVOLUTION.items() if k != "schema"},
          "claimed_type": "Compact",
          "expected_dims": {"zero": [1, 2], "even_pair": [3, 3], "odd_pair": [3, 3], "cd": [0, 2]}}


def _paths(obj, prefix=()):
    """The path of every value of a key inside obj, not into lists."""
    for key, value in obj.items() if isinstance(obj, dict) else ():
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PARTS = ["0", "1", "-1", "2", "1/2", "-1/3"]
scalar_pairs = st.lists(st.sampled_from(PARTS), min_size=2, max_size=2)
# values a field could hold: the right type, often the right shape, a
# matrix that is an automorphism or not, 3 x 3 to 6 x 6
plausible = (st.none() | st.booleans() | st.integers(-2, 4) | scalar_pairs
             | st.sampled_from(["1", "i", "Compact", "NonCompact", "Euclidean"])
             | st.sampled_from([_matrix(d) for d in ((1, 1, 1), (-1, 1, -1), (1, -1, -1), (2, 1, 1))])
             | st.integers(3, 6).flatmap(lambda n: st.lists(st.lists(scalar_pairs, min_size=n, max_size=n),
                                                             min_size=n, max_size=n)))
junk = st.recursive(
    st.none() | st.integers(-10 ** 40, 10 ** 40) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "1/0", "0/0", "x", "9" * 1001]) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8)
json_values = scalar_pairs | plausible | junk


@st.composite
def mutated(draw, base):
    """base with one or two of its values replaced by a random JSON value,
    or their key dropped. The value is a field's, or half the time one of
    its list items (a matrix row), and so on (an entry, a part of it)."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        while isinstance(parent[path[-1]], list) and parent[path[-1]] and draw(st.booleans()):
            parent, path = parent[path[-1]], path + (draw(st.integers(0, len(parent[path[-1]]) - 1)),)
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(json_values))
    return obj


def _run(obj, *argv):
    """cli.run on argv with obj written to the file its last flag names."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([*argv, path])
    return code, out.getvalue(), err.getvalue()


def _check_exit(code, out, err):
    assert code in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_SCHEMA), (code, err)
    assert "Traceback" not in out + err
    if code == cli.EXIT_SCHEMA:
        lines = err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"schema", "error"}


def test_the_unfuzzed_files_pass():
    assert _run(INVOLUTION, "decompose", "--form", "I[Id,mu]", "--degree", "1", "--involution")[0] == cli.EXIT_OK
    assert _run(RECORD, "osaka-verify", "--degree", "1", "--record")[0] == cli.EXIT_OK


@settings(max_examples=300, deadline=None)
@given(mutated(INVOLUTION), st.sampled_from(["I[Id,mu]", "I[mu,mu]", "III[mu,mu]"]))
def test_a_fuzzed_involution_file_exits_0_1_or_4(obj, form):
    _check_exit(*_run(obj, "decompose", "--form", form, "--degree", "1", "--involution"))


@settings(max_examples=300, deadline=None)
@given(mutated(RECORD))
def test_a_fuzzed_record_file_exits_0_1_or_4(obj):
    _check_exit(*_run(obj, "osaka-verify", "--degree", "1", "--record"))
