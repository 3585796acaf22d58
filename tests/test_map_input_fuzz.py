"""Hostile input at the file edge: each input file, its fields edited at
random, run through `cli.run` in-process. An edit drops a key or gives it
twice, or puts a random JSON value or a huge or non-rational JSON number
in a field, a list item of it, and so on. The files are involution files
(`decompose --involution`), record files (`osaka-verify --record`),
element files (`bracket --lhs/--rhs`) and Cartan files (`classify --in`).

Every coefficient map read from a file passes `serialize._square_matrix`
and `findim.sparse_rows` before any check reads it. Whatever an
involution or record file holds, the command exits 0 or 1 (the verdict),
or 4 (a schema error). On an element or Cartan file it exits 0 to 4. It
never exits 5 (an internal error), prints one JSON {"schema", "error"}
line on stderr on exits 2 to 4, and prints no traceback.
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


def _run(obj, *argv):
    """cli.run on argv with obj written (`_text`) to the file its last flag
    names."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_text(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([*argv, path])
    return code, out.getvalue(), err.getvalue()


class _Raw(str):
    """A JSON number written as it is."""


# huge (past serialize.MAX_DIGITS, up to Python's int-string limit and past
# it) or non-rational: a float, a float out of range, NaN and the infinities
RAW_NUMBERS = [_Raw(t) for t in ("9" * 999, "1" * 1001, "-" + "9" * 3000, "1" * 4301, "1e999", "-1E400",
                                 "0.1", "2.0", "0." + "3" * 2000, "NaN", "Infinity", "-Infinity")]


def _text(obj):
    """obj as JSON text; a ("twice", key) key writes key a second time."""
    if isinstance(obj, _Raw):
        return str(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k[1] if isinstance(k, tuple) else k)}: {_text(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(_text(v) for v in obj) + "]"
    return json.dumps(obj)


@st.composite
def mutated(draw, base):
    """base with one or two edits, each at a value (a field's, or half the
    time one of its list items (a matrix row), and so on (an entry, a part
    of it)): its key dropped or given twice (with the same or a random
    value), or the value replaced by a random JSON value or a raw number."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(obj))
        if not paths:  # the first edit dropped the only key
            break
        path = draw(st.sampled_from(paths))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        while isinstance(parent[path[-1]], list) and parent[path[-1]] and draw(st.booleans()):
            parent, path = parent[path[-1]], path + (draw(st.integers(0, len(parent[path[-1]]) - 1)),)
        edit = draw(st.sampled_from(["drop", "twice", "retype", "raw"]))
        if isinstance(parent, dict) and edit == "drop":
            del parent[path[-1]]
        elif isinstance(parent, dict) and edit == "twice" and not isinstance(path[-1], tuple):
            value = parent[path[-1]] if draw(st.booleans()) else draw(json_values)
            parent[("twice", path[-1])] = copy.deepcopy(value)
        else:
            parent[path[-1]] = draw(st.sampled_from(RAW_NUMBERS)) if edit == "raw" else copy.deepcopy(
                draw(json_values))
    return obj


def _check_exit(code, out, err, allowed=(cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_SCHEMA)):
    """code is allowed (never 5), with no traceback, and exits 2 to 4
    print one JSON {"schema", "error"} line on stderr."""
    assert code in allowed, (code, err)
    assert "Traceback" not in out + err
    if code >= cli.EXIT_PARAM:
        lines = err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"schema", "error"}


ELEMENT = {"schema": "kmalg/1",
           "loop": {"schema": "kmalg/1", "algebra": "su2c", "twist_order": 1,
                    "terms": [{"k": -2, "coords": [["1", "0"], ["0", "1/2"], ["0", "0"]]},
                              {"k": 1, "coords": [["0", "0"], ["-3", "0"], ["2/3", "-1"]]}]},
           "c": ["1", "0"], "d": ["0", "-1"]}
# a 3 x 3 generalized Cartan matrix of finite type (B3)
CARTAN = {"matrix": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]}


def test_the_unfuzzed_files_pass(tmp_path):
    assert _run(INVOLUTION, "decompose", "--form", "I[Id,mu]", "--degree", "1", "--involution")[0] == cli.EXIT_OK
    assert _run(RECORD, "osaka-verify", "--degree", "1", "--record")[0] == cli.EXIT_OK
    good = tmp_path / "element.json"
    good.write_text(json.dumps(ELEMENT), encoding="utf-8")
    assert _run(ELEMENT, "bracket", "--lhs", str(good), "--rhs")[0] == cli.EXIT_OK
    assert _run(CARTAN, "classify", "--in")[0] == cli.EXIT_OK


@settings(max_examples=300, deadline=None)
@given(mutated(INVOLUTION), st.sampled_from(["I[Id,mu]", "I[mu,mu]", "III[mu,mu]"]))
def test_a_fuzzed_involution_file_exits_0_1_or_4(obj, form):
    _check_exit(*_run(obj, "decompose", "--form", form, "--degree", "1", "--involution"))


@settings(max_examples=300, deadline=None)
@given(mutated(RECORD))
def test_a_fuzzed_record_file_exits_0_1_or_4(obj):
    _check_exit(*_run(obj, "osaka-verify", "--degree", "1", "--record"))


EXITS_0_TO_4 = (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_PARAM, cli.EXIT_PARSE, cli.EXIT_SCHEMA)


@settings(max_examples=200, deadline=None)
@given(mutated(ELEMENT), st.booleans())
def test_an_edited_element_file_exits_0_to_4(obj, on_the_left):
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.json")
        with open(good, "w", encoding="utf-8") as fh:
            json.dump(ELEMENT, fh)
        # _run writes obj to the file its last flag names
        argv = ["bracket", "--rhs", good, "--lhs"] if on_the_left else ["bracket", "--lhs", good, "--rhs"]
        _check_exit(*_run(obj, *argv), allowed=EXITS_0_TO_4)


@settings(max_examples=200, deadline=None)
@given(mutated(CARTAN))
def test_an_edited_cartan_file_exits_0_to_4(obj):
    _check_exit(*_run(obj, "classify", "--in"), allowed=EXITS_0_TO_4)
