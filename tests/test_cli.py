"""The command line: every command's report and exit code, error JSON on
stderr, the input grammar and its caps for each input file, the argv scan
against argparse, rendering, report determinism and stdout failures."""
import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kmalg import cli, osaka, serialize
from kmalg.involution import RealFormDescriptor
from kmalg.kmext import ExtendedElement
from kmalg.loop import loop_monomial
from kmalg.rand import TrialRng, random_extended_element
from kmalg.scalars import I, ONE, Scalar, ZERO
from oracles import render_element_reference


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def test_classify_affine(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", {"schema": "kmalg/1", "matrix": [[2, -2], [-2, 2]]})
    code, out, _ = run_cli(capsys, "classify", "--in", path)
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["schema"] == "kmalg/1"
    assert rep["kind"] == "Affine"
    assert rep["family"] == "a1tilde"
    assert rep["witness"] == ["1", "1"]
    assert rep["dims"] == {"n": 2, "l": 1, "dim_h": 3}


def test_classify_rejects_bad_matrix(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", {"matrix": [[2, -1], [0, 2]]})
    code, _, err = run_cli(capsys, "classify", "--in", path)
    assert code == cli.EXIT_SCHEMA
    assert "axiom" in err


def assert_schema_exit(code, out, err):
    assert code == cli.EXIT_SCHEMA
    assert out == ""
    assert "Traceback" not in err
    error = json.loads(err)
    assert set(error) == {"schema", "error"} and error["error"]


@pytest.mark.parametrize("matrix", [5, [2, 3], [[2, -1], 3]],
                         ids=["matrix-int", "rows-int", "one-row-int"])
def test_classify_non_list_rows_exits_schema(tmp_path, capsys, matrix):
    path = write_json(tmp_path, "m.json", {"matrix": matrix})
    code, out, err = run_cli(capsys, "classify", "--in", path)
    assert_schema_exit(code, out, err)
    assert "not square" in _param_error(err)


@pytest.mark.parametrize("matrix,message", [
    ([], "empty"),
    ([[2, False], [False, 2]], "not an integer"),
    ([[True]], "not an integer"),
], ids=["empty", "boolean-off-diagonal", "boolean-diagonal"])
def test_classify_empty_or_boolean_matrix_exits_schema(tmp_path, capsys, matrix, message):
    path = write_json(tmp_path, "m.json", {"matrix": matrix})
    code, out, err = run_cli(capsys, "classify", "--in", path)
    assert_schema_exit(code, out, err)
    assert message in _param_error(err)


@pytest.mark.parametrize("entry, code", [(-int("9" * 2000), cli.EXIT_SCHEMA), (-10 ** 1000, cli.EXIT_SCHEMA),
                                         (1 - 10 ** 1000, cli.EXIT_OK)],
                         ids=["2000-digits", "1001-digits", "1000-digits"])
def test_cartan_entry_digits_are_bounded(tmp_path, capsys, entry, code):
    """A Cartan matrix entry has at most serialize.MAX_DIGITS digits, like
    a loop exponent: past that classify exits 4 with one short JSON line
    that echoes the entry cut."""
    path = write_json(tmp_path, "m.json", {"schema": "kmalg/1", "matrix": [[2, entry], [-1, 2]]})
    got, out, err = run_cli(capsys, "classify", "--in", path)
    if code == cli.EXIT_OK:
        assert got == code and err == ""
        assert json.loads(out)["kind"] == "Neither"
        return
    assert_schema_exit(got, out, err)
    assert len(err.encode("utf-8")) < 1000
    assert _param_error(err) == (f"entry a[0][1] has more than {serialize.MAX_DIGITS} digits, "
                                 f"got {serialize.echo(entry)}")


def test_classify_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", "--in", str(p))
    assert code == cli.EXIT_PARSE


@pytest.mark.parametrize("data", [b'\xff\xfe{}'], ids=["not-utf-8"])
def test_unparsable_file_beyond_json_syntax_exits_parse(tmp_path, capsys, data):
    """json.load raises a plain ValueError, not a JSONDecodeError, on bytes
    that are not UTF-8: the file cannot be parsed, exit 3 with one short
    JSON line."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run_cli(capsys, "bracket", "--lhs", str(bad), "--rhs", str(bad))
    assert code == cli.EXIT_PARSE and out == ""
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1000 and "Traceback" not in err
    error = json.loads(err)
    assert set(error) == {"schema", "error"} and error["error"].startswith(f"{bad}: ")


@pytest.mark.parametrize("data", [
    b'{"schema": "kmalg/1", "loop": {"schema": "kmalg/1", "algebra": "su2c", "twist_order": %s, '
    b'"terms": []}}' % (b"1" * 5000),
], ids=["5000-digit-int"])
def test_integer_past_the_int_string_limit_exits_schema(tmp_path, capsys, data):
    """An integer literal past Python's 4300-digit limit, which int refuses,
    is over serialize.MAX_DIGITS like every other over-long integer: exit 4
    with one short JSON line, as for the 1001-digit exponent of
    test_exponent_digits_are_bounded."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    code, out, err = run_cli(capsys, "bracket", "--lhs", str(bad), "--rhs", str(bad))
    assert_schema_exit(code, out, err)
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1000
    assert _param_error(err) == (f"{bad}: an integer has more than {serialize.MAX_DIGITS} digits, "
                                 f"got {serialize.echo('1' * 5000)}")


def test_missing_required_param(capsys):
    code = cli.run(["jacobi-check", "--trials", "5"])  # no --seed
    assert code == cli.EXIT_PARAM


def test_bracket_command(tmp_path, capsys):
    alg, tw = serialize.lookup_algebra("su2c", 1)
    x = ExtendedElement(loop_monomial(alg, tw, 1, (Scalar(1), ZERO, ZERO)))
    y = ExtendedElement(loop_monomial(alg, tw, -1, (Scalar(1), ZERO, ZERO)))
    lhs = write_json(tmp_path, "x.json", serialize.extended_to_json(x))
    rhs = write_json(tmp_path, "y.json", serialize.extended_to_json(y))
    code, out, _ = run_cli(capsys, "bracket", "--lhs", lhs, "--rhs", rhs)
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["result"]["c"] == ["0", "8"]
    assert rep["result"]["loop"]["terms"] == []


def _element_file(tmp_path, name, algebra):
    alg, tw = serialize.lookup_algebra(algebra, 1)
    x = ExtendedElement(loop_monomial(alg, tw, 1, (Scalar(1), ZERO, ZERO)))
    return write_json(tmp_path, name, serialize.extended_to_json(x))


def test_bracket_over_different_algebras_exits_schema(tmp_path, capsys):
    lhs = _element_file(tmp_path, "x.json", "su2c")
    rhs = _element_file(tmp_path, "y.json", "sl2c")
    code, out, err = run_cli(capsys, "bracket", "--lhs", lhs, "--rhs", rhs)
    assert_schema_exit(code, out, err)
    assert "different algebras" in _param_error(err)


def test_bracket_fault_exits_internal(tmp_path, capsys, monkeypatch):
    def broken(x, y):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli.kmext, "hat_bracket", broken)
    path = _element_file(tmp_path, "x.json", "su2c")
    code, out, err = run_cli(capsys, "bracket", "--lhs", path, "--rhs", path)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert json.loads(err)["error"].startswith("internal error: RuntimeError: injected fault")


E1_JSON = [["1", "0"], ["0", "0"], ["0", "0"]]
E2_JSON = [["0", "0"], ["1", "0"], ["0", "0"]]


def _su2c_element(twist_order=1, **loop_overrides):
    """An extended element on su2c as JSON: E1 at k = 1, or loop_overrides."""
    loop = {"schema": "kmalg/1", "algebra": "su2c", "twist_order": twist_order,
            "terms": [{"k": 1, "coords": E1_JSON}]}
    loop.update(loop_overrides)
    return {"schema": "kmalg/1", "loop": loop, "c": ["0", "0"], "d": ["0", "0"]}


@pytest.mark.parametrize("element", [
    _su2c_element(algebra=[1]),
    _su2c_element(terms=5),
    _su2c_element(terms=[5]),
    _su2c_element(terms=[{"k": 1, "coords": 5}]),
    _su2c_element(terms=[{"k": "a", "coords": E1_JSON}]),
    _su2c_element(terms=[{"k": 1.5, "coords": E1_JSON}]),
    _su2c_element(terms=[{"k": True, "coords": E1_JSON}]),
    # twist 2 negates E1, so E1 may only sit at odd exponents
    _su2c_element(twist_order=2, terms=[{"k": 0, "coords": E1_JSON}]),
    _su2c_element(terms=[{"k": 0, "coords": E1_JSON}, {"k": 0, "coords": E2_JSON}]),
], ids=["algebra-list", "terms-int", "term-int", "coords-int", "k-string", "k-float",
        "k-bool", "outside-twist-eigenspace", "k-repeated"])
def test_malformed_bracket_element_exits_schema(tmp_path, capsys, element):
    bad = write_json(tmp_path, "bad.json", element)
    good = write_json(tmp_path, "good.json", _su2c_element())
    code, out, err = run_cli(capsys, "bracket", "--lhs", good, "--rhs", bad)
    assert_schema_exit(code, out, err)


def test_repeated_exponent_names_it(tmp_path, capsys):
    """A second term at one exponent is refused, not read over the first."""
    bad = write_json(tmp_path, "bad.json", _su2c_element(
        terms=[{"k": 0, "coords": E1_JSON}, {"k": 0, "coords": E2_JSON}]))
    code, out, err = run_cli(capsys, "bracket", "--lhs", bad, "--rhs", bad)
    assert_schema_exit(code, out, err)
    assert _param_error(err) == "two terms at exponent k=0"


@pytest.mark.parametrize("k, code", [(9 * 10 ** 4299, cli.EXIT_SCHEMA), (10 ** 1000, cli.EXIT_SCHEMA),
                                     (-10 ** 1000, cli.EXIT_SCHEMA), (10 ** 1000 - 1, cli.EXIT_OK)],
                         ids=["4300-digits", "1001-digits", "minus-1001-digits", "1000-digits"])
def test_exponent_digits_are_bounded(tmp_path, capsys, k, code):
    """An exponent k has at most serialize.MAX_DIGITS digits. At 4300, the
    most json reads, the sum of two exponents once passed Python's
    int-string limit when the bracket was rendered (exit 5); at 1000 the
    bracket's exponent 2k renders."""
    lhs = write_json(tmp_path, "x.json", _su2c_element(terms=[{"k": k, "coords": E1_JSON}]))
    rhs = write_json(tmp_path, "y.json", _su2c_element(terms=[{"k": k, "coords": E2_JSON}]))
    got, out, err = run_cli(capsys, "bracket", "--lhs", lhs, "--rhs", rhs)
    if code == cli.EXIT_OK:
        assert got == code and err == ""
        assert [t["k"] for t in json.loads(out)["result"]["loop"]["terms"]] == [2 * k]
        return
    assert_schema_exit(got, out, err)
    assert len(err.encode("utf-8")) < 1000
    assert _param_error(err) == (f"term exponent 'k' has more than {serialize.MAX_DIGITS} digits, "
                                 f"got {serialize.echo(k)}")


@pytest.mark.parametrize("part", [0.1, 1, True, None], ids=["float", "int", "bool", "null"])
def test_non_string_scalar_part_exits_schema(tmp_path, capsys, part):
    """Scalar parts are exact "p/q" strings; a JSON number would be read as
    a binary float (0.1 as 3602879701896397/36028797018963968)."""
    coords = [[part, "0"], ["0", "0"], ["0", "0"]]
    bad = write_json(tmp_path, "bad.json", _su2c_element(terms=[{"k": 1, "coords": coords}]))
    good = write_json(tmp_path, "good.json", _su2c_element())
    code, out, err = run_cli(capsys, "bracket", "--lhs", good, "--rhs", bad)
    assert_schema_exit(code, out, err)
    assert '"p/q" strings' in _param_error(err)


REFUSED_PARTS = ["1e3", "1_000", " 3 ", "3 ", "-1.5e-2", "1.5", ".5", "5.", "+3", "1/-2", "-1/-2", "1 / 2",
                 "", "-", "1/", "/2", "nan", "inf", "١٢", "1" * (serialize.MAX_DIGITS + 1),
                 "1/" + "1" * (serialize.MAX_DIGITS + 1), "1/0"]


@pytest.mark.parametrize("part", REFUSED_PARTS, ids=range(len(REFUSED_PARTS)))
def test_scalar_part_outside_the_grammar_exits_schema(tmp_path, capsys, part):
    """A part is -?digits or -?digits/digits in ASCII, at most MAX_DIGITS
    digits on either side, with a nonzero denominator; every other spelling
    Fraction reads is refused."""
    el = _su2c_element()
    el["c"] = [part, "0"]
    bad = write_json(tmp_path, "bad.json", el)
    code, out, err = run_cli(capsys, "bracket", "--lhs", bad, "--rhs", bad)
    assert_schema_exit(code, out, err)
    assert _param_error(err).startswith("bad rational in scalar: ")


def test_long_refused_part_is_cut_in_the_message(tmp_path, capsys):
    """A refused part is echoed as its first ECHO_CHARS characters and its
    length: a 200000-digit part gives one short stderr line, not 200 kB."""
    el = _su2c_element()
    el["c"] = ["1" * 200000, "0"]
    bad = write_json(tmp_path, "bad.json", el)
    code, out, err = run_cli(capsys, "bracket", "--lhs", bad, "--rhs", bad)
    assert_schema_exit(code, out, err)
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1000
    shown = "['" + "1" * serialize.ECHO_CHARS + "'... (200000 characters), '0']"
    assert _param_error(err).startswith(f"bad rational in scalar: {shown} (each part is ")


@pytest.mark.parametrize("part,value", [("0", 0), ("-0", 0), ("007", 7), ("-12/8", Fraction(-3, 2)),
                                        ("1" * serialize.MAX_DIGITS, int("1" * serialize.MAX_DIGITS)),
                                        ("1/" + "2" * serialize.MAX_DIGITS,
                                         Fraction(1, int("2" * serialize.MAX_DIGITS)))])
def test_scalar_parts_in_the_grammar_are_read(part, value):
    assert serialize.scalar_from_json([part, part]) == Scalar(value, value)


_LOOP = json.dumps(_su2c_element()["loop"])
REPEATED_KEYS = {
    "c": '{"schema": "kmalg/1", "loop": %s, "c": ["1", "0"], "c": ["0", "0"]}' % _LOOP,
    "loop": '{"schema": "kmalg/1", "loop": %s, "loop": %s}' % (_LOOP, _LOOP),
    "k": '{"schema": "kmalg/1", "loop": {"schema": "kmalg/1", "algebra": "su2c", "twist_order": 1, '
         '"terms": [{"k": 1, "k": 2, "coords": %s}]}}' % json.dumps(E1_JSON),
}


@pytest.mark.parametrize("key", sorted(REPEATED_KEYS))
def test_repeated_json_key_exits_schema_and_names_it(tmp_path, capsys, key):
    """json keeps the last of two equal keys; the CLI refuses the file."""
    bad = tmp_path / "bad.json"
    bad.write_text(REPEATED_KEYS[key], encoding="utf-8")
    good = write_json(tmp_path, "good.json", _su2c_element())
    code, out, err = run_cli(capsys, "bracket", "--lhs", good, "--rhs", str(bad))
    assert_schema_exit(code, out, err)
    assert _param_error(err) == f"{bad}: repeated key '{key}' in a JSON object"


_LONG = "1" * 200000
_LONG_SHOWN = "'" + "1" * serialize.ECHO_CHARS + "'... (200000 characters)"
LONG_INPUTS = {
    "c-not-a-pair": json.dumps({**_su2c_element(), "c": [_LONG]}),
    "coords-entry": json.dumps(_su2c_element(terms=[{"k": 1, "coords": [_LONG]}])),
    "algebra-name": json.dumps(_su2c_element(algebra=_LONG)),
    "terms-string": json.dumps(_su2c_element(terms=_LONG)),
    "k-string": json.dumps(_su2c_element(terms=[{"k": _LONG, "coords": E1_JSON}])),
    "repeated-key": '{"schema": "kmalg/1", "loop": %s, "%s": 1, "%s": 2}' % (_LOOP, _LONG, _LONG),
}


@pytest.mark.parametrize("site", sorted(LONG_INPUTS))
def test_long_input_value_is_cut_in_the_message(tmp_path, capsys, site):
    """Every error that echoes a value read from a file cuts a 200000-character
    string to its first ECHO_CHARS characters and its length: one short
    stderr line, with the exit code and wording of a short value."""
    bad = tmp_path / "bad.json"
    bad.write_text(LONG_INPUTS[site], encoding="utf-8")
    code, out, err = run_cli(capsys, "bracket", "--lhs", str(bad), "--rhs", str(bad))
    assert_schema_exit(code, out, err)
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1000
    assert _LONG_SHOWN in _param_error(err)


@pytest.mark.parametrize("value", [None, 7, "su2c", ["1", "0"], {"k": 1, "coords": [["1", "0"]]}, [[[1]]]])
def test_echo_of_a_short_value_is_its_repr(value):
    assert serialize.echo(value) == repr(value)


def test_echo_cuts_long_lists_deep_nesting_and_long_ints():
    assert serialize.echo(list(range(10 ** 5))) == "[0, 1, 2, ... (100000 entries)]"
    assert serialize.echo({str(k): k for k in range(5)}) == "{'0': 0, '1': 1, '2': 2, ... (5 entries)}"
    assert serialize.echo([[[[[1]]]]]) == "[[[[...]]]]"
    assert serialize.echo(10 ** 100) == "1" + "0" * (serialize.ECHO_CHARS - 1) + "... (101 characters)"


def test_command_exception_exits_internal_without_traceback(capsys, monkeypatch):
    def broken():
        raise ZeroDivisionError("injected fault")

    monkeypatch.setattr(cli.osaka, "involution_counts", broken)
    code, out, err = run_cli(capsys, "counts")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert "Traceback" not in err
    error = json.loads(err)
    assert set(error) == {"schema", "error"}
    assert error["error"].startswith("internal error: ZeroDivisionError: injected fault")
    assert "in broken" in error["error"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["matrix", "terms", "k", "coords", "algebra"]), value=json_values)
def test_arbitrary_json_fields_exit_ok_or_schema(field, value):
    """Any JSON value as a Cartan matrix or as a loop-element field is
    either accepted or rejected with exit 4; it never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        if field == "matrix":
            obj, argv = {"matrix": value}, ["classify", "--in", path]
        else:
            obj, argv = _su2c_element(), ["bracket", "--lhs", path, "--rhs", path]
            if field in ("terms", "algebra"):
                obj["loop"][field] = value
            else:
                obj["loop"]["terms"][0] = {**obj["loop"]["terms"][0], field: value}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        assert _run_quietly(argv) in (cli.EXIT_OK, cli.EXIT_SCHEMA)


def test_jacobi_check_zero_trials_warns(capsys):
    code, out, _ = run_cli(capsys, "jacobi-check", "--trials", "0", "--seed", "s")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["passed"] is True
    assert "warning" in rep


def test_jacobi_check_runs(capsys):
    code, out, _ = run_cli(
        capsys, "jacobi-check", "--trials", "5", "--seed", "acc", "--twist", "2",
        "--degree", "4",
    )
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["failures"] == []


def test_report_determinism(capsys):
    _, out1, _ = run_cli(capsys, "jacobi-check", "--trials", "3", "--seed", "d1")
    _, out2, _ = run_cli(capsys, "jacobi-check", "--trials", "3", "--seed", "d1")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_ms")
    r2.pop("timing_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_killing_gram_command(capsys):
    code, out, _ = run_cli(capsys, "killing-gram", "--form", "I[Id,Id]", "--degree", "2")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["verdict"] == "NegDefinite"
    assert rep["size"] == 15


def test_decompose_command(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--form", "III[mu,mu]", "--degree", "2")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["gram"] == {"K_loops": "NegDefinite", "P_loops": "PosDefinite"}


def test_osaka_catalog_command(capsys):
    code, out, _ = run_cli(capsys, "osaka-catalog", "--degree", "2")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert len(rep["records"]) == 8
    assert rep["all_passed"] is True
    for entry in rep["records"]:
        assert set(entry["checks"]) == {
            "closure", "involutive", "fix_compact", "fix_abelian_zero",
            "KP_match", "type", "effective", "irreducible",
        }
    assert rep["duality"]["table"] is True


def test_osaka_verify_nested_alias(capsys):
    code, out, _ = run_cli(capsys, "osaka", "verify", "--record", "I[Id,Id]", "--degree", "2")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["all_passed"] is True


COMMAND_NAMES = ["classify", "bracket", "killing-gram", "jacobi-check", "decompose",
                 "osaka-catalog", "osaka-verify", "counts"]


def _small_argv(tmp_path, name):
    """A cheap invocation of each command that exits 0."""
    matrix = write_json(tmp_path, "m.json", {"matrix": [[2, -2], [-2, 2]]})
    element = _element_file(tmp_path, "x.json", "su2c")
    return [name, *{
        "classify": ["--in", matrix],
        "bracket": ["--lhs", element, "--rhs", element],
        "killing-gram": ["--form", "II", "--degree", "1"],
        "jacobi-check": ["--trials", "1", "--seed", "s", "--degree", "1"],
        "decompose": ["--form", "II", "--degree", "1"],
        "osaka-catalog": ["--degree", "1"],
        "osaka-verify": ["--record", "II", "--degree", "1"],
        "counts": [],
    }[name]]


@pytest.mark.parametrize("name", COMMAND_NAMES + ["osaka catalog", "osaka verify"])
def test_run_builds_only_the_parser_of_its_command(tmp_path, capsys, monkeypatch, name):
    """The small argv builds no parser: the scan reads it off COMMANDS.
    With its first flag abbreviated it builds its command's parser and no
    other."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    alias = name.split()
    argv = _small_argv(tmp_path, "-".join(alias))
    flags = argv[1:] or ["--family", "a2(1)"]  # counts' small argv has no flag
    for tokens, parsers in ((argv[1:], []), ([flags[0][:-1], *flags[1:]], [f"kmalg {argv[0]}"])):
        built.clear()
        code, _, _ = run_cli(capsys, *alias, *tokens)
        assert code == cli.EXIT_OK
        assert built == parsers


_FLAGS_ELSEWHERE = ["-h", "--help", "--", "--nope", "-x"]
_HOSTILE_VALUES = st.one_of(
    st.sampled_from(["", " 3", "3 ", "\u0663", "\uff13", "+2", "1_0", "0x10", "1" * 4301, "-", "-x",
                     "--", "-1", "--degree", "-h"]),
    st.text(alphabet="012 -+=x\u0663", max_size=4),
)


def _value(spec):
    """Mostly a value the flag takes (for --twist, in its choices or not),
    else one from _HOSTILE_VALUES."""
    plain = (st.integers(-1, 5).map(str) if spec.get("type") is int
             else st.sampled_from(["II", "IV", "s", "su2c", "e8(1)", "r.json", "3"]))
    return st.one_of(plain, plain, plain, _HOSTILE_VALUES)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_scan_agrees_with_argparse(data):
    """Whenever the scan takes an argv, argparse parses it to the same
    attributes. The argv gives the command's required flags and some of its
    others, --out included, and may add abbreviations, --flag=value, help,
    "--", unknown and repeated flags and lone values."""
    name = data.draw(st.sampled_from(COMMAND_NAMES))
    options = [*cli.COMMANDS[name][2], ("--out", {})]
    flags = [flag for flag, _ in options]
    flag = st.one_of(st.sampled_from(flags), st.sampled_from(flags).map(lambda f: f[:-1]),
                     st.sampled_from(_FLAGS_ELSEWHERE))
    pair = st.tuples(flag, _value({})).map(list)
    extra = st.one_of(pair, pair.map(lambda p: [f"{p[0]}={p[1]}"]), _HOSTILE_VALUES.map(lambda v: [v]))
    items = [[f, data.draw(_value(spec))] for f, spec in options
             if spec.get("required") or data.draw(st.booleans())]
    items += data.draw(st.lists(extra, max_size=2))
    tokens = [t for item in data.draw(st.permutations(items)) for t in item]
    scanned = cli._scan(name, tokens)
    if scanned is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = cli._parser(name).parse_args(tokens)
    except SystemExit:
        pytest.fail(f"the scan takes {tokens!r}, which argparse refuses")
    assert vars(scanned) == vars(parsed)


def test_scan_takes_the_small_and_the_benchmark_argv(tmp_path, monkeypatch):
    """Every small argv and every argv the benchmark runs is read by the
    scan, so none of them builds a parser."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # child.py puts src on the path
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "child.py"))
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    argvs = [_small_argv(tmp_path, name) for name in COMMAND_NAMES]
    argvs += [child.CATALOG_ARGV] + [child.gram_argv(rec.name) for rec in osaka.build_catalog_a1()]
    for argv in argvs:
        assert cli._scan(argv[0], argv[1:]) is not None, argv


SURFACE = [
    *[([name, "-h"], cli.EXIT_OK, "out", f"usage: kmalg {name} ") for name in COMMAND_NAMES],
    # a missing required option, or one the command does not take, prints its usage
    *[(argv, cli.EXIT_PARAM, "err", f"usage: kmalg {argv[0]} ") for argv in (
        ["classify", "--out", "x"], ["bracket", "--lhs", "x"], ["killing-gram", "--degree", "2"],
        ["jacobi-check", "--trials", "5"], ["decompose", "--degree", "1"],
        ["osaka-verify", "--degree", "1"], ["osaka-catalog", "--form", "II"],
        ["counts", "--degree", "1"],
    )],
    ([], cli.EXIT_PARAM, "err", "the following arguments are required: command"),
    (["nope"], cli.EXIT_PARAM, "err", "invalid choice: 'nope'"),
    (["osaka"], cli.EXIT_PARAM, "err", "invalid choice: 'osaka'"),
    (["--help"], cli.EXIT_OK, "out", "{" + ",".join(COMMAND_NAMES) + "}"),
]


@pytest.mark.parametrize("argv, code, stream, text", SURFACE,
                         ids=[" ".join(row[0]) or "no-command" for row in SURFACE])
def test_command_line_surface(capsys, argv, code, stream, text):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert text in (out if stream == "out" else err)
    if code == cli.EXIT_PARAM:
        assert out == "" and err.startswith("usage: kmalg")


@pytest.mark.parametrize("argv", [["--degree", "2"], ["--record", "I[Id,Id]", "--degree", "2"]],
                         ids=["catalog", "verify"])
def test_osaka_alias_gives_the_hyphenated_report(capsys, argv):
    sub = "catalog" if argv[0] == "--degree" else "verify"
    reports = []
    for command in (["osaka", sub], [f"osaka-{sub}"]):
        code, out, _ = run_cli(capsys, *command, *argv)
        assert code == cli.EXIT_OK
        rep = json.loads(out)
        del rep["timing_ms"]
        reports.append(rep)
    assert reports[0] == reports[1]


def test_osaka_verify_counterexample_fails(capsys):
    code, out, _ = run_cli(
        capsys, "osaka-verify", "--record", "complex+compact-conjugation", "--degree", "2"
    )
    assert code == cli.EXIT_FAIL
    rep = json.loads(out)
    assert rep["checks"]["fix_compact"] is False


def test_decompose_with_custom_involution(tmp_path, capsys):
    spec = {
        "schema": "kmalg/1",
        "rho_plus": {"matrix": [[["1", "0"], ["0", "0"], ["0", "0"]],
                                [["0", "0"], ["1", "0"], ["0", "0"]],
                                [["0", "0"], ["0", "0"], ["1", "0"]]]},
        "reflect_time": True,
        "conjugate_linear": False,
        "epsilon": -1,
    }
    path = write_json(tmp_path, "inv.json", spec)
    code, out, _ = run_cli(
        capsys, "decompose", "--form", "I[Id,Id]", "--involution", path, "--degree", "1"
    )
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    # the identity pair involution: K = 6, P = 5 at degree 1
    assert len(rep["K"]) == 6 and len(rep["P"]) == 5


def test_decompose_with_non_involutive_map_exits_fail(tmp_path, capsys):
    # rho_plus = 2 Id preserves the form but does not square to the identity
    two = [[["2" if i == j else "0", "0"] for j in range(3)] for i in range(3)]
    spec = {"schema": "kmalg/1", "rho_plus": {"matrix": two}, "reflect_time": True,
            "conjugate_linear": False, "epsilon": -1}
    path = write_json(tmp_path, "inv.json", spec)
    code, out, err = run_cli(
        capsys, "decompose", "--form", "I[Id,Id]", "--involution", path, "--degree", "1"
    )
    assert code == cli.EXIT_FAIL
    assert out == ""
    assert "Traceback" not in err
    assert "does not square to the identity" in _param_error(err)


def test_osaka_verify_from_record_file(tmp_path, capsys):
    ident = [["1", "0"], ["0", "0"], ["0", "0"]], [["0", "0"], ["1", "0"], ["0", "0"]], \
        [["0", "0"], ["0", "0"], ["1", "0"]]
    record = {
        "schema": "kmalg/1",
        "name": "custom compact pair",
        "algebra": "su2c",
        "twist_order": 1,
        "form": {"conj": {"matrix": list(ident), "index_sign": -1}, "cd_scale": "1"},
        "involution": {"rho_plus": {"matrix": list(ident)}, "reflect_time": True,
                       "conjugate_linear": False, "epsilon": -1},
        "claimed_type": "Compact",
        "expected_dims": {"zero": [3, 0], "even_pair": [3, 3], "odd_pair": [3, 3],
                          "cd": [0, 2]},
    }
    path = write_json(tmp_path, "record.json", record)
    code, out, _ = run_cli(capsys, "osaka-verify", "--record", path, "--degree", "2")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert rep["name"] == "custom compact pair"
    assert rep["all_passed"] is True


def _scalar_matrix(scale, dim=3):
    return [[[str(scale if i == j else 0), "0"] for j in range(dim)] for i in range(dim)]


def _su2c_record(rho_scale=1, **overrides):
    """A record file on su2c: compact form, rho_plus = rho_scale * Id."""
    record = {
        "schema": "kmalg/1",
        "name": "scaled involution",
        "algebra": "su2c",
        "twist_order": 1,
        "form": {"conj": {"matrix": _scalar_matrix(1), "index_sign": -1}, "cd_scale": "1"},
        "involution": {"rho_plus": {"matrix": _scalar_matrix(rho_scale)},
                       "reflect_time": True, "conjugate_linear": False, "epsilon": -1},
        "claimed_type": "Compact",
    }
    record.update(overrides)
    return record


@pytest.mark.parametrize("degree, code", [(1, cli.EXIT_OK), (2, cli.EXIT_FAIL), (9, cli.EXIT_FAIL)])
def test_an_untwisted_record_reads_its_even_block_expectation_at_2(tmp_path, capsys, degree, code):
    """On an untwisted su2c form of parity 0 every block (k, -k) repeats
    (1, -1), so the truncation builds no even block; the K/P check must
    still compare the split's (3, 3) with the record's even_pair (4, 2) at
    (2, -2), the first even block, from degree 2 on."""
    record = _su2c_record(expected_dims={"zero": [3, 0], "even_pair": [4, 2], "odd_pair": [3, 3],
                                         "cd": [0, 2]})
    path = write_json(tmp_path, "record.json", record)
    got, out, _ = run_cli(capsys, "osaka-verify", "--record", path, "--degree", str(degree))
    assert got == code
    rep = json.loads(out)
    assert {name for name, passed in rep["checks"].items() if not passed} == (
        set() if degree == 1 else {"KP_match"})
    if degree > 1:
        assert rep["details"]["KP_match"] == "block (2, -2): dims (3, 3) != expected (4, 2)"


def test_osaka_verify_non_involution_fails_prerequisites(tmp_path, capsys):
    path = write_json(tmp_path, "record.json", _su2c_record(rho_scale=2))
    code, out, _ = run_cli(capsys, "osaka-verify", "--record", path, "--degree", "2")
    assert code == cli.EXIT_FAIL
    rep = json.loads(out)
    assert rep["checks"] == {"closure": True, "involutive": False, "fix_compact": False,
                             "fix_abelian_zero": False, "KP_match": False}
    assert rep["details"]["involutive"] == "preserves form: True, squares to identity: False"
    for name in ("fix_compact", "fix_abelian_zero", "KP_match"):
        assert rep["details"][name] == "prerequisites failed"
    assert rep["computed_type"] is None


def test_osaka_verify_abelian_fixed_part_fails_only_fix_abelian_zero(tmp_path, capsys):
    """On abelian1c, rho_plus = 1 with time reflection fixes the constant
    loops of the abelian algebra: every check holds but fix_abelian_zero."""
    one = [[["1", "0"]]]
    record = {
        "schema": "kmalg/1", "name": "abelian fixed", "algebra": "abelian1c", "twist_order": 1,
        "form": {"conj": {"matrix": one, "index_sign": -1}},
        "involution": {"rho_plus": {"matrix": one}},
        "claimed_type": "Euclidean",
        "expected_dims": {"zero": [1, 0], "even_pair": [1, 1], "odd_pair": [1, 1], "cd": [0, 2]},
    }
    path = write_json(tmp_path, "record.json", record)
    code, out, err = run_cli(capsys, "osaka-verify", "--record", path, "--degree", "2")
    assert (code, err) == (cli.EXIT_FAIL, "")
    rep = json.loads(out)
    assert len(rep["checks"]) == 8
    assert [name for name, passed in rep["checks"].items() if not passed] == ["fix_abelian_zero"]
    assert rep["details"]["fix_abelian_zero"] == "1 fixed constant abelian directions"


def test_osaka_verify_map_breaking_the_twist_grading_is_not_involutive(tmp_path, capsys):
    """On su2c twisted by diag(-1, 1, -1), rho_plus swapping coordinates 0
    and 1 does not commute with the twist: the images of the (0,) block are
    fixed by the form's conj but not twist-graded, so phi does not preserve
    the form. That is a failed verdict (exit 1), not an internal error."""
    swap = [[["1" if j == (1, 0, 2)[i] else "0", "0"] for j in range(3)] for i in range(3)]
    record = _su2c_record(twist_order=2, involution={**_su2c_record()["involution"],
                                                     "rho_plus": {"matrix": swap}})
    path = write_json(tmp_path, "record.json", record)
    for degree in ("2", "5"):
        code, out, err = run_cli(capsys, "osaka-verify", "--record", path, "--degree", degree)
        assert code == cli.EXIT_FAIL and err == ""
        rep = json.loads(out)
        assert rep["checks"]["involutive"] is False
        assert rep["details"]["involutive"] == "preserves form: False, squares to identity: True"


@pytest.mark.parametrize("epsilon, effective, detail", [
    (1, True, "epsilon = 1, but phi(c) = -c"),
    (-1, False, "epsilon = -1, but phi(c) != -c"),
])
def test_osaka_verify_effective_detail_names_a_contradicted_epsilon(tmp_path, capsys, epsilon,
                                                                    effective, detail):
    """On su2c with c on the line i R, the conjugate-linear identity sends
    c = i to -i when it declares epsilon 1 and to i when it declares -1.
    effective is read from the map, and its detail says what the map does
    to c where that contradicts the declared epsilon."""
    record = _su2c_record(
        form={"conj": {"matrix": _scalar_matrix(1), "index_sign": 1}, "cd_scale": "i"},
        involution={"rho_plus": {"matrix": _scalar_matrix(1)}, "reflect_time": False,
                    "conjugate_linear": True, "epsilon": epsilon})
    path = write_json(tmp_path, "record.json", record)
    code, out, err = run_cli(capsys, "osaka-verify", "--record", path, "--degree", "2")
    assert code == cli.EXIT_FAIL and err == ""
    rep = json.loads(out)
    assert (rep["checks"]["effective"], rep["details"]["effective"]) == (effective, detail)


def test_osaka_verify_effective_detail_is_the_declared_epsilon_when_they_agree(capsys):
    code, out, _ = run_cli(capsys, "osaka-catalog", "--degree", "1")
    assert code == cli.EXIT_OK
    for rep in json.loads(out)["records"]:
        assert rep["details"]["effective"] == "epsilon = -1"


_INVOLUTION = _su2c_record()["involution"]


@pytest.mark.parametrize("overrides", [
    {"form": 5},
    {"involution": {**_INVOLUTION, "epsilon": "z"}},
    {"involution": {**_INVOLUTION, "epsilon": 0}},
    {"form": {"conj": {"matrix": [[["1", "0"]]], "index_sign": -1}}},
    {"claimed_type": "compact"},
    {"form": {**_su2c_record()["form"], "cd_scale": "x"}},
    {"expected_dims": {"zero": [3, 0]}},
    {"twist_order": [1]},
    {"name": 5},
    {"form": {**_su2c_record()["form"], "name": 5}},
    {"involution": {**_INVOLUTION, "name": ["x"]}},
    {"dual": 5},
    {"involution": {**_INVOLUTION, "reflect_time": "no"}},
    {"involution": {**_INVOLUTION, "conjugate_linear": 0}},
    {"algebra": [1]},
    {"involution": {**_INVOLUTION, "rho_plus": {"matrix": [
        [[0.5, "0"] if i == j == 0 else ["1" if i == j else "0", "0"] for j in range(3)]
        for i in range(3)]}}},
    *({"form": {**_su2c_record()["form"], "cd_scale": scale}}
      for scale in ("1.0", "1e0", "2/2", "0+i", "-i", ["1", "0"], "1" * 200000)),
], ids=["form-not-object", "epsilon-not-int", "epsilon-zero", "conj-1x1",
        "claimed-type-unknown", "cd-scale-not-scalar", "expected-dims-incomplete",
        "twist-order-list", "name-not-string", "form-name-not-string",
        "involution-name-not-string", "dual-not-string", "reflect-time-string",
        "conjugate-linear-int", "algebra-list", "rho-plus-float-part",
        "cd-scale-decimal", "cd-scale-exponent", "cd-scale-fraction", "cd-scale-sum",
        "cd-scale-minus-i", "cd-scale-pair", "cd-scale-long"])
def test_malformed_record_file_exits_schema(tmp_path, capsys, overrides):
    path = write_json(tmp_path, "record.json", _su2c_record(**overrides))
    code, out, err = run_cli(capsys, "osaka-verify", "--record", path, "--degree", "1")
    assert_schema_exit(code, out, err)
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1000


# every other spelling of 1 or i that the general scalar grammar once read
REFUSED_CD_SCALES = ["1/1", "2/2", "+1", " 1 ", "01", "1.0", "1e0", "+i", "i ", "0+i", "1·i", "0+1·i",
                     "3/3·i", "-i", "-1", "0", "", "x", 1, True, ["1", "0"], {"re": "1"}, "1" * 200000]


@pytest.mark.parametrize("scale", REFUSED_CD_SCALES, ids=range(len(REFUSED_CD_SCALES)))
def test_cd_scale_outside_one_i_or_null_is_refused(scale):
    """Any cd_scale but "1", "i" or null is refused with a short echo of it."""
    with pytest.raises(serialize.SchemaError) as err:
        serialize.record_from_json(_su2c_record(form={"cd_scale": scale}))
    assert str(err.value) == f'form \'cd_scale\' must be "1", "i" or null, got {serialize.echo(scale)}'


@pytest.mark.parametrize("form,line", [({}, ONE), ({"cd_scale": "1"}, ONE), ({"cd_scale": "i"}, I),
                                       ({"cd_scale": None}, None)], ids=["default", "one", "i", "null"])
def test_cd_scale_is_one_i_or_null(form, line):
    """A form's c/d line is R ("1", the default), iR ("i") or both (null)."""
    assert serialize.record_from_json(_su2c_record(form=form)).real_form.cd_scale == line


@pytest.mark.parametrize("reflect_time, conjugate_linear, epsilon",
                         list(itertools.product((True, False), (True, False), (1, -1))))
def test_involution_file_time_reflection_forces_epsilon(tmp_path, capsys, reflect_time, conjugate_linear,
                                                        epsilon):
    """An involution file that reflects time with epsilon 1 is a schema
    error (exit 4), linear or conjugate-linear; every other combination
    builds the descriptor it names, with index sign -1 exactly when the
    map reflects time and is linear or keeps time and is conjugate-linear."""
    spec = {"schema": "kmalg/1", "rho_plus": {"matrix": _scalar_matrix(1)}, "reflect_time": reflect_time,
            "conjugate_linear": conjugate_linear, "epsilon": epsilon}
    algebra, _ = serialize.lookup_algebra("su2c", 1)
    if reflect_time and epsilon == 1:
        with pytest.raises(serialize.SchemaError) as err:
            serialize.involution_from_json(spec, algebra)
        assert str(err.value) == "invalid involution: time reflection forces epsilon = -1"
        path = write_json(tmp_path, "inv.json", spec)
        code, out, err = run_cli(capsys, "decompose", "--form", "I[Id,Id]", "--involution", path, "--degree", "2")
        assert_schema_exit(code, out, err)
        assert _param_error(err) == "invalid involution: time reflection forces epsilon = -1"
        return
    phi = serialize.involution_from_json(spec, algebra)
    assert phi.epsilon == epsilon and phi.loop_map.conjugate == conjugate_linear
    assert phi.loop_map.index_sign == (-1 if reflect_time != conjugate_linear else 1)


def test_counts_command(capsys):
    """--family looks the family up in the table the report prints; a
    family not on it is "NotTabulated"."""
    for family, count in [("a2(1)", "NotTabulated"), ("e8(1)", 6), ("g2(1)", 3)]:
        code, out, _ = run_cli(capsys, "counts", "--family", family)
        assert code == cli.EXIT_OK
        rep = json.loads(out)
        assert rep["second_kind_involutions"]["e7(1)"] == 10
        assert rep["lookup"] == {family: count}


@pytest.mark.parametrize("env", [None, "1"], ids=["plain", "env-ignored"])
def test_default_degree_is_the_option_default(capsys, monkeypatch, env):
    """With no --degree, killing-gram runs at degree 4 and osaka-verify at
    3; KMALG_DEFAULT_DEGREE, once read, changes nothing."""
    if env is not None:
        monkeypatch.setenv("KMALG_DEFAULT_DEGREE", env)
    code, out, _ = run_cli(capsys, "killing-gram", "--form", "I[Id,Id]")
    assert code == cli.EXIT_OK
    rep = json.loads(out)
    assert (rep["params"]["degree"], rep["size"]) == (4, 27)  # 3 * (2*4 + 1)
    code, out, _ = run_cli(capsys, "osaka-verify", "--record", "I[Id,Id]")
    assert code == cli.EXIT_OK
    assert json.loads(out)["params"]["degree"] == 3


def _param_error(err):
    return json.loads(err)["error"]


@pytest.mark.parametrize("argv", [["killing-gram", "--form", "nope"], ["decompose", "--form", "nope"],
                                  ["osaka-verify", "--record", "nope"]],
                         ids=["killing-gram", "decompose", "osaka-verify"])
def test_unknown_form_exits_param(capsys, argv):
    """The message is the KeyError's own, quoted once."""
    code, out, err = run_cli(capsys, *argv, "--degree", "1")
    assert code == cli.EXIT_PARAM
    assert out == ""
    assert err == '{"schema": "kmalg/1", "error": "no catalog record named \'nope\'"}\n'


def test_osaka_verify_looks_up_names_before_paths(tmp_path, capsys, monkeypatch):
    """A catalog or special record name is read as that record even where a
    file of that name exists; an unknown name that is a file is read as a
    record file."""
    monkeypatch.chdir(tmp_path)
    for name, record in (("IV", "IV"), ("euclidean", "Euclidean(1)")):
        (tmp_path / name).write_text("not json", encoding="utf-8")
        code, out, err = run_cli(capsys, "osaka-verify", "--record", name, "--degree", "1")
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["name"] == record
    (tmp_path / "nope").write_text("not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "osaka-verify", "--record", "nope", "--degree", "1")
    assert code == cli.EXIT_PARSE and out == ""
    assert _param_error(err) == "nope:1:1: Expecting value"


@pytest.mark.parametrize("argv", [
    ["osaka-verify", "--record", "II"],
    ["osaka-catalog"],
    ["killing-gram", "--form", "II"],
    ["decompose", "--form", "II"],
    ["jacobi-check", "--trials", "1", "--seed", "s"],
])
def test_negative_degree_exits_param(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--degree", "-1")
    assert code == cli.EXIT_PARAM
    assert out == ""
    assert "--degree must be at least" in _param_error(err)


@pytest.mark.parametrize("argv", [["killing-gram", "--form", "I[Id,Id]"], ["killing-gram", "--form", "IV"],
                                  ["decompose", "--form", "I[Id,Id]"]],
                         ids=["killing-gram", "killing-gram-IV", "decompose"])
def test_degree_past_the_cap_exits_param(capsys, monkeypatch, argv):
    """A --degree past cli.MAX_DEGREE exits 2 with a message naming the cap,
    before any truncation is built (one at 10^8 ran out of memory)."""
    def refuse(*args):
        raise AssertionError("a truncation was built")

    monkeypatch.setattr(RealFormDescriptor, "truncate", refuse)
    code, out, err = run_cli(capsys, *argv, "--degree", "100000000")
    assert (code, out) == (cli.EXIT_PARAM, "")
    assert _param_error(err) == f"--degree must be at most MAX_DEGREE = {cli.MAX_DEGREE}, got 100000000"
    assert cli.MAX_DEGREE >= 100000  # the workflow's decompose step runs there


@pytest.mark.parametrize("argv", [["killing-gram", "--form", "II", "--degree"],
                                  ["jacobi-check", "--seed", "s", "--trials"]],
                         ids=["killing-gram-degree", "jacobi-check-trials"])
def test_a_long_negative_value_is_echoed_cut(capsys, argv):
    """A refused negative --degree or --trials of 4000 digits exits 2 with
    one JSON line on stderr, under 1000 bytes: the value is echoed cut."""
    value = "-" + "1" * 4000
    code, out, err = run_cli(capsys, *argv, value)
    assert (code, out) == (cli.EXIT_PARAM, "")
    assert len(err.splitlines()) == 1 and len(err.encode()) < 1000
    assert _param_error(err).endswith(f"got {serialize.echo(int(value))}")


@pytest.mark.parametrize("argv", [["osaka-verify", "--record", "II"], ["osaka-catalog"]])
def test_degree_zero_verification_exits_param(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--degree", "0")
    assert code == cli.EXIT_PARAM
    assert "--degree must be at least 1, got 0" in _param_error(err)


def test_negative_trials_exit_param(capsys):
    code, out, err = run_cli(capsys, "jacobi-check", "--trials", "-3", "--seed", "s")
    assert code == cli.EXIT_PARAM
    assert out == ""
    assert "--trials must be at least 0, got -3" in _param_error(err)


@pytest.mark.parametrize("argv,message", [
    (["--algebra", "nope"], "unknown algebra 'nope'"),
    (["--algebra", "abelian1c", "--twist", "2"], "has no canonical twist of order 2"),
])
def test_jacobi_check_unknown_algebra_or_twist_exits_param(capsys, argv, message):
    code, out, err = run_cli(capsys, "jacobi-check", *argv, "--seed", "1", "--trials", "2")
    assert code == cli.EXIT_PARAM
    assert out == ""
    assert message in _param_error(err)
    assert "Traceback" not in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "counts", "--out", str(target))
    assert code == cli.EXIT_OK
    assert out == ""
    rep = json.loads(target.read_text(encoding="utf-8"))
    assert rep["command"] == "counts"


def test_render_parse_round_trip_on_random_elements():
    """The text of each element is that of the per-copy renderer, and its
    JSON parses back to it."""
    for spec in (("su2c", 1), ("su2c", 2), ("sl2c", 1), ("su2su2c", 1)):
        alg, tw = serialize.lookup_algebra(*spec)
        for t in range(15):
            rng = TrialRng(f"roundtrip-{spec}", t)
            x = random_extended_element(alg, tw, rng, max_degree=4)
            text = serialize.render_element(x)
            assert text == render_element_reference(x)
            as_json = serialize.extended_to_json(x)
            assert serialize.extended_from_json(json.loads(json.dumps(as_json))) == x


def test_unwritable_out_file_exits_parse(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run_cli(capsys, "counts", "--out", str(target))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "Traceback" not in err
    error = json.loads(err)
    assert set(error) == {"schema", "error"}
    assert str(target) in error["error"]


def _cli_subprocess(stdout, *argv):
    """Run the CLI in a fresh interpreter on the kmalg package under test."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "kmalg.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
    )


def test_closed_stdout_pipe_exits_parse_silently():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = _cli_subprocess(write_end, "counts")
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stderr == b""


def test_full_stdout_exits_parse_with_json_error():
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    with open("/dev/full", "wb") as full:
        proc = _cli_subprocess(full, "counts")
    assert proc.returncode == cli.EXIT_PARSE
    err = proc.stderr.decode("utf-8")
    assert "Traceback" not in err and err.count("\n") == 1
    assert json.loads(err) == {"schema": "kmalg/1", "error": "cannot write stdout: [Errno 28] No space left on device"}


class _FailingStdout:
    """A stdout whose writes raise exc, over a file descriptor of its own,
    so that a redirect of stdout to devnull would land on it, not on the
    test process's stdout."""

    def __init__(self, exc, fd):
        self.exc, self.fd = exc, fd

    def write(self, text):
        raise self.exc

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("exc, message", [
    (BrokenPipeError(32, "Broken pipe"), None),
    (OSError(28, "No space left on device"), "cannot write stdout: [Errno 28] No space left on device"),
], ids=["closed-pipe", "full"])
def test_failing_stdout_exits_parse_in_process(tmp_path, capsys, monkeypatch, exc, message):
    """The in-process side of the two tests above: a reader gone is exit 3
    with nothing on stderr, and any other write error is exit 3 with one
    JSON line naming it."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _FailingStdout(exc, fd))
        code = cli.run(["counts"])
        monkeypatch.undo()
    finally:
        os.close(fd)
    err = capsys.readouterr().err
    assert code == cli.EXIT_PARSE
    if message is None:
        assert err == ""
    else:
        assert json.loads(err) == {"schema": "kmalg/1", "error": message}


def test_failing_stdout_leaves_the_process_stdout_alone(tmp_path, capsys, monkeypatch):
    """A full stdout exits 3 and leaves the file under it open: run points
    no file descriptor at devnull (only main does, for its own process), so
    the next run on a working stdout prints its report."""
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _FailingStdout(OSError(28, "No space left on device"), fd))
        assert cli.run(["counts"]) == cli.EXIT_PARSE
        monkeypatch.undo()
        assert os.fstat(fd).st_ino == os.stat(path).st_ino
    finally:
        os.close(fd)
    capsys.readouterr()
    code, out, err = run_cli(capsys, "counts")
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out)["command"] == "counts"


# -- decompose reports pinned --------------------------------------------------

# SHA-256 of each `decompose --form F --degree 3` report without timing_ms,
# as printed (indent 2), recorded before block_basis and coords moved onto
# linalg.real_kernel / real_rows. The K and P lists print the basis elements,
# so these digests also pin the order and normalisation of every block basis.
# The degree-7 digests, recorded before the K/P split became a signed
# truncation, pin the blocks (3, -3) .. (7, -7) that the split shifts.
DECOMPOSE_DIGESTS = {
    "I[Id,Id]": "febce5fe8cf56e0b05b59ffcb9d8725a6d21c87d814a3942865bddb2baad16e4",
    "I[Id,mu]": "4bdf74317d30477e1dfb49422db539130c93a2a86e00b2a0eaa8397c211f1b75",
    "I[mu,mu]": "2771b5e7c6ae243711c03520ec1f902a8237e66ecd0ab61916968b5bbec28345",
    "II": "e987a7359f5d2684ca2394bd909ea46c36055f968c6785caefee46f93a40d4b6",
    "III[Id,Id]": "5131dd751a80dcf1152c85e1a19c6247345e83cddf1f85c6b48648aa6963997b",
    "III[Id,mu]": "4e45599c4b0ea81372013b83bb885a0377063066fb0697dba50640870c3d8db8",
    "III[mu,mu]": "61a3b246f2ab2d690c93cd9b0ac85598cfb22ca09beeeb1bd7f8bfed5ccf7a11",
    "IV": "a9423831a4d4dc3191ac9bdd7b61f824fb22f81e514d87dfefe7748310544009",
}
DECOMPOSE_DIGESTS_7 = {
    "I[Id,Id]": "413afbf0a319614ba8ac6736734d07bcf2990317b05106b93e404a4b39a4ecd5",
    "I[Id,mu]": "827096dc263b502525f6e3de04f04846376e22152ec70291308aed959987e114",
    "I[mu,mu]": "1cc2385433e7ab7c96704a72f23128b0932387ccf79829f2c1308b7b8e9e8d42",
    "II": "19d8f38fa166cc09e8749a56b35e3cbc29e91497f9cc3f9500d53adda09d096d",
    "III[Id,Id]": "7f87d4de28404ac190a552cc9940ac7b49ba76293f18197b8a3de47ee86ff53b",
    "III[Id,mu]": "b588dba8a602331a298766b807f15d1d16aaf8ea24da4702ef0fc79428352799",
    "III[mu,mu]": "d27c951d016139e0ea0babfddc8d7fb8d22badbfc8bea408317e3e2d0e579aa3",
    "IV": "2766078d092b8004cb6a77e1b8fb7b474048e4b01cea534ae4c6a27c2ea3e5be",
}


@pytest.mark.parametrize("form", sorted(DECOMPOSE_DIGESTS))
def test_decompose_report_digest(capsys, form):
    for degree, digests in (("3", DECOMPOSE_DIGESTS), ("7", DECOMPOSE_DIGESTS_7)):
        code, out, _ = run_cli(capsys, "decompose", "--form", form, "--degree", degree)
        assert code == cli.EXIT_OK
        rep = json.loads(out)
        del rep["timing_ms"]
        text = json.dumps(rep, indent=2, ensure_ascii=False)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digests[form]
