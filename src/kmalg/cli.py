"""kmalg command line: classification, brackets, Gram verdicts, randomized
identity checks, Cartan decompositions and the OSAKA catalog, all emitting
versioned JSON reports with exact scalar strings.

One table, COMMANDS, names each command's handler, help string and options.
`run` reads `--flag value` pairs of the command's own flags off that table
(`_scan`) and builds no parser. Any other argv (help, abbreviations,
`--flag=value`, repeats, values starting with "-", usage errors) imports
argparse and builds the parser of that one command.
With no command, an unknown one or a top-level -h it builds only the
listing of the table's names. `kmalg osaka catalog|verify ...` is rewritten to
`kmalg osaka-catalog|osaka-verify ...` before parsing.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 bad parameters
(unknown record or form, negative degree or trial count, degree 0 for
OSAKA verification, a degree past MAX_DEGREE on killing-gram or
decompose), 3 input file could not be parsed or the report could not be
written (an unwritable --out or a closed stdout), 4 schema violation,
5 internal error (any other exception a command raises).
"""
from __future__ import annotations

import json
import os
import sys
import time
import types

from . import kmext, osaka, rand, serialize  # rand stays eager: perfbench's tracer wraps it right after this import
from .involution import InvolutionError, fixed_and_eigenspaces
from .loop import MismatchError, killing_gram

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARAM = 2
EXIT_PARSE = 3
EXIT_SCHEMA = 4
EXIT_INTERNAL = 5


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _unique_keys(pairs):
    """A JSON object from its (key, value) pairs; a key given twice is a
    schema error, where json would keep only the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise serialize.SchemaError(f"repeated key {serialize.echo(key)} in a JSON object")
        obj[key] = value
    return obj


def _parse_int(literal):
    """A JSON integer as an int. One past Python's int-string limit (4300
    digits by default) is far over serialize.MAX_DIGITS: a schema error."""
    try:
        return int(literal)
    except ValueError:
        raise serialize.SchemaError(f"an integer has more than {serialize.MAX_DIGITS} digits, "
                                    f"got {serialize.echo(literal)}") from None


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys, parse_int=_parse_int)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}", EXIT_PARSE) from exc
    except serialize.SchemaError as exc:
        raise CliError(f"{path}: {exc}", EXIT_SCHEMA) from exc
    except ValueError as exc:  # bytes that are not UTF-8 (a UnicodeDecodeError)
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from exc


MAX_DEGREE = 100000  # of killing-gram and decompose, which print every block (decompose: 40-111 MB)


def _check_degree(value, minimum=0, maximum=None):
    if value < minimum:
        raise CliError(f"--degree must be at least {minimum}, got {serialize.echo(value)}", EXIT_PARAM)
    if maximum is not None and value > maximum:
        raise CliError(f"--degree must be at most MAX_DEGREE = {maximum}, got {serialize.echo(value)}", EXIT_PARAM)
    return value


def _catalog_record(name):
    try:
        return osaka.catalog_record(name)
    except KeyError as exc:
        raise CliError(exc.args[0], EXIT_PARAM) from exc


def _emit(report, out_path):
    """Write the report to out_path, or else to stdout. An unwritable
    out_path or stdout raises CliError (exit 3); a stdout closed by its
    reader returns False, as there is no one left to tell."""
    text = json.dumps(report, indent=2, ensure_ascii=False, sort_keys=False)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}", EXIT_PARSE) from exc
        return True
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            return False
        raise CliError(f"cannot write stdout: {exc}", EXIT_PARSE) from exc
    return True


def _base_report(command, **params):
    return {
        "schema": serialize.SCHEMA,
        "command": command,
        "params": params,
    }


# -- commands -----------------------------------------------------------------

def cmd_classify(args):
    from . import cartan  # only classify reads Cartan matrices: no other command loads it

    obj = _read_json(args.infile)
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise CliError("input must be an object with a 'matrix' field", EXIT_SCHEMA)
    try:
        a = cartan.validate(obj["matrix"])
    except cartan.CartanMatrixError as exc:
        raise CliError(f"not a generalized Cartan matrix: {exc}", EXIT_SCHEMA) from exc
    for i, row in enumerate(a.entries):
        for j, v in enumerate(row):
            if abs(v) >= 10 ** serialize.MAX_DIGITS:
                raise CliError(f"entry a[{i}][{j}] has more than {serialize.MAX_DIGITS} digits, "
                               f"got {serialize.echo(v)}", EXIT_SCHEMA)
    cls = cartan.classify(a)
    report = _base_report("classify", infile=args.infile)
    report["kind"] = cls.kind.value
    report["witness"] = [str(x) for x in cls.witness] if cls.witness else None
    report["components"] = [list(c) for c in cls.components]
    report["block_kinds"] = [k.value for k in cls.block_kinds]
    report["synthetic_composite"] = cls.synthetic_composite
    if a.n == 2:
        fam = cartan.identify_2x2(a)
        report["family"] = fam.name
        report["family_dimension"] = fam.dimension
    dims = cartan.realization_dims(a, cls)
    report["dims"] = {"n": dims.n, "l": dims.l, "dim_h": dims.dim_h}
    return report, True


def cmd_bracket(args):
    x = serialize.extended_from_json(_read_json(args.lhs))
    y = serialize.extended_from_json(_read_json(args.rhs))
    try:
        z = kmext.hat_bracket(x, y)
    except MismatchError as exc:  # operands over different algebras or twists
        raise CliError(str(exc), EXIT_SCHEMA) from exc
    report = _base_report("bracket", lhs=args.lhs, rhs=args.rhs)
    report["result"] = serialize.extended_to_json(z)
    report["rendered"] = serialize.render_element(z)
    return report, True


def cmd_killing_gram(args):
    degree = _check_degree(args.degree, maximum=MAX_DEGREE)
    rec = _catalog_record(args.form)
    truncation = rec.real_form.truncate(degree)
    blocks, verdict = killing_gram(truncation.loops)  # the base blocks' loops, in order
    entry = {i: str(rows[a][a]) for members, rows in blocks for a, i in enumerate(members)}
    # each block repeats its base block's entries (killing_gram's docstring)
    start = [0]
    for _, items in truncation.blocks:
        start.append(start[-1] + len(items))
    diagonal = [entry[i] for key, b in truncation.layout() if key != ("cd",)
                for i in range(start[b], start[b + 1])]
    report = _base_report("killing-gram", form=args.form, degree=degree)
    report["size"] = len(diagonal)
    report["verdict"] = verdict.value
    report["gram_diagonal"] = diagonal
    return report, True


def cmd_jacobi_check(args):
    degree = _check_degree(args.degree)
    if args.trials < 0:
        raise CliError(f"--trials must be at least 0, got {serialize.echo(args.trials)}", EXIT_PARAM)
    try:
        algebra, twist = serialize.lookup_algebra(args.algebra, args.twist)
    except serialize.SchemaError as exc:
        raise CliError(str(exc), EXIT_PARAM) from exc
    failures = []
    for t in range(args.trials):
        rng = rand.TrialRng(args.seed, t)
        x = rand.random_extended_element(algebra, twist, rng, max_degree=degree)
        y = rand.random_extended_element(algebra, twist, rng, max_degree=degree)
        z = rand.random_extended_element(algebra, twist, rng, max_degree=degree)
        if not kmext.jacobi_residual(x, y, z).is_zero():
            failures.append(t)
    report = _base_report(
        "jacobi-check", trials=args.trials, degree=degree, seed=args.seed,
        twist=args.twist, algebra=args.algebra,
    )
    report["failures"] = failures
    report["passed"] = not failures
    if args.trials == 0:
        report["warning"] = "0 trials requested; the check passes vacuously"
    return report, not failures


def cmd_decompose(args):
    degree = _check_degree(args.degree, maximum=MAX_DEGREE)
    rec = _catalog_record(args.form)
    inv = rec.involution
    if args.involution:
        inv = serialize.involution_from_json(_read_json(args.involution), rec.real_form.algebra)
    try:
        dec = fixed_and_eigenspaces(inv, rec.real_form.truncate(degree))
    except InvolutionError as exc:
        raise CliError(str(exc), EXIT_FAIL) from exc
    _, kv = killing_gram([e.loop for e in dec.k_basis if not e.loop.is_zero()])
    _, pv = killing_gram([e.loop for e in dec.p_basis if not e.loop.is_zero()])
    report = _base_report("decompose", form=args.form, degree=degree,
                          involution=args.involution)
    report["dims"] = {str(k): list(v) for k, v in sorted(dec.dims().items(), key=str)}
    # every block, one past the split's built_period as a shift of its base
    # block, whose elements are rendered once
    report["K"], report["P"] = [], []
    texts = [[(report["K" if s == 1 else "P"], serialize.element_renderer(e)) for e, s in items]
             for _, items in dec.blocks]
    for key, b in dec.layout():
        base = dec.blocks[b][0]
        shift = 0 if key == base else key[0] - base[0]
        for out, render in texts[b]:
            out.append(render(shift))
    report["gram"] = {"K_loops": kv.value, "P_loops": pv.value}
    return report, True


def _record_report(rec, degree):
    rep = osaka.osaka_verify(rec, degree)
    witnesses = {k: v.witness for k, v in rep.checks.items() if v.witness is not None}
    return {
        "name": rep.name,
        "checks": {k: v.passed for k, v in rep.checks.items()},
        "details": {k: v.detail for k, v in rep.checks.items() if v.detail},
        **({"witnesses": witnesses} if witnesses else {}),
        "computed_type": rep.computed_type,
        "claimed_type": rec.claimed_type.value,
        "dual": rec.dual_name,
        "all_passed": rep.all_passed,
    }


def cmd_osaka_catalog(args):
    degree = _check_degree(args.degree, minimum=1)
    records = [_record_report(rec, degree) for rec in osaka.build_catalog_a1()]
    pairing = osaka.duality_pairing()
    report = _base_report("osaka-catalog", degree=degree)
    report["records"] = records
    report["duality"] = {
        "matches": pairing.matches,
        "double_dual_identity": pairing.double_dual_ok,
        "table": pairing.table_ok,
    }
    ok = all(r["all_passed"] for r in records) and pairing.all_passed
    report["all_passed"] = ok
    return report, ok


def cmd_osaka_verify(args):
    degree = _check_degree(args.degree, minimum=1)
    name = args.record
    specials = {
        "euclidean": osaka.euclidean_osaka,
        "complex+compact-conjugation": osaka.complex_conjugation_counterexample,
    }
    # a special record, then a catalog name, then a record file
    if name in specials:
        rec = specials[name]()
    elif os.path.exists(name) and name not in {r.name for r in osaka.build_catalog_a1()}:
        rec = serialize.record_from_json(_read_json(name))
        name = rec.name
    else:
        rec = _catalog_record(name)
    entry = _record_report(rec, degree)
    report = _base_report("osaka-verify", record=name, degree=degree)
    report.update(entry)
    return report, entry["all_passed"]


def cmd_counts(args):
    report = _base_report("counts")
    counts = report["second_kind_involutions"] = osaka.involution_counts()
    if args.family:
        report["lookup"] = {args.family: counts.get(args.family, "NotTabulated")}
    return report, True


# -- driver ----------------------------------------------------------------------

_REQUIRED = {"required": True}
_DEGREE = ("--degree", {"type": int, "default": 3})  # killing-gram has its own spec, default 4

# name -> (handler, help, option specs); every command also takes --out, last
COMMANDS = {
    "classify": (cmd_classify, "classify a generalized Cartan matrix",
                 [("--in", {"dest": "infile", "required": True})]),
    "bracket": (cmd_bracket, "bracket of two extended elements",
                [("--lhs", _REQUIRED), ("--rhs", _REQUIRED)]),
    "killing-gram": (cmd_killing_gram, "loop Killing Gram of a catalog form",
                     [("--form", _REQUIRED), ("--degree", {"type": int, "default": 4})]),
    "jacobi-check": (cmd_jacobi_check, "randomized Jacobi identity check",
                     [("--trials", {"type": int, "required": True}), _DEGREE, ("--seed", _REQUIRED),
                      ("--twist", {"type": int, "default": 1, "choices": (1, 2)}),
                      ("--algebra", {"default": "su2c"})]),
    "decompose": (cmd_decompose, "Cartan decomposition of a catalog form",
                  [("--form", _REQUIRED),
                   ("--involution", {"help": "JSON file overriding the record's involution"}),
                   _DEGREE]),
    "osaka-catalog": (cmd_osaka_catalog, "verify the full rank-one catalog", [_DEGREE]),
    "osaka-verify": (cmd_osaka_verify, "verify one record", [("--record", _REQUIRED), _DEGREE]),
    "counts": (cmd_counts, "second-kind involution count table", [("--family", {})]),
}


def _listing():
    """The top-level parser: the table's names and help strings, no options.
    Parsing with it prints the listing (-h) or a usage error, and exits."""
    import argparse
    p = argparse.ArgumentParser(
        prog="kmalg",
        description="exact computer algebra for geometric affine Kac-Moody algebras",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_, _) in COMMANDS.items():
        sub.add_parser(name, help=help_)
    return p


def _parser(name):
    """The argparse parser of one command: its options and --out."""
    import argparse
    parser = argparse.ArgumentParser(prog=f"kmalg {name}")
    for flag, spec in (*COMMANDS[name][2], ("--out", {})):
        parser.add_argument(flag, **spec)
    return parser


def _scan(name, tokens):
    """What _parser(name) would parse tokens to, when they are only
    `--flag value` pairs of the command's flags: each flag once, no value
    starting with "-", each value of its type and in its choices, and every
    required flag given. None for any other tokens, which argparse parses."""
    given = dict(zip(tokens[::2], tokens[1::2]))
    if len(tokens) != 2 * len(given):  # an odd count or a repeated flag
        return None
    args = types.SimpleNamespace()
    for flag, spec in (*COMMANDS[name][2], ("--out", {})):
        value = given.pop(flag, None)
        if value is None:
            if spec.get("required"):
                return None
            value = spec.get("default")
        elif value.startswith("-"):
            return None
        else:
            try:
                value = spec.get("type", str)(value)
            except ValueError:
                return None
            if value not in spec.get("choices", (value,)):
                return None
        setattr(args, spec.get("dest", flag.lstrip("-").replace("-", "_")), value)
    return None if given else args  # a flag left over is not the command's


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:2] in (["osaka", "catalog"], ["osaka", "verify"]):
        argv[:2] = ["osaka-" + argv[1]]
    try:
        if not argv or argv[0] not in COMMANDS:
            _listing().parse_args(argv)  # exits with the listing or a usage error
        args = _scan(argv[0], argv[1:]) or _parser(argv[0]).parse_args(argv[1:])
    except SystemExit as exc:
        return EXIT_PARAM if exc.code not in (0, None) else 0
    func = COMMANDS[argv[0]][0]
    start = time.monotonic()
    try:
        report, ok = func(args)
        report["timing_ms"] = round(1000 * (time.monotonic() - start), 3)
        written = _emit(report, args.out)
    except (CliError, serialize.SchemaError) as exc:
        print(json.dumps({"schema": serialize.SCHEMA, "error": str(exc)}), file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else EXIT_SCHEMA
    except Exception as exc:  # a fault in the command: name it and where, no traceback
        import traceback  # only a failing command pays for this import
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        error = (f"internal error: {type(exc).__name__}: {exc} (at "
                 f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name})")
        print(json.dumps({"schema": serialize.SCHEMA, "error": error}), file=sys.stderr)
        return EXIT_INTERNAL
    if not written:
        return EXIT_PARSE
    return EXIT_OK if ok else EXIT_FAIL


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:  # run has reported it; keep the flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)

if __name__ == "__main__":
    main()
