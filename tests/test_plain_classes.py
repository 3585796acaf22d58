"""The library's record classes are plain slotted classes, not dataclasses,
and a fresh CLI process does not import dataclasses, inspect or typing.

Each of the 13 classes that were dataclasses keeps its semantics: the
ones that compared by value still do (and hash by value when they were
frozen, or are unhashable when they were mutable), the ones that compared
by identity still do, a missing required argument is a TypeError, and
InvolutionDescriptor and RealFormDescriptor still check their arguments
at construction. The import check runs `import kmalg.cli` and the catalog
build in a fresh `python -S` process, so that no site hook loads any of
them first."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kmalg
from kmalg.cartan import CartanClass, CartanKind, Family2x2, GeneralizedCartanMatrix, RealizationDims
from kmalg.findim import IdealBlock, make_su
from kmalg.involution import (
    CoeffMap,
    DualForm,
    InvolutionDescriptor,
    InvolutionError,
    RealFormDescriptor,
    Truncation,
)
from kmalg.loop import untwisted
from kmalg.osaka import CheckResult, OsakaRecord, OsakaReport, OsakaType, PairingReport
from kmalg.scalars import I, ONE

SRC = Path(kmalg.__file__).parent
SU2C = make_su(2).complexify()
THETA = CoeffMap(CoeffMap.identity(3).sparse, index_sign=-1, conjugate=True)
RF = RealFormDescriptor("compact", SU2C, untwisted(SU2C), THETA)
PHI = InvolutionDescriptor("time reflection", CoeffMap(CoeffMap.identity(3).sparse, -1), -1)

# (class, required arguments, another value of the first, semantics):
# "frozen" compares and hashes by value, "mutable" compares by value and is
# unhashable, "identity" compares by identity (and needs no other value)
ROWS = [
    (GeneralizedCartanMatrix, {"entries": ((2, -1), (-1, 2))}, ((2, -2), (-2, 2)), "frozen"),
    (CartanClass, {"kind": CartanKind.FINITE, "witness": (1, 1), "components": ((0, 1),),
                   "block_kinds": (CartanKind.FINITE,), "synthetic_composite": False},
     CartanKind.AFFINE, "frozen"),
    (RealizationDims, {"n": 2, "l": 2, "dim_h": 2}, 3, "frozen"),
    (Family2x2, {"name": "a2", "dimension": 8}, "b2", "frozen"),
    (IdealBlock, {"kind": "simple", "indices": (0, 1, 2)}, "abelian", "frozen"),
    (InvolutionDescriptor, {"name": "phi", "loop_map": PHI.loop_map, "epsilon": -1},
     None, "identity"),
    (RealFormDescriptor, {"name": "form", "algebra": SU2C, "twist": RF.twist, "conj": THETA}, None, "identity"),
    (Truncation, {"real_form": RF, "n_max": 1, "blocks": ()}, None, "identity"),
    (DualForm, {"real_form": RF, "involution": PHI}, None, "identity"),
    (OsakaRecord, {"name": "rec", "real_form": RF, "involution": PHI, "claimed_type": OsakaType.COMPACT,
                   "expected_kp": {}}, None, "identity"),
    (CheckResult, {"passed": True}, False, "mutable"),
    (OsakaReport, {"name": "report"}, "other", "mutable"),
    (PairingReport, {"matches": {}, "double_dual_ok": True, "table_ok": True}, {"I": False}, "mutable"),
]


@pytest.mark.parametrize("cls, required, changed, semantics", ROWS, ids=[row[0].__name__ for row in ROWS])
def test_former_dataclass_keeps_its_semantics(cls, required, changed, semantics):
    a, b = cls(**required), cls(**required)
    assert not hasattr(a, "__dict__") and a == a
    if semantics == "identity":
        assert a != b and hash(a) != hash(b)
    else:
        other = cls(**{**required, next(iter(required)): changed})
        assert a == b and a != other and not a != b
        if semantics == "frozen":
            assert hash(a) == hash(b) and len({a, b, other}) == 2
        else:
            with pytest.raises(TypeError):
                hash(a)
    for name in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in required.items() if k != name})


def test_defaults_are_those_of_the_dataclasses():
    """cd_scale 1, no involution and no built period on a truncation, no
    dual on a record, and a fresh checks dict per report."""
    assert RealFormDescriptor("form", SU2C, RF.twist, THETA).cd_scale == ONE
    t = Truncation(RF, 1, ())
    assert t.involution is None and t.built_period is None
    rec = OsakaRecord("rec", RF, PHI, OsakaType.COMPACT, {})
    assert rec.dual_name is None
    assert CheckResult(False) == CheckResult(False, "", None)
    one, two = OsakaReport("r"), OsakaReport("r")
    one.checks["closure"] = CheckResult(True)
    assert two.checks == {} and one != two and one.computed_type is None


@pytest.mark.parametrize("epsilon, reflect_time", [(2, False), (0, True)])
def test_involution_descriptor_checks_at_construction(epsilon, reflect_time):
    """epsilon must be +-1, on a map that reflects time or not. A
    time-reflecting map with epsilon +1 is built (the verdicts judge it);
    an involution file asking for one is refused in serialize (test_cli)."""
    loop_map = CoeffMap(CoeffMap.identity(3).sparse, -1 if reflect_time else 1)
    with pytest.raises(InvolutionError):
        InvolutionDescriptor("bad", loop_map, epsilon)
    assert InvolutionDescriptor("built", loop_map, 1).epsilon == 1


@pytest.mark.parametrize("conj, cd_scale", [(PHI.loop_map, ONE), (THETA, I + ONE)])
def test_real_form_descriptor_checks_at_construction(conj, cd_scale):
    """A linear conj and a c/d line other than R and i R are refused."""
    with pytest.raises(InvolutionError):
        RealFormDescriptor("bad", SU2C, RF.twist, conj, cd_scale)


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, path.name


def test_a_cold_start_loads_no_dataclasses_inspect_or_typing():
    """import kmalg.cli and the catalog build, in a fresh interpreter with
    no site hooks, load none of dataclasses, inspect and typing."""
    code = ("import sys, kmalg.cli\nfrom kmalg import osaka\nosaka.build_catalog_a1()\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "[]\n")


def test_a_cold_start_command_loads_no_argparse():
    """In a fresh interpreter, import kmalg.cli and a killing-gram run load
    none of argparse, gettext and locale: the scan reads the argv. Asking
    the same process for the command's help builds its parser."""
    code = ("import contextlib, io, sys\nfrom kmalg import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    gram = cli.run(['killing-gram', '--form', 'IV', '--degree', '3'])\n"
            "loaded = sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
            "with contextlib.redirect_stdout(io.StringIO()) as usage:\n"
            "    help_ = cli.run(['killing-gram', '-h'])\n"
            "print(gram, loaded, help_, usage.getvalue().startswith('usage: kmalg killing-gram '))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "0 [] 0 True\n")
