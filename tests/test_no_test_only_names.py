"""No public function in the library exists only for the tests: each one
defined in src/kmalg is referenced from src/kmalg or perfbench/, or is on
ALLOWED, the documented API that nothing in the package calls. A helper
only tests call belongs in tests/oracles.py. References are names,
attributes, imported names and the dotted parts of string constants (how
perfbench's tracer names what it wraps)."""
import ast
from pathlib import Path

import kmalg

SRC = Path(kmalg.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ALLOWED = {
    # the paper's claims on the derived algebra and the splitting homomorphism
    ("kmext.py", "residue_cocycle"),
    ("kmext.py", "in_derived_algebra"),
    ("kmext.py", "is_ideal"),
    ("kmext.py", "kernel_dimension"),
    ("kmext.py", "is_homomorphism_on"),
    # element constructors
    ("kmext.py", "central_element"),
    ("kmext.py", "derivation_element"),
    ("loop.py", "loop_monomial"),
    # the so(n) family of the README's findim bullet
    ("findim.py", "make_so"),
}


def _public_defs(tree):
    """Name of every public function or method a module defines."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def _references(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def test_every_public_name_has_a_reader():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    unread = [f"{path.name}:{name}" for path, tree in trees.items() if path.parent == SRC
              for name in _public_defs(tree)
              if name not in refs and (path.name, name) not in ALLOWED]
    assert not unread, "public names only tests call: " + ", ".join(unread)


def test_allowlist_names_exist():
    defined = {(path.name, name) for path in SRC.glob("*.py")
               for name in _public_defs(ast.parse(path.read_text(encoding="utf-8")))}
    assert ALLOWED <= defined, sorted(ALLOWED - defined)


def test_scan_finds_unread_names():
    tree = ast.parse("def used():\n    pass\ndef unused():\n    used()\n"
                     "class C:\n    def m(self):\n        pass\n    def _p(self):\n        pass\n"
                     "SPANS = ('mod', 'C.traced')\n")
    assert _public_defs(tree) == ["used", "unused", "m"]
    refs = _references(tree)
    assert "used" in refs and "traced" in refs
    assert "unused" not in refs and "m" not in refs
