"""No float can enter through `/`: in Python, int / int is a float, and
matching report digests cannot show that a verdict was computed without
one. So every true division in the library goes through `scalars.exact_div`,
and this test walks the source to find any `/` or `/=` outside it."""
import ast
from pathlib import Path

import kmalg

SRC = Path(kmalg.__file__).parent

# (module, enclosing function qualname) of the only true divisions allowed
ALLOWED = {
    ("scalars.py", "exact_div"),
    ("scalars.py", "Scalar.__rtruediv__"),
}


def _true_divisions(tree):
    """(enclosing qualname, line) of every `/` and `/=` in a module."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.Div):
                found.append((scope, child.lineno))
            walk(child, inner)

    walk(tree, "")
    return found


def test_true_division_only_in_exact_div():
    stray, allowed_seen = [], set()
    for path in sorted(SRC.glob("*.py")):
        for scope, line in _true_divisions(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, scope) in ALLOWED:
                allowed_seen.add((path.name, scope))
            else:
                stray.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert not stray, "true division outside scalars.exact_div: " + ", ".join(stray)
    # the walk itself must see the two divisions that are allowed
    assert allowed_seen == ALLOWED


def test_walk_finds_division_and_augmented_division():
    tree = ast.parse("def f(a, b):\n    a /= b\n    return a / b\nx = 1 / 2\n")
    assert _true_divisions(tree) == [("f", 2), ("f", 3), ("", 4)]
