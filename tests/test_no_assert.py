"""No check in the library is an `assert`: `python -O` strips asserts, so a
verdict or a guard written as one silently passes there. Every such check
raises a named error instead, and this test walks the source for any
`assert` statement left."""
import ast
from pathlib import Path

import kmalg

SRC = Path(kmalg.__file__).parent


def _asserts(tree):
    """Line of every assert statement in a module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_in_the_library():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _asserts(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, "assert statements in src/kmalg: " + ", ".join(found)


def test_walk_finds_asserts():
    tree = ast.parse("assert x\ndef f(a):\n    if a:\n        assert a > 0, 'msg'\n")
    assert _asserts(tree) == [1, 4]
