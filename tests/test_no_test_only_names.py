"""No name without a reader, in the library and in the test suite's
oracles, and no test module reading another.

Each public function defined in src/kmalg is referenced from src/kmalg or
perfbench/, or is on ALLOWED, the documented API that nothing in the
package calls; a helper only tests call belongs in tests/oracles.py. Each
top-level def and class of tests/oracles.py is read by a test module (a
test_*.py file, or cases.py, which they import), or by an oracle that is
read. Each row of the oracles docstring's table names a kmalg function
that resolves, a reference oracles defines, and a test that exists in a
module reading that reference, and names no src function twice. A test
module imports no other test module, and each has a docstring naming its
subject.

A method is read only through an attribute access. A module function is
read through a loaded name, an attribute access (module.function) or an
imported name; a parameter or local of the same name does not read it. A
string constant reads nothing: not a JSON key in src/kmalg, and not a span
name in perfbench/, where the tracer names what it wraps, so a name only
the tracer keeps is on ALLOWED."""
import ast
import importlib
import re
from pathlib import Path

import kmalg

SRC = Path(kmalg.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TESTS = Path(__file__).resolve().parent

ALLOWED = {
    # the paper's claims on the derived algebra and the splitting homomorphism
    ("kmext.py", "residue_cocycle"),
    ("kmext.py", "in_derived_algebra"),
    ("kmext.py", "is_ideal"),
    ("kmext.py", "kernel_dimension"),
    ("kmext.py", "is_homomorphism_on"),
    # element constructors
    ("kmext.py", "derivation_element"),
    ("loop.py", "loop_monomial"),
    # the so(n) family of the README's findim bullet
    ("findim.py", "make_so"),
    # the Scalar edge of loop elements (README "Coefficients")
    ("loop.py", "coeffs"),
    # perfbench span (ROADMAP item 1)
    ("findim.py", "killing"),
    ("findim.py", "bracket"),
}


def _public_defs(tree):
    """(name, is_method) of every public function or method a module
    defines; a method is a def directly in a class body."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body}
    return [(node.name, id(node) in methods) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def _references(tree):
    """(names, attributes): the names loaded outside the scope of a
    parameter or local of that name and the imported names, and the
    attribute names."""
    names, attrs = set(), set()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            local = local | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                             + [args.vararg, args.kwarg] if a}
            local |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return names, attrs


def _unread(defs, names, attrs):
    """The defs no reference reads: a method only through attrs, a
    function through names or attrs."""
    return [name for name, is_method in defs if name not in attrs and (is_method or name not in names)]


def test_every_public_name_has_a_reader():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))}
    refs = [_references(tree) for tree in trees.values()]
    names, attrs = set().union(*(n for n, _ in refs)), set().union(*(a for _, a in refs))
    unread = [f"{path.name}:{name}" for path, tree in trees.items() if path.parent == SRC
              for name in _unread(_public_defs(tree), names, attrs)
              if (path.name, name) not in ALLOWED]
    assert not unread, "public names only tests call: " + ", ".join(unread)


def test_allowlist_names_exist():
    defined = {(path.name, name) for path in SRC.glob("*.py")
               for name, _ in _public_defs(ast.parse(path.read_text(encoding="utf-8")))}
    assert ALLOWED <= defined, sorted(ALLOWED - defined)


def test_scan_finds_unread_names():
    tree = ast.parse("def used():\n    pass\ndef unused():\n    used()\n"
                     "class C:\n    def m(self):\n        pass\n    def _p(self):\n        pass\n"
                     "    def attr(self):\n        pass\n"
                     "def shadowed():\n    pass\ndef local():\n    pass\n"
                     "def g(shadowed, m):\n    local = m\n    return local, shadowed\n"
                     "def f(x):\n    return x.attr\n"
                     "SPANS = ('mod', 'C.traced')\n"
                     "class D:\n    def key(self):\n        pass\n"
                     "def to_json():\n    return {'key': 1}\n")
    defs = _public_defs(tree)
    assert defs == [("used", False), ("unused", False), ("shadowed", False), ("local", False), ("g", False),
                    ("f", False), ("to_json", False), ("m", True), ("attr", True), ("key", True)]
    names, attrs = _references(tree)
    # a string constant, a span name such as 'C.traced' or a JSON key such
    # as 'key', reads nothing
    assert "used" in names and "traced" not in names | attrs and "key" not in attrs
    # a parameter or local of a def's name reads neither a function nor a
    # method, and a loaded name does not read a method
    assert _unread(defs, names, attrs) == ["unused", "shadowed", "local", "g", "f", "to_json", "m", "key"]


# -- the oracles ----------------------------------------------------------------------

def _unread_oracles(oracle_tree, reader_trees):
    """The top-level defs and classes of oracle_tree, in order, that no
    reader tree reads and no read one reads in turn."""
    defs = {node.name: node for node in oracle_tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    read, todo = set(), set()
    for tree in reader_trees:
        names, attrs = _references(tree)
        todo |= (names | attrs) & set(defs)
    while todo:
        name = todo.pop()
        read.add(name)
        todo |= (_references(defs[name])[0] & set(defs)) - read
    return [name for name in defs if name not in read]


def _readers():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(TESTS.glob("test_*.py")) + [TESTS / "cases.py"]]


def test_every_oracle_has_a_reader():
    unread = _unread_oracles(ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8")), _readers())
    assert not unread, "oracles no test reads: " + ", ".join(unread)


def test_scan_finds_unread_oracles():
    oracles = ast.parse("def read():\n    return helper()\ndef helper():\n    return 1\n"
                        "def unread():\n    return only_for_unread()\ndef only_for_unread():\n    return 2\n"
                        "def recursive():\n    return recursive()\n"
                        "class Kept:\n    pass\nclass Dropped:\n    pass\n")
    readers = [ast.parse("from oracles import read\n"), ast.parse("import oracles\noracles.Kept()\n")]
    assert _unread_oracles(oracles, readers) == ["unread", "only_for_unread", "recursive", "Dropped"]


_ROW = re.compile(r"^    (?P<src>[A-Za-z_][\w.]*) +(?P<ref>[A-Za-z_]\w*)\n"
                  r"        (?P<module>test_\w+)::(?P<test>test_\w+)$", re.MULTILINE)


def _table():
    """(src, reference, test module, test) of each row of the oracles
    docstring's table."""
    import oracles
    return [m.group("src", "ref", "module", "test") for m in _ROW.finditer(oracles.__doc__)]


def test_every_table_row_resolves():
    oracle_tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    defined = {node.name for node in oracle_tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    rows = _table()
    assert len(rows) >= 30
    srcs = [src for src, _, _, _ in rows]
    assert len(set(srcs)) == len(srcs), "a src function with two rows"
    for src, ref, module, test in rows:
        first, *attrs = src.split(".")
        target = importlib.import_module(f"kmalg.{first}")
        for attr in attrs:
            target = getattr(target, attr)
        assert callable(target), src
        assert ref in defined, f"{src}: oracles defines no {ref}"
        tree = ast.parse((TESTS / f"{module}.py").read_text(encoding="utf-8"))
        assert test in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}, f"{module}::{test}"
        assert ref in _references(tree)[0], f"{module} does not read {ref}"


# -- the test modules -----------------------------------------------------------------

def test_no_test_module_imports_another():
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
        assert not {name for name in imported if name.split(".")[0].startswith("test_")}, path.name
        assert ast.get_docstring(tree), f"{path.name} has no docstring"
