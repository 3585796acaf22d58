"""kmalg: exact computer algebra for geometric affine Kac-Moody algebras.

Twisted loop algebras with finite Laurent expansions over exact
Gaussian-rational scalars, their two-dimensional central/derivation
extensions, involutions, real forms, Cartan decompositions and duality,
and the verified catalog of rank-one orthogonal symmetric affine
Kac-Moody algebras.

Importing the package loads no submodule: `kmalg.<module>` (and
`from kmalg import <module>`) imports it on first access, through the
module `__getattr__` (PEP 562), and `kmalg.Scalar` loads `scalars`. A
command of `kmalg.cli` so loads only the modules it runs.
"""

__version__ = "0.1.0"

_SUBMODULES = frozenset({"cartan", "cli", "findim", "involution", "kmext", "linalg", "loop", "osaka", "rand",
                         "scalars", "serialize", "value"})

__all__ = [
    "Scalar",
    "cartan",
    "findim",
    "involution",
    "kmext",
    "loop",
    "osaka",
    "serialize",
]


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    if name == "Scalar":
        return __getattr__("scalars").Scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
