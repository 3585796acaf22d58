"""Outside-in layer tracing for kmalg.

The tracer wraps public functions of each layer from outside the program:
every place a target function object is bound (a module global, a name
imported into another module, a class attribute or an alias such as
``Scalar.__radd__ = __add__``) is replaced by one wrapper, and ``remove``
puts every original back.  Nothing in ``src/kmalg`` knows it is traced.

Two kinds of wrapper exist:

* spans, for calls coarse enough to time: per metric name they record the
  call count, the inclusive time and the self time (inclusive time minus
  the time of nested spans), and optionally the input cells (rows x cols);
* counters, for ``Scalar`` arithmetic, where a clock read per operation
  would swamp the cost being measured.

Spans are kept as running sums in memory, one stack of open spans, and
read out once when the workload ends.  They are timed with the clock the
tracer is given: the benchmark child passes its work clock.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

_MARK = "_perfbench_wrapped"


def _cells(rows):
    return len(rows) * len(rows[0]) if rows else 0


def _record_key(name):
    """Record names as metric names: ``I[Id,mu]`` -> ``I-Id-mu``."""
    return name.replace("[", "-").replace(",", "-").replace("]", "")


def _is_monomial(coeff_map):
    return all(sum(1 for x in row if x) <= 1 for row in coeff_map.matrix)


# (module, attribute path, span name).  The span name of osaka_verify is
# made per record at call time.
SPANS = (
    ("kmalg.linalg", "rref", "linalg.rref"),
    ("kmalg.linalg", "symmetric_signature", "linalg.symmetric_signature"),
    ("kmalg.findim", "FiniteLieAlgebra.bracket", "findim.bracket"),
    ("kmalg.findim", "FiniteLieAlgebra.killing", "findim.killing"),
    ("kmalg.findim", "FiniteLieAlgebra.__init__", "findim.construct"),
    ("kmalg.loop", "loop_bracket", "loop.loop_bracket"),
    ("kmalg.loop", "loop_killing", "loop.loop_killing"),
    ("kmalg.loop", "killing_gram", "loop.killing_gram"),
    ("kmalg.kmext", "hat_bracket", "kmext.hat_bracket"),
    ("kmalg.kmext", "cocycle", "kmext.cocycle"),
    ("kmalg.kmext", "jacobi_residual", "kmext.jacobi_residual"),
    ("kmalg.rand", "random_extended_element", "rand.random_extended_element"),
    ("kmalg.involution", "CoeffMap.apply_loop", "involution.apply_loop"),
    ("kmalg.involution", "RealFormDescriptor.block_basis", "involution.block_basis"),
    ("kmalg.involution", "RealFormDescriptor.contains", "involution.contains"),
    ("kmalg.involution", "fixed_and_eigenspaces", "involution.fixed_and_eigenspaces"),
    ("kmalg.involution", "RealFormDescriptor.verify_closed", "involution.verify_closed"),
    ("kmalg.involution", "verify_cartan_relations", "involution.verify_cartan_relations"),
    ("kmalg.involution", "dualize", "involution.dualize"),
    ("kmalg.osaka", "osaka_verify", "osaka.verify"),
    ("kmalg.osaka", "duality_pairing", "osaka.duality_pairing"),
    ("kmalg.osaka", "classify_type", "osaka.classify_type"),
    ("kmalg.osaka", "build_catalog_a1", "osaka.build_catalog"),
    ("kmalg.serialize", "registry", "serialize.registry"),
)

# Scalar operations counted without a clock.  __radd__ and __rmul__ are
# aliases of __add__ and __mul__ and are found by the binding scan;
# __rtruediv__ delegates to __truediv__, so only the latter is counted.
COUNTERS = (
    ("kmalg.scalars", "Scalar.__mul__", "scalars.mul"),
    ("kmalg.scalars", "Scalar.__add__", "scalars.add"),
    ("kmalg.scalars", "Scalar.__sub__", "scalars.add"),
    ("kmalg.scalars", "Scalar.__rsub__", "scalars.add"),
    ("kmalg.scalars", "Scalar.__truediv__", "scalars.div"),
)

RECORDS = ("I[Id,Id]", "I[Id,mu]", "I[mu,mu]", "II",
           "III[Id,Id]", "III[Id,mu]", "III[mu,mu]", "IV")


def _owners():
    """Every kmalg module and every class defined in one: the places a
    function object can be bound."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kmalg" or name.startswith("kmalg."))]
    classes = []
    for m in mods:
        for v in vars(m).values():
            if isinstance(v, type) and v.__module__.startswith("kmalg") and v not in classes:
                classes.append(v)
    return mods + classes


def resolve(module, path):
    """The object at ``module.path``; class attributes come from the class
    dict, so a method is the plain function, not a bound one."""
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # spans are timed with it
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.cells = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_s = 0.0  # time covered by outermost spans
        self.monomial = 0
        self.blocks = set()  # distinct (real form, block key) pairs
        self._open = []  # nested-span time of each open span
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------
    def _span(self, fn, name):
        calls, total_s, self_s, opened = self.calls, self.total_s, self.self_s, self._open
        clock = self.clock
        cells = self.cells if name in ("linalg.rref", "linalg.symmetric_signature") else None
        per_record = name == "osaka.verify"
        apply_loop = name == "involution.apply_loop"
        block_basis = name == "involution.block_basis"

        def wrapper(*args, **kwargs):
            key = name
            if per_record:
                key = "osaka.verify_s." + _record_key(args[0].name)
            elif cells is not None:
                cells[key] += _cells(args[0])
            elif apply_loop:
                self.monomial += _is_monomial(args[0])
            elif block_basis:
                self.blocks.add((args[0], args[1]))
            opened.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                nested = opened.pop()
                calls[key] += 1
                total_s[key] += dur
                self_s[key] += dur - nested
                if opened:
                    opened[-1] += dur
                else:
                    self.top_s += dur

        setattr(wrapper, _MARK, True)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        setattr(wrapper, _MARK, True)
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- install / remove ------------------------------------------------
    def _rebind(self, original, wrapper, owners):
        found = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))
                    found += 1
        if not found:
            raise RuntimeError(f"no binding site found for {original!r}")

    def install(self):
        """Wrap every target at every binding site; kmalg.cli (and through
        it every layer) must already be imported."""
        owners = _owners()
        for module, path, name in SPANS:
            fn = resolve(module, path)
            self._rebind(fn, self._span(fn, name), owners)
        for module, path, name in COUNTERS:
            fn = resolve(module, path)
            self._rebind(fn, self._counter(fn, name), owners)

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def leftover_wrappers():
        """Binding sites still holding a wrapper (empty after ``remove``)."""
        return [f"{getattr(o, '__name__', o)}.{a}"
                for o in _owners() for a, v in vars(o).items() if getattr(v, _MARK, False)]

    # -- read-out --------------------------------------------------------
    def metrics(self, op_wall_s, covered_s):
        """Per-layer metrics as name -> (value, unit).  op_wall_s is the
        wall time of the op stream and covered_s the part of it that
        outermost spans covered."""
        c, t, s = self.calls, self.total_s, self.self_s
        out = {
            "scalars.mul.calls": (self.counts["scalars.mul"], "count"),
            "scalars.add.calls": (self.counts["scalars.add"], "count"),
            "scalars.div.calls": (self.counts["scalars.div"], "count"),
        }
        for name in ("linalg.rref", "linalg.symmetric_signature"):
            out[name + ".calls"] = (c[name], "count")
            out[name + ".cells"] = (self.cells[name], "count")
            out[name + ".self_s"] = (s[name], "s")
        for name in ("findim.bracket", "findim.killing",
                     "loop.loop_bracket", "loop.loop_killing", "loop.killing_gram",
                     "kmext.hat_bracket", "kmext.cocycle",
                     "rand.random_extended_element",
                     "involution.apply_loop", "involution.block_basis",
                     "involution.contains", "involution.fixed_and_eigenspaces",
                     "involution.verify_closed", "involution.dualize"):
            out[name + ".calls"] = (c[name], "count")
            out[name + ".self_s"] = (s[name], "s")
        for name in ("findim.construct", "kmext.jacobi_residual",
                     "involution.verify_cartan_relations"):
            out[name + ".self_s"] = (s[name], "s")
        applies = c["involution.apply_loop"]
        out["involution.apply_loop.monomial_share"] = (
            self.monomial / applies if applies else 0.0, "frac")
        out["involution.block_basis.distinct"] = (len(self.blocks), "count")
        for rec in RECORDS:
            key = "osaka.verify_s." + _record_key(rec)
            out[key] = (t[key], "s")
        out["osaka.duality_pairing_s"] = (t["osaka.duality_pairing"], "s")
        out["osaka.classify_type.calls"] = (c["osaka.classify_type"], "count")
        out["osaka.build_catalog_s"] = (t["osaka.build_catalog"], "s")
        out["serialize.registry_s"] = (t["serialize.registry"], "s")
        out["cli.unattributed_s"] = (op_wall_s - covered_s, "s")
        out["trace.coverage_frac"] = (covered_s / op_wall_s if op_wall_s else 0.0, "frac")
        return out
