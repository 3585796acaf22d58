"""JSON schemas (kmalg/1) and the deterministic text rendering of elements.

Exact scalars travel as "p/q" strings (never floats); a scalar is a
[re, im] pair of such strings, each an optional minus sign, ASCII digits
and an optional "/" with more digits, at most MAX_DIGITS digits on either
side. Loop elements reference algebras through a small registry of named
built-ins and carry their twist order. A term's exponent k is a JSON
integer of at most MAX_DIGITS digits, so a bracket's exponent, the sum of
two, renders far under Python's int-string limit. A record's
form.cd_scale, its c/d reality line, is "1" (the default), "i" or null
(both lines).
"""
from __future__ import annotations

from fractions import Fraction

from .findim import automorphism_from_order, direct_sum, make_abelian, make_sl, make_su, sparse_apply, sparse_rows
from .involution import CoeffMap, InvolutionDescriptor, RealFormDescriptor
from .kmext import ExtendedElement
from .loop import GradingError, TwistedLoopElement, untwisted
from .scalars import I, ONE, Scalar, exact_div

SCHEMA = "kmalg/1"


class SchemaError(ValueError):
    pass


# -- scalars ---------------------------------------------------------------

def scalar_to_json(s: Scalar):
    return [str(s.re), str(s.im)]


MAX_DIGITS = 1000


def _is_rational(part):
    """Whether part is -?digits(/digits)? in ASCII digits, with at most
    MAX_DIGITS digits on either side."""
    sides = part.removeprefix("-").split("/")
    return len(sides) <= 2 and all(s.isascii() and s.isdigit() and len(s) <= MAX_DIGITS for s in sides)


ECHO_CHARS = 40
ECHO_ITEMS = 3


def echo(value, depth=3):
    """repr(value) for an error message, cut so that no input makes it
    long: a string (or repr) past ECHO_CHARS characters shows that many and
    its length, a list or object its first ECHO_ITEMS entries and its
    length, and one nested deeper than depth [...] or {...}."""
    if isinstance(value, (dict, list, tuple)):
        brackets = "{}" if isinstance(value, dict) else "[]"
        if not depth:
            return brackets[0] + "..." + brackets[1]
        shown = ([f"{echo(k, depth - 1)}: {echo(v, depth - 1)}" for k, v in list(value.items())[:ECHO_ITEMS]]
                 if isinstance(value, dict) else [echo(x, depth - 1) for x in value[:ECHO_ITEMS]])
        if len(value) > ECHO_ITEMS:
            shown.append(f"... ({len(value)} entries)")
        return brackets[0] + ", ".join(shown) + brackets[1]
    if isinstance(value, str) and len(value) > ECHO_CHARS:
        return f"{value[:ECHO_CHARS]!r}... ({len(value)} characters)"
    text = repr(value)
    return text if len(text) <= ECHO_CHARS else f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def scalar_from_json(obj) -> Scalar:
    """A [re, im] pair of exact "p/q" strings in the grammar of the module
    docstring; a JSON number is refused, and so is any other spelling
    Fraction would read ("1e3", "1_000", " 3 ", "1.5", "+3")."""
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise SchemaError(f"scalar must be a [re, im] pair, got {echo(obj)}")
    if not all(isinstance(part, str) for part in obj):
        raise SchemaError(f"scalar parts must be \"p/q\" strings, got {echo(obj)}")
    if not all(_is_rational(part) for part in obj):
        raise SchemaError(f"bad rational in scalar: {echo(obj)} (each part is -?digits or -?digits/digits, "
                          f"at most {MAX_DIGITS} digits on either side)")
    try:
        return Scalar(Fraction(obj[0]), Fraction(obj[1]))
    except ZeroDivisionError as exc:
        raise SchemaError(f"bad rational in scalar: {echo(obj)}") from exc


def _coords_from_json(obj, dim, what):
    """A list of dim scalars; what names it in the error."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise SchemaError(f"{what} must be a list of {dim} scalars, got {echo(obj)}")
    return tuple(scalar_from_json(c) for c in obj)


# -- algebra registry --------------------------------------------------------

def _registry():
    su2 = make_su(2)
    a1 = su2.complexify()
    double = direct_sum(su2, su2, name="su(2)+su(2)").complexify()
    sl2c = make_sl(2, "C")
    ab1 = make_abelian(1, "R").complexify()
    tw_su2 = automorphism_from_order(a1, [[-1, 0, 0], [0, 1, 0], [0, 0, -1]])
    tw_sl2 = automorphism_from_order(sl2c, [[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    return {
        "su2c": (a1, {1: untwisted(a1), 2: tw_su2}),
        "sl2c": (sl2c, {1: untwisted(sl2c), 2: tw_sl2}),
        "su2su2c": (double, {1: untwisted(double)}),
        "abelian1c": (ab1, {1: untwisted(ab1)}),
    }


_REGISTRY = None


def registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _registry()
    return _REGISTRY


def lookup_algebra(name: str, twist_order: int):
    reg = registry()
    if not isinstance(name, str):
        raise SchemaError(f"algebra must be a name string, got {echo(name)}")
    if type(twist_order) is not int:
        raise SchemaError(f"twist order must be an integer, got {echo(twist_order)}")
    if name not in reg:
        raise SchemaError(f"unknown algebra {echo(name)}; known: {sorted(reg)}")
    algebra, twists = reg[name]
    if twist_order not in twists:
        raise SchemaError(f"algebra {echo(name)} has no canonical twist of order {echo(twist_order)}")
    return algebra, twists[twist_order]


def algebra_name(algebra) -> str:
    for name, (alg, _) in registry().items():
        if alg is algebra:
            return name
    raise SchemaError(f"algebra {algebra.name} is not in the registry")


# -- loop and extended elements ----------------------------------------------

def loop_to_json(f: TwistedLoopElement):
    return {
        "schema": SCHEMA,
        "algebra": algebra_name(f.algebra),
        "twist_order": f.twist.order,
        "terms": [
            {"k": k, "coords": [scalar_to_json(c) for c in f.coeff(k)]} for k in sorted(f.terms)
        ],
    }


def loop_from_json(obj) -> TwistedLoopElement:
    _check_schema(obj)
    for key in ("algebra", "twist_order", "terms"):
        if key not in obj:
            raise SchemaError(f"loop element missing {key!r}")
    algebra, twist = lookup_algebra(obj["algebra"], obj["twist_order"])
    if not isinstance(obj["terms"], list):
        raise SchemaError(f"loop 'terms' must be a list, got {echo(obj['terms'])}")
    terms = {}
    for t in obj["terms"]:
        if not isinstance(t, dict) or "k" not in t or "coords" not in t:
            raise SchemaError(f"each term needs 'k' and 'coords', got {echo(t)}")
        k = t["k"]
        if type(k) is not int:
            raise SchemaError(f"term exponent 'k' must be an integer, got {echo(k)}")
        if abs(k) >= 10 ** MAX_DIGITS:
            raise SchemaError(f"term exponent 'k' has more than {MAX_DIGITS} digits, got {echo(k)}")
        if k in terms:
            raise SchemaError(f"two terms at exponent k={echo(k)}")
        terms[k] = _coords_from_json(t["coords"], algebra.dim, f"'coords' of the term at k={echo(k)}")
    try:
        return TwistedLoopElement(algebra, twist, terms)
    except GradingError as exc:
        raise SchemaError(str(exc)) from exc


def extended_to_json(x: ExtendedElement):
    return {
        "schema": SCHEMA,
        "loop": loop_to_json(x.loop),
        "c": scalar_to_json(x.c),
        "d": scalar_to_json(x.d),
    }


def extended_from_json(obj) -> ExtendedElement:
    _check_schema(obj)
    if "loop" not in obj:
        raise SchemaError("extended element missing 'loop'")
    return ExtendedElement(
        loop_from_json(obj["loop"]),
        scalar_from_json(obj.get("c", ["0", "0"])),
        scalar_from_json(obj.get("d", ["0", "0"])),
    )


def _square_matrix(spec, what, dim):
    """The `sparse_rows` of spec["matrix"], which must be dim x dim."""
    rows = spec.get("matrix") if isinstance(spec, dict) else None
    if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows):
        raise SchemaError(f"{what} needs a {dim} x {dim} 'matrix'")
    return sparse_rows([[scalar_from_json(x) for x in row] for row in rows])


def _int_field(obj, key, default, allowed):
    value = obj.get(key, default)
    if type(value) is not int or value not in allowed:
        raise SchemaError(f"{key!r} must be one of {list(allowed)}, got {echo(value)}")
    return value


def _bool_field(obj, key, default):
    value = obj.get(key, default)
    if type(value) is not bool:
        raise SchemaError(f"{key!r} must be true or false, got {echo(value)}")
    return value


def _str_field(obj, key, default):
    value = obj.get(key, default)
    if not isinstance(value, str):
        raise SchemaError(f"{key!r} must be a string, got {echo(value)}")
    return value


def involution_from_json(obj, algebra) -> InvolutionDescriptor:
    _check_schema(obj)
    rho_plus = _square_matrix(obj.get("rho_plus"), "involution rho_plus", algebra.dim)
    conj = _bool_field(obj, "conjugate_linear", False)
    reflect = _bool_field(obj, "reflect_time", True)
    eps = _int_field(obj, "epsilon", -1, (1, -1))
    name = _str_field(obj, "name", "custom involution")
    if reflect and eps != -1:
        raise SchemaError("invalid involution: time reflection forces epsilon = -1")
    s = (-1 if reflect else 1) * (-1 if conj else 1)
    return InvolutionDescriptor(name=name, loop_map=CoeffMap(rho_plus, index_sign=s, conjugate=conj), epsilon=eps)


def _check_schema(obj):
    if not isinstance(obj, dict):
        raise SchemaError("expected a JSON object")
    if obj.get("schema", SCHEMA) != SCHEMA:
        raise SchemaError(f"unsupported schema {echo(obj.get('schema'))}")


def record_from_json(obj):
    """Custom OSAKA record: algebra + twist + form + involution + claims."""
    from .osaka import OsakaRecord, OsakaType

    _check_schema(obj)
    for key in ("name", "algebra", "twist_order", "form", "involution", "claimed_type"):
        if key not in obj:
            raise SchemaError(f"record missing {key!r}")
    name = _str_field(obj, "name", None)
    algebra, twist = lookup_algebra(obj["algebra"], obj["twist_order"])
    form_spec = obj["form"]
    if not isinstance(form_spec, dict):
        raise SchemaError(f"record 'form' must be an object, got {echo(form_spec)}")
    form_name = _str_field(form_spec, "name", name + " form")
    conj = None
    if form_spec.get("conj") is not None:
        cs = form_spec["conj"]
        conj = CoeffMap(
            _square_matrix(cs, "form conj", algebra.dim),
            index_sign=_int_field(cs, "index_sign", -1, (1, -1)),
            conjugate=True,
            parity=_int_field(cs, "parity", 0, range(4)),
        )
    scale = form_spec.get("cd_scale", "1")
    # == and not a dict lookup: the value may be an unhashable list
    if scale == "1":
        cd_scale = ONE
    elif scale == "i":
        cd_scale = I
    elif scale is None:
        cd_scale = None
    else:
        raise SchemaError(f"form 'cd_scale' must be \"1\", \"i\" or null, got {echo(scale)}")
    form = RealFormDescriptor(name=form_name, algebra=algebra, twist=twist, conj=conj, cd_scale=cd_scale)
    if not isinstance(obj["involution"], dict):
        raise SchemaError("record 'involution' must be an object")
    inv = involution_from_json({"schema": SCHEMA, **obj["involution"]}, algebra)
    try:
        claimed = OsakaType(obj["claimed_type"])
    except ValueError as exc:  # its message would echo the value whole
        raise SchemaError(f"bad 'claimed_type': {echo(obj['claimed_type'])} is not a valid OsakaType") from exc
    dims = _expected_dims(obj.get(
        "expected_dims", {"zero": [0, 0], "even_pair": [0, 0], "odd_pair": [0, 0], "cd": [0, 2]}))
    dual = obj.get("dual")
    if dual is not None and not isinstance(dual, str):
        raise SchemaError(f"'dual' must be a string, got {echo(dual)}")
    return OsakaRecord(
        name=name, real_form=form, involution=inv,
        claimed_type=claimed,
        expected_kp=dims,
        dual_name=dual,
    )


def _expected_dims(spec):
    """Per-block (K, P) dimensions of a record; every key a pair of
    non-negative integers."""
    if not isinstance(spec, dict):
        raise SchemaError(f"'expected_dims' must be an object, got {echo(spec)}")
    dims = {}
    for key in ("zero", "even_pair", "odd_pair", "cd"):
        pair = spec.get(key)
        if not isinstance(pair, list) or len(pair) != 2 or any(
                type(n) is not int or n < 0 for n in pair):
            raise SchemaError(
                f"'expected_dims' needs {key!r} as a pair of non-negative integers, got {echo(pair)}"
            )
        dims[key] = tuple(pair)
    return dims


# -- text rendering ------------------------------------------------------------

def _scalar_factor(s: Scalar) -> str:
    """Scalar as a multiplicative prefix: '', '-', '3/2·', 'i·', '(1/2-3·i)·'."""
    if s == 1 or s == -1:
        return "" if s == 1 else "-"
    return f"({s})·" if s.re and s.im else f"{s}·"


def _render_matrix_sum(algebra, vec) -> str:
    """The matrix of the numerator vector vec as its nonzero entries times
    matrix units, read off `sparse_apply` of the algebra's _cells."""
    (nums, den), s = sparse_apply(algebra._cells, vec), algebra.matrix_size
    n = len(nums) // 2
    return _join([f"{_scalar_factor(Scalar(exact_div(a, den), exact_div(b, den)))}E{i // s + 1}{i % s + 1}"
                  for i, a, b in zip(range(n), nums, nums[n:]) if a or b])


def _join(parts) -> str:
    """Signed terms joined by " + " and " - "; "0" for no terms."""
    if not parts:
        return "0"
    return parts[0] + "".join(" - " + p[1:] if p.startswith("-") else " + " + p for p in parts[1:])


def _exp_str(k: int, m: int) -> str:
    if m == 1 or k % 2 == 0:
        return str(k // m if m == 2 else k)
    return f"({k}/2)"


def element_renderer(x: ExtendedElement):
    """`render_element` of x as a function of its shift: each coefficient
    is rendered once, and a shift only moves the exponents."""
    m = x.loop.twist.order
    terms = [(k, f"({_render_matrix_sum(x.loop.algebra, vec)})·z^") for k, vec in sorted(x.loop.terms.items())]
    tail = [f"{_scalar_factor(v)}{name}" for v, name in ((x.c, "c"), (x.d, "d")) if v]
    return lambda shift: _join([text + _exp_str(k + shift if k > 0 else k - shift if k < 0 else k, m)
                                for k, text in terms] + tail)


def render_element(x: ExtendedElement, shift: int = 0) -> str:
    """Deterministic text form, ordered by degree then c then d. shift
    moves every nonzero exponent that far further from 0, so a block past
    a truncation's built_period renders as the shift of its base block
    without being built."""
    return element_renderer(x)(shift)
