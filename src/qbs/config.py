"""Configuration documents for the batch front end.

One JSON document describes the market model, grids, and command
parameters. Matrices travel as row-major nested arrays of [re, im]
pairs. Each field is stated once, in the section table ``TABLE``: its
reader, its default and its bound. Parsing walks the table, validates
every structural invariant up front and reports the offending field
path; serialization round-trips exactly because floats are emitted in
shortest-repr form.
"""

from __future__ import annotations

import copy
import gc
import json
import math
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .flows import ModelOperators
from .operators import require_hermitian, require_unitary
from .pricing import MarketModel

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "power_rule": 1e-10,
    "brownian": 1e-14,
    "poisson_interior": 1e-14,
    "residual_eq8": 1e-6,
    "terminal": 1e-6,
    "classical_match": 1e-9,
    "semigroup": 1e-8,
    "hedge_value": 1e-10,
    "derivative_fd": 1e-6,
}

_INDENT = "  "

# the factors that take an [re, im] pair to its conjugate
_CONJUGATE = np.array([1.0, -1.0])

_unsigned = itemgetter(slice(1, None))  # "-1.5" -> "1.5"


class ConfigError(ValueError):
    """Invalid configuration; carries the dotted path of the bad field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _as_dict(obj, path: str) -> dict:
    _expect(isinstance(obj, dict), path, f"expected an object, got {type(obj).__name__}")
    return obj


def _as_list(obj, path: str) -> list:
    _expect(isinstance(obj, list), path, f"expected an array, got {type(obj).__name__}")
    return obj


def _as_number(obj, path: str) -> float:
    _expect(
        isinstance(obj, (int, float)) and not isinstance(obj, bool),
        path,
        f"expected a number, got {obj!r}",
    )
    try:
        val = float(obj)
    except OverflowError:  # an integer literal beyond float range
        val = math.inf
    _expect(math.isfinite(val), path, f"non-finite number {obj!r}")
    return val


def _as_int(obj, path: str) -> int:
    _expect(
        isinstance(obj, int) and not isinstance(obj, bool),
        path,
        f"expected an integer, got {obj!r}",
    )
    return int(obj)


def pair_array(m) -> np.ndarray:
    """The [re, im] pairs of a complex array: a float64 view of shape
    m.shape + (2,), row-major like its JSON form."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,))


def _mirrored_texts(pairs: np.ndarray) -> list:
    """float.__repr__ of each number of a square (d, d, 2) pair array, in
    row-major order, with one repr per number on and above the diagonal.
    An entry below it that equals its mirror's conjugate takes the mirror's
    texts, the imaginary one with its sign toggled. Equal doubles have
    equal bits, and so equal texts, unless they are zeros (0.0 == -0.0);
    NaNs equal nothing. So a zero, a NaN and any entry of a matrix that is
    not Hermitian get their own repr. Non-finite numbers are left for the
    caller to rewrite.

    Every test here is a float64 comparison, as elsewhere in a report: a
    uint64 XOR or an integer index mask would fault in numpy loop code that
    no other step of a small job touches, about 0.15 MB of peak RSS."""
    index = np.arange(len(pairs), dtype=np.float64)
    below = (index < index[:, None])[..., None]
    with np.errstate(invalid="ignore"):  # a signalling NaN; NaNs take no mirror
        reuse = (pairs == pairs.transpose(1, 0, 2) * _CONJUGATE) & (pairs != 0.0) & below
    texts = np.empty(pairs.shape, dtype=object)
    own = ~reuse
    texts[own] = list(map(float.__repr__, pairs[own].tolist()))
    mirror = texts.transpose(1, 0, 2)
    re = reuse[..., 0]
    texts[..., 0][re] = mirror[..., 0][re]
    neg = reuse[..., 1] & (pairs[..., 1] < 0.0)
    pos = reuse[..., 1] & ~neg
    texts[..., 1][neg] = np.add("-", mirror[..., 1][neg])
    texts[..., 1][pos] = list(map(_unsigned, mirror[..., 1][pos]))
    return texts.ravel().tolist()


def _pairs_text(pairs: np.ndarray, level: int) -> str:
    """json.dumps(pairs.tolist(), indent=2) as it reads at nesting level,
    for a non-empty float array: the numbers come from one float.__repr__
    pass, over one triangle for a square matrix, and the text between them
    from one separator per nesting depth."""
    depth = pairs.ndim
    flat = pairs.ravel()
    if depth == 3 and len(pairs) == pairs.shape[1]:
        texts = _mirrored_texts(pairs)
    else:
        texts = list(map(float.__repr__, flat.tolist()))
    for i in np.flatnonzero(~np.isfinite(flat)).tolist():
        texts[i] = json.dumps(flat[i].item())  # NaN, Infinity or -Infinity
    pad = ["\n" + _INDENT * (level + k) for k in range(depth + 1)]

    def closing(m: int) -> str:  # the m innermost lists end
        return "".join(pad[depth - 1 - c] + "]" for c in range(m))

    def opening(m: int) -> str:  # m lists begin, down to the first number
        return "".join(pad[depth - m + c] + "[" for c in range(m)) + pad[depth]

    n = len(texts)
    seps = [f",{opening(0)}"] * n
    period = 1
    for m in range(1, depth):  # numbers that end m lists at once
        period *= pairs.shape[depth - m]
        seps[period - 1 :: period] = [f"{closing(m)},{opening(m)}"] * (n // period)
    seps[-1] = closing(depth)
    out = [""] * (2 * n)
    out[0::2] = texts
    out[1::2] = seps
    return "[" + opening(depth - 1) + "".join(out)


def _write(value, level: int, out: list) -> None:
    """Append json.dumps(value, indent=2) as it reads at nesting level, with
    each ndarray written as the nested [re, im] pairs of pair_array. Object
    keys must be strings."""
    if isinstance(value, np.ndarray):
        pairs = pair_array(value)
        if pairs.size:
            out.append(_pairs_text(pairs, level))
        else:
            _write(pairs.tolist(), level, out)
    elif isinstance(value, dict) and value:
        pad = "\n" + _INDENT * (level + 1)
        for sep, (key, item) in zip(chain("{", repeat(",")), value.items()):
            out.append(f"{sep}{pad}{json.dumps(key)}: ")
            _write(item, level + 1, out)
        out.append("\n" + _INDENT * level + "}")
    elif isinstance(value, (list, tuple)) and value:
        pad = "\n" + _INDENT * (level + 1)
        for sep, item in zip(chain("[", repeat(",")), value):
            out.append(sep + pad)
            _write(item, level + 1, out)
        out.append("\n" + _INDENT * level + "]")
    else:
        out.append(json.dumps(value))


def _json_text(value) -> str:
    """json.dumps(value, indent=2) plus a newline, each ndarray written as
    nested [re, im] pairs; keys keep their order."""
    out = []
    _write(value, 0, out)
    out.append("\n")
    return "".join(out)


def _pair_values(cells: list):
    """The (n, 2) float array of n cells that are each an [re, im] pair of
    finite numbers, checked and converted in whole-list passes; None when
    some cell is not, and the caller's per-cell walk then names it."""
    if not all(map(isinstance, cells, repeat(list))) or set(map(len, cells)) != {2}:
        return None
    leaves = list(chain.from_iterable(cells))
    kinds = set(map(type, leaves))
    if not all(issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds):
        return None
    try:
        vals = np.array(leaves, dtype=np.float64)
    except OverflowError:  # an integer literal beyond float range
        return None
    if not np.isfinite(vals).all():
        return None
    return vals.reshape(-1, 2)


def _check_pair(obj, path: str) -> None:
    pair = _as_list(obj, path)
    _expect(len(pair) == 2, path, "expected an [re, im] pair")
    _as_number(pair[0], path)
    _as_number(pair[1], path)


def _malformed(path: str) -> ConfigError:
    # the per-cell walks mirror _pair_values' checks, so they raise first
    return ConfigError(path, "expected an array of [re, im] pairs")


def matrix_from_json(obj, path: str) -> np.ndarray:
    rows = _as_list(obj, path)
    _expect(len(rows) > 0, path, "empty matrix")
    dim = len(rows)
    if all(map(isinstance, rows, repeat(list))) and set(map(len, rows)) == {dim}:
        vals = _pair_values(list(chain.from_iterable(rows)))
        if vals is not None:
            return vals.view(np.complex128).reshape(dim, dim)
    for i, row in enumerate(rows):
        row = _as_list(row, f"{path}[{i}]")
        _expect(len(row) == dim, f"{path}[{i}]", f"expected {dim} entries, got {len(row)}")
        for j, pair in enumerate(row):
            _check_pair(pair, f"{path}[{i}][{j}]")
    raise _malformed(path)


def vector_from_json(obj, path: str) -> np.ndarray:
    entries = _as_list(obj, path)
    _expect(len(entries) > 0, path, "empty vector")
    vals = _pair_values(entries)
    if vals is not None:
        return vals.view(np.complex128).reshape(-1)
    for i, pair in enumerate(entries):
        _check_pair(pair, f"{path}[{i}]")
    raise _malformed(path)


# --- the section table --------------------------------------------------

REQUIRED = object()  # the default of a field that must be given


class Field(NamedTuple):
    """One config field: read(json value, path) returns the parsed value;
    default is the value when the field is absent (REQUIRED: none); bound
    is (predicate, message) on the value, or on each item of a list value,
    and a None value skips it. The message is formatted with the value."""

    read: Callable
    default: object = REQUIRED
    bound: tuple | None = None


def _take(field: Field, obj, path: str):
    """The value obj of field at path, read and checked under its rules."""
    value = field.read(obj, path)
    if field.bound is not None and value is not None:
        ok, message = field.bound
        items = enumerate(value) if isinstance(value, list) else [(None, value)]
        for i, v in items:
            _expect(ok(v), path if i is None else f"{path}[{i}]", message.format(v))
    return value


def _read(table: dict, obj, path: str) -> dict:
    """The fields of the object at path, read by table in table order; a
    key that table does not name is an error."""
    doc = _as_dict(obj, path)
    prefix = f"{path}." if path else ""
    out = {}
    for name, field in table.items():
        if name in doc:
            out[name] = _take(field, doc[name], prefix + name)
        else:
            _expect(field.default is not REQUIRED, prefix + name, "missing")
            out[name] = copy.deepcopy(field.default)
    for name in doc:
        _expect(name in table, prefix + name, "unknown field")
    return out


def _section(table: dict) -> Field:
    """An optional section. Absent, it holds its fields' defaults, or is
    None when one of its fields is required."""
    defaults = {name: field.default for name, field in table.items()}
    return Field(partial(_read, table), None if REQUIRED in defaults.values() else defaults)


def _checked(read: Callable, check: Callable) -> Callable:
    """Reader of what read parses, passed through check(value, path); a
    ValueError that check raises is reported at the field path."""

    def read_checked(obj, path: str):
        value = read(obj, path)
        try:
            return check(value, path)
        except ValueError as exc:
            raise ConfigError(path, str(exc).removeprefix(f"{path}: ")) from None

    return read_checked


def _built(cls, table: dict) -> Callable:
    """Reader of a section whose fields construct cls."""
    return _checked(partial(_read, table), lambda kwargs, path: cls(**kwargs))


def _list_of(read: Callable, min_len: int = 1) -> Callable:
    """Reader of an array whose items read parses; a grid (min_len 1) may
    not be empty."""

    def read_list(obj, path: str) -> list:
        vals = _as_list(obj, path)
        _expect(len(vals) >= min_len, path, "empty grid")
        return [read(v, f"{path}[{i}]") for i, v in enumerate(vals)]

    return read_list


def _or_null(read: Callable) -> Callable:
    return lambda obj, path: None if obj is None else read(obj, path)


def _one_of(what: str, *choices) -> Callable:
    def read_choice(obj, path: str):
        _expect(obj in choices, path, f"unknown {what} {obj!r}")
        return obj

    return read_choice


_hermitian = _checked(matrix_from_json, require_hermitian)


def _read_state(obj, path: str) -> np.ndarray:
    state = vector_from_json(obj, path)
    nrm = float(np.linalg.norm(state))
    _expect(abs(nrm - 1.0) <= 1e-12, path, f"not normalized, norm {nrm!r}")
    return state


_TOLERANCE = Field(_as_number, bound=(lambda v: v > 0.0, "tolerance must be positive"))


def _read_tolerances(obj, path: str, base: dict = DEFAULT_TOLERANCES) -> dict:
    """base with the named tolerances of obj replaced; null replaces none."""
    tols = dict(base)
    for name, val in ({} if obj is None else _as_dict(obj, path)).items():
        _expect(name in DEFAULT_TOLERANCES, f"{path}.{name}", "unknown tolerance name")
        tols[name] = _take(_TOLERANCE, val, f"{path}.{name}")
    return tols


_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "must be nonnegative")

# Every field of a config document, in the order parse_config reads and
# checks them. RunConfig has one attribute per top-level entry; model and
# model.ops construct MarketModel and ModelOperators.
TABLE = {
    "schema_version": Field(_as_int, REQUIRED, (lambda v: v == SCHEMA_VERSION, "unsupported version {}")),
    "output": Field(_one_of("output format", "json", "csv"), "json"),
    "seed": Field(_as_int, None, (lambda v: v >= 0, "seed must be nonnegative")),
    "tolerances": Field(_read_tolerances, DEFAULT_TOLERANCES),
    "model": Field(_built(MarketModel, {
        "ops": Field(_built(ModelOperators, {
            "X": Field(_hermitian),
            "H": Field(_hermitian),
            "L": Field(matrix_from_json),
            "S": Field(_checked(matrix_from_json, require_unitary)),
        })),
        "K": Field(matrix_from_json),
        "r": Field(_as_number),
        "T": Field(_as_number),
        "beta0": Field(_as_number, 1.0),
    }), None),
    "state": Field(_read_state, None),
    "t_grid": Field(_list_of(_as_number), [], (lambda t: t > 0.0, "grid times must be positive")),
    "z_grid": Field(_list_of(_hermitian), []),
    "ito_check": _section({
        "dims": Field(_list_of(_as_int), [2, 3, 4], (lambda d: d >= 1, "dims must be >= 1")),
        "k_max": Field(_as_int, 6, (lambda k: k >= 2, "k_max must be >= 2")),
        "trials": Field(_as_int, 100, (lambda n: n >= 1, "trials must be >= 1")),
    }),
    "terminal": _section({
        "t_small": Field(_as_number, 1e-8, _POSITIVE),
        "min_gap": Field(_as_number, 0.1, _POSITIVE),
    }),
    "hedge": _section({
        "convention": Field(_one_of("convention", "direct", "classical"), "direct"),
        "times": Field(_list_of(_as_number, 0), []),  # may be empty; the hedge command needs one
        "stock": Field(_or_null(_hermitian), None),
    }),
    "classical": _section({
        "x": Field(_list_of(_as_number), REQUIRED, _POSITIVE),
        "t": Field(_list_of(_as_number), REQUIRED, _POSITIVE),
        "strike": Field(_as_number, REQUIRED, _POSITIVE),
        "r": Field(_as_number, REQUIRED, _NONNEGATIVE),
        "sigma": Field(_as_number, 1.0, _POSITIVE),
    }),
    "lindblad": _section({
        "t": Field(_list_of(_as_number, 0), [], _NONNEGATIVE),
        "steps": Field(_or_null(_as_int), None, (lambda n: n >= 1, "must be >= 1")),
        "x0": Field(_or_null(_hermitian), None),
    }),
    # the bounds that replication_simulation enforces
    "replicate": _section({
        "x0": Field(_as_number, REQUIRED, _POSITIVE),
        "strike": Field(_as_number, REQUIRED, _POSITIVE),
        "r": Field(_as_number, REQUIRED, _NONNEGATIVE),
        "T": Field(_as_number, REQUIRED, _POSITIVE),
        "steps": Field(_as_int, REQUIRED, (lambda n: n >= 100, "must be >= 100")),
        "paths": Field(_as_int, REQUIRED, (lambda n: n >= 1000, "must be >= 1000")),
        "sigma": Field(_as_number, 1.0, _POSITIVE),
    }),
}


def _doc(value):
    """The normalized document of a parsed value: dicts, and the named
    tuples that the table builds, with keys in sorted order as
    json.dumps(sort_keys=True) writes them; lists copied; arrays as they are."""
    if hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _doc(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_doc(v) for v in value]
    return value


class RunConfig:
    """Parsed, validated configuration: one attribute per entry of TABLE.

    Two configs are equal when their normalized documents are equal.
    """

    __slots__ = tuple(TABLE)

    def __init__(self, **entries):
        for name in TABLE:
            setattr(self, name, entries[name])

    def __eq__(self, other):
        return isinstance(other, RunConfig) and serialize_config(self) == serialize_config(other)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    The cyclic garbage collector is paused meanwhile. json.loads builds one
    list per [re, im] pair, tens of thousands for a large market, and each
    would count towards a collection that walks the whole tree; the tree
    holds no cycle, so reference counting frees all of it. A parse that
    succeeds frees it before the collector runs again, and every exit path
    restores the collector's state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse(text)
    finally:
        if enabled:
            gc.enable()


def _parse(text: str) -> RunConfig:
    """parse_config, with the JSON tree alive only while this call runs."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise ConfigError("", f"invalid JSON: {exc}") from None
    cfg = RunConfig(**_read(TABLE, doc, ""))
    if cfg.model is not None:
        dim = cfg.model.dim
        # the state, then every operator that a command applies to the model
        sized = [("state", cfg.state, "length")]
        sized += [(f"z_grid[{i}]", z, "dim") for i, z in enumerate(cfg.z_grid)]
        sized += [("hedge.stock", cfg.hedge["stock"], "dim"), ("lindblad.x0", cfg.lindblad["x0"], "dim")]
        for path, value, what in sized:
            if value is not None:
                _expect(len(value) == dim, path, f"{what} {len(value)} does not match model dim {dim}")
        maturity = cfg.model.T
        for i, t in enumerate(cfg.hedge["times"]):
            _expect(0.0 < t < maturity, f"hedge.times[{i}]", f"t={t!r} outside (0, {maturity!r})")
    if cfg.classical is not None:
        # the d = 1 operator price that classical checks each row against
        # takes log(x / strike), time sigma^2 t and rate r / sigma^2
        sec = cfg.classical
        strike, variance = sec["strike"], sec["sigma"] * sec["sigma"]
        for i, x in enumerate(sec["x"]):
            _expect(0.0 < x / strike < math.inf, f"classical.x[{i}]", f"x / strike = {x / strike!r} leaves float range")
        for i, t in enumerate(sec["t"]):
            _expect(variance * t > 0.0, f"classical.t[{i}]", f"sigma^2 t underflows to 0 at sigma={sec['sigma']!r}")
        _expect(sec["r"] / variance < math.inf, "classical.r", f"r / sigma^2 overflows at sigma={sec['sigma']!r}")
    return cfg


def apply_overrides(cfg: RunConfig, tolerances: dict, seed: int | None) -> None:
    """Set command-line overrides under the rules of the fields they replace:
    each NAME -> value of tolerances as a tolerances entry at path --tol,
    and seed, unless None, as the seed at path --seed."""
    cfg.tolerances = _read_tolerances(tolerances, "--tol", cfg.tolerances)
    if seed is not None:
        cfg.seed = _take(TABLE["seed"], seed, "--seed")


def serialize_config(cfg: RunConfig) -> str:
    """Emit the normalized document, built from the fields as they are now,
    as json.dumps(indent=2, sort_keys=True) writes it; parse(serialize(cfg))
    == cfg. A top-level entry is absent when its field is None (seed, model,
    state, classical, replicate) or an empty list (t_grid, z_grid, which
    parse as non-empty)."""
    entries = {name: getattr(cfg, name) for name in TABLE}
    return _json_text(_doc({k: v for k, v in entries.items() if v is not None and not (isinstance(v, list) and not v)}))
