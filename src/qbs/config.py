"""Configuration documents for the batch front end.

One JSON document describes the market model, grids, and command
parameters. Matrices travel as row-major nested arrays of [re, im]
pairs. Each field is stated once, in the section table ``TABLE``: its
reader, its default and its bound. Parsing walks the table, validates
every structural invariant up front and reports the offending field
path.
"""

from __future__ import annotations

import copy
import json
import math
import re
from functools import partial
from itertools import chain, islice, repeat
from typing import Callable, NamedTuple

import numpy as np

from .flows import ModelOperators, require_unit_vector
from .operators import require_hermitian
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


def _pair_values(cells: list):
    """The complex vector of n cells that are each an [re, im] pair of
    numbers, checked and converted in whole-list passes; None when some
    cell is not. Finiteness is the caller's check: _pairs makes it of each
    list, and _scan of each matrix that it makes of these rows."""
    try:
        if set(map(len, cells)) != {2}:
            return None
    except TypeError:  # a cell that is a number, a bool or null
        return None
    leaves = list(chain.from_iterable(cells))  # a string or object cell yields strings
    kinds = set(map(type, leaves))
    if bool in kinds or not all(map(issubclass, kinds, repeat((int, float)))):
        return None
    try:
        vals = np.array(leaves, dtype=np.float64)
    except OverflowError:  # an integer literal beyond float range
        return None
    return vals.view(np.complex128)


def _finite(values):
    """values, unless None or holding a non-finite entry: then None."""
    return values if values is not None and np.isfinite(values).all() else None


def _pairs(cells: list, path: str) -> np.ndarray:
    """The complex vector of cells, a non-empty JSON list of finite [re, im] pairs
    at path: _pair_values of all, or when that fails, a walk to the first bad cell."""
    vals = _finite(_pair_values(cells))
    if vals is not None:
        return vals
    for i, pair in enumerate(cells):
        at = f"{path}[{i}]"
        _expect(len(_as_list(pair, at)) == 2, at, "expected an [re, im] pair")
        _as_number(pair[0], at)
        _as_number(pair[1], at)
    raise ConfigError(path, "expected an array of [re, im] pairs")  # unreached: the walk checks all _finite does


def _matrix_values(rows: list):
    """The complex array of d rows that _scan made vectors of d finite
    entries each; None for anything else."""
    vectors = set(map(type, rows)) == {np.ndarray} and {row.shape for row in rows} == {(len(rows),)}
    return _finite(np.array(rows)) if vectors else None


def matrix_from_json(obj, path: str) -> np.ndarray:
    """The square matrix at path: its array, when _scan made one, or else
    _pairs of each of its d rows, each checked to hold d cells."""
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.shape[0] == obj.shape[1]:
        return obj
    dim = len(_as_list(obj, path))
    _expect(dim > 0, path, "empty matrix")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(obj):
        at = f"{path}[{i}]"
        _expect(len(_as_list(row, at)) == dim, at, f"expected {dim} entries, got {len(row)}")
        out[i] = _pairs(row, at)
    return out


def vector_from_json(obj, path: str) -> np.ndarray:
    """The vector at path: its array, when _scan made a finite one, or else _pairs of it."""
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and np.isfinite(obj).all():
        return obj
    _expect(len(_as_list(obj, path)) > 0, path, "empty vector")
    return _pairs(obj, path)


def at_path(path: str, check: Callable, *args, fields=()):
    """check(*args), a ValueError or MemoryError (an array that cannot be
    allocated) it raises a ConfigError: at path.name if its message reads
    "name: ..." with name in fields, else at path, less a leading "path: ".
    A LinAlgError, a numerical failure, is raised as is."""
    try:
        return check(*args)
    except np.linalg.LinAlgError:
        raise
    except (ValueError, MemoryError) as exc:
        name, sep, message = str(exc).partition(": ")
        if sep and name in fields:
            raise ConfigError(f"{path}.{name}", message) from None
        raise ConfigError(path, str(exc).removeprefix(f"{path}: ")) from None


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


def _read(table: dict, obj, path: str, build: Callable | None = None):
    """The fields of the object at path, read by table in table order, as
    a dict, or given build, as the value build(fields, path); after that a
    key that table does not name is an error. Each field is taken out of
    obj as it is read, so the keys left are those that table does not
    name: obj must be a private tree, as _parse's is."""
    doc = _as_dict(obj, path)
    prefix = f"{path}." if path else ""
    out = {}
    for name, field in table.items():
        if name in doc:
            out[name] = _take(field, doc.pop(name), prefix + name)
        else:
            _expect(field.default is not REQUIRED, prefix + name, "missing")
            out[name] = copy.deepcopy(field.default)
    if build is not None:
        out = build(out, path)
    if doc:  # only the names that table does not hold are left
        raise ConfigError(prefix + next(iter(doc)), "unknown field")
    return out


def _section(table: dict) -> Field:
    """An optional section. Absent, it holds its fields' defaults, or is
    None when one of its fields is required."""
    defaults = {name: field.default for name, field in table.items()}
    return Field(partial(_read, table), None if REQUIRED in defaults.values() else defaults)


def _built(cls, table: dict) -> Callable:
    """Reader of a section whose fields construct cls, the one check of each
    field: at_path reports a ValueError of cls at the field it names
    ("X: not Hermitian, ..." at path.X), or else at the section path."""
    return partial(_read, table, build=lambda fields, path: at_path(path, partial(cls, **fields), fields=table))


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


def _hermitian(obj, path: str) -> np.ndarray:
    """The matrix at path, checked Hermitian; its error is reported at path."""
    return at_path(path, require_hermitian, matrix_from_json(obj, path), path)


def _read_state(obj, path: str) -> np.ndarray:
    """The unit vector at path; its error is reported at path."""
    return at_path(path, require_unit_vector, vector_from_json(obj, path), path)


_TOLERANCE = Field(_as_number, bound=(lambda v: v > 0.0, "tolerance must be positive"))


def _read_tolerances(obj, path: str) -> dict:
    """DEFAULT_TOLERANCES with the named tolerances of obj replaced; null replaces none."""
    tols = dict(DEFAULT_TOLERANCES)
    for name, val in ({} if obj is None else _as_dict(obj, path)).items():
        _expect(name in DEFAULT_TOLERANCES, f"{path}.{name}", "unknown tolerance name")
        tols[name] = _take(_TOLERANCE, val, f"{path}.{name}")
    return tols


_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0.0, "must be nonnegative")

# Every field of a config document, in the order parse_config reads and
# checks them. RunConfig has one attribute per top-level entry; model and
# model.ops construct MarketModel and ModelOperators, which check their
# matrices (X and H Hermitian, S unitary, K) once each.
TABLE = {
    "schema_version": Field(_as_int, REQUIRED, (lambda v: v == SCHEMA_VERSION, "unsupported version {}")),
    "output": Field(_one_of("output format", "json", "csv"), "json"),
    "seed": Field(_as_int, None, (lambda v: v >= 0, "seed must be nonnegative")),
    "tolerances": Field(_read_tolerances, DEFAULT_TOLERANCES),
    "model": Field(_built(MarketModel, {
        "ops": Field(_built(ModelOperators, {
            "X": Field(matrix_from_json),
            "H": Field(matrix_from_json),
            "L": Field(matrix_from_json),
            "S": Field(matrix_from_json),
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


class RunConfig:
    """Parsed, validated configuration: one attribute per entry of TABLE."""

    __slots__ = tuple(TABLE)

    def __init__(self, **entries):
        for name in TABLE:
            setattr(self, name, entries[name])


# the characters of text that read_config reads at a time
_CHUNK = 1 << 16


def parse_config(doc) -> RunConfig:
    """Parse and validate a configuration document: its text, or a text
    file open on it, which is read _CHUNK characters at a time."""
    if isinstance(doc, str):
        return _parse(iter((doc,)), lambda: doc)

    def whole() -> str:
        doc.seek(0)
        return doc.read()

    return _parse(iter(partial(doc.read, _CHUNK), ""), whole)


def read_config(path) -> RunConfig:
    """parse_config of the UTF-8 file at path. A fault, a byte that is not
    UTF-8 included, is reported as in the file's whole text, read again."""
    with open(path, encoding="utf-8") as file:  # as RFC 8259 requires of JSON
        return parse_config(file if file.seekable() else file.read())  # a pipe is read once


_WHITESPACE = re.compile(r"[ \t\n\r]*").match
# one to three arrays that open at once; three, "[" ws "[" ws "[", open a matrix
_OPENING = re.compile(r"(?:\[[ \t\n\r]*){1,3}").match
_NUMBER_CHARS = "0123456789.eE+-"  # those that may continue a number


def _scan(chunks):
    """json.loads of the text that chunks yields, with each row of [re, im]
    pairs made its complex vector as it closes, and each square matrix of
    finite such rows its array. Objects and arrays that open three deep
    are walked here, all else goes to the stdlib's C scanner. A value is
    taken once it ends inside the window, the unread text, or the text
    ends; until then the window grows. Invalid JSON raises ValueError."""
    scan_value = json.JSONDecoder().scan_once
    text, pos, ended = "", 0, False

    def grow() -> None:  # by a chunk, or by as many as the unread text holds
        nonlocal text, pos, ended
        tail = text[pos:]
        chunk = "".join(islice(chunks, 1 + len(tail) // _CHUNK))
        ended = not chunk
        text, pos = tail + chunk, 0

    def peek() -> str:  # the character at pos past whitespace, "" at the end
        nonlocal pos
        char = text[pos : pos + 1]
        if char not in " \t\n\r":  # "" is in every string
            return char
        while True:
            pos = _WHITESPACE(text, pos).end()
            if pos < len(text) or ended:
                return text[pos : pos + 1]
            grow()

    def scanned():
        nonlocal pos
        if len(text) - pos < _CHUNK // 2 and not ended:  # so that a row seldom ends past the window
            grow()
        while True:
            try:
                value, end = scan_value(text, pos)
            except (StopIteration, ValueError):  # StopIteration: no value at pos
                if ended:
                    raise ValueError("invalid JSON") from None
            else:
                if ended or text[end : end + 1] not in _NUMBER_CHARS:
                    pos = end
                    return value
            grow()

    def value():
        nonlocal pos
        char = peek()
        if char == "{":
            pos += 1
            return members()
        if char != "[":
            return scanned()
        while (end := _OPENING(text, pos).end()) == len(text) and not ended:
            grow()
        depth = text.count("[", pos, end)
        if depth == 3:
            pos += 1
            return items()
        found = scanned()
        row = _pair_values(found) if depth == 2 else None
        return found if row is None else row

    def members() -> dict:
        nonlocal pos
        doc = {}
        char = peek()
        if char == "}":
            pos += 1
            return doc
        while char == '"':
            key = scanned()
            if peek() != ":":
                break
            pos += 1
            doc[key] = value()
            char = peek()
            pos += 1
            if char == "}":
                return doc
            if char != ",":
                break
            char = peek()
        raise ValueError("invalid JSON")

    def items():
        nonlocal pos
        found = []
        while True:
            found.append(value())
            char = peek()
            pos += 1
            if char == "]":
                matrix = _matrix_values(found)
                return found if matrix is None else matrix
            if char != ",":
                raise ValueError("invalid JSON")

    doc = value()
    if peek():
        raise ValueError("invalid JSON")
    return doc


def _parse(chunks, whole: Callable) -> RunConfig:
    """The config of the text that chunks yields; whole() reads it again
    on a fault. A parse holds its arrays, its window and one matrix row's
    JSON tree (0.51 times the text at d = 128 under tracemalloc). It runs
    with the cyclic garbage collector on: one row's tree is too few lists
    to set off a collection by itself, so one that runs inside a parse is
    one that the collector counts carried in were due for. A fault is
    reported as in json.loads' tree, where no matrix is an array yet: the
    text is read again and walked that way, and that json.loads may
    collect."""
    try:
        fields = _read(TABLE, _scan(chunks), "")
    except np.linalg.LinAlgError:
        raise
    except (ValueError, RecursionError):  # RecursionError: arrays nested past the stack
        text = whole()  # a read or decode error is raised as it is
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also an integer past int's digit limit
            raise ConfigError("", f"invalid JSON: {exc}") from None
        fields = _read(TABLE, doc, "")
    cfg = RunConfig(**fields)
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


def apply_overrides(cfg: RunConfig, seed: int | None) -> None:
    """Set the command-line seed, unless None, under the rules of the seed
    field, at path --seed."""
    if seed is not None:
        cfg.seed = _take(TABLE["seed"], seed, "--seed")
