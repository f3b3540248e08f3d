"""Matrix I/O: config parsing errors, report rendering, golden reports."""
import gc
import io
import json
import math
import re
import subprocess
import sys
from itertools import cycle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qbs.cli
import qbs.config
from qbs.cli import render_json
from qbs.config import (
    DEFAULT_TOLERANCES, ConfigError, RunConfig, _scan, matrix_from_json, pair_array, parse_config, read_config,
)
from qbs.pricing import log_moneyness
from qbs.sampling import random_commuting_positive_pair, random_complex, random_hermitian, random_unitary
from test_cli import _main_output, _parse_peak, _perfbench_workloads, full_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
HUGE = 10**400  # an integer literal beyond float range

# --- malformed matrices and states -------------------------------------

H = ("model", "ops", "H")  # a 2 x 2 matrix of full_config()
STATE = ("state",)  # a vector of 2 pairs


def _edited(edits):
    """full_config() with doc[path] = value for each (path, value)."""
    doc = full_config()
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


MALFORMED = [
    ([(H + (1,), "row")], "model.ops.H[1]", "expected an array, got str"),
    ([(H + (1,), [[0.0, 0.0]])], "model.ops.H[1]", "expected 2 entries, got 1"),
    ([(H + (0, 0), 0.3)], "model.ops.H[0][0]", "expected an array, got float"),
    ([(H + (1, 0), [0.0, -0.2, 0.0])], "model.ops.H[1][0]", "expected an [re, im] pair"),
    ([(H + (0, 1), [True, 0.0])], "model.ops.H[0][1]", "expected a number, got True"),
    ([(H + (1, 1), [0.0, "0"])], "model.ops.H[1][1]", "expected a number, got '0'"),
    ([(H + (0, 0), [math.nan, 0.0])], "model.ops.H[0][0]", "non-finite number nan"),
    ([(H + (0, 0), [HUGE, 0.0])], "model.ops.H[0][0]", f"non-finite number {HUGE!r}"),
    ([(H + (1, 0), [0.0, -HUGE])], "model.ops.H[1][0]", f"non-finite number {-HUGE!r}"),
    # of several bad cells, the first in row-major order is reported
    ([(H + (1, 0), [0.0]), (H + (0, 1), [None, 0.0])], "model.ops.H[0][1]", "expected a number, got None"),
    ([(STATE + (0,), "x")], "state[0]", "expected an array, got str"),
    ([(STATE + (0,), [1.0, 0.0, 0.0])], "state[0]", "expected an [re, im] pair"),
    ([(STATE + (1,), [False, 0.0])], "state[1]", "expected a number, got False"),
    ([(STATE + (1,), [0.0, "i"])], "state[1]", "expected a number, got 'i'"),
    ([(STATE + (1,), [0.0, math.inf])], "state[1]", "non-finite number inf"),
    ([(STATE + (1,), [HUGE, 0.0])], "state[1]", f"non-finite number {HUGE!r}"),
    # rows that each scan as a vector: a ragged row, a lone row where a
    # matrix goes, and a 1 x 1 matrix that reads as one but is the wrong size
    ([(H + (1,), [[0.0, 0.0]] * 3)], "model.ops.H[1]", "expected 2 entries, got 3"),
    ([(H, [[1.0, 0.0], [0.0, 0.0]])], "model.ops.H[0][0]", "expected an array, got float"),
    ([(H, [[[1.0, 0.0]]])], "model.ops", "operator dims differ: [(1, 1), (2, 2)]"),
]


@pytest.mark.parametrize("edits,path,message", MALFORMED, ids=[f"{i}-{c[1]}" for i, c in enumerate(MALFORMED)])
def test_malformed_matrix_error(edits, path, message):
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(_edited(edits)))
    assert info.value.path == path
    assert str(info.value) == f"{path}: {message}"


def test_integer_past_the_digit_limit_is_invalid_json():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config('{"schema_version": ' + "1" * 5000 + "}")


# --- the collector during a parse --------------------------------------


def _market_text(dim: int, seed: int = 5) -> str:
    """A valid document for a seeded d x d market with one z."""
    rng = np.random.default_rng(seed)
    x, k = random_commuting_positive_pair(rng, dim)
    ops = {"X": x, "H": random_hermitian(rng, dim), "L": random_complex(rng, dim), "S": random_unitary(rng, dim)}
    matrix = lambda m: pair_array(m).tolist()
    doc = {
        "schema_version": 1,
        "model": {"ops": {name: matrix(m) for name, m in ops.items()}, "K": matrix(k), "r": 0.05, "T": 1.0},
        "t_grid": [0.5],
        "z_grid": [matrix(log_moneyness(x, k))],
    }
    return json.dumps(doc)


def test_parse_config_restores_the_collector_state():
    good, bad_json, bad_field = json.dumps(full_config()), "{", '{"schema_version": 2}'
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            parse_config(good)
            assert gc.isenabled() is enabled
            for text in (bad_json, bad_field):
                with pytest.raises(ConfigError):
                    parse_config(text)
                assert gc.isenabled() is enabled
        finally:
            gc.enable()


def test_parse_config_runs_no_collection():
    # the list tree of a d = 64 market sets off collections in json.loads
    # alone; parse_config runs none, not even once the collector is back on
    text = _market_text(64)
    starts = []
    record = lambda phase, info: starts.append(info["generation"]) if phase == "start" else None
    gc.callbacks.append(record)
    try:
        json.loads(text)
        control = len(starts)
        starts.clear()
        parse_config(text)
    finally:
        gc.callbacks.remove(record)
    assert control > 0
    assert starts == []


@st.composite
def matrix_documents(draw):
    """A d x d matrix of [re, im] pairs of finite ints and floats."""
    dim = draw(st.integers(1, 5))
    number = st.integers(-(2**80), 2**80) | st.floats(allow_nan=False, allow_infinity=False)
    pair = st.lists(number, min_size=2, max_size=2)
    return draw(st.lists(st.lists(pair, min_size=dim, max_size=dim), min_size=dim, max_size=dim))


@settings(max_examples=100, deadline=None)
@given(matrix_documents())
def test_matrix_from_json_matches_cell_by_cell(rows):
    got = matrix_from_json(rows, "m")
    want = np.array([[complex(float(re), float(im)) for re, im in row] for row in rows])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(matrix_documents())
def test_a_matrix_scanned_a_row_at_a_time_reads_as_it_does_whole(rows):
    got = _scan(iter((json.dumps({"m": rows}),)))["m"]
    assert isinstance(got, np.ndarray)
    assert got.tobytes() == matrix_from_json(rows, "m").tobytes()


_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "/": "\\/", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


@st.composite
def _string_texts(draw) -> str:
    """A JSON string: ASCII, non-ASCII and astral characters, each written
    raw where JSON allows it, or as its short escape, its \\uXXXX escape or
    (astral) its surrogate pair of escapes."""
    out = ['"']
    for char in draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)):
        code = ord(char)
        forms = [f"\\u{code:04x}"] if code < 0x10000 else []
        if code >= 0x10000:
            high, low = divmod(code - 0x10000, 0x400)
            forms.append(f"\\u{0xD800 + high:04X}\\u{0xDC00 + low:04x}")
        if char in _SHORT_ESCAPES:
            forms.append(_SHORT_ESCAPES[char])
        if code >= 0x20 and char not in '"\\':
            forms.append(char)
        out.append(draw(st.sampled_from(forms)))
    return "".join(out) + '"'


# number texts: the edges named, integers, shortest reprs, and exponent forms
# of every case and sign (past 1e308 they read as inf)
_NUMBER_TEXTS = (
    st.sampled_from(["-0.0", "-0", "0", "1e300", "-1e300", "5e-324", "-5e-324", "1E+2", "2.5e-3", "1e400"])
    | st.integers(-(2**70), 2**70).map(str)
    | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.builds("{}{}{}{}".format, st.integers(-999, 999), st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
                st.integers(0, 330))
)
_LITERALS = st.sampled_from(["true", "false", "null"])
_WS = st.text(" \t\n\r", max_size=3)


@st.composite
def _json_texts(draw, depth: int = 0) -> str:
    """A JSON text of nested objects and arrays, strings, numbers, literals,
    rows of [re, im] pairs and square matrices of them, with whitespace
    drawn around every token."""
    ws = lambda: draw(_WS)  # noqa: E731
    kinds = ["number", "string", "literal"] + (["array", "object", "pairs", "matrix"] if depth < 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "number":
        return ws() + draw(_NUMBER_TEXTS) + ws()
    if kind == "string":
        return ws() + draw(_string_texts()) + ws()
    if kind == "literal":
        return ws() + draw(_LITERALS) + ws()

    def array(items) -> str:
        return ws() + "[" + (",".join(items) if items else ws()) + "]" + ws()

    def pair() -> str:
        return array([ws() + draw(_NUMBER_TEXTS) + ws() for _ in range(2)])

    if kind == "pairs":
        return array([pair() for _ in range(draw(st.integers(1, 4)))])
    if kind == "matrix":
        dim = draw(st.integers(1, 3))
        return array([array([pair() for _ in range(dim)]) for _ in range(dim)])
    items = [draw(_json_texts(depth + 1)) for _ in range(draw(st.integers(0, 3)))]
    if kind == "array":
        return array(items)
    members = [ws() + draw(_string_texts()) + ws() + ":" + item for item in items]
    return ws() + "{" + (",".join(members) if members else ws()) + "}" + ws()


def _pieces(text: str, sizes: list):
    """text in consecutive pieces of the given sizes, cycled."""
    start = 0
    for size in cycle(sizes):
        if start >= len(text):
            return
        yield text[start : start + size]
        start += size


def _same(a, b) -> bool:
    """a and b have the same types, keys, order and bits throughout."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[key], b[key]) for key in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


def _unpaired(value):
    """value with each array as its nested [re, im] pairs, and each number as
    the bits of its float (an int past float range as itself): -0.0 and 0.0
    differ, and 1 and 1.0 do not."""
    if isinstance(value, np.ndarray):
        value = pair_array(value).tolist()
    if isinstance(value, dict):
        return {key: _unpaired(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_unpaired(item) for item in value]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return ("number", float(value).hex())
        except OverflowError:
            return ("integer", value)
    return value


@settings(max_examples=300, deadline=None)
@given(_json_texts(), st.lists(st.integers(1, 70), min_size=1, max_size=5))
def test_the_scanner_reads_any_document_in_chunks_as_json_loads(text, sizes):
    # the scanner's contract: read in chunks of 1-70 characters, a document
    # gives what it gives read whole, and that is json.loads' tree once
    # every row and matrix it made an array is turned back into pairs
    whole = _scan(iter((text,)))
    assert _same(_scan(_pieces(text, sizes)), whole)
    assert _unpaired(whole) == _unpaired(json.loads(text))


def test_well_formed_matrix_values_are_exact():
    doc = full_config()
    doc["model"]["ops"]["H"] = [[[2**53 + 1, 0], [5e-324, -0.0]], [[5e-324, 0.0], [-(2**70), 0]]]
    h = parse_config(json.dumps(doc)).model.ops.H
    assert h[0, 0] == float(2**53 + 1) and h[1, 1] == float(-(2**70))
    assert h[0, 1] == 5e-324 and math.copysign(1.0, h[0, 1].imag) == -1.0


# values that each break some check, then arbitrary JSON
EDGE = [HUGE, -HUGE, 1e308, -1.0, 0, 2, math.nan, math.inf, True, None, "1", [], {}, [1.0, 0.0]]
json_values = st.sampled_from(EDGE) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


FULL_PATHS = list(_paths(full_config()))[1:]
DELETE = object()


def _mutate(doc, path, value) -> None:
    """doc[path] = value, or delete doc[path] for DELETE; a path that an
    earlier mutation removed is skipped."""
    try:
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


NH = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]  # [[0, 1], [0, 0]]
NOT_HERMITIAN = "not Hermitian, defect 1.414214e+00 exceeds 1.000000e-12"

# one fault per document: (path in full_config(), new value or DELETE), then the error
SCHEMA_FAULTS = [
    ((), [], "", "expected an object, got list"),
    (("schema_version",), DELETE, "schema_version", "missing"),
    (("schema_version",), "1", "schema_version", "expected an integer, got '1'"),
    (("schema_version",), 2, "schema_version", "unsupported version 2"),
    (("output",), "xml", "output", "unknown output format 'xml'"),
    (("output",), None, "output", "unknown output format None"),
    (("seed",), -1, "seed", "seed must be nonnegative"),
    (("seed",), 1.5, "seed", "expected an integer, got 1.5"),
    (("seed",), None, "seed", "expected an integer, got None"),
    (("tolerances",), [], "tolerances", "expected an object, got list"),
    (("tolerances",), {"terminal": 0}, "tolerances.terminal", "tolerance must be positive"),
    (("tolerances",), {"terminal": "1"}, "tolerances.terminal", "expected a number, got '1'"),
    (("tolerances",), {"bogus": 1.0}, "tolerances.bogus", "unknown tolerance name"),
    (("model",), None, "model", "expected an object, got NoneType"),
    (("model", "ops"), DELETE, "model.ops", "missing"),
    (("model", "ops"), [], "model.ops", "expected an object, got list"),
    (("model", "ops", "L"), DELETE, "model.ops.L", "missing"),
    (("model", "ops", "X"), NH, "model.ops.X", NOT_HERMITIAN),
    (("model", "ops", "S"), [[[1, 0], [0, 0]], [[0, 0], [2, 0]]], "model.ops.S",
     "not unitary, defect 3.000000e+00 exceeds 2.000000e-12"),
    (("model", "ops", "L"), [[[1, 0]]], "model.ops", "operator dims differ: [(1, 1), (2, 2)]"),
    (("model", "K"), DELETE, "model.K", "missing"),
    (("model", "K"), [], "model.K", "empty matrix"),
    (("model", "r"), DELETE, "model.r", "missing"),
    (("model", "r"), "0", "model.r", "expected a number, got '0'"),
    (("model", "T"), DELETE, "model.T", "missing"),
    (("model", "T"), -1, "model", "T must be positive"),
    (("model", "beta0"), None, "model.beta0", "expected a number, got None"),
    (("state",), None, "state", "expected an array, got NoneType"),
    (("state",), [], "state", "empty vector"),
    (("state",), [[1, 0], [1, 0]], "state", "not normalized, norm 1.4142135623730951"),
    (("state",), [[1, 0]], "state", "length 1 does not match model dim 2"),
    (("t_grid",), None, "t_grid", "expected an array, got NoneType"),
    (("t_grid",), [], "t_grid", "empty grid"),
    (("t_grid",), [0.5, True], "t_grid[1]", "expected a number, got True"),
    (("t_grid",), [0.5, 0], "t_grid[1]", "grid times must be positive"),
    (("z_grid",), [], "z_grid", "empty grid"),
    (("z_grid",), [NH], "z_grid[0]", NOT_HERMITIAN),
    (("ito_check",), None, "ito_check", "expected an object, got NoneType"),
    (("ito_check", "dims"), [], "ito_check.dims", "empty grid"),
    (("ito_check", "dims"), [2, 1.0], "ito_check.dims[1]", "expected an integer, got 1.0"),
    (("ito_check", "dims"), [2, 0], "ito_check.dims[1]", "dims must be >= 1"),
    (("ito_check", "k_max"), None, "ito_check.k_max", "expected an integer, got None"),
    (("ito_check", "k_max"), 1, "ito_check.k_max", "k_max must be >= 2"),
    (("ito_check", "trials"), 0, "ito_check.trials", "trials must be >= 1"),
    (("terminal",), {"t_small": 0.0}, "terminal.t_small", "must be positive"),
    (("terminal",), {"min_gap": "x"}, "terminal.min_gap", "expected a number, got 'x'"),
    (("terminal",), {"min_gap": -0.1}, "terminal.min_gap", "must be positive"),
    (("hedge", "convention"), "put", "hedge.convention", "unknown convention 'put'"),
    (("hedge", "times"), {}, "hedge.times", "expected an array, got dict"),
    (("hedge", "times"), [0.5, None], "hedge.times[1]", "expected a number, got None"),
    (("hedge", "stock"), NH, "hedge.stock", NOT_HERMITIAN),
    (("classical",), None, "classical", "expected an object, got NoneType"),
    (("classical", "x"), DELETE, "classical.x", "missing"),
    (("classical", "x"), [], "classical.x", "empty grid"),
    (("classical", "t"), [0.7, -1], "classical.t[1]", "must be positive"),
    (("classical", "strike"), DELETE, "classical.strike", "missing"),
    (("classical", "strike"), 0, "classical.strike", "must be positive"),
    (("classical", "r"), -0.1, "classical.r", "must be nonnegative"),
    (("classical", "sigma"), None, "classical.sigma", "expected a number, got None"),
    (("classical", "sigma"), 0, "classical.sigma", "must be positive"),
    (("lindblad", "t"), [0.3, -1.0], "lindblad.t[1]", "must be nonnegative"),
    (("lindblad", "steps"), 0, "lindblad.steps", "must be >= 1"),
    (("lindblad", "steps"), 2.0, "lindblad.steps", "expected an integer, got 2.0"),
    (("lindblad", "x0"), NH, "lindblad.x0", NOT_HERMITIAN),
    (("replicate",), [], "replicate", "expected an object, got list"),
    (("replicate", "x0"), DELETE, "replicate.x0", "missing"),
    (("replicate", "T"), DELETE, "replicate.T", "missing"),
    (("replicate", "paths"), DELETE, "replicate.paths", "missing"),
    (("replicate", "steps"), 10.0, "replicate.steps", "expected an integer, got 10.0"),
    (("replicate", "sigma"), "1", "replicate.sigma", "expected a number, got '1'"),
    # a mistyped key at each level
    (("seeed",), 3, "seeed", "unknown field"),
    (("terminal",), {"min_gp": 0.5}, "terminal.min_gp", "unknown field"),
    (("model", "beta"), 1.0, "model.beta", "unknown field"),
    (("model", "ops", "Y"), NH, "model.ops.Y", "unknown field"),
    (("replicate", "path"), 10, "replicate.path", "unknown field"),
    # an operator sized unlike the model, named at its field
    (("z_grid",), [[[[0.2, 0]]]], "z_grid[0]", "dim 1 does not match model dim 2"),
    (("hedge", "stock"), [[[1, 0]]], "hedge.stock", "dim 1 does not match model dim 2"),
    (("lindblad", "x0"), [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],
     "lindblad.x0", "dim 3 does not match model dim 2"),
    # the bounds that replication_simulation enforces
    (("replicate", "x0"), -1, "replicate.x0", "must be positive"),
    (("replicate", "strike"), 0, "replicate.strike", "must be positive"),
    (("replicate", "r"), -0.01, "replicate.r", "must be nonnegative"),
    (("replicate", "T"), 0, "replicate.T", "must be positive"),
    (("replicate", "sigma"), 0.0, "replicate.sigma", "must be positive"),
    (("replicate", "steps"), 50, "replicate.steps", "must be >= 100"),
    (("replicate", "paths"), 10, "replicate.paths", "must be >= 1000"),
    # a hedge time outside (0, model.T)
    (("hedge", "times"), [0.5, 1.0], "hedge.times[1]", "t=1.0 outside (0, 1.0)"),
    (("hedge", "times"), [0], "hedge.times[0]", "t=0.0 outside (0, 1.0)"),
    # classical inputs whose d = 1 operator price leaves float range
    (("classical",), {"x": [1e300], "t": [0.7], "strike": 1e-10, "r": 0.0},
     "classical.x[0]", "x / strike = inf leaves float range"),
    (("classical",), {"x": [1.5, 1e-300], "t": [0.7], "strike": 1e100, "r": 0.0},
     "classical.x[1]", "x / strike = 0.0 leaves float range"),
    (("classical", "sigma"), 1e-170, "classical.t[0]", "sigma^2 t underflows to 0 at sigma=1e-170"),
    (("classical", "sigma"), 1e-155, "classical.r", "r / sigma^2 overflows at sigma=1e-155"),
    # MarketModel checks K, and names it
    (("model", "K"), NH, "model.K", NOT_HERMITIAN),
    (("model", "K"), [[[-1, 0], [0, 0]], [[0, 0], [2, 0]]], "model.K",
     "not positive definite, smallest eigenvalue -1.0"),
    # a non-finite tolerance
    (("tolerances",), {"hedge_value": math.nan}, "tolerances.hedge_value", "non-finite number nan"),
]


@pytest.mark.parametrize("where,value,path,message", SCHEMA_FAULTS, ids=[f"{i}-{c[2]}" for i, c in enumerate(SCHEMA_FAULTS)])
def test_schema_fault_reports_exact_error(where, value, path, message):
    doc = value if where == () else full_config()
    if where:
        _mutate(doc, where, value)
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert info.value.path == path
    assert str(info.value) == (f"{path}: {message}" if path else message)


I2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]  # a 2 x 2 matrix, the identity
I2_TEXT = "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]"

# a matrix where the table expects something else: the error names what
# json.loads read there, a tree of lists, never an array
MISPLACED_MATRIX = [
    ((), "", "expected an object, got list"),
    (("schema_version",), "schema_version", f"expected an integer, got {I2_TEXT}"),
    (("output",), "output", f"unknown output format {I2_TEXT}"),
    (("seed",), "seed", f"expected an integer, got {I2_TEXT}"),
    (("tolerances",), "tolerances", "expected an object, got list"),
    (("tolerances", "terminal"), "tolerances.terminal", f"expected a number, got {I2_TEXT}"),
    (("model",), "model", "expected an object, got list"),
    (("model", "r"), "model.r", f"expected a number, got {I2_TEXT}"),
    (("state",), "state[0]", "expected a number, got [1, 0]"),
    (("t_grid",), "t_grid[0]", "expected a number, got [[1, 0], [0, 0]]"),
    (("z_grid",), "z_grid[0][0][0]", "expected an array, got int"),
    (("terminal",), "terminal", "expected an object, got list"),
    (("hedge", "convention"), "hedge.convention", f"unknown convention {I2_TEXT}"),
    (("hedge", "times"), "hedge.times[0]", "expected a number, got [[1, 0], [0, 0]]"),
    (("lindblad", "steps"), "lindblad.steps", f"expected an integer, got {I2_TEXT}"),
]


@pytest.mark.parametrize("where,path,message", MISPLACED_MATRIX, ids=[c[1] or "document" for c in MISPLACED_MATRIX])
def test_a_misplaced_matrix_reports_its_json_text(where, path, message):
    doc = I2 if where == () else full_config()
    if where == ("tolerances", "terminal"):
        doc["tolerances"] = {}
    if where:
        _mutate(doc, where, I2)
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert info.value.path == path
    assert str(info.value) == (f"{path}: {message}" if path else message)


def test_arrays_nested_deep_read_as_json_loads_reads_them():
    # json.loads reads 700 nested arrays; the scan of a matrix runs out of
    # Python stack before that, and the error is still the table's
    grid = "[" * 700 + "1" + "]" * 700
    with pytest.raises(ConfigError) as info:
        parse_config('{"schema_version": 1, "t_grid": ' + grid + "}")
    assert str(info.value) == f"t_grid[0]: expected a number, got {json.loads(grid)[0]!r}"


def test_arrays_nested_past_the_stack_are_invalid_json():
    grid = "[" * 5000 + "1" + "]" * 5000
    with pytest.raises(ConfigError, match="^invalid JSON: maximum recursion depth exceeded"):
        parse_config('{"schema_version": 1, "t_grid": ' + grid + "}")


def _spaced(text: str) -> str:
    """text with a tab and a CRLF after every "[": JSON whitespace between
    the brackets that open a matrix and its rows."""
    return text.replace("[", "[\t\r\n")


# the same document written four ways
LAYOUTS = {
    "default": json.dumps,
    "indent": lambda doc: json.dumps(doc, indent=2),
    "compact": lambda doc: json.dumps(doc, separators=(",", ":")),
    "spaced": lambda doc: _spaced(json.dumps(doc)),
}


def _bits(value):
    """value as a tree of plain tuples that compare equal only where every
    field holds the same bits: arrays by dtype, shape and bytes, floats by
    float.hex (-0.0 is not 0.0), named tuples and RunConfig by field."""
    if isinstance(value, RunConfig):
        return ("RunConfig", tuple((name, _bits(getattr(value, name))) for name in RunConfig.__slots__))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return float.hex(value)
    if hasattr(value, "_asdict"):
        return (type(value).__name__, tuple((k, _bits(v)) for k, v in value._asdict().items()))
    if isinstance(value, dict):
        return ("dict", tuple((k, _bits(v)) for k, v in value.items()))
    if isinstance(value, list):
        return ("list", tuple(map(_bits, value)))
    return (type(value).__name__, value)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_document_parses_alike_in_every_layout(layout):
    doc = full_config()
    doc["model"]["ops"]["H"][0][0][1] = -0.0  # a sign that == cannot see
    want = parse_config(json.dumps(doc))
    assert _bits(parse_config(LAYOUTS[layout](doc))) == _bits(want)


def test_a_parse_holds_as_much_in_every_layout():
    # the matrices of a d = 32 market cost the same to read however the
    # brackets are spaced
    doc = json.loads(_market_text(32))
    parse_config(json.dumps(doc))  # first-call work outside the trace
    peaks = {layout: _parse_peak(write(doc)) for layout, write in LAYOUTS.items()}
    assert max(peaks.values()) <= 1.25 * min(peaks.values()), peaks


# --- a config read a chunk at a time ---------------------------------

CHUNKS = [1, 2, 3, 7, 64]  # characters per read: every value of a config is split somewhere


def _crlf(text: str) -> str:
    return text.replace("\n", "\r\n")


@pytest.mark.parametrize("chunk", CHUNKS)
def test_a_config_read_in_chunks_parses_as_its_whole_text(chunk, tmp_path, monkeypatch):
    workloads = _perfbench_workloads()
    market = tmp_path / "market_d8.json"
    market.write_text(json.dumps(workloads.market_document(workloads.make_market(1, 8))))
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(_crlf(json.dumps(full_config(), indent=2)).encode())
    paths = [*sorted((ROOT / "configs").glob("*.json")), market, crlf]
    wants = [_bits(parse_config(path.read_text(encoding="utf-8"))) for path in paths]
    monkeypatch.setattr(qbs.config, "_CHUNK", chunk)
    # a valid config is read once, a chunk at a time, never again whole
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("read whole"))
    assert [_bits(read_config(path)) for path in paths] == wants


def _with_r(value) -> bytes:
    doc = full_config()
    doc["model"]["r"] = value
    return json.dumps(doc).encode()


FULL_TEXT = json.dumps(full_config())

# a faulty config file and the stderr line of its job, exit 2
READ_FAULTS = [
    (b"{not json", "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (FULL_TEXT.replace('"replicate": {', '"replicate" {').encode(),
     "invalid JSON: Expecting ':' delimiter: line 1 column 763 (char 762)"),
    (FULL_TEXT.encode() + b" {}", "invalid JSON: Extra data: line 1 column 842 (char 841)"),
    (b"\xef\xbb\xbf" + FULL_TEXT.encode(),
     "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (_crlf(json.dumps(full_config(), indent=2).replace('"paths": 1000\n', '"paths": 1000,\n')).encode(),
     "invalid JSON: Expecting property name enclosed in double quotes: line 214 column 3 (char 2594)"),
    (_with_r(-math.inf), "model.r: non-finite number -inf"),
    (FULL_TEXT.replace('"r": 0.05', '"r": 5e400').encode(), "model.r: non-finite number inf"),
    (FULL_TEXT.encode().replace(b'"direct"', b'"dir\xffect"'),
     "'utf-8' codec can't decode byte 0xff in position 573: invalid start byte"),
    (b'{"schema_version": 1, "t_grid": ' + b"[" * 5000 + b"1" + b"]" * 5000 + b"}",
     "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
]
READ_FAULTS += [(json.dumps(_edited(edits)).encode(), f"{path}: {message}") for edits, path, message in MALFORMED]


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("data,message", READ_FAULTS, ids=range(len(READ_FAULTS)))
def test_a_fault_read_in_chunks_is_reported_as_in_the_whole_text(data, message, chunk, tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    monkeypatch.setattr(qbs.config, "_CHUNK", chunk)
    assert _main_output("price", str(path)) == (2, "", f"config error: {message}\n")


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="needs /dev/stdin")
@pytest.mark.parametrize("data,message", [READ_FAULTS[1], READ_FAULTS[7]], ids=["json", "utf8"])
def test_a_fault_in_a_piped_config_is_reported_as_in_a_file(data, message):
    # a pipe cannot be read again, so its text is read whole
    proc = subprocess.run([sys.executable, "-m", "qbs.cli", "price", "--config", "/dev/stdin"],
                          input=data, capture_output=True, cwd=ROOT)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (2, b"", f"config error: {message}\n")


# a bad known field with a mistyped key ahead of it in its object, at each
# level: every known field is read before any unknown name is reported
BAD_BEHIND_UNKNOWN = [
    ((), "seeed", ("seed",), -1, "seed", "seed must be nonnegative"),
    (("model",), "beta", ("model", "r"), "0", "model.r", "expected a number, got '0'"),
    (("model", "ops"), "Y", ("model", "ops", "H"), NH, "model.ops.H", NOT_HERMITIAN),
    (("replicate",), "path", ("replicate", "paths"), 10, "replicate.paths", "must be >= 1000"),
    (("model",), "beta", ("model", "K"), NH, "model.K", NOT_HERMITIAN),
]


@pytest.mark.parametrize("where,unknown,field,value,path,message", BAD_BEHIND_UNKNOWN)
def test_a_bad_field_is_reported_before_an_unknown_one(where, unknown, field, value, path, message):
    doc = full_config()
    _mutate(doc, field, value)
    section = doc
    for key in where:
        section = section[key]
    fields = {unknown: 1.0, **section}
    section.clear()
    section.update(fields)
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value) == f"{path}: {message}"


# null where the schema admits it, and an empty list where it means "none"
SCHEMA_ALLOWED = [
    (("tolerances",), None, "tolerances", DEFAULT_TOLERANCES),
    (("hedge", "stock"), None, "hedge", {"convention": "direct", "times": [0.5], "stock": None}),
    (("hedge",), {"times": []}, "hedge", {"convention": "direct", "times": [], "stock": None}),
    (("lindblad",), {"steps": None, "x0": None}, "lindblad", {"t": [], "steps": None, "x0": None}),
    (("classical", "sigma"), DELETE, "classical", {"x": [1.5], "t": [0.7], "strike": 1.0, "r": 0.05, "sigma": 1.0}),
]


@pytest.mark.parametrize("where,value,field,want", SCHEMA_ALLOWED)
def test_schema_admits_null_and_defaults(where, value, field, want):
    doc = full_config()
    _mutate(doc, where, value)
    assert getattr(parse_config(json.dumps(doc)), field) == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FULL_PATHS), st.just(DELETE) | json_values), min_size=1, max_size=3))
def test_parse_config_fuzz_raises_only_config_errors(mutations):
    """Replacing or deleting fields of a valid document yields a config or
    a ConfigError, never another exception."""
    doc = full_config()
    for path, value in mutations:
        _mutate(doc, path, value)
    try:
        parse_config(json.dumps(doc))
    except ConfigError:
        pass


# --- rendering ---------------------------------------------------------

SPECIAL = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.nan, math.inf, -math.inf]
numbers = st.sampled_from(SPECIAL) | st.floats()


@st.composite
def complex_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    count = 2 * math.prod(shape)
    parts = draw(st.lists(numbers, min_size=count, max_size=count))
    return np.array(parts, dtype=np.float64).view(np.complex128).reshape(shape)


scalars = st.none() | st.booleans() | st.integers() | numbers | st.text(max_size=4)
row_values = scalars | st.just([]) | st.just({}) | complex_arrays() | st.lists(scalars, max_size=3)
rows = st.dictionaries(st.sampled_from(["t", "omega", "a", "passed", "note", "x_t"]), row_values, max_size=5)


def _nested(a):
    """The [re, im] nesting of a complex array, built cell by cell."""
    a = np.asarray(a)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [_nested(x) for x in a]


def _as_lists(value):
    if isinstance(value, np.ndarray):
        return _nested(value)
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_lists(v) for v in value]
    return value


@settings(max_examples=200, deadline=None)
@given(
    st.lists(rows, max_size=4),
    st.lists(st.text(max_size=6), max_size=2),
    st.none() | st.integers(0, 2**40),
    st.none() | numbers,
)
def test_render_json_matches_json_dumps(results, violations, seed, wall):
    report = {
        "schema_version": 1,
        "version": qbs.__version__,
        "command": "price",
        "seed": seed,
        "tolerances": {"hedge_value": 1e-10, "terminal": 1e-6},
        "results": results,
        "invariant_violations": violations,
        "wall_time_s": wall,
    }
    assert _rendered(report) == json.dumps(_as_lists(report), indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(rows, max_size=4))
def test_render_json_writes_an_iterator_as_its_list(results):
    report = {"results": results, "empty": [], "wall_time_s": None}
    lazy = {**report, "results": iter(results), "empty": iter(())}
    assert _rendered(lazy) == _rendered(report) == json.dumps(_as_lists(report), indent=2) + "\n"


def _rendered(report) -> str:
    """What render_json writes of report to a text stream."""
    out = io.StringIO()
    render_json(report, out)
    return out.getvalue()


SIGN = np.uint64(1 << 63)
# changes to the bits of an entry below the diagonal that break its mirror
PERTURBATIONS = {
    "flip the sign": lambda b: b ^ SIGN,  # of a zero, too
    "move one ulp": lambda b: b ^ np.uint64(1),  # inf becomes a NaN with a payload
    "sign a NaN": lambda b: b | np.uint64(0xFFF8 << 48),  # keeps b's payload bits
}


def _hermitian_pairs(palette, dim: int, seed: int, perturbations) -> np.ndarray:
    """The [re, im] pairs of an exactly Hermitian dim x dim matrix whose
    numbers on and above the diagonal are picked from palette (real
    diagonal), each entry below it the bits of its mirror with the
    imaginary sign bit flipped; then the (index, part, name) perturbations
    applied to entries below the diagonal."""
    pairs = np.random.default_rng(seed).choice(np.asarray(palette, dtype=np.float64), (dim, dim, 2))
    pairs[np.arange(dim), np.arange(dim), 1] = 0.0
    bits = pairs.view(np.uint64)
    below = np.tril_indices(dim, -1)
    bits[below] = bits.transpose(1, 0, 2)[below] ^ np.array([0, SIGN], dtype=np.uint64)
    for index, part, name in perturbations if dim > 1 else ():
        i, j = below[0][index % len(below[0])], below[1][index % len(below[0])]
        bits[i, j, part] = PERTURBATIONS[name](bits[i, j, part])
    return pairs


def _renders_like_json_dumps(pairs) -> bool:
    matrix = pairs.view(np.complex128)[..., 0]
    report = {
        "schema_version": 1,
        "version": qbs.__version__,
        "command": "price",
        "seed": None,
        "tolerances": {},
        "results": [{"omega": matrix}],
        "invariant_violations": [],
        "wall_time_s": None,
    }
    return _rendered(report) == json.dumps(_as_lists(report), indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(numbers, min_size=1, max_size=8),
    st.integers(1, 24),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 1), st.sampled_from(sorted(PERTURBATIONS))), max_size=4),
)
def test_render_json_of_a_hermitian_matrix_matches_json_dumps(palette, dim, seed, perturbations):
    """Matrices of d = 1 to 24, with signed zeros, subnormals, infinities
    and NaNs, exactly Hermitian or broken below the diagonal."""
    assert _renders_like_json_dumps(_hermitian_pairs(palette, dim, seed, perturbations))


def test_render_json_of_a_d128_hermitian_matrix_matches_json_dumps():
    rng = np.random.default_rng(128)
    palette = np.concatenate([rng.standard_normal(64), SPECIAL])
    perturbations = [(int(k), int(k) % 2, name) for k, name in zip(rng.integers(0, 8128, 30), sorted(PERTURBATIONS) * 10)]
    assert _renders_like_json_dumps(_hermitian_pairs(palette, 128, 1, []))
    assert _renders_like_json_dumps(_hermitian_pairs(palette, 128, 2, perturbations))


class _Pieces(io.StringIO):
    """A text stream that keeps the pieces of each writelines call."""

    def writelines(self, lines):
        self.pieces = list(lines)
        super().writelines(self.pieces)


def test_render_json_writes_a_square_matrix_one_piece_per_row():
    # the d = 128 memory bounds hold a row's text at a time, not a matrix's
    rng = np.random.default_rng(40)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    report = {"omega": a + a.conj().T, "alpha": a}
    out = _Pieces()
    render_json(report, out)
    assert out.getvalue() == json.dumps(_as_lists(report), indent=2) + "\n"
    assert out.pieces[0] == '{\n  "omega": ' and out.pieces[41] == ',\n  "alpha": ' and len(out.pieces) == 83
    for piece in out.pieces[1:41] + out.pieces[42:82]:
        assert len(re.findall(r"-?\d[\d.e+-]*", piece)) == 80


# --- golden reports ----------------------------------------------------


def _golden_jobs():
    return sorted(tuple(p.name.split(".")[:2]) for p in GOLDEN.glob("*.json"))


def test_golden_set_is_complete():
    # every (command, shipped config) pair of the light CLI jobs, plus the
    # three stochastic ones: lindblad, ito-check and replicate
    assert len(_golden_jobs()) == 12


@pytest.mark.parametrize("command,config", _golden_jobs())
def test_report_matches_golden(command, config, capsys):
    path = ROOT / "configs" / f"{config}.json"
    assert qbs.cli.main([command, "--config", str(path), "--omit-timing"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{command}.{config}.json").read_text()
