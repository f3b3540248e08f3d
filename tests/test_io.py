"""Matrix I/O: config parsing errors, report rendering, golden reports."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qbs.cli
from qbs.cli import RunReport, render_json
from qbs.config import ConfigError, matrix_from_json, parse_config
from test_cli import full_config

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
    report = RunReport(
        command="price",
        seed=seed,
        tolerances={"hedge_value": 1e-10, "terminal": 1e-6},
        results=results,
        invariant_violations=violations,
        wall_time_s=wall,
    )
    doc = {
        "schema_version": 1,
        "version": qbs.__version__,
        "command": "price",
        "seed": seed,
        "tolerances": report.tolerances,
        "results": _as_lists(results),
        "invariant_violations": violations,
        "wall_time_s": wall,
    }
    assert render_json(report) == json.dumps(doc, indent=2) + "\n"


# --- golden reports ----------------------------------------------------


def _golden_jobs():
    return sorted(tuple(p.name.split(".")[:2]) for p in GOLDEN.glob("*.json"))


def test_golden_set_is_complete():
    # every (command, shipped config) pair of the light CLI jobs, plus lindblad
    assert len(_golden_jobs()) == 10


@pytest.mark.parametrize("command,config", _golden_jobs())
def test_report_matches_golden(command, config, capsys):
    path = ROOT / "configs" / f"{config}.json"
    assert qbs.cli.main([command, "--config", str(path), "--omit-timing"]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{command}.{config}.json").read_text()
