"""Configuration documents for the batch front end.

One JSON document describes the market model, grids, and command
parameters. Matrices travel as row-major nested arrays of [re, im]
pairs. Parsing validates every structural invariant up front and
reports the offending field path; serialization round-trips exactly
because floats are emitted in shortest-repr form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

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


def _validated(m, path: str, validator=require_hermitian) -> np.ndarray:
    """Run an operator validator, reporting failure at the dotted path."""
    try:
        return validator(m, path)
    except ValueError as exc:
        raise ConfigError(path, str(exc).split(": ", 1)[-1]) from None


def pair_array(m) -> np.ndarray:
    """The [re, im] pairs of a complex array: a float64 view of shape
    m.shape + (2,), row-major like its JSON form."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,))


def matrix_to_json(m) -> list:
    """Row-major nested [re, im] pairs."""
    return pair_array(m).tolist()


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


def vector_to_json(v) -> list:
    return pair_array(np.ravel(v)).tolist()


def vector_from_json(obj, path: str) -> np.ndarray:
    entries = _as_list(obj, path)
    _expect(len(entries) > 0, path, "empty vector")
    vals = _pair_values(entries)
    if vals is not None:
        return vals.view(np.complex128).reshape(-1)
    for i, pair in enumerate(entries):
        _check_pair(pair, f"{path}[{i}]")
    raise _malformed(path)


@dataclass(eq=False)
class RunConfig:
    """Parsed, validated configuration plus its normalized document.

    Two configs are equal when their normalized documents are equal.
    """

    schema_version: int
    output: str
    seed: int | None
    tolerances: dict
    model: MarketModel | None
    state: np.ndarray | None
    t_grid: list
    z_grid: list
    ito_check: dict
    terminal: dict
    hedge: dict
    classical: dict | None
    lindblad: dict
    replicate: dict | None

    @cached_property
    def raw(self) -> dict:
        """The normalized document, built from the fields on first use."""
        return _normalize(self)

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.raw == other.raw


def _parse_model(obj, path: str) -> MarketModel:
    doc = _as_dict(obj, path)
    ops_doc = _as_dict(doc.get("ops"), f"{path}.ops") if "ops" in doc else None
    _expect(ops_doc is not None, f"{path}.ops", "missing")
    mats = {}
    for name in ("X", "H", "L", "S"):
        _expect(name in ops_doc, f"{path}.ops.{name}", "missing")
        mats[name] = matrix_from_json(ops_doc[name], f"{path}.ops.{name}")
    for name, validator in (("X", require_hermitian), ("H", require_hermitian), ("S", require_unitary)):
        _validated(mats[name], f"{path}.ops.{name}", validator)
    try:
        ops = ModelOperators(X=mats["X"], H=mats["H"], L=mats["L"], S=mats["S"])
    except ValueError as exc:
        raise ConfigError(f"{path}.ops", str(exc)) from None
    _expect("K" in doc, f"{path}.K", "missing")
    k = matrix_from_json(doc["K"], f"{path}.K")
    r = _as_number(doc.get("r"), f"{path}.r") if "r" in doc else None
    _expect(r is not None, f"{path}.r", "missing")
    t_mat = _as_number(doc.get("T"), f"{path}.T") if "T" in doc else None
    _expect(t_mat is not None, f"{path}.T", "missing")
    beta0 = _as_number(doc.get("beta0", 1.0), f"{path}.beta0")
    try:
        return MarketModel(ops=ops, K=k, r=r, T=t_mat, beta0=beta0)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_tolerances(obj, path: str) -> dict:
    tols = dict(DEFAULT_TOLERANCES)
    if obj is None:
        return tols
    doc = _as_dict(obj, path)
    for name, val in doc.items():
        _expect(name in DEFAULT_TOLERANCES, f"{path}.{name}", "unknown tolerance name")
        v = _as_number(val, f"{path}.{name}")
        _expect(v > 0.0, f"{path}.{name}", "tolerance must be positive")
        tols[name] = v
    return tols


def _parse_number_grid(obj, path: str) -> list:
    vals = _as_list(obj, path)
    _expect(len(vals) > 0, path, "empty grid")
    return [_as_number(v, f"{path}[{i}]") for i, v in enumerate(vals)]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal past int's digit limit
        raise ConfigError("", f"invalid JSON: {exc}") from None
    doc = _as_dict(doc, "")
    version = _as_int(doc.get("schema_version"), "schema_version") if "schema_version" in doc else None
    _expect(version is not None, "schema_version", "missing")
    _expect(version == SCHEMA_VERSION, "schema_version", f"unsupported version {version}")

    output = doc.get("output", "json")
    _expect(output in ("json", "csv"), "output", f"unknown output format {output!r}")

    seed = _as_int(doc["seed"], "seed") if "seed" in doc else None
    if seed is not None:
        _expect(seed >= 0, "seed", "seed must be nonnegative")

    tolerances = _parse_tolerances(doc.get("tolerances"), "tolerances")

    model = _parse_model(doc["model"], "model") if "model" in doc else None

    state = None
    if "state" in doc:
        state = vector_from_json(doc["state"], "state")
        nrm = float(np.linalg.norm(state))
        _expect(abs(nrm - 1.0) <= 1e-12, "state", f"not normalized, norm {nrm!r}")
        if model is not None:
            _expect(state.size == model.dim, "state", f"length {state.size} does not match model dim {model.dim}")

    t_grid = _parse_number_grid(doc["t_grid"], "t_grid") if "t_grid" in doc else []
    for i, t in enumerate(t_grid):
        _expect(t > 0.0, f"t_grid[{i}]", "grid times must be positive")

    z_grid = []
    if "z_grid" in doc:
        entries = _as_list(doc["z_grid"], "z_grid")
        _expect(len(entries) > 0, "z_grid", "empty grid")
        for i, entry in enumerate(entries):
            z_grid.append(_validated(matrix_from_json(entry, f"z_grid[{i}]"), f"z_grid[{i}]"))

    ito_defaults = {"dims": [2, 3, 4], "k_max": 6, "trials": 100}
    ito_check = dict(ito_defaults)
    if "ito_check" in doc:
        sec = _as_dict(doc["ito_check"], "ito_check")
        if "dims" in sec:
            dims = _as_list(sec["dims"], "ito_check.dims")
            _expect(len(dims) > 0, "ito_check.dims", "empty grid")
            ito_check["dims"] = [_as_int(d, f"ito_check.dims[{i}]") for i, d in enumerate(dims)]
            for i, d in enumerate(ito_check["dims"]):
                _expect(d >= 1, f"ito_check.dims[{i}]", "dims must be >= 1")
        if "k_max" in sec:
            ito_check["k_max"] = _as_int(sec["k_max"], "ito_check.k_max")
            _expect(ito_check["k_max"] >= 2, "ito_check.k_max", "k_max must be >= 2")
        if "trials" in sec:
            ito_check["trials"] = _as_int(sec["trials"], "ito_check.trials")
            _expect(ito_check["trials"] >= 1, "ito_check.trials", "trials must be >= 1")

    terminal = {"t_small": 1e-8, "min_gap": 0.1}
    if "terminal" in doc:
        sec = _as_dict(doc["terminal"], "terminal")
        if "t_small" in sec:
            terminal["t_small"] = _as_number(sec["t_small"], "terminal.t_small")
            _expect(terminal["t_small"] > 0.0, "terminal.t_small", "must be positive")
        if "min_gap" in sec:
            terminal["min_gap"] = _as_number(sec["min_gap"], "terminal.min_gap")
            _expect(terminal["min_gap"] > 0.0, "terminal.min_gap", "must be positive")

    hedge = {"convention": "direct", "times": [], "stock": None}
    if "hedge" in doc:
        sec = _as_dict(doc["hedge"], "hedge")
        if "convention" in sec:
            _expect(
                sec["convention"] in ("direct", "classical"),
                "hedge.convention",
                f"unknown convention {sec['convention']!r}",
            )
            hedge["convention"] = sec["convention"]
        if "times" in sec:
            # an empty list is the default and means no hedge rows
            vals = _as_list(sec["times"], "hedge.times")
            hedge["times"] = [_as_number(v, f"hedge.times[{i}]") for i, v in enumerate(vals)]
        if "stock" in sec and sec["stock"] is not None:
            hedge["stock"] = _validated(matrix_from_json(sec["stock"], "hedge.stock"), "hedge.stock")

    classical = None
    if "classical" in doc:
        sec = _as_dict(doc["classical"], "classical")
        classical = {}
        for name in ("x", "t"):
            _expect(name in sec, f"classical.{name}", "missing")
            classical[name] = _parse_number_grid(sec[name], f"classical.{name}")
            for i, v in enumerate(classical[name]):
                _expect(v > 0.0, f"classical.{name}[{i}]", "must be positive")
        for name, default in (("strike", None), ("r", None), ("sigma", 1.0)):
            if name in sec:
                classical[name] = _as_number(sec[name], f"classical.{name}")
            else:
                _expect(default is not None, f"classical.{name}", "missing")
                classical[name] = default
        _expect(classical["strike"] > 0.0, "classical.strike", "must be positive")
        _expect(classical["r"] >= 0.0, "classical.r", "must be nonnegative")
        _expect(classical["sigma"] > 0.0, "classical.sigma", "must be positive")

    lindblad = {"t": [], "steps": None, "x0": None}
    if "lindblad" in doc:
        sec = _as_dict(doc["lindblad"], "lindblad")
        if "t" in sec:
            vals = _as_list(sec["t"], "lindblad.t")
            lindblad["t"] = [_as_number(v, f"lindblad.t[{i}]") for i, v in enumerate(vals)]
            for i, v in enumerate(lindblad["t"]):
                _expect(v >= 0.0, f"lindblad.t[{i}]", "must be nonnegative")
        if "steps" in sec and sec["steps"] is not None:
            lindblad["steps"] = _as_int(sec["steps"], "lindblad.steps")
            _expect(lindblad["steps"] >= 1, "lindblad.steps", "must be >= 1")
        if "x0" in sec and sec["x0"] is not None:
            lindblad["x0"] = _validated(matrix_from_json(sec["x0"], "lindblad.x0"), "lindblad.x0")

    replicate = None
    if "replicate" in doc:
        sec = _as_dict(doc["replicate"], "replicate")
        replicate = {}
        for name in ("x0", "strike", "r", "T"):
            _expect(name in sec, f"replicate.{name}", "missing")
            replicate[name] = _as_number(sec[name], f"replicate.{name}")
        for name in ("steps", "paths"):
            _expect(name in sec, f"replicate.{name}", "missing")
            replicate[name] = _as_int(sec[name], f"replicate.{name}")
        replicate["sigma"] = _as_number(sec.get("sigma", 1.0), "replicate.sigma")

    return RunConfig(
        schema_version=version,
        output=output,
        seed=seed,
        tolerances=tolerances,
        model=model,
        state=state,
        t_grid=t_grid,
        z_grid=z_grid,
        ito_check=ito_check,
        terminal=terminal,
        hedge=hedge,
        classical=classical,
        lindblad=lindblad,
        replicate=replicate,
    )


def _normalize(c: RunConfig) -> dict:
    """The canonical document of a parsed config. An optional section is
    absent exactly when its field is None (model, state, classical,
    replicate) or empty (t_grid, z_grid, which parse as non-empty)."""
    raw = {"schema_version": c.schema_version, "output": c.output}
    if c.seed is not None:
        raw["seed"] = c.seed
    raw["tolerances"] = dict(sorted(c.tolerances.items()))
    if c.model is not None:
        raw["model"] = {
            "ops": {name: matrix_to_json(getattr(c.model.ops, name)) for name in ("X", "H", "L", "S")},
            "K": matrix_to_json(c.model.K),
            "r": c.model.r,
            "T": c.model.T,
            "beta0": c.model.beta0,
        }
    if c.state is not None:
        raw["state"] = vector_to_json(c.state)
    if c.t_grid:
        raw["t_grid"] = list(c.t_grid)
    if c.z_grid:
        raw["z_grid"] = [matrix_to_json(z) for z in c.z_grid]
    # every parsed number is already a float, so the sections copy as they are
    raw["ito_check"] = {**c.ito_check, "dims": list(c.ito_check["dims"])}
    raw["terminal"] = dict(c.terminal)
    stock, x0 = c.hedge["stock"], c.lindblad["x0"]
    raw["hedge"] = {**c.hedge, "times": list(c.hedge["times"])}
    raw["hedge"]["stock"] = None if stock is None else matrix_to_json(stock)
    if c.classical is not None:
        raw["classical"] = {**c.classical, "x": list(c.classical["x"]), "t": list(c.classical["t"])}
    raw["lindblad"] = {**c.lindblad, "t": list(c.lindblad["t"])}
    raw["lindblad"]["x0"] = None if x0 is None else matrix_to_json(x0)
    if c.replicate is not None:
        raw["replicate"] = dict(c.replicate)
    return raw


def serialize_config(cfg: RunConfig) -> str:
    """Emit the normalized document; parse(serialize(cfg)) == cfg."""
    return json.dumps(cfg.raw, indent=2, sort_keys=True) + "\n"
