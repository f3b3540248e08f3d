"""Batch command-line front end.

One command per invocation; a JSON (or CSV) report on stdout, errors on
stderr. Exit codes: 0 success, 2 configuration error, 3 a checked
invariant failed, 4 numerical error (an eigensolver failed to converge,
or an Ito power or e^z left float range).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import SCHEMA_VERSION, ConfigError, RunConfig, _json_text, apply_overrides, parse_config
from .flows import default_steps, flow_coefficients, power_rule_deviation, semigroup_evolve
from .operators import hermitian_defect
from .pricing import classical_bs, moneyness, replication_simulation, stock_moneyness
from .sampling import random_model

COMMANDS = (
    "coeffs",
    "ito-check",
    "price",
    "residual",
    "terminal-check",
    "hedge",
    "classical",
    "lindblad",
    "replicate",
)

# matrix entries per (models, d, d) stack in ito-check
_STACK_ENTRIES = 1 << 14

# characters per stdout write of a report (see _emit)
_EMIT_CHUNK = 1 << 20

# the errors of a command run without a config entry that several commands need
_NO_MODEL = "a model section required for this command"
_NO_SEED = "a seed is required for stochastic commands"


class RunReport(NamedTuple):
    """One command's output. Result rows hold scalars and complex ndarrays;
    render_json writes each ndarray as nested [re, im] pairs."""

    command: str
    seed: int | None
    tolerances: dict
    results: list
    invariant_violations: list
    wall_time_s: float | None


def _need(value, path: str, message: str):
    """value, the config entry at path; unset or empty, a ConfigError."""
    if value is None or (isinstance(value, (list, dict)) and not value):
        raise ConfigError(path, message)
    return value


def _cmd_coeffs(cfg: RunConfig):
    model = _need(cfg.model, "model", _NO_MODEL)
    fc = flow_coefficients(model.ops.X, model.ops)
    result = {
        "alpha": fc.alpha,
        "alpha_dagger": fc.alpha_dagger,
        "lambda": fc.lam,
        "theta": fc.theta,
        "max_abs_alpha": float(np.max(np.abs(fc.alpha))),
        "max_abs_lambda": float(np.max(np.abs(fc.lam))),
        "max_abs_theta": float(np.max(np.abs(fc.theta))),
    }
    return [result], []


def _cmd_ito_check(cfg: RunConfig):
    seed = _need(cfg.seed, "seed", _NO_SEED)
    tol = cfg.tolerances["power_rule"]
    trials = cfg.ito_check["trials"]
    # numpy.random is a sizeable import that only the seeded commands need
    from numpy.random import default_rng

    rng = default_rng(seed)
    results = []
    violations = []
    for dim in cfg.ito_check["dims"]:
        worst = 0.0
        # models are drawn one at a time, in trial order, and checked a
        # bounded stack at a time
        per_stack = max(1, _STACK_ENTRIES // (dim * dim))
        for start in range(0, trials, per_stack):
            models = [random_model(rng, dim) for _ in range(min(per_stack, trials - start))]
            stacks = [np.stack([getattr(m, name) for m in models]) for name in "XHLS"]
            deviation = power_rule_deviation(*stacks, cfg.ito_check["k_max"])
            worst = max(worst, float(deviation.max()))
        passed = worst <= tol
        results.append(
            {
                "dim": dim,
                "trials": trials,
                "k_max": cfg.ito_check["k_max"],
                "max_relative_deviation": worst,
                "passed": passed,
            }
        )
        if not passed:
            violations.append(f"power rule deviation {worst:.6e} exceeds {tol:.6e} at dim {dim}")
    return results, violations


def _grid(cfg: RunConfig) -> list:
    """(t, z_index, moneyness of z) at each grid point, t-major, one moneyness per z."""
    model = _need(cfg.model, "model", _NO_MODEL)
    t_grid = _need(cfg.t_grid, "t_grid", "a t_grid required for this command")
    z_grid = _need(cfg.z_grid, "z_grid", "a z_grid required for this command")
    spectra = [moneyness(z, model.K, f"z_grid[{i}]") for i, z in enumerate(z_grid)]
    return [(t, i, m) for t in t_grid for i, m in enumerate(spectra)]


def _cmd_price(cfg: RunConfig):
    results = []
    for t, i, m in _grid(cfg):
        quote, low, high = m.price_extremes(t, cfg.model.r, cfg.state)
        results.append(
            {
                "t": t,
                "z_index": i,
                "omega": quote.omega,
                "omega_min_eigenvalue": low,
                "omega_max_eigenvalue": high,
                "omega_expectation": quote.omega_expectation,
            }
        )
    return results, []


def _cmd_residual(cfg: RunConfig):
    tol = cfg.tolerances["residual_eq8"]
    results = []
    violations = []
    for t, i, m in _grid(cfg):
        rep = m.residual(t, cfg.model.r, tol)
        results.append(
            {
                "t": t,
                "z_index": i,
                "residual_norm": rep.residual_norm,
                "tolerance": rep.tolerance,
                "passed": rep.passed,
            }
        )
        if not rep.passed:
            violations.append(
                f"residual {rep.residual_norm:.6e} exceeds {tol:.6e} at t={t}, z_index={i}"
            )
    return results, violations


def _cmd_terminal_check(cfg: RunConfig):
    model = _need(cfg.model, "model", _NO_MODEL)
    z_grid = _need(cfg.z_grid, "z_grid", "a z_grid required for this command")
    base = cfg.tolerances["terminal"]
    t_small = cfg.terminal["t_small"]
    min_gap = cfg.terminal["min_gap"]
    results = []
    violations = []
    for i, z in enumerate(z_grid):
        m = moneyness(z, model.K, f"z_grid[{i}]")
        rep, payoff = m.terminal(t_small, model.r, min_gap, base)
        deviation, tol = rep.residual_norm, rep.tolerance
        expectation_payoff = None
        if cfg.state is not None:
            expectation_payoff = m.payoff("expectation", cfg.state)
        results.append(
            {
                "z_index": i,
                "t_small": t_small,
                "deviation": deviation,
                "tolerance": tol,
                "passed": rep.passed,
                "payoff_spectral": payoff,
                "payoff_expectation": expectation_payoff,
            }
        )
        if not rep.passed:
            violations.append(f"terminal deviation {deviation:.6e} exceeds {tol:.6e} at z_index={i}")
    return results, violations


def _cmd_hedge(cfg: RunConfig):
    model = _need(cfg.model, "model", _NO_MODEL)
    times = _need(cfg.hedge["times"], "hedge.times", "at least one time required")
    stock, path = cfg.hedge["stock"], "hedge.stock"
    if stock is None:
        stock, path = model.ops.X, "model.ops.X"
    convention = cfg.hedge["convention"]
    tol = cfg.tolerances["hedge_value"]
    results = []
    violations = []
    try:
        m = stock_moneyness(stock, model.K)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:  # its checks against K call the stock X
        raise ConfigError(path, str(exc)) from None
    for t in times:
        pos, omega = m.hedge(t, stock, model, convention)
        defect = float(np.linalg.norm(pos.value - omega))
        passed = defect <= tol * max(1.0, float(np.linalg.norm(omega)))
        results.append(
            {
                "t": t,
                "convention": convention,
                "a": pos.a,
                "b": pos.b,
                "value": pos.value,
                "reconstruction_error": defect,
                "passed": passed,
            }
        )
        if not passed:
            violations.append(f"hedge value mismatch {defect:.6e} at t={t}")
    return results, violations


def _cmd_classical(cfg: RunConfig):
    sec = _need(cfg.classical, "classical", "a classical section required for this command")
    strike, r, sigma = sec["strike"], sec["r"], sec["sigma"]
    tol = cfg.tolerances["classical_match"]
    results = []
    violations = []
    for x in sec["x"]:
        # the d = 1 operator price at unit volatility, in time sigma^2 t and
        # rate r / sigma^2 (parse_config keeps all three in float range).
        # Both prices are x Phi(g) - strike e^(-rt) Phi(h), so they round
        # to within about eps max(x, strike), not eps |price|.
        m = moneyness(np.array([[math.log(x / strike)]]), np.array([[strike]]))
        for t in sec["t"]:
            value, delta = classical_bs(x, strike, r, sigma, t)
            operator_price = float(m.price(sigma * sigma * t, r / (sigma * sigma)).omega[0, 0].real)
            mismatch = abs(value - operator_price)
            if not mismatch <= tol * max(1.0, x, strike):
                violations.append(f"classical price mismatch {mismatch:.6e} at x={x}, t={t}")
            results.append(
                {
                    "x": x,
                    "t": t,
                    "strike": strike,
                    "r": r,
                    "sigma": sigma,
                    "price": value,
                    "delta": delta,
                }
            )
    return results, violations


def _cmd_lindblad(cfg: RunConfig):
    model = _need(cfg.model, "model", _NO_MODEL)
    t_list = _need(cfg.lindblad["t"], "lindblad.t", "at least one time required")
    x0 = cfg.lindblad["x0"] if cfg.lindblad["x0"] is not None else model.ops.X
    tol = cfg.tolerances["semigroup"]
    results = []
    violations = []
    for t in t_list:
        steps = cfg.lindblad["steps"]
        if steps is None:
            steps = default_steps(t)
        out = semigroup_evolve(x0, model.ops, t, steps=steps)
        # step doubling: the same time at twice the steps estimates the error of out
        error = float(np.linalg.norm(out - semigroup_evolve(x0, model.ops, t, steps=2 * steps)))
        defect = hermitian_defect(out)
        scale = max(1.0, float(np.linalg.norm(out)))
        hermitian = defect <= 1e-9 * scale
        converged = error <= tol * scale
        results.append(
            {
                "t": t,
                "steps": steps,
                "x_t": out,
                "hermiticity_defect": defect,
                "passed": hermitian and converged,
            }
        )
        if not hermitian:
            violations.append(f"semigroup output lost Hermiticity ({defect:.6e}) at t={t}")
        if not converged:
            violations.append(
                f"step-doubling error {error:.6e} exceeds {tol * scale:.6e} at t={t}, steps={steps}"
            )
    return results, violations


def _cmd_replicate(cfg: RunConfig):
    sec = _need(cfg.replicate, "replicate", "a replicate section required for this command")
    seed = _need(cfg.seed, "seed", _NO_SEED)
    stats = replication_simulation(
        sec["x0"],
        sec["strike"],
        sec["r"],
        sec["T"],
        sec["steps"],
        sec["paths"],
        seed,
        sigma=sec["sigma"],
    )
    result = {
        "x0": sec["x0"],
        "strike": sec["strike"],
        "r": sec["r"],
        "T": sec["T"],
        "steps": stats.steps,
        "paths": stats.paths,
        "seed": stats.seed,
        "initial_price": stats.initial_price,
        "mean_error": stats.mean_error,
        "std_error": stats.std_error,
        "mean_abs_error": stats.mean_abs_error,
    }
    return [result], []


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "ito-check": _cmd_ito_check,
    "price": _cmd_price,
    "residual": _cmd_residual,
    "terminal-check": _cmd_terminal_check,
    "hedge": _cmd_hedge,
    "classical": _cmd_classical,
    "lindblad": _cmd_lindblad,
    "replicate": _cmd_replicate,
}


def run(cfg: RunConfig, command: str, timing: bool = True) -> RunReport:
    """Execute one command against a validated configuration."""
    if command not in _DISPATCH:
        raise ConfigError("command", f"unknown command {command!r}")
    started = time.perf_counter()
    results, violations = _DISPATCH[command](cfg)
    elapsed = time.perf_counter() - started
    return RunReport(
        command=command,
        seed=cfg.seed,
        tolerances=dict(sorted(cfg.tolerances.items())),
        results=results,
        invariant_violations=violations,
        wall_time_s=elapsed if timing else None,
    )


def render_json(report: RunReport) -> str:
    """The report as json.dumps(doc, indent=2) would write it, matrices as
    nested [re, im] pairs."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": report.command,
        "seed": report.seed,
        "tolerances": report.tolerances,
        "results": report.results,
        "invariant_violations": report.invariant_violations,
        "wall_time_s": report.wall_time_s,
    }
    return _json_text(doc)


def render_csv(report: RunReport) -> str:
    """Scalar columns of each result row; matrices stay in the JSON form."""
    import csv
    import io

    scalar_keys = []
    for row in report.results:
        for key, val in row.items():
            if isinstance(val, (int, float, str, bool)) or val is None:
                if key not in scalar_keys:
                    scalar_keys.append(key)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(scalar_keys)
    for row in report.results:
        writer.writerow([row.get(k, "") for k in scalar_keys])
    return buf.getvalue()


def _parse_tol_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError("--tol", f"expected NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError("--tol", f"bad value in {pair!r}") from None
    return out


def _emit(text: str) -> None:
    """Write text to stdout _EMIT_CHUNK characters at a time. One write of a
    multi-MB str encodes it into a bytes copy as large, and whether the
    allocator can place that copy in memory the process already holds
    varies from run to run; a slice always fits."""
    for start in range(0, len(text), _EMIT_CHUNK):
        sys.stdout.write(text[start : start + _EMIT_CHUNK])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbs",
        description="Operator-valued Black-Scholes toolkit: coefficient checks, pricing, residuals, hedging, Monte Carlo.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--tol",
        action="append",
        metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    parser.add_argument(
        "--omit-timing",
        action="store_true",
        help="drop wall time from the report for byte-stable output",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        apply_overrides(cfg, _parse_tol_overrides(args.tol), args.seed)
        report = run(cfg, args.command, timing=not args.omit_timing)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    use_csv = args.csv or cfg.output == "csv"
    _emit(render_csv(report) if use_csv else render_json(report))
    return 3 if report.invariant_violations else 0


if __name__ == "__main__":
    sys.exit(main())
