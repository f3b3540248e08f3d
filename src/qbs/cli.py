"""Batch command-line front end.

One command per invocation; a JSON (or CSV) report on stdout, errors on
stderr. Exit codes: 0 success, 1 stdout closed before the report was
written, 2 configuration error (or a size whose arrays cannot be
allocated), 3 a checked invariant failed, 4 numerical error (an eigensolver or its Jacobi
sweeps failed to converge, an Ito power, e^z, a lindblad X_t, step count or
default step count 1000 t, or a replicate step count, growth factor
e^(r dt) or hedging error moment left float range, or a priced operator or
a hedge's a j_x or b could overflow).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from collections.abc import Iterator
from itertools import chain, repeat
from operator import itemgetter

# BLAS on more threads sums in another order, and a report's last bits would
# follow the thread count: one thread, set before numpy loads
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

from . import __version__
from .config import SCHEMA_VERSION, ConfigError, RunConfig, apply_overrides, at_path, pair_array, read_config
from .flows import default_steps, flow_coefficients, power_rule_deviation, semigroup_evolve
from .operators import relative_gap
from .pricing import classical_bs, hermitian_moneyness, hermitian_stock_moneyness, moneyness, replication_simulation
from .sampling import random_model_stacks

# matrix entries per (models, d, d) stack in ito-check
_STACK_ENTRIES = 1 << 14

# the errors of a command run without a config entry that several commands need
_NO_MODEL = "a model section required for this command"
_NO_SEED = "a seed is required for stochastic commands"


def _need(value, path: str, message: str):
    """value, the config entry at path; unset or empty, a ConfigError."""
    if value is None or (isinstance(value, (list, dict)) and not value):
        raise ConfigError(path, message)
    return value


def _cmd_coeffs(cfg: RunConfig):
    model = _need(cfg.model, "model", _NO_MODEL)
    flows = [flow_coefficients(model.ops.X, model.ops)]
    rows = (
        {
            "alpha": fc.alpha,
            "alpha_dagger": fc.alpha_dagger,
            "lambda": fc.lam,
            "theta": fc.theta,
            "max_abs_alpha": float(np.max(np.abs(fc.alpha))),
            "max_abs_lambda": float(np.max(np.abs(fc.lam))),
            "max_abs_theta": float(np.max(np.abs(fc.theta))),
        }
        for fc in flows
    )
    return rows, []


def _cmd_ito_check(cfg: RunConfig):
    seed = _need(cfg.seed, "seed", _NO_SEED)
    tol = cfg.tolerances["power_rule"]
    trials, k_max = cfg.ito_check["trials"], cfg.ito_check["k_max"]
    # numpy.random is a sizeable import that only the seeded commands need
    from numpy.random import default_rng

    rng = default_rng(seed)
    worsts = []
    violations = []
    for dim in cfg.ito_check["dims"]:
        worst = 0.0
        # models are drawn and checked a bounded stack at a time, in trial
        # order, as one random_model call per trial would draw them
        per_stack = max(1, _STACK_ENTRIES // (dim * dim))
        for start in range(0, trials, per_stack):
            count = min(per_stack, trials - start)
            deviation = at_path("ito_check", lambda: power_rule_deviation(*random_model_stacks(rng, count, dim), k_max))
            worst = max(worst, float(deviation.max()))
        worsts.append((dim, worst))
        if not worst <= tol:
            violations.append(f"power rule deviation {worst:.6e} exceeds {tol:.6e} at dim {dim}")
    rows = (
        {"dim": dim, "trials": trials, "k_max": k_max, "max_relative_deviation": worst, "passed": worst <= tol}
        for dim, worst in worsts
    )
    return rows, violations


def _grid(cfg: RunConfig) -> list:
    """(t, z_index, moneyness of z) at each grid point, t-major, one moneyness per z."""
    model = _need(cfg.model, "model", _NO_MODEL)
    t_grid = _need(cfg.t_grid, "t_grid", "a t_grid required for this command")
    z_grid = _need(cfg.z_grid, "z_grid", "a z_grid required for this command")
    spectra = [hermitian_moneyness(z, model.K, f"z_grid[{i}]") for i, z in enumerate(z_grid)]
    return [(t, i, m) for t in t_grid for i, m in enumerate(spectra)]


def _cmd_price(cfg: RunConfig):
    points = [(t, i, m, *m.price_extremes(t, cfg.model.r)) for t, i, m in _grid(cfg)]

    def row(t: float, i: int, m, w, low: float, high: float) -> dict:
        quote = m.quote(w, cfg.state)
        return {
            "t": t,
            "z_index": i,
            "omega": quote.omega,
            "omega_min_eigenvalue": low,
            "omega_max_eigenvalue": high,
            "omega_expectation": quote.omega_expectation,
        }

    return (row(*point) for point in points), []


def _cmd_residual(cfg: RunConfig):
    tol, fd_tol = cfg.tolerances["residual_eq8"], cfg.tolerances["derivative_fd"]
    reports = []
    violations = []
    for t, i, m in _grid(cfg):
        rep, gap = m.residual(t, cfg.model.r, tol)
        reports.append((t, i, rep))
        if not rep.passed:
            violations.append(f"residual {rep.residual_norm:.6e} exceeds {tol:.6e} at t={t}, z_index={i}")
        if not gap <= fd_tol:
            violations.append(f"derivative gap {gap:.6e} exceeds {fd_tol:.6e} at t={t}, z_index={i}")
    rows = (
        {"t": t, "z_index": i, "residual_norm": rep.residual_norm, "tolerance": rep.tolerance, "passed": rep.passed}
        for t, i, rep in reports
    )
    return rows, violations


def _cmd_terminal_check(cfg: RunConfig):
    model = _need(cfg.model, "model", _NO_MODEL)
    z_grid = _need(cfg.z_grid, "z_grid", "a z_grid required for this command")
    base = cfg.tolerances["terminal"]
    t_small = cfg.terminal["t_small"]
    min_gap = cfg.terminal["min_gap"]
    checked = []
    violations = []
    for i, z in enumerate(z_grid):
        name = f"z_grid[{i}]"
        m = hermitian_moneyness(z, model.K, name)
        rep, payoff = m.terminal(t_small, model.r, min_gap, base, name)
        expectation_payoff = None if cfg.state is None else m.payoff("expectation", cfg.state)
        checked.append((i, rep, payoff, expectation_payoff))
        if not rep.passed:
            violations.append(f"terminal deviation {rep.residual_norm:.6e} exceeds {rep.tolerance:.6e} at z_index={i}")
    rows = (
        {
            "z_index": i,
            "t_small": t_small,
            "deviation": rep.residual_norm,
            "tolerance": rep.tolerance,
            "passed": rep.passed,
            "payoff_spectral": payoff,
            "payoff_expectation": expectation_payoff,
        }
        for i, rep, payoff, expectation_payoff in checked
    )
    return rows, violations


def _cmd_hedge(cfg: RunConfig):
    model = _need(cfg.model, "model", _NO_MODEL)
    times = _need(cfg.hedge["times"], "hedge.times", "at least one time required")
    stock, path = cfg.hedge["stock"], "hedge.stock"
    if stock is None:
        stock, path = model.ops.X, "model.ops.X"
    convention = cfg.hedge["convention"]
    tol = cfg.tolerances["hedge_value"]
    violations = []
    m = at_path(path, hermitian_stock_moneyness, stock, model.K)  # its checks against K call the stock X
    spectra = [(t, m.hedge_spectra(t, model, convention)) for t in times]

    def row(t: float, spectrum) -> dict:
        pos, omega = m.position(*spectrum, stock, model)
        defect, _, passed = relative_gap(omega, pos.value, tol)
        if not passed:
            violations.append(f"hedge value mismatch {defect:.6e} at t={t}")
        return {
            "t": t,
            "convention": convention,
            "a": pos.a,
            "b": pos.b,
            "value": pos.value,
            "reconstruction_error": defect,
            "passed": passed,
        }

    return (row(t, spectrum) for t, spectrum in spectra), violations


def _cmd_classical(cfg: RunConfig):
    sec = _need(cfg.classical, "classical", "a classical section required for this command")
    strike, r, sigma = sec["strike"], sec["r"], sec["sigma"]
    tol = cfg.tolerances["classical_match"]
    prices = []
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
            prices.append((x, t, value, delta))
    rows = (
        {"x": x, "t": t, "strike": strike, "r": r, "sigma": sigma, "price": value, "delta": delta}
        for x, t, value, delta in prices
    )
    return rows, violations


def _cmd_lindblad(cfg: RunConfig):
    model = _need(cfg.model, "model", _NO_MODEL)
    t_list = _need(cfg.lindblad["t"], "lindblad.t", "at least one time required")
    x0 = cfg.lindblad["x0"] if cfg.lindblad["x0"] is not None else model.ops.X
    tol = cfg.tolerances["semigroup"]
    evolved = []
    violations = []
    for t in t_list:
        steps = cfg.lindblad["steps"]
        if steps is None:
            steps = default_steps(t)
        out = semigroup_evolve(x0, model.ops, t, steps=steps)
        # step doubling: the same time at twice the steps estimates the error of out
        error, bound, converged = relative_gap(out, semigroup_evolve(x0, model.ops, t, steps=2 * steps), tol)
        defect, _, hermitian = relative_gap(out, out.conj().T, 1e-9)
        evolved.append((t, steps, out, defect, hermitian and converged))
        if not hermitian:
            violations.append(f"semigroup output lost Hermiticity ({defect:.6e}) at t={t}")
        if not converged:
            violations.append(f"step-doubling error {error:.6e} exceeds {bound:.6e} at t={t}, steps={steps}")
    rows = (
        {"t": t, "steps": steps, "x_t": out, "hermiticity_defect": defect, "passed": passed}
        for t, steps, out, defect, passed in evolved
    )
    return rows, violations


def _cmd_replicate(cfg: RunConfig):
    sec = _need(cfg.replicate, "replicate", "a replicate section required for this command")
    seed = _need(cfg.seed, "seed", _NO_SEED)
    if seed >> 128:  # the key of the Philox stream that path p jumps to
        raise ConfigError("seed", f"replicate takes a seed below 2**128, got one of {seed.bit_length()} bits")
    runs = [at_path("replicate", lambda: replication_simulation(seed=seed, **sec))]
    rows = (
        {
            **{key: sec[key] for key in ("x0", "strike", "r", "T")},
            "steps": stats.steps,
            "paths": stats.paths,
            "seed": stats.seed,
            "initial_price": stats.initial_price,
            "mean_error": stats.mean_error,
            "std_error": stats.std_error,
            "mean_abs_error": stats.mean_abs_error,
        }
        for stats in runs
    )
    return rows, []


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
COMMANDS = tuple(_DISPATCH)


def run(cfg: RunConfig, command: str, timing: bool = True) -> dict:
    """Execute one command against a validated configuration and return its
    report document; every step that can raise has run by then. results is
    a one-shot iterator of rows, each assembled as it is read and held by
    nothing once written. Rows hold scalars and complex ndarrays, which
    render_json writes as nested [re, im] pairs. invariant_violations is
    complete once results is read (a hedge row's reconstruction check runs
    as it is read); with timing on, each row's assembly is added to
    wall_time_s as it is."""
    if command not in _DISPATCH:
        raise ConfigError("command", f"unknown command {command!r}")
    started = time.perf_counter()
    results, violations = _DISPATCH[command](cfg)
    report = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": command,
        "seed": cfg.seed,
        "tolerances": dict(sorted(cfg.tolerances.items())),
        "results": results,
        "invariant_violations": violations,
        "wall_time_s": time.perf_counter() - started if timing else None,
    }
    if timing:
        report["results"] = _timed(results, report)
    return report


def _timed(rows, report: dict):
    """Each of rows, adding the time it takes to get to report["wall_time_s"];
    a row is not held once it is read."""

    def timed_next():
        started = time.perf_counter()
        row = next(rows, None)
        report["wall_time_s"] += time.perf_counter() - started
        return row

    return iter(timed_next, None)


_INDENT = "  "

# the factors that take an [re, im] pair to its conjugate
_CONJUGATE = np.array([1.0, -1.0])

_unsigned = itemgetter(slice(1, None))  # "-1.5" -> "1.5"


# the rows of an array whose number texts are made at once
_BLOCK_ROWS = 8


def _row_texts(pairs: np.ndarray):
    """Yield the texts of the numbers of each row of a non-empty (d, d, 2)
    pair array, a list per row, made _BLOCK_ROWS rows at a time (the render
    of a d = 128 Hermitian matrix peaks at 0.98 MB under tracemalloc):
    float.__repr__ of each, json.dumps of a non-finite one. Only the
    numbers on and above the diagonal get a repr: an entry below it that
    equals its mirror's conjugate takes the mirror's texts, kept until
    then, the imaginary one with its sign toggled. Equal doubles have
    equal bits, and so equal texts, unless they are zeros (0.0 == -0.0);
    NaNs equal nothing. So a zero, a NaN and any entry of a matrix that is
    not Hermitian get their own repr.

    Every test here is a float64 comparison, as elsewhere in a report: a
    uint64 XOR or an integer index mask would fault in numpy loop code that
    no other step of a small job touches, about 0.15 MB of peak RSS."""
    dim = len(pairs)
    index = np.arange(dim, dtype=np.float64)
    texts = np.empty(pairs.shape, dtype=object)  # those of the block and those not yet mirrored
    mirror = texts.transpose(1, 0, 2)
    for start in range(0, dim, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = pairs[rows]
        below = (index < index[rows, None])[..., None]
        with np.errstate(invalid="ignore"):  # a signalling NaN; NaNs take no mirror
            reuse = (block == pairs[:, rows].transpose(1, 0, 2) * _CONJUGATE) & (block != 0.0) & below
        made = texts[rows]
        own = ~reuse
        made[own] = list(map(float.__repr__, block[own].tolist()))
        re = reuse[..., 0]
        neg = reuse[..., 1] & (block[..., 1] < 0.0)
        pos = reuse[..., 1] & ~neg
        made[..., 0][re] = mirror[rows, :, 0][re]
        made[..., 1][neg] = np.add("-", mirror[rows, :, 1][neg])
        made[..., 1][pos] = list(map(_unsigned, mirror[rows, :, 1][pos]))
        out = made.ravel().tolist()
        made[:, :start] = None  # these rows' mirrored texts, and the texts
        mirror[rows] = None  # in their columns, which they mirror, are done
        flat = block.ravel()
        for i in np.flatnonzero(~np.isfinite(flat)).tolist():
            out[i] = json.dumps(flat[i].item())
        for first in range(0, len(out), 2 * dim):
            yield out[first : first + 2 * dim]
        del out  # before the next block's texts are made


def _pairs_text(pairs: np.ndarray, level: int):
    """Yield json.dumps(pairs.tolist(), indent=2) as it reads at nesting
    level, for a non-empty (d, d, 2) pair array, one piece per matrix row:
    the numbers come from _row_texts, and the text after each from one of
    the separators below."""
    dim = len(pairs)
    pad = ["\n" + _INDENT * (level + k) for k in range(4)]
    out = [""] * (4 * dim)
    out[1::4] = [f",{pad[3]}"] * dim  # after a real part
    out[3::4] = [f"{pad[2]}],{pad[2]}[{pad[3]}"] * dim  # after an imaginary part
    out[-1] = f"{pad[2]}]{pad[1]}],{pad[1]}[{pad[2]}[{pad[3]}"  # between rows
    for i, texts in enumerate(_row_texts(pairs)):
        out[0::2] = texts
        if i == 0:
            out[0] = f"[{pad[1]}[{pad[2]}[{pad[3]}{out[0]}"
        if i == dim - 1:
            out[-1] = f"{pad[2]}]{pad[1]}]{pad[0]}]"
        yield "".join(out)


def _write(value, level: int):
    """Yield json.dumps(value, indent=2) as it reads at nesting level, in
    pieces: each ndarray as the nested [re, im] pairs of pair_array, a
    square matrix one piece per row (_pairs_text) and any other array,
    which no report holds, as the list of its pairs; and each iterator as
    its list, read once. Object keys must be strings."""
    if isinstance(value, np.ndarray):
        pairs = pair_array(value)
        if pairs.ndim == 3 and pairs.size and len(pairs) == pairs.shape[1]:
            yield from _pairs_text(pairs, level)
        else:
            yield from _write(pairs.tolist(), level)
    elif isinstance(value, dict) and value:
        pad = "\n" + _INDENT * (level + 1)
        for sep, (key, item) in zip(chain("{", repeat(",")), value.items()):
            yield f"{sep}{pad}{json.dumps(key)}: "
            yield from _write(item, level + 1)
        yield "\n" + _INDENT * level + "}"
    elif isinstance(value, (list, tuple, Iterator)):
        pad = "\n" + _INDENT * (level + 1)
        sep = "["
        for item in value:
            yield sep + pad
            yield from _write(item, level + 1)
            sep = ","
            del item  # an iterator's item is dropped before the next is read
        yield "[]" if sep == "[" else "\n" + _INDENT * level + "]"
    else:
        yield json.dumps(value)


def render_json(report: dict, out) -> None:
    """Write the report to the text stream out as json.dumps(report, indent=2)
    writes it, plus a newline, with each ndarray as nested [re, im] pairs
    and each iterator as its list. Every array a report holds is a square
    matrix, and goes out a row at a time as it renders (any other array
    goes through the list writer): of a d = 128 report (up to 24 MB) no
    more is held at once than the row being written (for price, one omega)
    and the texts that _row_texts keeps."""
    out.writelines(_write(report, 0))
    out.write("\n")


def render_csv(report: dict, out) -> None:
    """Write the scalar columns of each result row to the text stream out;
    matrices stay in the JSON form. The rows are read once."""
    import csv

    scalar = (int, float, str, type(None))  # bool is an int
    rows = [{key: val for key, val in row.items() if isinstance(val, scalar)} for row in report["results"]]
    scalar_keys = list(dict.fromkeys(key for row in rows for key in row))
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(scalar_keys)
    for row in rows:
        writer.writerow([row.get(k, "") for k in scalar_keys])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbs",
        description="Operator-valued Black-Scholes toolkit: coefficient checks, pricing, residuals, hedging, Monte Carlo.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--omit-timing",
        action="store_true",
        help="drop wall time from the report for byte-stable output",
    )
    return parser


def _release_free_heap() -> None:
    """Hand the free pages of the C heap back to the OS: glibc's
    malloc_trim(0), and nothing where the C library has no such call.
    Importing qbs from source, as a job does without a bytecode cache,
    leaves the compiler's freed buffers there, resident until reused, and
    a small job's peak RSS would count them."""
    if sys.platform.startswith("linux"):
        import ctypes  # numpy has loaded it already

        trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
        if trim is not None:
            trim(0)


def main(argv=None) -> int:
    """Run one command and return its exit code. Called as the program
    (argv None, arguments from sys.argv), it first hands the free heap
    that the imports left back to the OS, and last, on every exit path,
    freezes the heap: the report is written by then, and the interpreter's
    shutdown collections have nothing left to walk or free. Streams are
    still flushed and atexit handlers still run. A stdout that its reader
    closed is exit 1, with one line on stderr."""
    if argv is not None:
        return _main(argv)
    _release_free_heap()
    try:
        code = _main(argv)
        sys.stdout.flush()  # so that a closed stdout shows here, not at shutdown
        return code
    except BrokenPipeError as exc:
        # what stdout still buffers goes to devnull at shutdown, so that the
        # interpreter prints no "Exception ignored" and keeps the exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    finally:
        gc.freeze()


def _main(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = read_config(args.config)
        apply_overrides(cfg, args.seed)
        try:
            report = run(cfg, args.command, timing=not args.omit_timing)
        except ConfigError as exc:  # a command's own rule on the seed, which the flag may have set
            if exc.path != "seed" or args.seed is None:
                raise
            raise ConfigError("--seed", str(exc).removeprefix("seed: ")) from None
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError, MemoryError) as exc:  # OSError: the config could not be read
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    render = render_csv if cfg.output == "csv" else render_json
    render(report, sys.stdout)
    return 3 if report["invariant_violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
