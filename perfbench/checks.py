"""Output checks for every benchmark job, independent of the qbs library.

No check asks for byte equality, so last-ulp drift is not a failure:

- shipped configs: every number is within ``RTOL * max(1, |reference|)`` of
  the stored report in ``reference.json``; integers, strings and flags
  match exactly;
- the d = 128 market: matrices are within ``RTOL`` (relative Frobenius
  norm) of the scalar call formula applied in the eigenbasis U that the
  inputs were built in;
- ``replicate``: the initial price is the scalar Black-Scholes value, and
  the mean hedging error is within ``MC_SIGMAS`` standard errors of 0;
- ``ito-check``: every dimension passes the power-rule tolerance.

A check returns a list of mismatch messages; empty means the job passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import SPECTRAL_HEDGE_TIMES, SPECTRAL_T_GRID, Market

RTOL = 1e-9
MC_SIGMAS = 5.0

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _phi(v: np.ndarray) -> np.ndarray:
    return np.array([0.5 * math.erfc(-float(a) / math.sqrt(2.0)) for a in v])


def _call(k, z, t: float, r: float):
    """Scalar call price and stock weight x Phi(g) per eigenvalue (x = k e^z)."""
    g = z / math.sqrt(t) + (r + 0.5) * math.sqrt(t)
    h = g - math.sqrt(t)
    x = k * np.exp(z)
    return x * _phi(g) - k * math.exp(-r * t) * _phi(h), x * _phi(g)


def _matrix(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _close(got, want, what: str) -> list:
    err = float(np.linalg.norm(got - want))
    scale = max(1.0, float(np.linalg.norm(want)))
    return [] if err <= RTOL * scale else [f"{what}: off by {err:.3e} (scale {scale:.3e})"]


def _compare(got, want, path: str) -> list:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys differ"]
        return [m for key in want for m in _compare(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) <= RTOL * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} vs reference {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} vs reference {want!r}"]


def check_reference(report: dict, command: str, config: str) -> list:
    return _compare(report, REFERENCE[f"{command} {config}"], command)


def _rows(report: dict, count: int) -> list:
    if len(report["results"]) != count:
        return [f"expected {count} rows, got {len(report['results'])}"]
    return [f"row {i} did not pass" for i, row in enumerate(report["results"]) if row.get("passed") is False]


def check_market(report: dict, command: str, m: Market) -> list:
    """The d = 128 jobs against scalar formulas in the construction basis."""
    if command == "price":
        bad = _rows(report, len(SPECTRAL_T_GRID) * len(m.z))
        for row in report["results"] if not bad else ():
            w, _ = _call(m.k, m.z[row["z_index"]], row["t"], m.r)
            what = f"price t={row['t']} z{row['z_index']}"
            bad += _close(_matrix(row["omega"]), m.matrix(w), what)
            span = max(1.0, float(np.max(np.abs(w))))
            if abs(row["omega_min_eigenvalue"] - w.min()) > RTOL * span:
                bad.append(f"{what}: smallest eigenvalue")
            if abs(row["omega_max_eigenvalue"] - w.max()) > RTOL * span:
                bad.append(f"{what}: largest eigenvalue")
        return bad
    if command == "residual":
        return _rows(report, len(SPECTRAL_T_GRID) * len(m.z))
    if command == "terminal-check":
        bad = _rows(report, len(m.z))
        for row in report["results"] if not bad else ():
            z = m.z[row["z_index"]]
            payoff = np.maximum(m.k * np.exp(z) - m.k, 0.0)
            bad += _close(_matrix(row["payoff_spectral"]), m.matrix(payoff), f"payoff z{row['z_index']}")
        return bad
    if command == "hedge":
        bad = _rows(report, len(SPECTRAL_HEDGE_TIMES))
        z_t = np.log(m.x) - np.log(m.k)
        for row in report["results"] if not bad else ():
            t = row["t"]
            w, a = _call(m.k, z_t, m.T - t, m.r)
            b = (w - a * m.x) * math.exp(-m.r * t)
            for name, want in (("a", a), ("b", b), ("value", w)):
                bad += _close(_matrix(row[name]), m.matrix(want), f"hedge t={t} {name}")
        return bad
    raise ValueError(f"no market check for {command!r}")


def check_replicate(report: dict, seed: int) -> list:
    row = report["results"][0]
    bad = [] if row["seed"] == seed else [f"seed {row['seed']} is not {seed}"]
    x, k = row["x0"], row["strike"]
    value = float(_call(np.array([k]), np.array([math.log(x / k)]), row["T"], row["r"])[0][0])
    if abs(row["initial_price"] - value) > RTOL * max(1.0, value):
        bad.append(f"initial price {row['initial_price']!r} vs Black-Scholes {value!r}")
    sem = row["std_error"] / math.sqrt(row["paths"])
    if not abs(row["mean_error"]) <= MC_SIGMAS * sem:
        bad.append(f"mean hedging error {row['mean_error']:.3e} beyond {MC_SIGMAS} x {sem:.3e}")
    return bad


def check_ito(report: dict, seed: int) -> list:
    tol = report["tolerances"]["power_rule"]
    bad = [] if report["seed"] == seed else [f"seed {report['seed']} is not {seed}"]
    bad += [
        f"dim {row['dim']}: deviation {row['max_relative_deviation']:.3e}"
        for row in report["results"]
        if not row["passed"] or not row["max_relative_deviation"] <= tol
    ]
    return bad + ([] if report["results"] else ["no rows"])


def check(job, report: dict, market: Market | None) -> list:
    """Mismatches of one job's parsed report; empty when it is correct."""
    if report.get("invariant_violations"):
        return [f"invariant violations: {report['invariant_violations']}"]
    if report.get("command") != job.command:
        return [f"report is for {report.get('command')!r}"]
    if job.config == "market_d128":
        return check_market(report, job.command, market)
    if job.command == "replicate":
        return check_replicate(report, job.seed)
    if job.command == "ito-check":
        return check_ito(report, job.seed)
    return check_reference(report, job.command, job.config)
