"""The three benchmark workloads and the seeded inputs they run on.

A workload is a list of jobs; a job is one ``qbs <command>`` process on
one config. ``cli_light`` runs the shipped configs, ``spectral_d128``
runs a d = 128 market generated from the workload seed, and
``stochastic`` passes the workload seed to the two seeded commands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHIPPED = ("flow_2x2", "price_scalar", "monte_carlo")

# Every (command, shipped config) pair that the command accepts.
CLI_LIGHT_JOBS = (
    ("coeffs", "flow_2x2"),
    ("coeffs", "price_scalar"),
    ("price", "flow_2x2"),
    ("price", "price_scalar"),
    ("residual", "flow_2x2"),
    ("residual", "price_scalar"),
    ("terminal-check", "flow_2x2"),
    ("hedge", "flow_2x2"),
    ("classical", "monte_carlo"),
)

SPECTRAL_DIM = 128
SPECTRAL_R = 0.05
SPECTRAL_T = 1.0
SPECTRAL_T_GRID = (0.25, 0.5, 0.75, 1.0)
SPECTRAL_HEDGE_TIMES = (0.25, 0.5, 0.75)
SPECTRAL_Z_COUNT = 4
MIN_GAP = 0.1
# z eigenvalue magnitudes are drawn from [Z_LOW, Z_HIGH]; Z_LOW > MIN_GAP
# keeps terminal-check certified after the roundoff of building z.
Z_LOW, Z_HIGH = 0.15, 1.0


@dataclass(frozen=True)
class Job:
    command: str
    config: str  # label: a shipped config name or "market_d128"
    path: Path
    seed: int | None = None

    def argv(self) -> list:
        out = [self.command, "--config", str(self.path), "--omit-timing"]
        if self.seed is not None:
            out += ["--seed", str(self.seed)]
        return out


@dataclass
class Market:
    """A generated market in its own eigenbasis U: X = U diag(x) U*, K and
    every z likewise, so reference values are scalar formulas."""

    u: np.ndarray
    x: np.ndarray
    k: np.ndarray
    z: list
    r: float
    T: float
    ops: dict

    def matrix(self, eigs) -> np.ndarray:
        return _hermitian(self.u, np.asarray(eigs, dtype=float))


@dataclass
class Workload:
    name: str
    jobs: list
    configs: list  # distinct config paths, for set-up timing
    cal_blocks: int  # numeric blocks per calibration run (see calibrate.py)
    market: Market | None = None


def _haar_unitary(rng, dim: int) -> np.ndarray:
    a = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _hermitian(u, eigs) -> np.ndarray:
    m = (u * eigs) @ u.conj().T
    return 0.5 * (m + m.conj().T)


def make_market(seed: int, dim: int) -> Market:
    """Seeded market: X, non-scalar K and the log-moneyness grid share U.

    Every z eigenvalue lies at least Z_LOW from 0, so terminal-check
    runs on every z.
    """
    rng = np.random.default_rng((seed, dim))
    u = _haar_unitary(rng, dim)
    x = np.exp(rng.uniform(math.log(0.5), math.log(2.5), dim))
    k = np.exp(rng.uniform(math.log(0.5), math.log(2.0), dim))
    z = [
        rng.uniform(Z_LOW, Z_HIGH, dim) * rng.choice((-1.0, 1.0), dim)
        for _ in range(SPECTRAL_Z_COUNT)
    ]
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ops = {
        "X": _hermitian(u, x),
        "H": 0.5 * (h + h.conj().T),
        "L": 0.5 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))),
        "S": _haar_unitary(rng, dim),
    }
    return Market(u=u, x=x, k=k, z=z, r=SPECTRAL_R, T=SPECTRAL_T, ops=ops)


def _matrix_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def market_document(market: Market) -> dict:
    return {
        "schema_version": 1,
        "model": {
            "ops": {name: _matrix_json(m) for name, m in market.ops.items()},
            "K": _matrix_json(market.matrix(market.k)),
            "r": market.r,
            "T": market.T,
        },
        "t_grid": list(SPECTRAL_T_GRID),
        "z_grid": [_matrix_json(market.matrix(z)) for z in market.z],
        "terminal": {"min_gap": MIN_GAP},
        "hedge": {"times": list(SPECTRAL_HEDGE_TIMES)},
    }


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Make the workload's inputs; generated configs are written to ``work``."""
    configs = root / "configs"
    if name == "cli_light":
        jobs = [Job(cmd, cfg, configs / f"{cfg}.json") for cmd, cfg in CLI_LIGHT_JOBS]
        # import is about 75% of these jobs: an import-only calibration
        load = Workload(name, jobs, [configs / f"{c}.json" for c in SHIPPED], cal_blocks=0)
    elif name == "spectral_d128":
        market = make_market(seed, SPECTRAL_DIM)
        path = work / "market_d128.json"
        path.write_text(json.dumps(market_document(market)))
        jobs = [
            Job(cmd, "market_d128", path)
            for cmd in ("price", "residual", "terminal-check", "hedge")
        ]
        # import is about 10% of these jobs, but numeric blocks in the
        # calibration did not steady pass_rel here: with 14 blocks a 30 s
        # run held 4-5 jobs, not 5-6, and the spread over ten seeds was no
        # smaller than import-only
        load = Workload(name, jobs, [path], cal_blocks=0, market=market)
    elif name == "stochastic":
        flow = configs / "flow_2x2.json"
        mc = configs / "monte_carlo.json"
        jobs = [
            Job("ito-check", "flow_2x2", flow, seed),
            Job("lindblad", "flow_2x2", flow),
            Job("replicate", "monte_carlo", mc, seed),
        ]
        # import is about 30% of these jobs and 45% of the calibration
        load = Workload(name, jobs, [flow, mc], cal_blocks=10)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return load


WORKLOADS = ("cli_light", "spectral_d128", "stochastic")
