"""Kernel sweep and floors, timed in-process without tracing.

At d in {2, 8, 32, 128} it times the north-star kernels on the seeded
market of that size: one ``numpy.linalg.eigh`` of a log-moneyness
matrix, ``price``, ``price_derivatives``, ``hedge_portfolio``, the Ito
power (closed form and iterated, k = 6), and one RK4 step of
``semigroup_evolve``. It also times one Monte Carlo path block of
``replication_simulation`` and its floor, the same count of standard
normals drawn from one Generator. Each value is the median of
``BATCHES`` batches, in seconds per call.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

from workloads import make_market

DIMS = (2, 8, 32, 128)
BATCHES = 5
BATCH_S = 0.02
ITO_K = 6
RK4_STEPS = 20
T_SWEEP = 0.5
MC_PATHS = 1024  # one block of replication_simulation
MC_STEPS = 1000


def per_call(fn) -> float:
    """Median seconds per call over BATCHES batches of about BATCH_S each."""
    fn()
    start = time.perf_counter()
    fn()
    reps = max(1, int(BATCH_S / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def run(seed: int) -> dict:
    """Per-call seconds of each kernel, named ``sweep.<kernel>.d<dim>``, plus
    the floors and the ratios against them."""
    # only traced runs import qbs into the benchmark's own process
    from qbs.flows import ModelOperators, qsd_power_closed_form, qsd_power_iterated, semigroup_evolve
    from qbs.pricing import MarketModel, hedge_portfolio, price, price_derivatives, replication_simulation

    out = {}
    for dim in DIMS:
        m = make_market(seed, dim)
        ops = ModelOperators(**m.ops)
        model = MarketModel(ops=ops, K=m.matrix(m.k), r=m.r, T=m.T)
        z = itertools.cycle([m.matrix(e) for e in m.z]).__next__
        kernels = {
            "eigh": lambda: np.linalg.eigh(z()),
            "price": lambda: price(T_SWEEP, z(), model),
            "price_derivatives": lambda: price_derivatives(T_SWEEP, z(), model),
            "hedge_portfolio": lambda: hedge_portfolio(T_SWEEP, ops.X, model),
            "ito_power": lambda: (
                qsd_power_closed_form(ops.X, ops, ITO_K),
                qsd_power_iterated(ops.X, ops, ITO_K),
            ),
            "rk4_step": lambda: semigroup_evolve(ops.X, ops, 0.01, steps=RK4_STEPS),
        }
        for name, fn in kernels.items():
            out[f"sweep.{name}.d{dim}"] = per_call(fn)
        out[f"sweep.rk4_step.d{dim}"] /= RK4_STEPS
    normals = MC_PATHS * MC_STEPS
    out["sweep.mc_block"] = per_call(
        lambda: replication_simulation(1.0, 1.0, 0.05, 1.0, MC_STEPS, MC_PATHS, seed)
    )
    out["floor.normals_s"] = per_call(
        lambda: np.random.Generator(np.random.Philox(seed)).standard_normal((MC_PATHS, MC_STEPS))
    )
    # The pricing floor is one eigh of a d = 128 log-moneyness matrix.
    out["pricing.floor_ratio"] = out["sweep.price.d128"] / out["sweep.eigh.d128"]
    out["pricing.replication.ns_per_normal"] = out["sweep.mc_block"] / normals * 1e9
    out["pricing.replication.floor_ratio"] = out["sweep.mc_block"] / out["floor.normals_s"]
    return out
