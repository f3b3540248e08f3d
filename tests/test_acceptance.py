"""Acceptance suite: ten gate checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""
import math
import time

import numpy as np

import oracles
from qbs.flows import (
    ModelOperators,
    brownian_reduction_check,
    commutator,
    flow_coefficients,
    poisson_reduction_check,
    qsd_power_closed_form,
    qsd_power_iterated,
    semigroup_evolve,
)
from qbs.operators import (
    adjoint,
    normal_cdf,
    operator_exp,
    operator_log,
    phi_series,
    sylvester_L,
)
from qbs.pricing import (
    MarketModel,
    classical_bs,
    price,
    replication_simulation,
    residual_eq8,
    terminal_limit_check,
)
from generators import (
    random_hermitian,
    random_model,
    random_positive_definite,
    random_sylvester_pair,
    random_unitary,
    shift_model,
)

SEED = 20260821


def _report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _slots(d):
    return (d.creation, d.conservation, d.annihilation, d.time)


def test_criterion_01_power_rule():
    """Closed-form k-th power of the flow differential equals the iterated
    product in all four slots, 1e-10 relative, 100 models per dimension."""
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (2, 3, 4, 5):
        for _ in range(100):
            m = random_model(rng, dim)
            for k in range(2, 7):
                closed = qsd_power_closed_form(m.X, m, k)
                iterated = qsd_power_iterated(m.X, m, k)
                scale = max(float(np.abs(b).max()) for b in _slots(iterated))
                scale = max(scale, 1e-300)
                for g, h in zip(_slots(closed), _slots(iterated)):
                    worst = max(worst, float(np.abs(g - h).max()) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, "power rule: closed form matches iterated product",
            f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_brownian_reduction():
    """S = I kills the conservation coefficient and reduces the creation
    and annihilation coefficients to commutator brackets."""
    rng = np.random.default_rng(SEED + 1)
    worst_lam = worst_bracket = 0.0
    for _ in range(100):
        m = random_model(rng, int(rng.integers(2, 5)), brownian=True)
        rep = brownian_reduction_check(m)
        assert rep.passed
        worst_lam = max(worst_lam, rep.lambda_deviation)
        worst_bracket = max(worst_bracket, rep.alpha_deviation, rep.alpha_dagger_deviation)
    ok = worst_lam <= 1e-14
    _report(2, ok, "Brownian reduction: conservation vanishes, brackets match",
            f"max lam {worst_lam:.2e}, max bracket dev {worst_bracket:.2e}")


def test_criterion_03_poisson_obstruction():
    """Truncated shift: lam = I on the interior exactly, wrap-around defect
    equals d-1, and trace lam = 0 blocks lam = I globally."""
    worst_interior = worst_trace = 0.0
    wrap_exact = True
    for dim in range(4, 17):
        rep = poisson_reduction_check(shift_model(dim), list(range(dim - 1)))
        assert rep.passed
        worst_interior = max(worst_interior, rep.interior_deviation)
        worst_trace = max(worst_trace, abs(rep.trace_lambda))
        wrap_exact = wrap_exact and rep.wrap_defect == float(dim - 1)
    ok = worst_interior <= 1e-14 and wrap_exact and worst_trace <= 1e-12
    _report(3, ok, "Poisson check: interior identity, wrap defect d-1, zero trace",
            f"interior {worst_interior:.2e}, trace {worst_trace:.2e}")


def test_criterion_04_sylvester_identities():
    """L built from (X, W) satisfies [X,L] = WX and X^2 = [L*,X][X,L]."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        x, w = random_sylvester_pair(rng, dim)
        l_op = sylvester_L(x, w)
        scale = max(1.0, float(np.abs(x).max()) ** 2)
        d1 = float(np.abs(commutator(x, l_op) - w @ x).max()) / scale
        lhs = commutator(adjoint(l_op), x) @ commutator(x, l_op)
        d2 = float(np.abs(lhs - x @ x).max()) / scale
        worst = max(worst, d1, d2)
    ok = worst <= 1e-10
    _report(4, ok, "Sylvester construction: commutation and square identities",
            f"worst rel {worst:.2e}")


def test_criterion_05_operator_log_round_trip():
    """exp(log(H)) = H to 1e-12 relative on positive-definite H, dims <= 16,
    with the 2-norm of the log bounded by the spectral interval."""
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    bound_ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        h = random_positive_definite(rng, dim, eig_low=0.25, eig_high=4.0)
        a = operator_log(h)
        back = operator_exp(a)
        worst = max(worst, float(np.abs(back - h).max()) / max(1.0, float(np.abs(h).max())))
        bound = max(abs(math.log(0.25)), abs(math.log(4.0)))
        bound_ok = bound_ok and np.linalg.norm(a, 2) <= bound + 1e-12
    ok = worst <= 1e-12 and bound_ok
    _report(5, ok, "operator log: exp/log round trip and norm bound",
            f"worst rel {worst:.2e}")


def test_criterion_06_pricing_equation_residual():
    """The closed-form price satisfies its generator equation on the grid,
    and a 1 percent volatility perturbation is loudly rejected."""
    rng = np.random.default_rng(SEED + 4)
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (1, 2, 4, 8):
        for r in (0.0, 0.05):
            spec = rng.uniform(-2.0, 2.0, size=dim)
            u = random_unitary(rng, dim)
            z = (u * spec) @ u.conj().T
            z = 0.5 * (z + z.conj().T)
            x = operator_exp(z)
            ops = ModelOperators(
                X=x, H=np.zeros((dim, dim)), L=np.zeros((dim, dim)), S=np.eye(dim)
            )
            model = MarketModel(ops=ops, K=np.eye(dim), r=r, T=4.0)
            for t in (0.1, 0.5, 1.0, 2.0):
                rep = residual_eq8(t, z, model)
                assert rep.passed, (dim, r, t, rep.residual_norm)
                worst = max(worst, rep.residual_norm)

    # discriminative power: reprice at volatility 1.01 and watch it fail
    ops1 = ModelOperators(X=np.eye(1), H=np.zeros((1, 1)), L=np.zeros((1, 1)), S=np.eye(1))
    model1 = MarketModel(ops=ops1, K=np.eye(1), r=0.05, T=4.0)

    def perturbed(t, z):
        xval = float(np.exp(z[0, 0].real))
        return classical_bs(xval, 1.0, 0.05, 1.01, t)[0] * np.eye(1)

    bad = residual_eq8(1.0, np.zeros((1, 1)), model1, candidate=perturbed, tolerance=1e-3)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and (not bad.passed) and bad.residual_norm > 1e-3 and elapsed < 30.0
    _report(6, ok, "pricing equation: residual on grid, perturbation rejected",
            f"worst {worst:.2e}, perturbed {bad.residual_norm:.2e}, {elapsed:.1f}s")


def test_criterion_07_terminal_condition():
    """price(1e-8, zT) converges to the spectral payoff for 50 random zT
    with spectra bounded away from 0."""
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        mags = rng.uniform(0.12, 2.0, size=dim)
        signs = rng.choice([-1.0, 1.0], size=dim)
        u = random_unitary(rng, dim)
        z_t = (u * (mags * signs)) @ u.conj().T
        z_t = 0.5 * (z_t + z_t.conj().T)
        ops = ModelOperators(
            X=np.eye(dim), H=np.zeros((dim, dim)), L=np.zeros((dim, dim)), S=np.eye(dim)
        )
        model = MarketModel(ops=ops, K=np.eye(dim), r=float(rng.choice([0.0, 0.05])), T=1.0)
        rep = terminal_limit_check(z_t, model)
        assert rep.passed, rep.residual_norm
        worst = max(worst, rep.residual_norm / rep.tolerance)
    ok = worst <= 1.0
    _report(7, ok, "terminal limit: short-maturity price meets the payoff",
            f"worst residual at {worst:.2e} of budget")


def test_criterion_08_classical_limit():
    """Dimension-1 operator price equals the scalar formula on the 60-point
    grid, and the two Gaussian cdf routes agree on the series window."""
    ops1 = ModelOperators(X=np.eye(1), H=np.zeros((1, 1)), L=np.zeros((1, 1)), S=np.eye(1))
    worst = 0.0
    for ratio in (0.5, 0.8, 1.0, 1.25, 2.0):
        for r in (0.0, 0.05, 0.1):
            model = MarketModel(ops=ops1, K=np.eye(1), r=r, T=4.0)
            for t in (0.1, 0.5, 1.0, 2.0):
                z = math.log(ratio) * np.eye(1)
                w = price(t, z, model).omega[0, 0].real
                want = classical_bs(ratio, 1.0, r, 1.0, t)[0]
                worst = max(worst, abs(w - want))
    xs = np.arange(-3.0, 3.0001, 0.01)
    series_dev = max(abs(phi_series(float(x), 60) - normal_cdf(float(x))) for x in xs)
    ok = worst <= 1e-9 and series_dev <= 1e-10
    _report(8, ok, "classical limit: scalar prices match, cdf routes agree",
            f"price dev {worst:.2e}, cdf dev {series_dev:.2e}")


def test_criterion_09_replication():
    """Discrete delta hedging replicates the payoff: mean absolute error
    below 1 percent of x0, error spread halving when steps quadruple."""
    t0 = time.perf_counter()
    base = replication_simulation(1.0, 1.0, 0.05, 1.0, 1000, 10000, seed=SEED)
    fine = replication_simulation(1.0, 1.0, 0.05, 1.0, 4000, 10000, seed=SEED)
    rerun = replication_simulation(1.0, 1.0, 0.05, 1.0, 1000, 10000, seed=SEED, block=512)
    elapsed = time.perf_counter() - t0
    ratio = fine.std_error / base.std_error
    ok = (
        base.mean_abs_error <= 0.01
        and 0.35 <= ratio <= 0.65
        and rerun.mean_error == base.mean_error
        and rerun.std_error == base.std_error
        and elapsed < 60.0
    )
    _report(9, ok, "replication: 1 percent accuracy, error halves at 4x steps",
            f"mabs {base.mean_abs_error:.4f}, std ratio {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_10_semigroup_consistency():
    """Fixed-step evolution matches the superoperator exponential to 1e-8
    for dims <= 8; the identity is fixed; L = 0 is unitary conjugation."""
    rng = np.random.default_rng(SEED + 6)
    worst = id_dev = conj_dev = 0.0
    for dim in (2, 3, 5, 8):
        m = random_model(rng, dim)
        x0 = random_hermitian(rng, dim)
        got = semigroup_evolve(x0, m, 0.7)
        want = oracles.superoperator_evolve(x0, m.H, m.L, 0.7)
        worst = max(worst, float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max())))
        ident = semigroup_evolve(np.eye(dim), m, 0.7)
        id_dev = max(id_dev, float(np.abs(ident - np.eye(dim)).max()))
        h = random_hermitian(rng, dim)
        m0 = ModelOperators(X=x0, H=h, L=np.zeros((dim, dim)), S=np.eye(dim))
        u_t = oracles.taylor_expm(1j * 0.7 * h)
        conj = semigroup_evolve(x0, m0, 0.7)
        conj_dev = max(conj_dev, float(np.abs(conj - u_t @ x0 @ u_t.conj().T).max()))
    ok = worst <= 1e-8 and id_dev <= 1e-9 and conj_dev <= 1e-9
    _report(10, ok, "semigroup: matches superoperator, fixes I, unitary at L=0",
            f"worst rel {worst:.2e}, identity {id_dev:.2e}, conjugation {conj_dev:.2e}")
