"""Operator call prices, generator residuals, hedging, Monte Carlo replication."""
import json
import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import qbs.cli
from qbs import operators, pricing
from qbs.config import parse_config
from qbs.flows import ModelOperators, expectation
from qbs.operators import adjoint, hermitian_part
from qbs.pricing import (
    MarketModel,
    _path_normals,
    classical_bs,
    hedge_portfolio,
    log_moneyness,
    moneyness,
    price,
    price_derivatives,
    reasonable_price,
    replication_simulation,
    residual_brownian_scalar,
    residual_eq8,
    residual_poisson_scalar,
    stock_moneyness,
    terminal_limit_check,
    terminal_payoff,
)
from generators import (
    random_commuting_positive_pair,
    random_market_model,
    random_state,
    random_unitary,
)
from test_cli import ROOT, _flow_2x2_with, _perfbench_workloads, _shipped_with

# quadrature-oracle constants reused across the module
ATM_UNIT_PRICE = 0.38292492254802646  # strike 1, rate 0, maturity 1, at the money
DELTA_HALF = 0.6914624612740132  # Phi(1/2)


def _scalar_model(r=0.0, T=1.0, K=1.0):
    ops = ModelOperators(X=np.eye(1), H=np.zeros((1, 1)), L=np.zeros((1, 1)), S=np.eye(1))
    return MarketModel(ops=ops, K=K * np.eye(1), r=r, T=T)


def _flat_model(dim, r=0.05, T=1.0):
    ops = ModelOperators(
        X=np.eye(dim), H=np.zeros((dim, dim)), L=np.zeros((dim, dim)), S=np.eye(dim)
    )
    return MarketModel(ops=ops, K=np.eye(dim), r=r, T=T)


def test_market_model_validation():
    ops = ModelOperators(X=np.diag([1.0, 2.0]), H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=np.eye(2))
    MarketModel(ops=ops, K=np.eye(2), r=0.0, T=1.0)  # r = 0 is allowed
    with pytest.raises(ValueError):
        MarketModel(ops=ops, K=np.eye(2), r=-0.01, T=1.0)
    with pytest.raises(ValueError):
        MarketModel(ops=ops, K=np.eye(2), r=0.05, T=0.0)
    with pytest.raises(ValueError):
        MarketModel(ops=ops, K=np.array([[2.0, 0.5], [0.5, 1.0]]), r=0.05, T=1.0)
    with pytest.raises(ValueError):
        MarketModel(ops=ops, K=np.diag([1.0, -1.0]), r=0.05, T=1.0)


def test_market_model_builds_by_keyword_and_is_read_only():
    ops = ModelOperators(X=np.diag([1.0, 2.0]), H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=np.eye(2))
    model = MarketModel(ops=ops, K=np.eye(2), r=0, T=1)
    assert model.beta0 == 1.0 and model.dim == 2
    assert all(type(v) is float for v in (model.r, model.T, model.beta0))
    assert not model.K.flags.writeable
    for name in ("ops", "K", "r", "T", "beta0"):
        with pytest.raises(AttributeError):
            setattr(model, name, 2.0)
    # _replace builds through the validating constructor
    with pytest.raises(ValueError, match="beta0 must be positive"):
        model._replace(beta0=0.0)


def test_nan_commutation_defect_is_rejected():
    """Unscaled, [X, K] overflows to a NaN entry: the check fails rather than passes."""
    x = np.array([[1e308, 5e307], [5e307, 1e308]])
    ops = ModelOperators(X=x, H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=np.eye(2))
    with pytest.raises(ValueError, match="simultaneous eigenbasis"):
        MarketModel(ops=ops, K=np.diag([1.0, 2.0]), r=0.05, T=1.0)


def test_commutation_check_holds_when_the_bound_overflows():
    """1e-10 ||X||_F ||K||_F overflows to inf here, yet [X, K] is 2.8e-9 of
    it: the exactly rescaled check rejects the pair, without overflowing."""
    x = np.array([[1e308, 1e300], [1e300, 1e308]])
    ops = ModelOperators(X=x, H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=np.eye(2))
    with np.errstate(all="raise"), pytest.raises(ValueError, match="simultaneous eigenbasis"):
        MarketModel(ops=ops, K=np.diag([1.0, 1.5]), r=0.05, T=1.0)


def test_log_moneyness_examples():
    assert np.max(np.abs(log_moneyness(np.eye(2), np.eye(2)))) <= 1e-14
    z = log_moneyness(math.e * np.eye(2), np.eye(2))
    assert np.max(np.abs(z - np.eye(2))) <= 1e-13
    z2 = log_moneyness(np.diag([2.0, 8.0]), 2.0 * np.eye(2))
    assert np.max(np.abs(z2 - np.diag([0.0, math.log(4.0)]))) <= 1e-13


def test_log_moneyness_rejections():
    with pytest.raises(ValueError, match="simultaneou"):
        log_moneyness(np.diag([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        log_moneyness(np.diag([0.0, 1.0]), np.eye(2))


def test_price_at_the_money_frozen():
    quote = price(1.0, np.zeros((1, 1)), _scalar_model())
    assert abs(quote.omega[0, 0].real - ATM_UNIT_PRICE) <= 1e-13


def test_price_two_by_two_frozen():
    """Spectrum of the price equals scalar prices at the z eigenvalues."""
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 2)
    z = hermitian_part((u * np.array([math.log(1.5), math.log(0.6)])) @ u.conj().T)
    quote = price(0.7, z, _flat_model(2, r=0.05))
    eigs = np.linalg.eigvalsh(quote.omega)
    # quadrature oracle at x = 0.6 and x = 1.5, strike 1, r = 0.05, t = 0.7
    assert abs(eigs[0] - 0.10789337699844279) <= 1e-10
    assert abs(eigs[1] - 0.7170498285392044) <= 1e-10


def test_price_bounds_scalar_grid():
    model = _scalar_model(r=0.05)
    for t in (0.1, 0.5, 1.5):
        for zv in (-1.5, -0.3, 0.0, 0.4, 1.2):
            w = price(t, zv * np.eye(1), model).omega[0, 0].real
            lo = max(0.0, math.exp(zv) - math.exp(-0.05 * t))
            assert lo - 1e-12 <= w <= math.exp(zv) + 1e-12


def test_price_monotone_in_moneyness_and_time():
    model = _scalar_model(r=0.03)
    zs = np.linspace(-1.0, 1.0, 9)
    vals = [price(0.8, z * np.eye(1), model).omega[0, 0].real for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    ts = (0.1, 0.4, 1.0, 2.0)
    tv = [price(t, np.zeros((1, 1)), model).omega[0, 0].real for t in ts]
    assert all(b > a for a, b in zip(tv, tv[1:]))


def test_price_expectation_field():
    rng = np.random.default_rng(7)
    model = _flat_model(2)
    u = random_state(rng, 2)
    quote = price(0.5, np.diag([0.2, -0.1]), model, state=u)
    assert quote.omega_expectation is not None
    assert abs(quote.omega_expectation - expectation(u, quote.omega).real) <= 1e-14


def test_overflowing_exponent_is_rejected():
    """e^z overflows at z = 800, and K e^z at z = 700 for K = 1e300: an
    error, never an inf or nan price."""
    model, big = _scalar_model(), _scalar_model(K=1e300)
    for fn, z, m in ((price, 800.0, model), (price_derivatives, 800.0, model), (price, 700.0, big)):
        with pytest.raises(FloatingPointError, match="overflow"):
            fn(1.0, z * np.eye(1), m)


def test_price_computes_no_partials():
    # at r = 1e300, t = 1e10 the normal densities of the partials overflow;
    # the price alone is K e^z - 0 (the discount underflows to 0)
    with np.errstate(all="raise"):
        quote = moneyness(np.array([[0.3]]), np.array([[2.0]])).price(1e10, 1e300)
    assert quote.omega[0, 0] == 2.0 * math.exp(0.3)


def test_price_derivatives_match_finite_differences():
    rng = np.random.default_rng(23)
    model = random_market_model(rng, 3)
    z = log_moneyness(model.ops.X, model.K)
    w10, w01, w02 = price_derivatives(0.8, z, model)
    eye = np.eye(3)
    f = lambda t, zz: price(t, zz, model).omega
    fd10 = oracles.central_diff(lambda t: f(t, z), 0.8, 1e-5)
    fd01 = oracles.central_diff(lambda s: f(0.8, z + s * eye), 0.0, 1e-5)
    fd02 = oracles.second_diff(lambda s: f(0.8, z + s * eye), 0.0, 1e-4)
    assert np.max(np.abs(w10 - fd10)) <= 1e-6
    assert np.max(np.abs(w01 - fd01)) <= 1e-6
    assert np.max(np.abs(w02 - fd02)) <= 1e-6


def test_price_derivative_deep_in_the_money():
    """Far in the money the z slope approaches the discounted forward K e^z."""
    model = _scalar_model(r=0.0)
    _, w01, _ = price_derivatives(0.5, 3.0 * np.eye(1), model)
    want = math.exp(3.0)
    assert abs(w01[0, 0].real - want) <= 1e-4 * want


def test_scalar_derivative_relations():
    """w01 = delta * x and w02 - w01 = x phi(g) / sqrt(t) in one dimension."""
    model = _scalar_model(r=0.05, K=0.9)
    for xval in (0.7, 0.9, 1.4):
        z = math.log(xval / 0.9) * np.eye(1)
        _, w01, w02 = price_derivatives(0.6, z, model)
        _, delta = classical_bs(xval, 0.9, 0.05, 1.0, 0.6)
        assert abs(w01[0, 0].real - delta * xval) <= 1e-12
        g = (math.log(xval / 0.9) + 0.55 * 0.6) / math.sqrt(0.6)
        gamma_term = xval * math.exp(-0.5 * g * g) / math.sqrt(2.0 * math.pi * 0.6)
        assert abs((w02 - w01)[0, 0].real - gamma_term) <= 1e-12


def test_residual_analytic_scalar():
    rep = residual_eq8(1.0, np.zeros((1, 1)), _scalar_model())
    assert rep.passed
    assert rep.residual_norm <= 1e-8


def test_residual_analytic_operator_grid():
    rng = np.random.default_rng(31)
    for dim in (2, 4):
        model = random_market_model(rng, dim)
        z = log_moneyness(model.ops.X, model.K)
        for t in (0.25, 1.0):
            rep = residual_eq8(t, z, model)
            assert rep.passed, (dim, t, rep.residual_norm)
            assert rep.residual_norm <= 1e-6


def test_residual_candidate_route_confirms_solution():
    """Finite differences on the pricing map itself stay within 1e-8."""
    model = _scalar_model(r=0.0)
    rep = residual_eq8(
        1.0, np.zeros((1, 1)), model, candidate=lambda t, z: price(t, z, model).omega
    )
    assert rep.passed
    assert rep.residual_norm <= 1e-8


def test_residual_rejects_wrong_volatility():
    """A candidate priced at volatility 1.01 misses the generator at 1e-3."""
    model = _scalar_model(r=0.05)

    def candidate(t, z):
        x = float(np.exp(z[0, 0].real))
        return classical_bs(x, 1.0, 0.05, 1.01, t)[0] * np.eye(1)

    rep = residual_eq8(1.0, np.zeros((1, 1)), model, candidate=candidate, tolerance=1e-3)
    assert not rep.passed
    assert rep.residual_norm > 1e-3


def test_residual_blind_to_exponential_directions():
    """K e^z itself satisfies the pricing equation, so adding a multiple of
    it to the solution leaves the residual at discretization level."""
    model = _scalar_model(r=0.05)

    def candidate(t, z):
        return price(t, z, model).omega + 0.01 * np.exp(z[0, 0].real) * np.eye(1)

    rep = residual_eq8(1.0, np.zeros((1, 1)), model, candidate=candidate)
    assert rep.residual_norm <= 1e-6


def test_residual_brownian_solved_model():
    def u(t, x):
        return classical_bs(x, 1.0, 0.05, 1.0, t)[0]

    grid = [(0.25, 0.8), (0.5, 1.0), (1.0, 1.3), (2.0, 2.0)]
    rep = residual_brownian_scalar(u, lambda x: x * x, 0.05, grid)
    assert rep.passed
    assert rep.residual_norm <= 1e-6


def test_residual_brownian_detects_wrong_volatility():
    def u(t, x):
        return classical_bs(x, 1.0, 0.05, 2.0, t)[0]

    rep = residual_brownian_scalar(u, lambda x: x * x, 0.05, [(0.5, 1.0), (1.0, 1.2)])
    assert not rep.passed
    assert rep.residual_norm > 1e-2


def test_residual_brownian_forward_is_exact():
    rep = residual_brownian_scalar(lambda t, x: x, lambda x: x * x, 0.07, [(0.5, 0.9), (1.0, 1.1)])
    assert rep.residual_norm <= 1e-9


def test_residual_poisson_forward():
    rep = residual_poisson_scalar(lambda t, x: x, lambda x: x * x, 0.07, 2, [(0.5, 0.9)])
    assert rep.residual_norm <= 1e-9


def test_residual_poisson_quadratic_closed_form():
    """u = e^{-rt}(a x^2 + b x + c) with g = x^2 has residual
    e^{-rt} x (a x (1 + 2 r) + r b), derived symbolically; the series
    truncates exactly at k = 2 when exact derivatives are supplied."""
    a, b, c, r = 2.0, -1.0, 0.5, 0.03

    def u(t, x):
        return math.exp(-r * t) * (a * x * x + b * x + c)

    def u_dx(_u, t, x, k):
        return math.exp(-r * t) * 2.0 * a if k == 2 else 0.0

    grid = [(0.4, 0.9), (1.2, 1.5)]
    rep = residual_poisson_scalar(u, lambda x: x * x, r, 4, grid, x_derivs=u_dx)
    want = max(math.exp(-r * t) * x * (a * x * (1.0 + 2.0 * r) + r * b) for t, x in grid)
    assert abs(rep.residual_norm - want) <= 1e-10
    assert abs(rep.residual_norm - 4.5579253867077565) <= 1e-10
    # exact derivatives make the answer independent of the cutoff
    rep5 = residual_poisson_scalar(u, lambda x: x * x, r, 5, grid, x_derivs=u_dx)
    assert abs(rep5.residual_norm - rep.residual_norm) <= 1e-14


def test_residual_poisson_tail_shrinks_with_cutoff():
    def u(t, x):
        return math.exp(x - t)

    tails = [
        residual_poisson_scalar(u, lambda x: 0.25 * x * x, 0.05, k, [(0.5, 1.1)]).tail_estimate
        for k in range(2, 7)
    ]
    assert all(t2 < t1 for t1, t2 in zip(tails, tails[1:]))


def test_residual_poisson_domain():
    with pytest.raises(ValueError):
        residual_poisson_scalar(lambda t, x: x, lambda x: x, 0.05, 1, [(0.5, 1.0)])


# Three (t, x) grids of the finite-difference residuals, and the solved
# model's price as u; the residual values below are the bits that the
# stencils computed when each residual wrote its own (the Brownian
# residual, then the Poisson residual and tail at k_max = 2..5), and that
# the one stencil of FD_STEP must keep.
FD_GRIDS = [
    [(0.25, 0.8), (0.5, 1.0), (1.0, 1.3), (2.0, 2.0)],
    [(0.5, 1.0), (1.0, 1.2)],
    [(0.1, 3.5), (3.0, 0.6), (1e-3, 1.05)],
]
FD_RESIDUALS = [
    ["0x1.7a28bb7a00000p-27", ("0x1.eb7d467000000p-28", "0x1.420de4ccccccep-2"),
     ("0x1.14c0bc2229697p-3", "0x1.14c0bc2f811d5p-3"), ("0x1.a4882689f7047p-3", "0x1.e82fbf056238dp-4"),
     ("0x1.64844d4ef7e44p-4", "0x1.644825515cb20p-3")],
    ["0x1.58bbf07c00000p-29", ("0x1.7ca24b8000000p-29", "0x1.0bd3432000000p-2"),
     ("0x1.14c0bc2229697p-3", "0x1.14c0bc2f811d5p-3"), ("0x1.7b31f9017cc5ep-4", "0x1.5c9efe85ac19fp-5"),
     ("0x1.64844d4ef7e44p-4", "0x1.11f0c463bd8dcp-6")],
    ["0x1.2d18d70cbe466p-8", ("0x1.2d2e21568a566p-8", "0x1.f5f7b58000000p+0"),
     ("0x1.f548cbcc641e9p+4", "0x1.f55b9eae79873p+4"), ("0x1.953dbeb1706ccp+7", "0x1.d3e6d82afcf08p+7"),
     ("0x1.86847dfa77c07p+9", "0x1.21350e4e1ba53p+9")],
]
# residual_eq8 of the priced candidate at t = 1e-5 (where the t step
# halves to t / 2), 1e-2, 1 and 4, frozen likewise
FD_CANDIDATE_TIMES = (1e-5, 1e-2, 1.0, 4.0)
FD_CANDIDATE_NORMS = ["0x1.5fc37d736eb8ep-30", "0x1.8afb283e11935p-17", "0x1.2969c61f9cb20p-26", "0x1.fd44c0e5da7a4p-28"]


def _solved_price(t, x):
    return classical_bs(x, 1.0, 0.05, 1.0, t)[0]


def _candidate_market():
    ops = ModelOperators(X=np.diag([1.3, 1.1]), H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=np.eye(2))
    return MarketModel(ops=ops, K=np.eye(2), r=0.05, T=1.0), np.array([[0.2, 0.05], [0.05, -0.1]])


@pytest.mark.parametrize("grid,frozen", list(zip(FD_GRIDS, FD_RESIDUALS)))
def test_scalar_residuals_are_frozen(grid, frozen):
    square = lambda x: x * x  # noqa: E731
    got = [residual_brownian_scalar(_solved_price, square, 0.05, grid).residual_norm.hex()]
    for k_max in range(2, 6):
        rep = residual_poisson_scalar(_solved_price, square, 0.05, k_max, grid)
        got.append((rep.residual_norm.hex(), rep.tail_estimate.hex()))
    assert got == frozen


def test_candidate_residual_is_frozen():
    model, z = _candidate_market()
    norms = [
        residual_eq8(t, z, model, candidate=lambda t, z: price(t, z, model).omega).residual_norm.hex()
        for t in FD_CANDIDATE_TIMES
    ]
    assert norms == FD_CANDIDATE_NORMS


def test_brownian_residual_calls_u_five_times_per_point():
    calls = []

    def u(t, x):
        calls.append((t, x))
        return _solved_price(t, x)

    residual_brownian_scalar(u, lambda x: x * x, 0.05, FD_GRIDS[0])
    assert len(calls) == 5 * len(FD_GRIDS[0])


def _nan_at(bad):
    """The solved model's price as u, but NaN at the point bad."""
    return lambda t, x: math.nan if (t, x) == bad else _solved_price(t, x)


@pytest.mark.parametrize(
    "grid,bad",
    [([(0.5, 1.0)], (0.5, 1.0))] + [(FD_GRIDS[0], point) for point in (FD_GRIDS[0][0], FD_GRIDS[0][2], FD_GRIDS[0][-1])],
)
def test_a_nan_residual_fails_its_check(grid, bad):
    # a NaN at the only, the first, an inner or the last grid point gives a
    # NaN norm that does not pass, where max() over floats would drop it;
    # the k = 4 stencil of the Poisson tail reads u at the point too
    square = lambda x: x * x  # noqa: E731
    rep = residual_brownian_scalar(_nan_at(bad), square, 0.05, grid)
    assert math.isnan(rep.residual_norm) and rep.passed is False
    rep = residual_poisson_scalar(_nan_at(bad), square, 0.05, 4, grid)
    assert math.isnan(rep.residual_norm) and math.isnan(rep.tail_estimate) and rep.passed is False


def test_candidate_residual_decomposes_nothing_itself(monkeypatch):
    # the candidate prices through eigh; the check around it takes none
    model, z = _candidate_market()
    calls = []
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _s=solver, _n=name, **k: calls.append(_n) or _s(*a, **k))
    residual_eq8(1.0, z, model, candidate=lambda t, z: np.diag(np.diag(z)) * t)
    assert calls == []


def _hermitian_checks(monkeypatch):
    """The matrices that require_hermitian checks from now on, as the bytes
    of each matrix M that it hands relative_gap with M*."""
    checked = []
    gap = operators.relative_gap
    monkeypatch.setattr(operators, "relative_gap", lambda a, b, rtol: checked.append(a.tobytes()) or gap(a, b, rtol))
    return checked


def _checks_of(checked, m) -> int:
    return checked.count(np.asarray(m, dtype=np.complex128).tobytes())


def test_each_input_is_checked_hermitian_once(monkeypatch):
    model, z = _candidate_market()
    x = model.ops.X
    checked = _hermitian_checks(monkeypatch)
    price(0.5, z, model)
    assert _checks_of(checked, z) == 1
    stock_moneyness(x, model.K)
    assert _checks_of(checked, x) == 1
    operators.sylvester_L(x, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert _checks_of(checked, x) == 2


def test_each_z_of_a_price_job_is_checked_hermitian_once_per_boundary(monkeypatch, capsys):
    # once, as parse_config reads the z_grid entry; the job's Moneyness takes it as checked
    path = ROOT / "configs" / "flow_2x2.json"
    z_grid = parse_config(path.read_text()).z_grid
    checked = _hermitian_checks(monkeypatch)
    assert qbs.cli.main(["price", "--config", str(path), "--omit-timing"]) == 0
    capsys.readouterr()
    assert [_checks_of(checked, z) for z in z_grid] == [1] * len(z_grid)


@pytest.mark.parametrize("stock", ["hedge.stock", "model.ops.X"])
def test_a_hedge_job_checks_its_stock_and_k_hermitian_once(stock, tmp_path, monkeypatch, capsys):
    # once each, as parse_config reads them; the job's stock moneyness takes both as checked
    hedge = json.loads((ROOT / "configs" / "flow_2x2.json").read_text())["hedge"]
    if stock == "model.ops.X":
        hedge["stock"] = None
    path = _flow_2x2_with(tmp_path, hedge=hedge)
    with open(path) as f:
        cfg = parse_config(f.read())
    held = cfg.hedge["stock"] if stock == "hedge.stock" else cfg.model.ops.X
    checked = _hermitian_checks(monkeypatch)
    assert qbs.cli.main(["hedge", "--config", path, "--omit-timing"]) == 0
    capsys.readouterr()
    assert [_checks_of(checked, held), _checks_of(checked, cfg.model.K)] == [1, 1]


@pytest.mark.parametrize("command", ["price", "hedge"])
def test_a_small_job_calls_no_numpy_sort(command, monkeypatch, capsys):
    # the joint eigenbases order their spectra with Python's stable sort:
    # numpy's sort loops would fault about 0.13 MB of code into a d = 2 job
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy sort")

    for name in ("argsort", "sort"):
        monkeypatch.setattr(np, name, refuse)
    path = ROOT / "configs" / "flow_2x2.json"
    assert qbs.cli.main([command, "--config", str(path), "--omit-timing"]) == 0
    golden = ROOT / "tests" / "golden" / f"{command}.flow_2x2.json"
    assert capsys.readouterr() == (golden.read_text(), "")


def test_each_model_operator_is_checked_once_per_parse(monkeypatch):
    # X and H Hermitian and S unitary, each once, as ModelOperators builds them
    text = (ROOT / "configs" / "flow_2x2.json").read_text()
    ops = parse_config(text).model.ops
    checked = _hermitian_checks(monkeypatch)
    unitary = []
    defect = operators.unitary_defect
    monkeypatch.setattr(operators, "unitary_defect", lambda m: unitary.append(m.tobytes()) or defect(m))
    parse_config(text)
    assert [_checks_of(checked, ops.X), _checks_of(checked, ops.H)] == [1, 1]
    assert unitary == [ops.S.tobytes()]


def test_terminal_payoff_conventions():
    """The spectral and expectation readings of max(X - K, 0) differ on
    states that mix signed spectral branches."""
    z_t = np.diag([1.0, -1.0])
    pay = terminal_payoff(z_t, np.eye(2))
    assert np.max(np.abs(pay - np.diag([math.e - 1.0, 0.0]))) <= 1e-12
    u = np.array([1.0, 1.0]) / math.sqrt(2.0)
    spectral_val = expectation(u, pay).real
    expect_val = terminal_payoff(z_t, np.eye(2), "expectation", state=u)
    assert abs(spectral_val - 0.8591409142295225) <= 1e-12
    assert abs(expect_val - 0.5430806348152437) <= 1e-12
    assert spectral_val - expect_val > 0.3


def test_terminal_payoff_agrees_when_definite():
    rng = np.random.default_rng(43)
    x, k = random_commuting_positive_pair(rng, 3)
    z_t = log_moneyness(x + 3.0 * np.eye(3), k)  # X - K strictly positive
    u = random_state(rng, 3)
    pay = terminal_payoff(z_t, k)
    assert abs(expectation(u, pay).real - terminal_payoff(z_t, k, "expectation", state=u)) <= 1e-9


def test_terminal_payoff_validation():
    with pytest.raises(ValueError):
        terminal_payoff(np.eye(2), np.eye(2), "expectation")  # state missing
    with pytest.raises(ValueError):
        terminal_payoff(np.eye(2), np.eye(2), "median")


def test_terminal_limit_examples():
    model = _flat_model(2, r=0.05)
    for z_t in (np.eye(2), -np.eye(2), np.diag([1.0, -1.0])):
        rep = terminal_limit_check(z_t, model)
        assert rep.passed, rep.residual_norm
    neg = terminal_limit_check(-np.eye(2), model)
    assert neg.residual_norm <= 1e-12  # payoff identically zero out of the money


def test_terminal_limit_gap_guard():
    model = _flat_model(2)
    with pytest.raises(ValueError, match="within"):
        terminal_limit_check(np.diag([0.05, 1.0]), model)


def test_reasonable_price_scalar():
    model = _scalar_model()
    quote = reasonable_price(model, state=np.array([1.0]))
    assert abs(quote.omega_expectation - ATM_UNIT_PRICE) <= 1e-13


def test_reasonable_price_at_the_money_operator():
    """X = K collapses to the scalar at-the-money formula in every direction."""
    k = 2.0 * np.eye(2)
    ops = ModelOperators(X=k, H=np.zeros((2, 2)), L=np.zeros((2, 2)), S=np.eye(2))
    model = MarketModel(ops=ops, K=k, r=0.05, T=0.8)
    quote = reasonable_price(model)
    eigs = np.linalg.eigvalsh(quote.omega)
    assert np.max(np.abs(eigs - 0.7168631456165774)) <= 1e-12


def test_reasonable_price_short_maturity_limit():
    rng = np.random.default_rng(9)
    x, k = random_commuting_positive_pair(rng, 3)
    x = x + 1.2 * np.eye(3)  # X - K positive definite
    ops = ModelOperators(X=x, H=np.zeros((3, 3)), L=np.zeros((3, 3)), S=np.eye(3))
    model = MarketModel(ops=ops, K=k, r=0.05, T=1e-8)
    u = random_state(rng, 3)
    quote = reasonable_price(model, state=u)
    assert abs(quote.omega_expectation - expectation(u, x - k).real) <= 1e-6


def test_hedge_reconstruction_identity():
    rng = np.random.default_rng(11)
    model = random_market_model(rng, 3, r=0.04, T=2.0)
    for t in (0.5, 1.0, 1.7):
        for conv in ("direct", "classical"):
            pos = hedge_portfolio(t, model.ops.X, model, convention=conv)
            z_t = log_moneyness(model.ops.X, model.K)
            omega = price(model.T - t, z_t, model).omega
            scale = max(1.0, float(np.abs(omega).max()))
            assert np.max(np.abs(pos.value - omega)) <= 1e-12 * scale


def test_hedge_conventions_differ_by_stock_factor():
    model = _scalar_model(r=0.0)
    jx = np.array([[math.exp(3.0)]])
    direct = hedge_portfolio(0.5, jx, model)
    classical = hedge_portfolio(0.5, jx, model, convention="classical")
    ratio = direct.a[0, 0].real / classical.a[0, 0].real
    assert abs(ratio - math.exp(3.0)) <= 1e-10 * math.exp(3.0)
    # far in the money the classical weight is a full unit of stock
    assert abs(classical.a[0, 0].real - 1.0) <= 1e-4


def test_hedge_domain():
    model = _scalar_model()
    with pytest.raises(ValueError):
        hedge_portfolio(0.0, np.eye(1), model)
    with pytest.raises(ValueError):
        hedge_portfolio(1.5, np.eye(1), model)
    with pytest.raises(ValueError, match="convention"):
        hedge_portfolio(0.5, np.eye(1), model, convention="both")


def test_classical_bs_frozen():
    value, delta = classical_bs(1.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(value - ATM_UNIT_PRICE) <= 1e-13
    assert abs(delta - DELTA_HALF) <= 1e-14
    # quadrature oracle, strike 1, r = 0.05, t = 0.7
    assert abs(classical_bs(1.5, 1.0, 0.05, 1.0, 0.7)[0] - 0.7170498285392044) <= 1e-12
    assert abs(classical_bs(0.6, 1.0, 0.05, 1.0, 0.7)[0] - 0.10789337699844279) <= 1e-12
    assert abs(classical_bs(1.5, 1.0, 0.05, 1.0, 0.7)[0] - oracles.classical_call_quadrature(1.5, 1.0, 0.05, 1.0, 0.7)) <= 1e-9


def test_classical_bs_limits():
    # vanishing volatility leaves the discounted intrinsic value
    value, _ = classical_bs(1.2, 1.0, 0.05, 1e-8, 2.0)
    assert abs(value - 0.29516258196404044) <= 1e-12
    # short maturity in the money: full delta, intrinsic price
    value2, delta2 = classical_bs(1.3, 1.0, 0.0, 1.0, 1e-10)
    assert abs(value2 - 0.3) <= 1e-9
    assert abs(delta2 - 1.0) <= 1e-12


def test_classical_bs_domain():
    for bad in [(0.0, 1.0, 0.05, 1.0, 1.0), (1.0, 0.0, 0.05, 1.0, 1.0),
                (1.0, 1.0, -0.1, 1.0, 1.0), (1.0, 1.0, 0.05, 0.0, 1.0),
                (1.0, 1.0, 0.05, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            classical_bs(*bad)


def test_replication_deterministic():
    s1 = replication_simulation(1.0, 1.0, 0.05, 1.0, 120, 1000, seed=7)
    s2 = replication_simulation(1.0, 1.0, 0.05, 1.0, 120, 1000, seed=7)
    assert s1 == s2
    # the block size is an implementation detail, not part of the stream
    s3 = replication_simulation(1.0, 1.0, 0.05, 1.0, 120, 1000, seed=7, block=256)
    assert s1.mean_error == s3.mean_error
    assert s1.std_error == s3.std_error


@pytest.mark.parametrize("seed", [0, 1, 20260821, 2**63 - 1])
def test_path_substream_is_the_jumped_stream(seed):
    # path p's normals are those of Philox(key=seed).jumped(p), bit for bit,
    # whichever row of a block the path lands in
    n = 257
    base = np.random.Philox(key=seed)
    for p in (0, 1, 5, 1023, 1024, 123456):
        want = np.random.Generator(base.jumped(p)).standard_normal(n)
        alone = _path_normals(seed, p, 1, n)[0]
        assert alone.tobytes() == want.tobytes(), p
        if p:
            assert _path_normals(seed, p - 1, 2, n)[1].tobytes() == want.tobytes(), p


def test_replication_stats_do_not_depend_on_block():
    paths = 2000
    runs = [
        replication_simulation(1.0, 1.0, 0.05, 1.0, 100, paths, seed=13, block=block)
        for block in (7, 1024, paths)
    ]
    assert repr(runs[0]) == repr(runs[1]) == repr(runs[2])


def test_replication_holds_one_path_block():
    # each block of paths is 500 x 200 normals; the finished one is freed
    # before the next is drawn, so two are never alive at once
    replication_simulation(1.0, 1.0, 0.05, 1.0, 100, 1000, 3)  # imports outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        replication_simulation(1.0, 1.0, 0.05, 1.0, 200, 2000, 3, block=500)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (500 * 200 * 8)


@pytest.mark.parametrize("s, steps", enumerate([100, 101, 129, 1000]))
def test_replication_is_the_step_loop_bit_for_bit(s, steps):
    # chunks of steps // 8 rebalancing steps: 99, 100 and 999 are not a
    # whole number of chunks, 128 is; across the steps every paths value
    # meets every r, sigma and seed, and each run is priced at every block
    for p, paths in enumerate([1000, 1023, 2000]):
        r = (0.0, 0.05)[(s + p) % 2]
        sigma = (1e-8, 1.0, 2.5)[(s + p) % 3]
        seed = (0, 7, 2**63 - 1)[(2 * s + p) % 3]
        want = repr(pricing.ReplicationStats(*oracles.replication_step_loop(1.0, 1.0, r, 1.0, steps, paths, seed, sigma)))
        for block in (7, 256, 1000):
            got = replication_simulation(1.0, 1.0, r, 1.0, steps, paths, seed, sigma, block)
            assert repr(got) == want, (paths, r, sigma, seed, block)


def test_replication_footprint_at_the_default_block():
    # a 256 x 1000 block of normals (2 MB) and three chunk buffers of
    # 125 steps x 256 paths; one 1024-path block alone is 8 MB
    replication_simulation(1.0, 1.0, 0.05, 1.0, 100, 1000, 3)  # imports outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        replication_simulation(1.0, 1.0, 0.05, 1.0, 1000, 10000, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.fixture(scope="module")
def spectral_core_calls():
    """On a seeded d = 128 pair z, K diagonal in one Haar unitary's basis,
    with the stock X = K e^z: each spectral-core step as a call, with the
    bound on its traced peak in units of B = 16 d^2 bytes, one d x d
    complex matrix."""
    dim = 128
    rng = np.random.default_rng(7)
    u = random_unitary(rng, dim)
    lam, k_eigs = rng.uniform(-1.0, 1.0, dim), rng.uniform(0.5, 2.0, dim)
    z, k, x = (hermitian_part((u * f) @ u.conj().T) for f in (lam, k_eigs, k_eigs * np.exp(lam)))
    ops = ModelOperators(X=x, H=np.zeros((dim, dim)), L=np.zeros((dim, dim)), S=np.eye(dim))
    model = MarketModel(ops=ops, K=k, r=0.05, T=1.0)
    m = stock_moneyness(x, k)
    spectra = m.hedge_spectra(0.5, model)
    return 16 * dim * dim, {
        "joint_decompose": (lambda: operators.joint_decompose(z, k, "z"), 5.0),
        "hermitian_part": (lambda: hermitian_part(z), 2.25),
        "position": (lambda: m.position(*spectra, x, model), 6.25),
    }


@pytest.mark.parametrize("step", ["joint_decompose", "hermitian_part", "position"])
def test_spectral_core_frees_its_temporaries_as_it_goes(spectral_core_calls, step):
    # each step drops a d x d temporary before it makes the next: the
    # scaled K once V*K is formed, V*K once V*KV is written into the (z, K)
    # stack; A* + A and b and the hedge value built in place. Steps that
    # held them to the end would peak at 6.57, 2.51 and 6.51 B
    unit, calls = spectral_core_calls
    call, bound = calls[step]
    call()  # first-call work outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound * unit, peak / unit


def test_replication_smoke():
    stats = replication_simulation(1.0, 1.0, 0.05, 1.0, 100, 1000, seed=5)
    assert stats.mean_abs_error < 0.1
    assert stats.paths == 1000 and stats.steps == 100
    assert abs(stats.initial_price - classical_bs(1.0, 1.0, 0.05, 1.0, 1.0)[0]) <= 1e-12


def test_replication_degenerate_volatility():
    """With sigma ~ 0 the paths are deterministic and the hedge is exact."""
    stats = replication_simulation(1.2, 1.0, 0.0, 1.0, 100, 1000, seed=3, sigma=1e-8)
    assert stats.mean_abs_error == 0.0


def test_replication_domain():
    with pytest.raises(ValueError):
        replication_simulation(1.0, 1.0, 0.05, 1.0, 50, 1000, seed=1)
    with pytest.raises(ValueError):
        replication_simulation(1.0, 1.0, 0.05, 1.0, 100, 10, seed=1)


def _commuting_market(draw, lam):
    """(U, lam, k, z, model): a unitary U with z = U diag(lam) U*, K = U diag(k)
    U* for distinct k, and the stock X = K e^z."""
    dim = len(lam)
    k = np.array(draw(st.lists(st.integers(10, 40), min_size=dim, max_size=dim, unique=True))) / 20.0
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dim)
    r = draw(st.integers(0, 10)) / 100.0
    T = draw(st.integers(5, 20)) / 10.0
    build = lambda d: hermitian_part((u * d) @ u.conj().T)
    ops = ModelOperators(
        X=build(k * np.exp(lam)), H=np.zeros((dim, dim)), L=np.zeros((dim, dim)), S=np.eye(dim)
    )
    return u, lam, k, build(lam), MarketModel(ops=ops, K=build(k), r=r, T=T)


@st.composite
def commuting_markets(draw):
    """A unitary U with z = U diag(lam) U* and K = U diag(k) U*. lam takes
    fewer distinct values than the dimension, so z has a repeated
    eigenvalue, and k has distinct entries, so K is not scalar on it."""
    dim = draw(st.integers(2, 4))
    levels = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=dim - 1))
    lam = np.array(draw(st.lists(st.sampled_from(levels), min_size=dim, max_size=dim))) / 20.0
    return _commuting_market(draw, lam)


@st.composite
def distinct_markets(draw):
    """As commuting_markets, but the eigenvalues of z are distinct, at least
    1/20 apart, so its eigenbasis diagonalizes K as well."""
    dim = draw(st.integers(2, 4))
    lam = np.array(draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim, unique=True))) / 20.0
    return _commuting_market(draw, lam)


def _scalar_call_oracle(u, lam, k, r, t):
    """U diag(k_i C(e^lam_i)) U*, C the scalar call at strike 1."""
    scalar = [classical_bs(ki * math.exp(li), ki, r, 1.0, t)[0] for ki, li in zip(k, lam)]
    return (u * np.array(scalar)) @ u.conj().T


@settings(max_examples=40, deadline=None)
@given(commuting_markets(), st.integers(1, 40))
def test_price_is_scalar_call_in_the_eigenbasis(market, t_tenths):
    u, lam, k, z, model = market
    t = t_tenths / 10.0
    # K splits the repeated eigenvalue of z, which eigh leaves free to mix
    omega = price(t, z, model).omega
    want = _scalar_call_oracle(u, lam, k, model.r, t)
    assert np.max(np.abs(omega - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


# Put-call parity, omega - put = K e^z - K e^{-rt}, holds to roundoff. Of
# the three operators (d <= 4, eigenvalues k e^lam <= 2e), the eigenbasis
# errs most: about eps ||z||_2 / gap per unit of ||K e^z||_2, with
# ||z||_2 <= 1 and a gap >= 1/20 between distinct eigenvalues of z and of
# K; a factor of 64 d covers the scalar formulas' sums and the products.
PARITY_ROUNDOFF = 64 * 4 * 20 * float(np.finfo(float).eps)


def _parity_gap(omega, u, lam, k, model, t) -> float:
    """||omega - put - (K e^z - K e^{-rt})||_2 / max(1, ||K e^z||_2), for
    the oracle's put in the basis U that the market was built in."""
    forward = model.ops.X - math.exp(-model.r * t) * model.K
    gap = np.linalg.norm(omega - oracles.put_in_basis(u, lam, k, model.r, t) - forward, 2)
    return float(gap) / max(1.0, float(np.linalg.norm(model.ops.X, 2)))


@settings(max_examples=40, deadline=None)
@given(commuting_markets(), st.integers(1, 40))
def test_put_call_parity_in_the_eigenbasis(market, t_tenths):
    u, lam, k, z, model = market
    t = t_tenths / 10.0
    assert _parity_gap(price(t, z, model).omega, u, lam, k, model, t) <= PARITY_ROUNDOFF


def test_put_call_parity_catches_a_discount_of_one_more_step(monkeypatch):
    # negative control: a call discounted by e^{-r(t + h)}, h = FD_STEP,
    # moves omega by K (e^{-rt} - e^{-r(t + h)}) Phi(h(z)), about 2e-6 of
    # ||K e^z||_2 here, where z has a repeated eigenvalue that K splits
    r, t, h = 0.05, 0.5, pricing.FD_STEP
    u = random_unitary(np.random.default_rng(7), 3)
    lam, k = np.array([-0.5, 0.25, 0.25]), np.array([0.75, 1.25, 1.5])
    build = lambda d: hermitian_part((u * d) @ u.conj().T)
    ops = ModelOperators(X=build(k * np.exp(lam)), H=np.zeros((3, 3)), L=np.zeros((3, 3)), S=np.eye(3))
    model = MarketModel(ops=ops, K=build(k), r=r, T=1.0)
    z = build(lam)
    assert _parity_gap(price(t, z, model).omega, u, lam, k, model, t) <= PARITY_ROUNDOFF
    monkeypatch.setattr(pricing, "math", types.SimpleNamespace(**{**vars(math), "exp": lambda a: math.exp(a - r * h)}))
    assert _parity_gap(price(t, z, model).omega, u, lam, k, model, t) > 1e3 * PARITY_ROUNDOFF


def _pricing_outputs(z, model, t, h, convention):
    """(operators, norm): the price and its three partials at (t, z), the
    hedge's a, b and value at time h, and the residual_eq8 norm at (t, z)."""
    quote = price(t, z, model)
    pos = hedge_portfolio(h, model.ops.X, model, convention=convention)
    ops = [quote.omega, *price_derivatives(t, z, model), pos.a, pos.b, pos.value]
    return ops, residual_eq8(t, z, model).residual_norm


def _strike_product_outputs(z, model, t, h, convention):
    """_pricing_outputs formed here as hermitian_part(K V diag(f) V*), for V
    the eigenvectors of one eigh of z, which is also the z of the stock X."""
    lam, v = np.linalg.eigh(z)
    x, r, beta0 = model.ops.X, model.r, model.beta0
    spectral = lambda f: (v * f) @ v.conj().T
    product = lambda f: hermitian_part(model.K @ spectral(f))
    w, w10, w01, w02 = map(product, pricing._call_scalars(t, lam, r))
    hw, hw01 = pricing._call_scalars(model.T - h, lam, r, "w w01")
    a = product(hw01) if convention == "direct" else hermitian_part(spectral(hw01 * np.exp(-lam)))
    a_x = hermitian_part(a @ x)
    b = hermitian_part((product(hw) - a_x) * (math.exp(-r * h) / beta0))
    residual = w10 - 0.5 * w02 - (r - 0.5) * w01 + r * w
    ops = [w, w10, w01, w02, a, b, a_x + beta0 * math.exp(r * h) * b]
    return ops, float(np.max(np.abs(np.linalg.eigvalsh(residual))))


@settings(max_examples=40, deadline=None)
@given(distinct_markets(), st.integers(1, 40), st.integers(1, 9), st.sampled_from(["direct", "classical"]))
def test_joint_spectrum_prices_as_the_strike_product(market, t_tenths, h_tenths, convention):
    # the joint route, V diag(k f) V*, against K V diag(f) V* formed here
    _, _, _, z, model = market
    t, h = t_tenths / 10.0, model.T * h_tenths / 10.0
    joint, joint_norm = _pricing_outputs(z, model, t, h, convention)
    product, product_norm = _strike_product_outputs(z, model, t, h, convention)
    for got, want in zip(joint, product):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))
    assert abs(joint_norm - product_norm) <= 1e-12 * max(1.0, float(np.max(np.abs(joint[0]))))


# residual_eq8 and terminal_limit_check take their 2-norms as max |k f| over
# the joint spectrum; oracles.py assembles the operators in the basis U the
# market was built in and takes the largest eigvalsh modulus. Fixed before
# measuring: on commuting_markets (d <= 4, k <= 2, |lam| <= 1, t >= 0.1)
# each term of eq8 is at most about 20, and each route errs by a few eps per
# term and per sum of a d x d product, so 256 d eps of max(1, ||K w||_2)
# covers both.
NORM_ROUNDOFF = 256 * float(np.finfo(float).eps)


def _norm_bound(z, model, t) -> float:
    return NORM_ROUNDOFF * z.shape[0] * max(1.0, float(np.linalg.norm(price(t, z, model).omega, 2)))


@settings(max_examples=40, deadline=None)
@given(commuting_markets(), st.integers(1, 40))
def test_residual_and_terminal_norms_match_the_assembled_operators(market, t_tenths):
    u, lam, k, z, model = market
    t = t_tenths / 10.0
    want = oracles.eq8_in_basis(u, lam, k, model.r, t)
    assert abs(residual_eq8(t, z, model).residual_norm - want) <= _norm_bound(z, model, t)
    if np.min(np.abs(lam)) > 0.11:  # clear of the gap of 0.1 that terminal_limit_check rejects
        want = oracles.terminal_deviation_in_basis(u, lam, k, model.r, 1e-8)
        assert abs(terminal_limit_check(z, model).residual_norm - want) <= _norm_bound(z, model, 1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_operator_residual_fails():
    # at z = 1, (r - 1/2) w01 and r w overflow and their difference is NaN
    rep = residual_eq8(0.5, np.diag([1.0, -0.1]), _flat_model(2, r=1e308))
    assert math.isnan(rep.residual_norm) and rep.passed is False


def test_an_overflowing_partial_raises_without_a_warning():
    # at r = 1e308, g and h are inf and their densities 0, so -g * dens_g is
    # inf * 0: NaN partials, which Moneyness.spectrum rejects
    model = parse_config((ROOT / "configs" / "flow_2x2.json").read_text()).model._replace(r=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError):
            price_derivatives(4.0, np.diag([1.0, -0.1]), model)


def test_the_analytic_residual_fails_without_a_warning_where_only_a_shifted_exponential_overflows(
    tmp_path, capsys
):
    # eq8 takes the call scalars at z alone, where e^709.75 is finite (log
    # of the largest float is 709.78): its norm fails, with no warning. The
    # residual command also takes w at z +- hI for the z-partials' gap,
    # h = 1e-4 * 709.75, and e^709.820975 is beyond float range: exit 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = residual_eq8(0.5, np.array([[709.75]]), _scalar_model(r=0.05, K=1e-3))
    assert rep.passed is False and rep.residual_norm > 1e280
    model = json.loads((ROOT / "configs" / "price_scalar.json").read_text())["model"]
    model.update(K=[[[1e-3, 0.0]]], r=0.05)
    path = _shipped_with(tmp_path, "price_scalar", model=model, t_grid=[0.5], z_grid=[[[[709.75, 0.0]]]])
    assert qbs.cli.main(["residual", "--config", path, "--omit-timing"]) == 4
    assert capsys.readouterr() == ("", "numerical error: z: exp overflows at 709.820975\n")


def test_the_analytic_residual_takes_the_call_scalars_once(monkeypatch):
    # eq8 at z alone: the residual command's passes at z +- hI feed only
    # the z-partials' gap, which residual_eq8 does not report
    calls = []
    call_scalars = pricing._call_scalars
    monkeypatch.setattr(pricing, "_call_scalars", lambda *args: calls.append(args) or call_scalars(*args))
    model = parse_config((ROOT / "configs" / "flow_2x2.json").read_text()).model
    assert residual_eq8(0.5, np.diag([0.2, -0.1]), model).passed
    assert len(calls) == 1


def test_near_repeated_eigenvalue_is_rotated_onto_the_strike_basis():
    # two eigenvalues of z 1e-9 apart, split by K: eigh mixes their
    # eigenvectors, so diag(V*KV) alone would misprice; a Jacobi rotation
    # of the pair makes V*KV diagonal
    u = random_unitary(np.random.default_rng(17), 3)
    lam, k = np.array([0.2, 0.2 + 1e-9, -0.4]), np.array([0.8, 1.6, 1.1])
    build = lambda d: hermitian_part((u * d) @ u.conj().T)
    ops = ModelOperators(X=build(k * np.exp(lam)), H=np.zeros((3, 3)), L=np.zeros((3, 3)), S=np.eye(3))
    model = MarketModel(ops=ops, K=build(k), r=0.03, T=1.0)
    z = build(lam)
    v = np.linalg.eigh(z)[1]
    off = lambda m: np.abs(m - np.diag(np.diag(m))).max()
    assert off(v.conj().T @ model.K @ v) > operators.JOINT_RTOL * np.linalg.norm(model.K)
    m = moneyness(z, model.K)
    v = m.dec.eigenvectors
    assert off(v.conj().T @ model.K @ v) <= 1e-14 * np.linalg.norm(model.K)
    assert np.max(np.abs(m.k - k[np.argsort(lam)])) <= 1e-14
    for t in (0.1, 0.7, 2.0):
        want = _scalar_call_oracle(u, lam, k, model.r, t)
        omega = price(t, z, model).omega
        assert np.max(np.abs(omega - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("seed", range(11, 21))
def test_the_joint_basis_is_the_market_basis_at_d128(seed):
    # the benchmark's d = 128 market, built in a basis U: omega of each z at
    # t = 1/2, and of the stock's z, within 1e-13 of U diag(k w) U*
    workloads = _perfbench_workloads()
    market = workloads.make_market(seed, 128)
    strike = market.matrix(market.k)
    cases = [(moneyness(market.matrix(z), strike), z) for z in market.z]
    cases.append((stock_moneyness(market.matrix(market.x), strike), np.log(market.x) - np.log(market.k)))
    for m, lam in cases:
        want = _scalar_call_oracle(market.u, lam, market.k, market.r, 0.5)
        omega = m.price(0.5, market.r).omega
        assert np.linalg.norm(omega - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", range(8))
def test_a_nearly_commuting_z_is_priced_within_its_commutator(seed):
    # z = U diag(lam) U* + e H, a pair of lam 1e-9 apart, with [z, K] / (||z|| ||K||)
    # from 1e-13 to 5e-11: admitted, and priced within 4 ||[K, F(z)]|| of
    # hermitian_part(K F(z)), F(z) formed here from one eigh of z
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 6)
    lam = np.array([0.2, 0.2 + 1e-9, -0.4, 0.7, -0.9, 0.5])
    strike = hermitian_part((u * np.array([0.8, 1.6, 1.1, 0.9, 1.3, 1.9])) @ u.conj().T)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    z = hermitian_part((u * lam) @ u.conj().T) + 10.0 ** (-13 + 2.5 * seed / 7) * (h + h.conj().T)
    defect = np.linalg.norm(z @ strike - strike @ z) / (np.linalg.norm(z) * np.linalg.norm(strike))
    assert 1e-13 <= defect <= 5e-11
    m = moneyness(z, strike)
    mu, v = np.linalg.eigh(z)
    for t in (0.1, 0.7, 2.0):
        (w,) = pricing._call_scalars(t, mu, 0.03, "w")
        f = (v * w) @ v.conj().T
        gap = np.linalg.norm(m.price(t, 0.03).omega - hermitian_part(strike @ f))
        assert gap <= 4.0 * np.linalg.norm(strike @ f - f @ strike)


@settings(max_examples=40, deadline=None)
@given(commuting_markets(), st.integers(1, 40))
def test_price_lies_between_zero_and_forward(market, t_tenths):
    """0 <= omega <= K e^z in the operator order."""
    _, _, _, z, model = market
    omega = price(t_tenths / 10.0, z, model).omega
    slack = 1e-12 * max(1.0, float(np.linalg.norm(model.ops.X)))
    assert np.linalg.eigvalsh(omega)[0] >= -slack
    assert np.linalg.eigvalsh(model.ops.X - omega)[0] >= -slack


@settings(max_examples=40, deadline=None)
@given(commuting_markets(), st.integers(1, 9), st.sampled_from(["direct", "classical"]))
def test_hedge_reconstructs_price(market, t_tenths, convention):
    _, _, _, _, model = market
    t = model.T * t_tenths / 10.0
    pos = hedge_portfolio(t, model.ops.X, model, convention=convention)
    omega = price(model.T - t, log_moneyness(model.ops.X, model.K), model).omega
    scale = max(1.0, float(np.abs(omega).max()))
    assert np.max(np.abs(pos.value - omega)) <= 1e-12 * scale
