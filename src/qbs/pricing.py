"""Operator-valued call pricing and its verification surface.

The closed form prices a European call on a positive stock observable
against a commuting strike operator K. Every priced operator is K F(z),
a scalar function F of the log-moneyness z applied in the one
eigendecomposition of z that a ``Moneyness`` holds, with unit volatility
baked in by the model's structural assumption on X. Jacobi rotations make
that basis V diagonalize K too, so K F(z) is V diag(k F(lam)) V*, the joint
spectrum of (z, K) (``operators.joint_decompose``; Bunse-Gerstner, Byers and
Mehrmann, SIAM J. Matrix Anal. Appl. 14, 1993; Cardoso and Souloumiac, ibid. 17, 1996).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .flows import ModelOperators, expectation, frozen
from .operators import (
    SpectralDecomposition,
    commutator,
    finite_exp,
    frobenius,
    hermitian_part,
    joint_decompose,
    normal_cdf,
    normal_pdf,
    power_of_two_scaled,
    relative_gap,
    require_hermitian,
    spectrum_log,
    stable_order,
)

COMMUTATION_RTOL = 1e-10
# The central-difference step of the finite-difference checks, scaled by
# max(1, |v|) at a point v (``_fd_step``).
FD_STEP = 1e-4
# terminal_limit_check judges its deviation against this times max(1, ||payoff||_2).
TERMINAL_RTOL = 1e-6


def _require_commuting(a, b, name_a: str, name_b: str) -> None:
    """Check ||[A, B]||_F <= 1e-10 ||A||_F ||B||_F, both sides taken of the
    power_of_two_scaled A and B, so that the check holds at any scale."""
    (a_s, sa), (b_s, sb) = power_of_two_scaled(a), power_of_two_scaled(b)
    defect = frobenius(commutator(a_s, b_s))
    bound = COMMUTATION_RTOL * frobenius(a_s) * frobenius(b_s)
    if not defect <= bound:
        raise ValueError(
            f"[{name_a}, {name_b}] norm {defect / sa / sb:.6e} exceeds {bound / sa / sb:.6e}; "
            "a simultaneous eigenbasis is required"
        )


def _require_positive_definite(m, name: str) -> None:
    low = float(np.linalg.eigvalsh(m)[0])
    if low <= 0.0:
        raise ValueError(f"{name}: not positive definite, smallest eigenvalue {low!r}")


class MarketModel(namedtuple("MarketModel", "ops K r T beta0")):
    """Quantum market data: flow operators plus strike, rate, maturity, bond.

    The strike must commute with the stock observable, otherwise no
    log-moneyness operator exists.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, ops: ModelOperators, K, r: float, T: float, beta0: float = 1.0):
        k = require_hermitian(K, "K")
        if k.shape[0] != ops.dim:
            raise ValueError(f"K dim {k.shape[0]} does not match model dim {ops.dim}")
        _require_positive_definite(k, "K")
        _require_positive_definite(ops.X, "X")
        # r = 0 is admitted: the classical comparison grid includes it
        if not r >= 0.0:
            raise ValueError("r must be nonnegative")
        if not T > 0.0:
            raise ValueError("T must be positive")
        if not beta0 > 0.0:
            raise ValueError("beta0 must be positive")
        _require_commuting(ops.X, k, "X", "K")
        return super().__new__(cls, ops, frozen(k), float(r), float(T), float(beta0))

    @property
    def dim(self) -> int:
        return self.ops.dim


class PriceQuote(NamedTuple):
    """Price operator at (t, z), optionally with a state expectation."""

    omega: np.ndarray
    omega_expectation: float | None = None


class HedgePosition(NamedTuple):
    """Stock weight a, bond weight b, and the reconstructed value a x + b beta."""

    a: np.ndarray
    b: np.ndarray
    value: np.ndarray


class ResidualReport(NamedTuple):
    """Worst residual over a grid against a tolerance."""

    residual_norm: float
    tolerance: float
    passed: bool
    tail_estimate: float | None = None


class ReplicationStats(NamedTuple):
    """Terminal hedging-error statistics of the discrete replication run."""

    initial_price: float
    mean_error: float
    std_error: float
    mean_abs_error: float
    paths: int
    steps: int
    seed: int


def _call_scalars(t: float, lam, r: float, names: str = "w w10 w01 w02") -> tuple:
    """Per unit strike, the price w and its partials w10, w01 and w02 at
    each eigenvalue lam of z, at time to maturity t > 0: those that the
    space-separated names lists, in that order, and no other.

    The terms are written out without algebraic simplification, so the
    PDE residual cancellation is a genuine numerical event rather than an
    identity baked into the code.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    sqrt_t = math.sqrt(t)
    disc = math.exp(-r * t)
    ez = finite_exp(lam, "z")
    # a lam / sqrt_t beyond float range is +-inf, where Phi and its density take their limits
    with np.errstate(over="ignore"):
        g = lam / sqrt_t + (r + 0.5) * sqrt_t
        h = lam / sqrt_t + (r - 0.5) * sqrt_t
    phi_g, phi_h = normal_cdf(g), normal_cdf(h)
    wanted = names.split()
    out = {}
    if "w" in wanted:
        out["w"] = ez * phi_g - disc * phi_h
    if wanted != ["w"]:
        dens_g, dens_h = normal_pdf(g), normal_pdf(h)
    if "w10" in wanted:
        lam_t = _over_t_power(-0.5 * lam, t)
        g_t = lam_t + 0.5 * (r + 0.5) / sqrt_t
        h_t = lam_t + 0.5 * (r - 0.5) / sqrt_t
        out["w10"] = ez * dens_g * g_t + r * disc * phi_h - disc * dens_h * h_t
    if "w01" in wanted:
        out["w01"] = ez * phi_g + (ez * dens_g - disc * dens_h) / sqrt_t
    if "w02" in wanted:
        ddens_g, ddens_h = -g * dens_g, -h * dens_h
        out["w02"] = ez * phi_g + 2.0 * (ez * dens_g) / sqrt_t + (ez * ddens_g - disc * ddens_h) / t
    return tuple(out[name] for name in wanted)


def _over_t_power(a, t: float):
    """a / t^1.5, elementwise. A t^1.5 or a quotient beyond float range
    (t above about 3e205, or t so small that the quotient overflows) is a
    numerical failure, raised as FloatingPointError, never returned."""
    try:
        power = t**1.5
    except OverflowError:
        raise FloatingPointError(f"t: t^1.5 overflows at {t!r}") from None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = a / power
    if not np.isfinite(out).all():
        raise FloatingPointError(f"t: z / t^1.5 overflows at {t!r}")
    return out


def _eq8(r: float, w, w10, w01, w02) -> np.ndarray:
    """w10 - w02/2 - (r-1/2) w01 + r w."""
    return w10 - 0.5 * w02 - (r - 0.5) * w01 + r * w


def _rate_factors(r: float, t: float):
    """(e^{rt}, e^{-rt}); an e^{rt} beyond float range is a numerical
    failure, raised as FloatingPointError."""
    rt = r * t
    try:
        return math.exp(rt), math.exp(-rt)
    except OverflowError:
        raise FloatingPointError(f"r t: exp overflows at {rt!r}") from None


def _report(norm: float, tolerance: float, tail: float | None = None) -> ResidualReport:
    """norm judged against tolerance."""
    return ResidualReport(
        residual_norm=norm, tolerance=float(tolerance), passed=norm <= tolerance, tail_estimate=tail
    )


def _fd_step(v: float) -> float:
    """The central-difference step at v: FD_STEP max(1, |v|)."""
    return FD_STEP * max(1.0, abs(v))


def _central_first(up, down, h: float):
    """(f(v + h) - f(v - h)) / 2h, from up = f(v + h) and down = f(v - h)."""
    return (up - down) / (2.0 * h)


def _central_second(up, mid, down, h: float):
    """(f(v + h) - 2 f(v) + f(v - h)) / h^2, from up, mid = f(v) and down."""
    return (up - 2.0 * mid + down) / (h * h)


class Moneyness(NamedTuple):
    """A log-moneyness z checked against a strike K and decomposed once:
    Hermitian, sized like K and commuting with it, so every priced operator
    at z is K F(z), a scalar function F applied in this one decomposition
    dec, whose basis V has V*KV = diag(k). Every pricing entry point builds
    one with ``moneyness`` (a given z) or ``stock_moneyness`` (a stock X's z).
    price_extremes and hedge_spectra run every check of quote and position."""

    dec: SpectralDecomposition
    k: np.ndarray

    def spectrum(self, f) -> np.ndarray:
        """k f, the eigenvalues of K F(z) for f = F(lam), checked within +-2^1020 (else FloatingPointError):
        there no sum in assembling K F(z), nor a state's expectation of it, exceeds 4 times the largest."""
        with np.errstate(over="ignore", invalid="ignore"):
            kf = self.k * f
        peak = float(max(-kf.min(), kf.max()))
        if not peak <= 2.0**1020:
            raise FloatingPointError(f"K F(z) can overflow: eigenvalue modulus {peak!r} exceeds 2^1020")
        return kf

    def priced(self, f) -> np.ndarray:
        """K F(z) for z = V diag(lam) V* and f = F(lam): hermitian_part(V diag(spectrum(f)) V*)."""
        return hermitian_part(self.dec.apply(self.spectrum(f)))

    def price(self, t: float, r: float, state=None) -> PriceQuote:
        """price(t, z, model) for a model of rate r."""
        return self.quote(self.price_extremes(t, r)[0], state)

    def price_extremes(self, t: float, r: float):
        """(w, the smallest and the largest eigenvalue of omega = priced(w)): every check of price(t, r)."""
        (w,) = _call_scalars(t, self.dec.eigenvalues, r, "w")
        kw = self.spectrum(w)
        return w, float(kw.min()), float(kw.max())

    def quote(self, w, state) -> PriceQuote:
        """The PriceQuote of omega = priced(w), for w from price_extremes."""
        omega = self.priced(w)
        expect = None if state is None else float(expectation(state, omega).real)
        return PriceQuote(omega=omega, omega_expectation=expect)

    def eq8(self, t: float, r: float):
        """(the residual_eq8 norm max |k eq8| at rate r, inf or NaN where eq8
        overflows; the call scalars (w, w10, w01, w02) at z, one pass)."""
        with np.errstate(over="ignore", invalid="ignore"):
            scalars = _call_scalars(t, self.dec.eigenvalues, r)
            eq8 = _eq8(r, *map(self.spectrum, scalars))
        return float(np.abs(eq8).max()), scalars

    def residual(self, t: float, r: float, tolerance: float):
        """(residual_eq8(t, z, model, tolerance=tolerance) at rate r; the
        2-norm gap of K w01(z) or K w02(z) from central differences of the
        price over z +- hI, h the ``_fd_step`` of ||z||_2: z +- hI has z's
        eigenvectors, so a gap is max |k f| for f taken at the shifted
        eigenvalues), from the scalars of eq8 and one pass at each shift."""
        lam = self.dec.eigenvalues
        h = _fd_step(float(np.abs(lam).max()))
        norm, (w, _, w01, w02) = self.eq8(t, r)
        with np.errstate(over="ignore", invalid="ignore"):
            (up,), (down,) = _call_scalars(t, lam + h, r, "w"), _call_scalars(t, lam - h, r, "w")
            gap01 = np.abs(w01 - _central_first(up, down, h))
            gap02 = np.abs(w02 - _central_second(up, w, down, h))
            gap = float(np.max(self.k * np.maximum(gap01, gap02)))
        return _report(norm, tolerance), gap

    def payoff(self, convention: str = "spectral", state=None):
        """terminal_payoff(z, K, convention, state)."""
        if convention not in ("spectral", "expectation"):
            raise ValueError(f"unknown payoff convention {convention!r}")
        if convention == "expectation" and state is None:
            raise ValueError("expectation convention requires a state")
        if convention == "spectral":
            return self._spectral_payoff()[1]
        excess = finite_exp(self.dec.eigenvalues, "z") - 1.0
        return max(0.0, float(expectation(state, self.priced(excess)).real))

    def _spectral_payoff(self):
        """(k f, K f(z)) for the spectral payoff f(lam) = max(e^lam - 1, 0)."""
        kf = self.spectrum(np.maximum(finite_exp(self.dec.eigenvalues, "z") - 1.0, 0.0))
        return kf, hermitian_part(self.dec.apply(kf))

    def terminal(self, t_small: float, r: float, min_gap: float, rel_tol: float, name: str):
        """(terminal_limit_check of z at rate r, the spectral payoff): max |k w(t_small) - k f|
        against rel_tol max(1, ||payoff||_2); a gap error calls z name."""
        closest = float(np.min(np.abs(self.dec.eigenvalues)))
        if closest < min_gap:
            raise ValueError(
                f"{name} eigenvalue with |value| = {closest!r} lies within {min_gap} of 0; "
                "the terminal limit is not certified there"
            )
        kf, payoff = self._spectral_payoff()
        kw = self.spectrum(*_call_scalars(t_small, self.dec.eigenvalues, r, "w"))
        return _report(float(np.abs(kw - kf).max()), rel_tol * max(1.0, float(np.abs(kf).max()))), payoff

    def hedge_spectra(self, t: float, model: MarketModel, convention: str = "direct"):
        """(the eigenvalues of omega, those of a, (e^{rt}, e^{-rt})): every check of position, for the
        stock's moneyness. No entry of a j_x exceeds max |a| max |k e^lam| (the stock is K e^z), nor one
        of b or beta0 e^{rt} b the bounds that follow; past 2^1020 that is a FloatingPointError."""
        if not 0.0 < t < model.T:
            raise ValueError(f"t={t!r} outside (0, {model.T})")
        if convention not in ("direct", "classical"):
            raise ValueError(f"unknown hedge convention {convention!r}")
        lam = self.dec.eigenvalues
        w, w01 = _call_scalars(model.T - t, lam, model.r, "w w01")
        grow, disc = rates = _rate_factors(model.r, t)
        kw = self.spectrum(w)
        ka = self.spectrum(w01) if convention == "direct" else w01 * finite_exp(-lam, "z")
        a_jx = float(np.abs(ka).max()) * float(self.spectrum(finite_exp(lam, "z")).max())
        b = (float(np.abs(kw).max()) + a_jx) * (disc / model.beta0)
        peak = float(np.max([a_jx, b, model.beta0 * grow * b]))
        if not peak <= 2.0**1020:
            raise FloatingPointError(f"hedge at t={t!r} can overflow: a j_x or b bound {peak!r} exceeds 2^1020")
        return kw, ka, rates

    def position(self, kw, ka, rates, j_x, model: MarketModel):
        """(the HedgePosition in j_x, the omega its value reproduces), from hedge_spectra;
        b and the value a j_x + beta0 e^{rt} b are each built in one array, in place."""
        grow, disc = rates
        omega = hermitian_part(self.dec.apply(kw))
        a = hermitian_part(self.dec.apply(ka))
        a_jx = hermitian_part(a @ j_x)
        b = omega - a_jx
        b *= disc / model.beta0
        b = hermitian_part(b)
        value = np.multiply(model.beta0 * grow, b)
        value += a_jx
        return HedgePosition(a=a, b=b, value=value), omega


def moneyness(z, k: np.ndarray, name: str = "z") -> Moneyness:
    """z checked Hermitian, then ``hermitian_moneyness``."""
    return hermitian_moneyness(require_hermitian(z, name), k, name)


def hermitian_moneyness(z: np.ndarray, k: np.ndarray, name: str) -> Moneyness:
    """A Hermitian z checked against the checked strike k, then decomposed jointly with it."""
    _require_commuting(z, k, name, "K")  # the commutator rejects unlike shapes
    return Moneyness(*joint_decompose(z, k, name))


def stock_moneyness(x_op, k_op) -> Moneyness:
    """X and K checked Hermitian, then ``hermitian_stock_moneyness``."""
    return hermitian_stock_moneyness(require_hermitian(x_op, "X"), require_hermitian(k_op, "K"))


def hermitian_stock_moneyness(x: np.ndarray, k: np.ndarray) -> Moneyness:
    """The z with K e^z = X, for commuting positive X and K already checked
    Hermitian, checked by that identity: V diag(log x - log k) V* in the
    joint decomposition (x, k) of (X, K). Public: perfbench/traced_job.py wraps
    public functions only, and a traced ``hedge`` job spends its time here."""
    dec_x, k_x = hermitian_moneyness(x, k, "X")
    lam = spectrum_log(dec_x.eigenvalues, "X") - spectrum_log(k_x, "K")
    order = stable_order(lam)
    m = Moneyness(SpectralDecomposition(lam[order], dec_x.eigenvectors[:, order]), k_x[order])
    err, _, reproduced = relative_gap(x, m.priced(finite_exp(m.dec.eigenvalues, "z")), 1e-10)
    if not reproduced:
        raise ValueError(f"K exp(z) fails to reproduce X, error {err:.6e}")
    return m


def log_moneyness(x_op, k_op) -> np.ndarray:
    """The Hermitian z with K e^z = X, for commuting positive X and K."""
    dec = stock_moneyness(x_op, k_op).dec
    return hermitian_part(dec.apply(dec.eigenvalues))


def price(t: float, z, model: MarketModel, state=None) -> PriceQuote:
    """Closed-form call price operator K e^z Phi(g) - K Phi(h) e^(-rt).

    K commutes with z, so the price is K F(z) for the scalar call formula
    F, applied in one eigendecomposition of z; the tiny skew left by
    finite arithmetic is symmetrized away.
    """
    return moneyness(z, model.K).price(t, model.r, state)


def price_derivatives(t: float, z, model: MarketModel):
    """Analytic partials (d/dt, d/dz, d2/dz2) of the closed form."""
    m = moneyness(z, model.K)
    with np.errstate(over="ignore", invalid="ignore"):
        partials = _call_scalars(t, m.dec.eigenvalues, model.r, "w10 w01 w02")
    return tuple(map(m.priced, partials))


def residual_eq8(t: float, z, model: MarketModel, candidate=None, tolerance: float = 1e-6) -> ResidualReport:
    """Residual of w10 - w02/2 - (r-1/2) w01 + r w at one grid point.

    With no candidate the built-in price and its analytic derivatives are
    used, from one pass of the call scalars (``Moneyness.eq8``). A candidate
    callable (t, z) -> matrix is differentiated by central differences
    instead, which keeps the check route independent of the analytic code
    path; z moves by FD_STEP I, and t by its ``_fd_step``, halved to t / 2
    where it would reach 0.
    """
    if candidate is None:
        return _report(moneyness(z, model.K).eq8(t, model.r)[0], tolerance)
    zh = require_hermitian(z, "z")
    if not t > 0.0:
        raise ValueError("t must be positive")
    ht = _fd_step(t)
    if t - ht <= 0.0:
        ht = 0.5 * t
    shift = FD_STEP * np.eye(zh.shape[0])

    def w_at(t_at: float, z_at: np.ndarray) -> np.ndarray:
        return np.asarray(candidate(t_at, z_at), dtype=np.complex128)

    w = w_at(t, zh)
    w_zp, w_zm = w_at(t, zh + shift), w_at(t, zh - shift)
    w10 = _central_first(w_at(t + ht, zh), w_at(t - ht, zh), ht)
    w01, w02 = _central_first(w_zp, w_zm, FD_STEP), _central_second(w_zp, w, w_zm, FD_STEP)
    return _report(float(np.linalg.norm(_eq8(model.r, w, w10, w01, w02), 2)), tolerance)


def _largest(values: list) -> float:
    """The largest of values, 0.0 when there are none, and NaN when one is
    NaN: max() would drop it, and a NaN residual would pass."""
    return float(np.max(values, initial=0.0))


def _scalar_differences(u, grid):
    """(t, x, u, u10, u01, u02) at each (t, x) of grid, x > 0, the partials
    of u taken by central differences in 5 calls of u."""
    for t, x in grid:
        if not x > 0.0:
            raise ValueError(f"grid point x={x!r} is not positive")
        ht, hx = _fd_step(t), _fd_step(x)
        u00 = u(t, x)
        u10 = _central_first(u(t + ht, x), u(t - ht, x), ht)
        u_xp, u_xm = u(t, x + hx), u(t, x - hx)
        yield t, x, u00, u10, _central_first(u_xp, u_xm, hx), _central_second(u_xp, u00, u_xm, hx)


def residual_brownian_scalar(u, gfun, r: float, grid, tolerance: float = 1e-6) -> ResidualReport:
    """Finite-difference residual of u10 = g(x) u02 / 2 + r x u01 - r u.

    The drift coefficient h(x) = x r is fixed; gfun supplies the
    volatility structure (x^2 recovers the solved model).
    """
    residuals = [
        abs(u10 - 0.5 * u02 * gfun(x) - u01 * x * r + u00 * r)
        for _, x, u00, u10, u01, u02 in _scalar_differences(u, grid)
    ]
    return _report(_largest(residuals), tolerance)


def _fd_x_derivative(u, t: float, x: float, k: int) -> float:
    # step grows with the order; the binomial stencil amplifies roundoff as h^-k
    h = float(np.finfo(float).eps) ** (1.0 / (k + 2)) * max(1.0, abs(x))
    acc = 0.0
    for j in range(k + 1):
        acc += (-1.0) ** j * math.comb(k, j) * u(t, x + (0.5 * k - j) * h)
    return acc / h**k


def residual_poisson_scalar(
    u, gfun, r: float, k_max: int, grid, x_derivs=None, tolerance: float = 1e-6
) -> ResidualReport:
    """Residual of the number-process equation with the derivative series
    truncated at k_max; the dropped magnitude is reported as a tail estimate.

    u10 = sum_{k=2..k_max} u0k g(x) / k! + r x u01 - r u. Higher x
    derivatives come from x_derivs(u, t, x, k) when supplied, else from
    central stencils with order-scaled steps.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    deriv = x_derivs if x_derivs is not None else _fd_x_derivative
    residuals, tails = [], []
    for t, x, u00, u10, u01, _ in _scalar_differences(u, grid):
        g_x = gfun(x)
        series = last = 0.0
        for k in range(2, k_max + 1):
            last = deriv(u, t, x, k) * g_x / math.factorial(k)
            series += last
        residuals.append(abs(u10 - series - u01 * x * r + u00 * r))
        tails.append(abs(last))
    return _report(_largest(residuals), tolerance, _largest(tails))


def terminal_payoff(z_t, k_op, convention: str = "spectral", state=None):
    """Call payoff at maturity from the terminal log-moneyness.

    spectral: K max(e^z - 1, 0), an operator: for positive K commuting
    with z, the positive part of K e^z - K.
    expectation: max(0, <u, (K e^z - K) u>), a scalar; requires a state.
    The two disagree for indefinite K e^z - K, which is why both exist.
    """
    k = require_hermitian(k_op, "K")
    _require_positive_definite(k, "K")
    return moneyness(z_t, k, "zT").payoff(convention, state)


def terminal_limit_check(z_t, model: MarketModel, t_small: float = 1e-8, min_gap: float = 0.1) -> ResidualReport:
    """Compare price(t_small, zT) with the spectral payoff, against
    TERMINAL_RTOL max(1, ||payoff||_2).

    Eigenvalues of zT inside (-min_gap, min_gap) are rejected: there the
    limit is governed by the CDF transition and no rate is claimed.
    """
    m = moneyness(z_t, model.K, "zT")
    return m.terminal(t_small, model.r, min_gap, TERMINAL_RTOL, "zT")[0]


def reasonable_price(model: MarketModel, state=None) -> PriceQuote:
    """Initial wealth of the replicating strategy: the price at maturity
    horizon T and z0 = log-moneyness of today's stock against the strike."""
    return hermitian_stock_moneyness(model.ops.X, model.K).price(model.T, model.r, state)


def hedge_portfolio(
    t: float, j_x, model: MarketModel, convention: str = "direct"
) -> HedgePosition:
    """Hedge at calendar time t in (0, T) for stock operator j_x.

    direct convention: a = w01(T - t, z_t), the slope of the price in
    log-moneyness at time to maturity, used as the stock weight as is.
    classical convention: a = w01 x^{-1}, the chain-rule delta; with
    x = K e^z and K commuting with z the strike cancels, leaving the
    per-unit-strike slope times e^{-z}.
    b is fixed by b = (w - a j_x) e^{-rt} / beta0 either way, so the
    value identity a j_x + b beta_t = w holds by construction.
    """
    jx = require_hermitian(j_x, "j_x")
    m = hermitian_stock_moneyness(jx, model.K)
    return m.position(*m.hedge_spectra(t, model, convention), jx, model)[0]


def classical_bs(x: float, strike: float, r: float, sigma: float, t: float):
    """Scalar Black-Scholes call price and delta.

    Returns (price, delta) with delta = Phi(g). The dim-1 operator price
    at unit volatility must land on this number.
    """
    for name, val in (("x", x), ("strike", strike), ("sigma", sigma), ("t", t)):
        if not val > 0.0:
            raise ValueError(f"{name} must be positive, got {val!r}")
    if not r >= 0.0:
        raise ValueError("r must be nonnegative")
    vol_sqrt_t = sigma * math.sqrt(t)
    g = (math.log(x / strike) + (r + 0.5 * sigma * sigma) * t) / vol_sqrt_t
    h = g - vol_sqrt_t
    value = x * normal_cdf(g) - strike * math.exp(-r * t) * normal_cdf(h)
    return value, normal_cdf(g)


def _path_normals(seed: int, first: int, count: int, steps: int) -> np.ndarray:
    """(count, steps) standard normals, row i the start of the substream
    of path first + i (``replication_simulation``)."""
    from numpy.random import Generator, Philox

    bits = Philox(key=seed)
    state = bits.state
    counter = state["state"]["counter"]
    normals = Generator(bits)
    out = np.empty((count, steps))
    for i in range(count):
        counter[2] = first + i
        bits.state = state  # also empties the buffer, as in a fresh Philox
        normals.standard_normal(steps, out=out[i])
    return out


def replication_simulation(
    x0: float,
    strike: float,
    r: float,
    T: float,
    steps: int,
    paths: int,
    seed: int,
    sigma: float = 1.0,
    block: int = 256,
) -> ReplicationStats:
    """Discrete delta-hedge replication along risk-neutral geometric paths.

    Path p draws N from ``Philox(key=seed).jumped(p)``, whatever the block
    size. From x0's Black-Scholes price and delta, step j takes
    x_j = x_{j-1} exp(sigma sqrt(dt) N_j + (r - sigma^2 / 2) dt), cash_j =
    cash_{j-1} e^{r dt} and, for j < steps - 1, cash_j -= (D_j - D_{j-1}) x_j
    with D_j = Phi((log(x_j / strike) + (r + sigma^2 / 2) tau) / (sigma
    sqrt(tau))), tau = T - (j + 1) dt. The error is V_T - payoff. Steps
    run a chunk of steps // 8 at a time. A step count or an error moment
    past float range is a FloatingPointError."""
    # paths x steps deltas want a C-speed CDF; no other command loads scipy
    from scipy.special import ndtr

    v0, delta0 = classical_bs(x0, strike, r, sigma, T)  # checks all five
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if paths < 1000:
        raise ValueError("paths must be >= 1000")
    if block < 1:
        raise ValueError("block must be >= 1")
    try:
        dt = T / steps
    except OverflowError:  # a step count beyond float range
        raise FloatingPointError(f"steps: a step count of {steps.bit_length()} bits leaves float range") from None
    growth = np.array(_rate_factors(r, dt)[0])  # 0-d: a faster operand than a float
    drift = (r - 0.5 * sigma * sigma) * dt
    tau = T - np.arange(1, steps) * dt
    shift, scale = (r + 0.5 * sigma * sigma) * tau, sigma * np.sqrt(tau)
    # rows of x, D, cash paid: contiguous, as numpy buffers other operands
    chunk, width = steps // 8, min(block, paths)
    x_buf, paid_buf, delta_buf = (np.empty(rows * width) for rows in (chunk, chunk, chunk + 1))
    errors = np.empty(paths)
    # a path beyond float range leaves its error or a moment inf or NaN, checked once below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, paths, block):
            stop = min(start + block, paths)
            count = stop - start
            growth_factors = _path_normals(seed, start, count, steps)
            growth_factors *= sigma * math.sqrt(dt)
            growth_factors += drift
            np.exp(growth_factors, out=growth_factors)
            xs, cash = x0, np.full(count, v0 - delta0 * x0)
            deltas = delta_buf[: (chunk + 1) * count].reshape(chunk + 1, count)
            deltas[0] = delta0
            for j in range(0, steps - 1, chunk):
                n = min(chunk, steps - 1 - j)
                x = x_buf[: n * count].reshape(n, count)
                paid = paid_buf[: n * count].reshape(n, count)
                arg = deltas[1 : n + 1]
                growth_factors[:, j] *= xs
                np.multiply.accumulate(growth_factors[:, j : j + n].T, axis=0, out=x)
                np.divide(x, strike, out=arg)
                np.log(arg, out=arg)
                paid[:] = shift[j : j + n, None]
                arg += paid
                paid[:] = scale[j : j + n, None]
                arg /= paid
                ndtr(arg, out=arg)
                np.subtract(arg, deltas[:n], out=paid)
                paid *= x
                for row in paid:
                    cash *= growth
                    cash -= row
                xs, deltas[0] = x[-1], arg[-1]
            xs = xs * growth_factors[:, -1]
            del growth_factors  # not alive beside the next block's draw
            errors[start:stop] = deltas[0] * xs + cash * growth - np.maximum(xs - strike, 0.0)
        moments = float(np.mean(errors)), float(np.std(errors, ddof=1)), float(np.mean(np.abs(errors)))
    if not np.isfinite(moments).all():
        raise FloatingPointError(f"hedging error moments: non-finite (mean, std, mean abs) {moments!r}")
    return ReplicationStats(v0, *moments, int(paths), int(steps), int(seed))
