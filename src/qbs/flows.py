"""Coefficient algebra of the quantum stochastic flow.

A differential is carried as its four system-operator coefficients (the
noise factor never materializes); products follow the Ito table, and the
time coefficient generates the vacuum (semigroup) dynamics.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .operators import adjoint, as_matrix, commutator, frobenius, power_of_two_scaled, require_hermitian, require_unitary

_SLOTS = ("creation", "conservation", "annihilation", "time")


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a."""
    out = a.copy()
    out.setflags(write=False)
    return out


class ModelOperators(namedtuple("ModelOperators", "X H L S")):
    """System quadruple (X, H, L, S): stock observable, Hamiltonian,
    coupling, and scattering, all of one dimension; validated, then held
    as read-only copies."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, X, H, L, S):
        x = require_hermitian(X, "X")
        h = require_hermitian(H, "H")
        l = as_matrix(L, "L")
        s = require_unitary(S, "S")
        shapes = {a.shape for a in (x, h, l, s)}
        if len(shapes) != 1:
            raise ValueError(f"operator dims differ: {sorted(shapes)}")
        return super().__new__(cls, frozen(x), frozen(h), frozen(l), frozen(s))

    @property
    def dim(self) -> int:
        return self.X.shape[0]


class QuantumStochasticDifferential(namedtuple("QuantumStochasticDifferential", _SLOTS)):
    """Coefficients of dA+, dLambda, dA, dt, in that slot order: the
    differential is its own slot tuple."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, creation, conservation, annihilation, time):
        slots = []
        for name, a in zip(_SLOTS, (creation, conservation, annihilation, time)):
            a = as_matrix(a, name)
            if slots and a.shape != slots[0].shape:
                raise ValueError("differential slots have mixed dimensions")
            slots.append(frozen(a))
        return super().__new__(cls, *slots)

    @property
    def dim(self) -> int:
        return self.creation.shape[0]


class FlowCoefficients(NamedTuple):
    """The quadruple (alpha, alpha_dagger, lam, theta).

    lam is the conservation coefficient (the keyword ``lambda`` is taken
    in Python); theta doubles as the Lindblad generator.
    """

    alpha: np.ndarray
    alpha_dagger: np.ndarray
    lam: np.ndarray
    theta: np.ndarray


def _theta(x, h, l, ld, ldl):
    """theta = i[H, X] - (L*L X + X L*L - 2 L* X L) / 2 of (..., d, d) stacks,
    given ld = L* and ldl = L*L."""
    return 1j * (h @ x - x @ h) - 0.5 * (ldl @ x + x @ ldl - 2.0 * (ld @ x @ l))


def _coefficients(x, h, l, s):
    """(alpha, alpha_dagger, lam, theta) of (..., d, d) stacks of X, H, L, S.

    alpha = [L*, X] S; alpha_dagger = S* [X, L]; lam = S* X S - X; theta
    as ``_theta`` gives it.
    """
    ld = adjoint(l)
    sd = adjoint(s)
    alpha = (ld @ x - x @ ld) @ s
    alpha_dagger = sd @ (x @ l - l @ x)
    lam = sd @ x @ s - x
    return alpha, alpha_dagger, lam, _theta(x, h, l, ld, ld @ l)


def flow_coefficients(x, m: ModelOperators) -> FlowCoefficients:
    """Coefficients of the flow differential of a Hermitian observable
    (the formulas are in ``_coefficients``). A coefficient beyond float
    range is a numerical failure, raised as FloatingPointError at the first
    one with a non-finite entry."""
    xh = require_hermitian(x, "X")
    if xh.shape[0] != m.dim:
        raise ValueError(f"X dim {xh.shape[0]} does not match model dim {m.dim}")
    # overflow is detected below and raised once, not warned about per product
    with np.errstate(over="ignore", invalid="ignore"):
        fc = FlowCoefficients(*_coefficients(xh, m.H, m.L, m.S))
    for name, a in zip(fc._fields, fc):
        if not np.isfinite(a).all():
            raise FloatingPointError(f"{name}: non-finite entries")
    return fc


def flow_differential(x, m: ModelOperators) -> QuantumStochasticDifferential:
    """Pack flow_coefficients into differential slots: (a+, lam, a, theta)."""
    fc = flow_coefficients(x, m)
    return QuantumStochasticDifferential(
        creation=fc.alpha_dagger,
        conservation=fc.lam,
        annihilation=fc.alpha,
        time=fc.theta,
    )


def _ito_table(d1, d2):
    """Slots of d1·d2 for (creation, conservation, annihilation, time)
    tuples of (..., d, d) stacks.

    Nonzero basis products only: dLc.dA+ = dA+, dLc.dLc = dLc,
    dA.dA+ = dt, dA.dLc = dA; every product involving a left dA+ or a
    left dt (and dt on the right against anything but nothing) vanishes.
    Coefficients multiply left-to-right as matrices.
    """
    _, con1, ann1, _ = d1
    cre2, con2, _, _ = d2
    return con1 @ cre2, con1 @ con2, ann1 @ con2, ann1 @ cre2


def _closed_power(alpha, alpha_dagger, lam, k: int):
    """Slots of the k-th Ito power (k >= 2) from the closed formula:
    (lam^(k-1) a+, lam^k, a lam^(k-1), a lam^(k-2) a+)."""
    lam_km2 = np.linalg.matrix_power(lam, k - 2)
    lam_km1 = lam_km2 @ lam
    return lam_km1 @ alpha_dagger, lam_km1 @ lam, alpha @ lam_km1, alpha @ lam_km2 @ alpha_dagger


def ito_product(
    d1: QuantumStochasticDifferential, d2: QuantumStochasticDifferential
) -> QuantumStochasticDifferential:
    """Product of two differentials under the Ito table (``_ito_table``)."""
    if d1.dim != d2.dim:
        raise ValueError(f"ito_product: dimension mismatch {d1.dim} vs {d2.dim}")
    return QuantumStochasticDifferential(*_ito_table(d1, d2))


def qsd_power_closed_form(x, m: ModelOperators, k: int) -> QuantumStochasticDifferential:
    """k-th Ito power of the flow differential from the closed formula
    (``_closed_power``), k >= 2."""
    if k < 2:
        raise ValueError("closed-form power needs k >= 2")
    fc = flow_coefficients(x, m)
    return QuantumStochasticDifferential(*_closed_power(fc.alpha, fc.alpha_dagger, fc.lam, k))


def qsd_power_iterated(x, m: ModelOperators, k: int) -> QuantumStochasticDifferential:
    """k-th Ito power by repeated left multiplication with the differential."""
    if k < 1:
        raise ValueError("iterated power needs k >= 1")
    d = flow_differential(x, m)
    out = d
    for _ in range(k - 1):
        out = ito_product(d, out)
    return out


def _frobenius(a: np.ndarray) -> np.ndarray:
    """||A||_F of each matrix of an (n, d, d) stack, summed in the order
    np.linalg.norm sums one matrix: one strided dot each over the real and
    the imaginary parts (a row times a column in matmul is that dot)."""
    flat = a.reshape(a.shape[0], 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def _power_pairs(x, h, l, s, k_max: int):
    """(k, closed, iterated) for k = 2..k_max, each a slot tuple of
    (n, d, d) stacks, from one set of coefficients and one iterated chain."""
    alpha, alpha_dagger, lam, theta = _coefficients(x, h, l, s)
    d = (alpha_dagger, lam, alpha, theta)
    it = d
    for k in range(2, k_max + 1):
        it = _ito_table(d, it)
        yield k, _closed_power(alpha, alpha_dagger, lam, k), it


def power_rule_deviation(x, h, l, s, k_max: int) -> np.ndarray:
    """Per model of (n, d, d) stacks of X, H, L, S: the largest
    ||closed - iterated||_F / max(1, ||closed||_F) of the flow
    differential's Ito powers over the slots and k = 2..k_max.

    The stacks are taken as validated (rows of ``ModelOperators``, as
    ``sampling.random_model_stacks`` draws them). Powers
    beyond float range are a numerical failure, raised as FloatingPointError:
    a power with a non-finite entry, for the first model that has one, at
    its first such slot in the order of the per-model functions (by k,
    closed form before iterated), with the message that building it as a
    differential gives; otherwise a NaN deviation, where a Frobenius norm
    of finite entries overflowed."""
    worst = np.zeros(x.shape[0])
    first_bad = {}
    # overflow is detected below and raised once, not warned about per product
    with np.errstate(over="ignore", invalid="ignore"):
        for _, closed, iterated in _power_pairs(x, h, l, s, k_max):
            for name, a in zip(_SLOTS * 2, closed + iterated):
                for i in np.flatnonzero(~np.isfinite(a).all(axis=(1, 2))):
                    first_bad.setdefault(i, name)
            for a, b in zip(closed, iterated):
                np.maximum(worst, _frobenius(a - b) / np.maximum(1.0, _frobenius(a)), out=worst)
    if first_bad:
        raise FloatingPointError(f"{first_bad[min(first_bad)]}: non-finite entries")
    if np.isnan(worst).any():
        raise FloatingPointError("power rule deviation is NaN: an Ito power's Frobenius norm overflows")
    return worst


class BrownianReport(NamedTuple):
    """Deviations of the S=1 reduction: lam from 0, brackets from alpha."""

    lambda_deviation: float
    alpha_deviation: float
    alpha_dagger_deviation: float
    passed: bool


def brownian_reduction_check(m: ModelOperators, tol: float = 1e-14) -> BrownianReport:
    """With S = I the conservation coefficient dies and the creation and
    annihilation coefficients collapse to plain commutator brackets."""
    d = m.dim
    s_defect = frobenius(m.S - np.eye(d))
    if s_defect > 1e-12 * d:
        raise ValueError(f"scattering is not the identity, defect {s_defect:.6e}")
    fc = flow_coefficients(m.X, m)
    ld = adjoint(m.L)
    lam_dev = float(np.max(np.abs(fc.lam)))
    alpha_dev = float(np.max(np.abs(fc.alpha - commutator(ld, m.X))))
    alpha_dag_dev = float(np.max(np.abs(fc.alpha_dagger - commutator(m.X, m.L))))
    scale = max(1.0, frobenius(m.X))
    passed = max(lam_dev, alpha_dev, alpha_dag_dev) <= tol * scale
    return BrownianReport(
        lambda_deviation=lam_dev,
        alpha_deviation=alpha_dev,
        alpha_dagger_deviation=alpha_dag_dev,
        passed=passed,
    )


class PoissonReport(NamedTuple):
    """How far lam = S*XS - X sits from the identity.

    interior_deviation: max |lam - I| over the masked block.
    wrap_defect: largest |lam| entry in rows/columns outside the mask
    (the truncation boundary; equals d-1 for the shift model).
    full_deviation: max |lam - I| over the whole matrix.
    trace_lambda: always ~0, which is the finite-dimensional obstruction
    to lam = I (trace I = dim).
    """

    interior_deviation: float
    wrap_defect: float
    full_deviation: float
    trace_lambda: float
    dim: int
    passed: bool


def poisson_reduction_check(
    m: ModelOperators, interior_mask, tol: float = 1e-14
) -> PoissonReport:
    """Check the lam = I hypothesis on an interior index set."""
    d = m.dim
    mask = sorted(set(int(i) for i in interior_mask))
    if not mask:
        raise ValueError("interior mask is empty")
    if mask[0] < 0 or mask[-1] >= d:
        raise ValueError(f"mask indices out of range for dim {d}")
    lam = adjoint(m.S) @ m.X @ m.S - m.X
    eye = np.eye(d)
    dev = np.abs(lam - eye)
    interior = float(np.max(dev[np.ix_(mask, mask)]))
    full = float(np.max(dev))
    outside = [i for i in range(d) if i not in mask]
    if outside:
        wrap = max(
            float(np.max(np.abs(lam[outside, :]))),
            float(np.max(np.abs(lam[:, outside]))),
        )
    else:
        wrap = 0.0
    return PoissonReport(
        interior_deviation=interior,
        wrap_defect=wrap,
        full_deviation=full,
        trace_lambda=float(np.trace(lam).real),
        dim=d,
        passed=interior <= tol * max(1.0, frobenius(m.X)),
    )


def lindblad_generator(x, m: ModelOperators) -> np.ndarray:
    """Generator of the vacuum dynamics: i[H,X] - {L*L, X}/2 + L* X L.

    Written independently of flow_coefficients so the two can be
    cross-checked; they agree because theta is exactly this operator.
    """
    xh = require_hermitian(x, "X")
    if xh.shape[0] != m.dim:
        raise ValueError(f"X dim {xh.shape[0]} does not match model dim {m.dim}")
    ld = adjoint(m.L)
    ldl = ld @ m.L
    return 1j * commutator(m.H, xh) - 0.5 * (ldl @ xh + xh @ ldl) + ld @ xh @ m.L


def default_steps(t: float) -> int:
    """RK4 step count of ``semigroup_evolve`` when none is given:
    1000 per unit time, at least 100; past float range a FloatingPointError."""
    try:
        return max(int(round(1000.0 * t)), 100)
    except OverflowError:  # round(inf)
        raise FloatingPointError(f"t: the default step count 1000 t overflows at {t!r}") from None


# Largest dimension evolved through the dense d^2 x d^2 superoperator. At
# 1,000 steps the dense route takes 0.2-1.6 ms for d <= 8 against 56-63 ms
# for the RK4 loop. At 100 steps the two are close at d = 12 (5.9 ms
# against 7.4 ms) and the loop wins at d = 16 (10.5 ms against 26 ms); at
# d = 128 the superoperator alone would be 16384^2 complex numbers (4 GiB).
# (numpy 2.4.6, 2-vCPU Xeon host.)
_DENSE_MAX_DIM = 8


def _rk4_increment(h, l, ld, ldl, dt: float, steps: int) -> np.ndarray:
    """C with I + C = R(dt L)^steps, where L is the Lindblad superoperator
    in row-major vec (vec(A Y B) = (A kron B^T) vec(Y), vec = reshape(-1))
    and R(A) = I + A + A^2/2 + A^3/6 + A^4/24 is one classical RK4 step.

    The power is taken by binary powering in increment form: with
    B = R - I, (I + C)(I + B) = I + (C + B + CB) and (I + B)^2 = I + (2B + B^2),
    so the identity is never added back in and the O(dt) entries of B keep
    their low bits through every squaring.
    """
    eye = np.eye(h.shape[0])
    a = dt * (
        1j * (np.kron(h, eye) - np.kron(eye, h.T))
        - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
        + np.kron(ld, l.T)
    )
    a2 = a @ a
    b = a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0
    c = np.zeros_like(b)
    while True:
        if steps & 1:
            c = c + b + c @ b
        steps >>= 1
        if not steps:
            return c
        b = 2.0 * b + b @ b


def semigroup_evolve(x0, m: ModelOperators, t: float, steps: int | None = None) -> np.ndarray:
    """Integrate dX/dt = theta(X) with fixed-step classical RK4.

    Default step count is ``default_steps(t)``. Up to ``_DENSE_MAX_DIM`` the
    ``steps`` steps are applied at once as a power of the one-step
    superoperator (``_rk4_increment``); above it they run one at a time.
    Hermiticity is preserved by the scheme up to roundoff; the output is
    returned unsymmetrized so that drift, if any, stays visible. An X_t or
    step count past float range is a FloatingPointError, a numerical failure.
    """
    x = require_hermitian(x0, "X0")
    if x.shape[0] != m.dim:
        raise ValueError(f"X0 dim {x.shape[0]} does not match model dim {m.dim}")
    if not t >= 0.0:
        raise ValueError("t must be nonnegative")
    if steps is None:
        steps = default_steps(t)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t == 0.0:
        return x.copy()
    h = m.H
    l = m.L
    ld = adjoint(l)
    try:
        dt = t / steps
    except OverflowError:  # a step count beyond float range
        raise FloatingPointError(f"steps: a step count of {steps.bit_length()} bits leaves float range") from None
    # overflow is detected below and raised once, not warned about per product
    with np.errstate(over="ignore", invalid="ignore"):
        ldl = ld @ l
        if m.dim <= _DENSE_MAX_DIM:
            x = x + (_rk4_increment(h, l, ld, ldl, dt, steps) @ x.reshape(-1)).reshape(x.shape)
        else:
            for _ in range(steps):
                k1 = _theta(x, h, l, ld, ldl)
                k2 = _theta(x + 0.5 * dt * k1, h, l, ld, ldl)
                k3 = _theta(x + 0.5 * dt * k2, h, l, ld, ldl)
                k4 = _theta(x + dt * k3, h, l, ld, ldl)
                x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    if not np.isfinite(x).all():
        raise FloatingPointError("X_t: non-finite entries")
    return x


def require_unit_vector(state, name: str = "state") -> np.ndarray:
    """state as a complex vector, after checking | ||state||_2 - 1 | <= 1e-12, the norm
    taken of power_of_two_scaled(state), so that it cannot overflow."""
    u = np.asarray(state, dtype=np.complex128).reshape(-1)
    scaled, scale = power_of_two_scaled(u)
    nrm = frobenius(scaled) / scale
    if not abs(nrm - 1.0) <= 1e-12:  # a NaN norm must fail the check, not slip past it
        raise ValueError(f"{name}: not normalized, norm {nrm!r}")
    return u


def expectation(state, m) -> complex:
    """<state, M state> for a unit vector; real up to roundoff for Hermitian M."""
    u = require_unit_vector(state)
    a = as_matrix(m, "M")
    if a.shape[0] != u.size:
        raise ValueError(f"state length {u.size} does not match matrix dim {a.shape[0]}")
    return complex(np.vdot(u, a @ u))
