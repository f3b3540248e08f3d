"""Independent reference computations used to pin expected test values.

Everything here is deliberately coded against the raw definitions rather
than through the library: quadrature instead of erfc, elementwise loops
instead of ``@``, a Taylor exponential instead of eigendecomposition, and
an explicit superoperator instead of a step integrator. Keeping these
routes separate is the point; do not replace them with library calls.
"""

import math
from math import comb

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm as dense_expm


def normal_cdf_quadrature(x):
    """Standard normal CDF by direct integration of the density."""
    val, _ = quad(
        lambda y: math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi),
        -40.0,
        x,
        limit=400,
    )
    return val


def mills_tail_bound(x):
    """Upper bound for Phi(-x) when x > 0: phi(x)/x."""
    if x <= 0:
        raise ValueError("bound holds for x > 0 only")
    return math.exp(-0.5 * x * x) / (x * math.sqrt(2.0 * math.pi))


def maclaurin_cdf(x, n_max):
    # direct term-by-term sum, no recurrence shared with the library
    acc = 0.0
    for n in range(n_max + 1):
        term = (-1.0) ** n * x ** (2 * n + 1) / (2.0**n * math.factorial(n) * (2 * n + 1))
        acc += term
    return 0.5 + acc / math.sqrt(2.0 * math.pi)


def matmul_loops(a, b):
    """Triple-loop matrix product; slow on purpose."""
    n, m = a.shape
    m2, p = b.shape
    if m != m2:
        raise ValueError("shape mismatch")
    out = np.zeros((n, p), dtype=complex)
    for i in range(n):
        for j in range(p):
            acc = 0.0 + 0.0j
            for k in range(m):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def dagger_loops(a):
    n, m = a.shape
    out = np.zeros((m, n), dtype=complex)
    for i in range(n):
        for j in range(m):
            out[j, i] = a[i, j].conjugate()
    return out


def flow_coefficients_loops(x, h, l, s):
    """Second transcription of the four evolution coefficients.

    alpha      = [L*, X] S
    alpha_dag  = S* [X, L]
    lam        = S* X S - X
    theta      = i[H, X] - (L*L X + X L*L - 2 L* X L) / 2

    Built entirely from the loop primitives above.
    """
    ld = dagger_loops(l)
    sd = dagger_loops(s)
    alpha = matmul_loops(matmul_loops(ld, x) - matmul_loops(x, ld), s)
    alpha_dag = matmul_loops(sd, matmul_loops(x, l) - matmul_loops(l, x))
    lam = matmul_loops(sd, matmul_loops(x, s)) - x
    ldl = matmul_loops(ld, l)
    theta = 1j * (matmul_loops(h, x) - matmul_loops(x, h)) - 0.5 * (
        matmul_loops(ldl, x)
        + matmul_loops(x, ldl)
        - 2.0 * matmul_loops(ld, matmul_loops(x, l))
    )
    return alpha, alpha_dag, lam, theta


def taylor_expm(a, terms=64):
    """Scaling-and-squaring Taylor exponential; no eigendecomposition."""
    a = np.asarray(a, dtype=complex)
    nrm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    s = max(0, int(math.ceil(math.log2(nrm))) + 1) if nrm > 1e-300 else 0
    m = a / (2.0**s)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def heisenberg_superoperator(h, l):
    """Matrix of X -> i[H,X] - (L*L X + X L*L - 2 L* X L)/2 on vec(X).

    Column-stacking convention: vec(A X B) = kron(B.T, A) vec(X).
    """
    d = h.shape[0]
    eye = np.eye(d)
    ld = l.conj().T
    ldl = ld @ l

    def left(a):
        return np.kron(eye, a)

    def right(a):
        return np.kron(a.T, eye)

    return (
        1j * (left(h) - right(h))
        + np.kron(l.T, ld)
        - 0.5 * left(ldl)
        - 0.5 * right(ldl)
    )


def superoperator_evolve(x0, h, l, t):
    """Evolve vec(X) with the dense matrix exponential of the generator."""
    d = x0.shape[0]
    gen = heisenberg_superoperator(h, l)
    vec = np.asarray(x0, dtype=complex).reshape(-1, order="F")
    out = dense_expm(t * gen) @ vec
    return out.reshape(d, d, order="F")


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def kth_diff(f, x, k, h):
    """Central k-th difference from the binomial stencil."""
    acc = 0.0
    for j in range(k + 1):
        acc += (-1.0) ** j * comb(k, j) * f(x + (k / 2.0 - j) * h)
    return acc / h**k


def classical_call_quadrature(x, strike, r, sigma, t):
    """European call with the CDF evaluated by quadrature."""
    g = (math.log(x / strike) + (r + 0.5 * sigma * sigma) * t) / (sigma * math.sqrt(t))
    h = g - sigma * math.sqrt(t)
    return x * normal_cdf_quadrature(g) - strike * math.exp(-r * t) * normal_cdf_quadrature(h)


def normal_cdf_erf(x):
    """Standard normal CDF as (1 + erf(x / sqrt 2)) / 2: erf, not the erfc
    that the library takes, and within a few eps of Phi in absolute terms,
    where the quadrature above keeps only about 4e-13."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes_put(x, strike, r, sigma, t):
    """European put from its own formula, strike e^(-rt) Phi(-h) - x Phi(-g),
    and not through put-call parity."""
    vol_sqrt_t = sigma * math.sqrt(t)
    g = (math.log(x / strike) + (r + 0.5 * sigma * sigma) * t) / vol_sqrt_t
    h = g - vol_sqrt_t
    return strike * math.exp(-r * t) * normal_cdf_erf(-h) - x * normal_cdf_erf(-g)


def put_in_basis(u, lam, k, r, t):
    """U diag(P(k_i e^lam_i, k_i)) U*, P(x, strike) the scalar put at unit
    volatility: the put on the stock K e^z of z = U diag(lam) U* and
    K = U diag(k) U*, by loop products."""
    scalar = np.diag([black_scholes_put(ki * math.exp(li), ki, r, 1.0, t) for ki, li in zip(k, lam)])
    return matmul_loops(matmul_loops(u, scalar), dagger_loops(u))


def replication_step_loop(x0, strike, r, T, steps, paths, seed, sigma=1.0):
    """Discrete delta-hedge replication one step at a time, all paths at once.

    Path p draws its normals N from ``Philox(key=seed).jumped(p)``. From
    x = x0, Delta = Phi(g) and cash = V - Delta x0, with V and Phi(g) the
    scalar Black-Scholes call price and delta, Phi(v) = erfc(-v sqrt(1/2)) / 2,
    step j = 0..steps-1 takes, in float64 and in this order,
    x_j = x_{j-1} exp(sigma sqrt(dt) N_j + (r - sigma^2 / 2) dt) and
    cash_j = cash_{j-1} e^{r dt}; for j < steps - 1 also
    Delta_j = Phi((log(x_j / strike) + (r + sigma^2 / 2) tau_j) / (sigma sqrt(tau_j)))
    with tau_j = T - (j + 1) dt, and cash_j -= (Delta_j - Delta_{j-1}) x_j.
    Returns (V, mean, sample standard deviation and mean absolute value of
    the terminal errors Delta x + cash - max(x - strike, 0), paths, steps, seed).
    """
    from scipy.special import ndtr

    def cdf(v):
        return 0.5 * math.erfc(-v * math.sqrt(0.5))

    vol = sigma * math.sqrt(T)
    g = (math.log(x0 / strike) + (r + 0.5 * sigma * sigma) * T) / vol
    price = x0 * cdf(g) - strike * math.exp(-r * T) * cdf(g - vol)
    dt = T / steps
    normals = np.array([
        np.random.Generator(np.random.Philox(key=seed).jumped(p)).standard_normal(steps)
        for p in range(paths)
    ])
    x = np.full(paths, float(x0))
    delta = np.full(paths, cdf(g))
    cash = price - delta * x
    for j in range(steps):
        x = x * np.exp(normals[:, j] * (sigma * math.sqrt(dt)) + (r - 0.5 * sigma * sigma) * dt)
        cash = cash * math.exp(r * dt)
        if j < steps - 1:
            tau = T - (j + 1) * dt
            new = ndtr((np.log(x / strike) + (r + 0.5 * sigma * sigma) * tau) / (sigma * math.sqrt(tau)))
            cash = cash - (new - delta) * x
            delta = new
    errors = delta * x + cash - np.maximum(x - strike, 0.0)
    return (price, float(np.mean(errors)), float(np.std(errors, ddof=1)),
            float(np.mean(np.abs(errors))), paths, steps, seed)
