"""Dense complex matrix helpers and Hermitian spectral functional calculus.

Operators are plain ``complex128`` numpy arrays. Structural validation is
strict: inputs that miss a tolerance are rejected, never repaired.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

HERMITIAN_RTOL = 1e-12
UNITARY_RTOL = 1e-12
# sylvester_L rejects an eigenvalue of X, or a gap between two, within this
# times max(1, max|x|), and a diagonal entry of W in X's eigenbasis above it.
SYLVESTER_GAP_RTOL = 1e-10
SYLVESTER_DIAG_TOL = 1e-10
# joint_decompose turns each pair whose entry of V*KV is above this times
# ||K||_F, and counts a turn by a sine within it as none.
JOINT_RTOL = 1e-14

_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array; reject empty or non-finite input."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name}: empty matrix")
    if not np.isfinite(a).all():
        raise ValueError(f"{name}: non-finite entries")
    return a


def frobenius(m) -> float:
    return float(np.linalg.norm(m))


def hermitian_defect(m) -> float:
    """Frobenius norm of M - M*."""
    a = np.asarray(m)
    return float(np.linalg.norm(a - a.conj().T))


def unitary_defect(m) -> float:
    """Frobenius norm of M*M - I."""
    a = np.asarray(m)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as NaN
        return float(np.linalg.norm(a.conj().T @ a - np.eye(a.shape[0])))


def power_of_two_scaled(a: np.ndarray):
    """(A 2^-e, 2^-e), 2^e the least power of two above every real and imaginary
    part of A, or e = 0 when none reaches 1: an exact scaling under which
    norms and products cannot overflow."""
    biggest = float(np.abs(np.ascontiguousarray(a).view(np.float64)).max())
    scale = math.ldexp(1.0, -max(0, math.frexp(biggest)[1]))
    return a * scale, scale


def require_hermitian(m, name: str = "matrix") -> np.ndarray:
    """Return M after checking ``||M - M*||_F <= 1e-12 * max(1, ||M||_F)``.

    Both sides are taken of power_of_two_scaled(M), so neither norm
    overflows, however large M is."""
    a = as_matrix(m, name)
    scaled, scale = power_of_two_scaled(a)
    defect, norm = hermitian_defect(scaled), frobenius(scaled)
    bound = HERMITIAN_RTOL * max(scale, norm)
    if defect > bound:
        raise ValueError(f"{name}: not Hermitian, defect {defect / scale:.6e} exceeds {bound / scale:.6e}")
    return a


def require_unitary(m, name: str = "matrix") -> np.ndarray:
    """Return M after checking ``||M*M - I||_F <= 1e-12 * dim``."""
    a = as_matrix(m, name)
    defect = unitary_defect(a)
    bound = UNITARY_RTOL * a.shape[0]
    # a NaN defect (M*M overflowed) must fail the check, not slip past it
    if not defect <= bound:
        raise ValueError(f"{name}: not unitary, defect {defect:.6e} exceeds {bound:.6e}")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a (..., d, d) stack."""
    return np.asarray(m, dtype=np.complex128).conj().swapaxes(-1, -2)


def hermitian_part(m) -> np.ndarray:
    """(M + M*)/2, for symmetrizing roundoff on computed products."""
    a = np.asarray(m, dtype=np.complex128)
    return 0.5 * (a + a.conj().T)


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    am = as_matrix(a, "A")
    bm = as_matrix(b, "B")
    if am.shape != bm.shape:
        raise ValueError(f"commutator: dimension mismatch {am.shape} vs {bm.shape}")
    return am @ bm - bm @ am


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, f) -> np.ndarray:
        """V diag(f) V*, for f the values of a scalar function at the
        eigenvalues: the spectral calculus of every operator function."""
        v = self.eigenvectors
        return (v * f) @ v.conj().T


def spectral_decompose(m, name: str = "matrix") -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix with a deterministic phase.

    The largest-modulus component of each eigenvector is made real positive
    so repeated runs on one build produce identical output.
    """
    return _decompose(require_hermitian(m, name), name)


def _decompose(a: np.ndarray, name: str) -> SpectralDecomposition:
    """spectral_decompose of a matrix that its caller has checked Hermitian."""
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        import hashlib

        digest = hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
        raise np.linalg.LinAlgError(f"{name}: eigensolver failed (input sha256 {digest})") from exc
    lead_rows = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[lead_rows, np.arange(vecs.shape[1])]
    mod = np.abs(lead)
    phase = np.where(mod > 0, lead / np.where(mod > 0, mod, 1.0), 1.0)
    vecs = vecs / phase[np.newaxis, :]
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def joint_decompose(z: np.ndarray, k: np.ndarray, name: str):
    """(dec, kd): an eigendecomposition of the checked Hermitian z whose basis V also
    diagonalizes the k that commutes with z, V*kV = diag(kd). Each pair that eigh left
    mixed, |(V*kV)_pq| > JOINT_RTOL ||k||_F, is turned by _pair_rotation, sweep by sweep
    until one turns none; the sweep cap is an eigensolver failure (Bunse-Gerstner,
    Byers and Mehrmann, SIAM J. Matrix Anal. Appl. 14, 1993)."""
    dec = _decompose(z, name)
    k_s, scale = power_of_two_scaled(k)
    v, norm = dec.eigenvectors, frobenius(k_s)
    joint = v.conj().T @ k_s @ v
    flags = np.abs(np.triu(joint, 1)) > JOINT_RTOL * norm
    both = np.stack((np.diag(dec.eigenvalues), joint))  # z and k in the basis v
    for _ in range(32):
        turned = False
        for pq in np.argwhere(flags):
            blocks = both[:, pq][:, :, pq]
            g = _pair_rotation(blocks[0], blocks[1] / norm)
            both[:, :, pq] = both[:, :, pq] @ g
            both[:, pq] = g.conj().T @ both[:, pq]
            v[:, pq] = v[:, pq] @ g
            turned |= abs(g[1, 0]) > JOINT_RTOL
        if not turned:
            break
        flags = np.abs(np.triu(both[1], 1)) > JOINT_RTOL * norm
    else:
        raise np.linalg.LinAlgError(f"{name}: the joint eigenbasis with K did not converge")
    lam, kd = both.diagonal(axis1=1, axis2=2).real
    order = stable_order(lam)
    return SpectralDecomposition(lam[order], v[:, order]), kd[order] / scale


def stable_order(values: np.ndarray) -> list:
    """The indices that sort values, ties in index order, as np.argsort(kind="stable")
    orders them. Python's sort: numpy's sort loops are code that no other step of a
    small job runs, 0.13 MB of peak RSS."""
    return sorted(range(len(values)), key=values.tolist().__getitem__)


def _pair_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2x2 unitary G that leaves the least off-diagonal in G*AG and G*BG, A and B
    Hermitian (Cardoso and Souloumiac, SIAM J. Matrix Anal. Appl. 17, 1996): for each
    as m I + r.(sx, sy, sz), G turns to sz the unit u in the span of the r that
    maximizes the sum of (r.u)^2."""
    r = np.array([[m[0, 1].real, -m[0, 1].imag, 0.5 * (m[0, 0] - m[1, 1]).real] for m in (a, b)])
    gram = r @ r.T
    phi = 0.5 * math.atan2(2.0 * gram[0, 1], gram[0, 0] - gram[1, 1])
    u = np.array([math.cos(phi), math.sin(phi)]) @ r
    u *= math.copysign(1.0, u[2]) / np.linalg.norm(u)
    g = np.array([[1.0 + u[2], -complex(u[0], -u[1])], [complex(u[0], u[1]), 1.0 + u[2]]])
    return g / math.sqrt(2.0 + 2.0 * u[2])


def finite_exp(lam, name: str) -> np.ndarray:
    """Elementwise e^lam. A value beyond float range is a numerical
    failure, raised as FloatingPointError, never returned as inf."""
    with np.errstate(over="ignore"):
        out = np.exp(lam)
    if not np.isfinite(out).all():
        raise FloatingPointError(f"{name}: exp overflows at {float(lam[~np.isfinite(out)][0])!r}")
    return out


def spectrum_log(lam, name: str) -> np.ndarray:
    """Elementwise log of the eigenvalues lam of the operator called name,
    which must all be positive."""
    smallest = float(np.min(lam))
    if smallest <= 0.0:
        raise ValueError(f"{name}: operator log needs a positive spectrum, found eigenvalue {smallest!r}")
    return np.log(lam)


def operator_log(h, name: str = "matrix") -> np.ndarray:
    """Spectral logarithm of a positive-definite Hermitian matrix."""
    dec = spectral_decompose(h, name)
    return dec.apply(spectrum_log(dec.eigenvalues, name))


def operator_exp(a, name: str = "matrix") -> np.ndarray:
    """Spectral exponential of a Hermitian matrix; output positive definite."""
    dec = spectral_decompose(a, name)
    return dec.apply(finite_exp(dec.eigenvalues, name))


def normal_cdf(x):
    """Standard normal CDF via the complementary error function; elementwise
    on arrays, a float for a float."""
    if isinstance(x, np.ndarray):
        return 0.5 * np.asarray(_ERFC(-x * _SQRT1_2), dtype=np.float64)
    return 0.5 * math.erfc(-x * _SQRT1_2)


def normal_pdf(x: float) -> float:
    """Standard normal density; elementwise on arrays. Where x * x overflows
    the density is exactly 0, and it is returned as such, without a warning."""
    with np.errstate(over="ignore"):
        return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


def phi_series(x: float, n_max: int) -> float:
    """Partial Maclaurin sum for the normal CDF, valid only on |x| <= 3.

    The series alternates with terms x^(2n+1) / (2^n n! (2n+1)); outside
    the window it cancels catastrophically, so larger arguments are
    rejected instead of silently degrading.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if abs(x) > 3.0:
        raise ValueError(f"series argument {x!r} outside validity window |x| <= 3")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    acc = 0.0
    term = x
    for n in range(n_max + 1):
        acc += term / (2 * n + 1)
        term *= -0.5 * x * x / (n + 1)
    return 0.5 + acc * _INV_SQRT_2PI


def sylvester_L(x, w) -> np.ndarray:
    """Solve [X, L] = W X for L, given Hermitian X and unitary W.

    Requires distinct nonzero eigenvalues of X and zero diagonal of W in
    X's eigenbasis. In that basis the off-diagonal entries are forced to
    L_ij = W_ij * x_j / (x_i - x_j); the free diagonal is set to zero,
    the minimal-norm completion. The construction then also satisfies
    [L*, X][X, L] = X * X.
    """
    xh = require_hermitian(x, "X")
    wu = require_unitary(w, "W")
    if xh.shape != wu.shape:
        raise ValueError(f"sylvester_L: dimension mismatch {xh.shape} vs {wu.shape}")
    dec = _decompose(xh, "X")
    lam = dec.eigenvalues
    scale = max(1.0, float(np.max(np.abs(lam))))
    for i, v in enumerate(lam):
        if abs(v) <= SYLVESTER_GAP_RTOL * scale:
            raise ValueError(f"X eigenvalue {float(v)!r} at index {i} is numerically zero")
    for i in range(len(lam) - 1):
        if lam[i + 1] - lam[i] <= SYLVESTER_GAP_RTOL * scale:
            raise ValueError(
                f"X eigenvalues at indices {i} and {i + 1} coincide "
                f"({float(lam[i])!r}, {float(lam[i + 1])!r})"
            )
    v = dec.eigenvectors
    w_tilde = v.conj().T @ wu @ v
    diag_mags = np.abs(np.diag(w_tilde))
    worst = int(np.argmax(diag_mags))
    if diag_mags[worst] > SYLVESTER_DIAG_TOL:
        raise ValueError(
            f"W has nonzero diagonal entry {diag_mags[worst]:.6e} at index {worst} in X's eigenbasis"
        )
    denom = lam[:, np.newaxis] - lam[np.newaxis, :]
    np.fill_diagonal(denom, 1.0)
    l_tilde = w_tilde * (lam[np.newaxis, :] / denom)
    np.fill_diagonal(l_tilde, 0.0)
    return v @ l_tilde @ v.conj().T
