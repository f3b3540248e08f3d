"""Seeded random operator families for check suites and tests."""

from __future__ import annotations

import numpy as np

from .flows import ModelOperators
from .pricing import MarketModel


def _hermitian(a, scale: float = 1.0) -> np.ndarray:
    """scale (A + A*)/2 of each matrix A of a (any leading axes)."""
    return scale * 0.5 * (a + a.conj().swapaxes(-1, -2))


def _haar_unitary(a) -> np.ndarray:
    """The Haar-distributed unitary of each matrix A of a (any leading
    axes) whose entries are standard normal re + i im: QR of A / sqrt(2)
    with the standard phase correction."""
    q, r = np.linalg.qr(a / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    return _hermitian(random_complex(rng, dim), scale)


def random_complex(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR with the standard phase correction."""
    return _haar_unitary(random_complex(rng, dim))


def random_positive_definite(rng, dim: int, eig_low: float = 0.25, eig_high: float = 4.0) -> np.ndarray:
    """Random Hermitian with spectrum log-uniform in [eig_low, eig_high]."""
    eigs = np.exp(rng.uniform(np.log(eig_low), np.log(eig_high), size=dim))
    u = random_unitary(rng, dim)
    return (u * eigs) @ u.conj().T


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_model(rng, dim: int, brownian: bool = False, coupling: float = 0.8) -> ModelOperators:
    """Random (X, H, L, S); brownian=True pins the scattering to I."""
    s = np.eye(dim) if brownian else random_unitary(rng, dim)
    return ModelOperators(
        X=random_hermitian(rng, dim),
        H=random_hermitian(rng, dim),
        L=random_complex(rng, dim, scale=coupling),
        S=s,
    )


def random_model_stacks(rng, count: int, dim: int, coupling: float = 0.8) -> tuple:
    """The (count, dim, dim) stacks (X, H, L, S) of count models of
    random_model(rng, dim, coupling=coupling), drawn in one call of rng:
    equal, entry for entry, to count calls of random_model, which leave
    rng where this call does."""
    normals = rng.standard_normal((count, 8, dim, dim))
    # per model, in random_model's order: S, X, H, L, each re then im
    s, x, h, l = np.moveaxis(normals[:, 0::2] + 1j * normals[:, 1::2], 1, 0)
    return _hermitian(x), _hermitian(h), coupling * l, _haar_unitary(s)


def random_zero_diag_unitary(rng, dim: int) -> np.ndarray:
    """Unitary with zero diagonal: a deranged permutation with random phases."""
    if dim < 2:
        raise ValueError("no zero-diagonal unitary exists at dim 1")
    while True:
        perm = rng.permutation(dim)
        if not np.any(perm == np.arange(dim)):
            break
    phases = np.exp(2j * np.pi * rng.uniform(size=dim))
    w = np.zeros((dim, dim), dtype=np.complex128)
    w[perm, np.arange(dim)] = phases
    return w


def random_sylvester_pair(rng, dim: int):
    """(X, W) meeting the construction preconditions: X with distinct
    nonzero eigenvalues, W unitary with zero diagonal in X's eigenbasis."""
    eigs = np.sort(rng.uniform(0.5, 3.0, size=dim)) + 0.5 * np.arange(dim)
    u = random_unitary(rng, dim)
    x = (u * eigs) @ u.conj().T
    w = u @ random_zero_diag_unitary(rng, dim) @ u.conj().T
    return 0.5 * (x + x.conj().T), w


def random_commuting_positive_pair(rng, dim: int, scalar_strike: bool = False):
    """(X, K) positive definite and simultaneously diagonal in one basis."""
    u = random_unitary(rng, dim)
    x_eigs = np.exp(rng.uniform(np.log(0.5), np.log(2.5), size=dim))
    x = (u * x_eigs) @ u.conj().T
    x = 0.5 * (x + x.conj().T)
    if scalar_strike:
        k = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0)))) * np.eye(dim)
    else:
        k_eigs = np.exp(rng.uniform(np.log(0.5), np.log(2.0), size=dim))
        k = (u * k_eigs) @ u.conj().T
        k = 0.5 * (k + k.conj().T)
    return x, k


def random_market_model(rng, dim: int, r: float = 0.05, T: float = 1.0, scalar_strike: bool = True) -> MarketModel:
    x, k = random_commuting_positive_pair(rng, dim, scalar_strike=scalar_strike)
    ops = ModelOperators(
        X=x,
        H=random_hermitian(rng, dim),
        L=random_complex(rng, dim, scale=0.5),
        S=random_unitary(rng, dim),
    )
    return MarketModel(ops=ops, K=k, r=r, T=T)


def shift_model(dim: int) -> ModelOperators:
    """Cyclic-shift scattering with the number operator as observable.

    S e_j = e_(j+1 mod dim), X = diag(0..dim-1). The conservation
    coefficient is then 1 on the first dim-1 diagonal entries and
    -(dim-1) at the wrap-around corner.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    s = np.zeros((dim, dim), dtype=np.complex128)
    s[(np.arange(1, dim + 1) % dim), np.arange(dim)] = 1.0
    x = np.diag(np.arange(dim, dtype=float)).astype(np.complex128)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    return ModelOperators(X=x, H=zero, L=zero, S=s)
