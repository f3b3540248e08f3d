"""The seeded draw of ``ito-check``: stacks of random flow models."""

from __future__ import annotations

import numpy as np


def _hermitian(a) -> np.ndarray:
    """(A + A*)/2 of each matrix A of a (any leading axes)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _haar_unitary(a) -> np.ndarray:
    """The Haar-distributed unitary of each matrix A of a (any leading
    axes) whose entries are standard normal re + i im: QR of A / sqrt(2)
    with the standard phase correction."""
    q, r = np.linalg.qr(a / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_model_stacks(rng, count: int, dim: int) -> tuple:
    """The (count, dim, dim) stacks (X, H, L, S) of count random models,
    drawn in one call of rng. Each model takes 8 standard normal dim x dim
    matrices, in pairs re, im: S is the Haar unitary of the first pair,
    X and H the Hermitian parts of the next two, and L 0.8 times the last."""
    normals = rng.standard_normal((count, 8, dim, dim))
    s, x, h, l = np.moveaxis(normals[:, 0::2] + 1j * normals[:, 1::2], 1, 0)
    return _hermitian(x), _hermitian(h), 0.8 * l, _haar_unitary(s)
