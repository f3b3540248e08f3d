"""Fixed calibration work that uses no qbs code: a yardstick for host speed.

Usage: python3 calibrate.py BLOCKS

The host's speed drifts by 10-20% over seconds to minutes (other tenants
of the machine), and more at times; it moves every process's wall time,
but not every kind of work alike: interpreter start-up and imports, which
read and unmarshal many files, can slow by half again as much as numeric
work. run.py starts this program between every two qbs jobs and divides
each job's wall time by the mean wall time of the calibration runs just
before and after it. The program starts an interpreter and imports numpy
and scipy.special, as every qbs job does, then runs BLOCKS blocks of
numeric work of the kinds qbs jobs do: a complex matrix round-tripped
through JSON, a Hermitian eigendecomposition, a loop of 2 x 2 matrix
products and a block of Philox normals. Each workload sets BLOCKS so that
the split between start-up and numeric work is roughly its jobs' split.
The inputs are fixed, so the work is the same in every run and commit.
"""

import json
import sys

import numpy as np
from scipy.special import ndtr

DIM = 96
PRODUCTS = 2000
PATHS, STEPS = 100, 1000


def block(rng) -> float:
    a = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    doc = [[[float(v.real), float(v.imag)] for v in row] for row in a + a.conj().T]
    pairs = np.array(json.loads(json.dumps(doc)))
    w = np.linalg.eigvalsh(pairs[..., 0] + 1j * pairs[..., 1])
    m = np.eye(2)
    step = np.array([[1.0, 1e-6], [0.0, 1.0]])
    for _ in range(PRODUCTS):
        m = (m @ step) * 1.0
    z = np.random.Generator(np.random.Philox(7)).standard_normal((PATHS, STEPS))
    return float(ndtr(w).sum() + m[0, 1] + np.exp(np.cumsum(z, axis=1) * 0.01)[:, -1].mean())


def main() -> None:
    rng = np.random.default_rng(12345)
    for _ in range(int(sys.argv[1])):
        block(rng)


if __name__ == "__main__":
    main()
