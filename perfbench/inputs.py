"""Input files of the test-wide workload, made with numpy alone.

The panel has K = 4 samples of the Case IV sizes (N = 1000, 900, 1100,
950) and d = 2000 coordinates. Each coordinate v is an AR(1) series with
coefficient 0.1 + 0.5 v / d, and one scalar innovation per sample and time
drives all coordinates, as in the paper's simulation design. The
projection vector is a Dirichlet(1, ..., 1) draw. The package's own
generator is not used, so the program under test cannot change its inputs:
for one seed the files are the same bytes on every commit.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

SIZES = (1000, 900, 1100, 950)
SIGMAS = (1.0, 1.5, 0.7, 1.0)
D = 2000
BURN_IN = 200


def _ar1_sample(rng, n, sigma, rho):
    eps = sigma * rng.standard_normal(BURN_IN + n)
    out = np.empty((BURN_IN + n, rho.shape[0]))
    state = np.zeros(rho.shape[0])
    for t, e in enumerate(eps):
        state = rho * state + e
        out[t] = state
    return out[BURN_IN:]


def make_test_wide(seed: int, directory: str):
    """Write sample_1..4.csv and v.txt under ``directory``.

    Returns (data paths, projection vector path).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    rho = 0.1 + 0.5 * np.arange(1, D + 1) / D
    data = []
    for j, (n, sigma) in enumerate(zip(SIZES, SIGMAS)):
        path = os.path.join(directory, f"sample_{j + 1}.csv")
        np.savetxt(path, _ar1_sample(rng, n, sigma, rho), delimiter=",", fmt="%.17g")
        data.append(path)
    v_path = os.path.join(directory, "v.txt")
    np.savetxt(v_path, rng.dirichlet(np.ones(D)), fmt="%.17g")
    return data, v_path


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
