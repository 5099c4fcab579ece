import os

# one BLAS thread, set before numpy is imported: a second thread only spins
# on these small matrices, and the timed tests read this process's CPU time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest


def rodrigues(axis, angle):
    """Rotation matrix about ``axis`` by ``angle`` (Rodrigues formula)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_rotation(rng):
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    return rodrigues(axis, rng.uniform(0.0, 2.0 * np.pi))


def random_symmetric(rng, scale=1.0):
    m = rng.normal(size=(3, 3)) * scale
    return 0.5 * (m + m.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
