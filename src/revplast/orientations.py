"""Orientation helpers: axis-to-rotation frames and ``CUBE26``, the built-in
axis set that the scenario keyword ``cube26`` names."""
from __future__ import annotations

from itertools import combinations, product

import numpy as np


def rotation_to_axis(axes) -> np.ndarray:
    """Rotations (..., 3, 3) mapping the local frame (symmetry axis = local 3)
    onto each of the nonzero ``axes`` (..., 3).

    The in-plane frame completion is deterministic so repeated runs give
    identical operators; transversely isotropic tensors do not depend on it.
    """
    d = np.asarray(axes, dtype=float)
    d = d / np.linalg.norm(d, axis=-1, keepdims=True)
    seed = np.where(np.abs(d[..., :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    t1 = seed - np.sum(seed * d, axis=-1, keepdims=True) * d
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    return np.stack([t1, np.cross(d, t1), d], axis=-1)


def _cube26() -> tuple[tuple[float, float, float], ...]:
    """26 unit directions of cube symmetry: 6 face, 12 edge, 8 vertex."""
    dirs = []
    for k in (1, 2, 3):  # nonzero components: face, edge, vertex
        for axes in combinations(range(3), k):
            for signs in product((1.0, -1.0), repeat=k):
                v = np.zeros(3)
                v[list(axes)] = signs
                dirs.append(v / np.sqrt(float(k)))
    return tuple(tuple(map(float, v)) for v in dirs)


CUBE26 = _cube26()
