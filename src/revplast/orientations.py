"""Orientation helpers: axis-to-rotation frames and ``CUBE26``, the built-in
axis set that the scenario keyword ``cube26`` names."""
from __future__ import annotations

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
    dirs: list[np.ndarray] = []
    for i in range(3):
        for s in (1.0, -1.0):
            v = np.zeros(3)
            v[i] = s
            dirs.append(v)
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(3)
                    v[i], v[j] = si, sj
                    dirs.append(v / np.sqrt(2.0))
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                dirs.append(np.array([sx, sy, sz]) / np.sqrt(3.0))
    return tuple(tuple(map(float, v)) for v in dirs)


CUBE26 = _cube26()
