"""Orthonormal (Mandel) 6-component algebra for symmetric tensors.

Symmetric second-order tensors are stored as 6-vectors
``(a11, a22, a33, sqrt(2)*a23, sqrt(2)*a13, sqrt(2)*a12)`` and fourth-order
tensors with minor symmetries as 6x6 matrices in the same basis.  The basis is
orthonormal, so the 6-vector dot product equals the full double contraction,
composition/inversion/transposition of operators are plain matrix operations,
and rotation operators are orthogonal 6x6 matrices.  Stresses are in MPa,
strains dimensionless.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import IncompressibilityError, SingularOperatorError, SymmetryError

SQRT2 = np.sqrt(2.0)

# component order of the Mandel basis: 11, 22, 33, 23, 13, 12
COMPONENT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
COMPONENT_LABELS = ("11", "22", "33", "23", "13", "12")
#: Mandel component per tensor component: 1 for the normal ones, sqrt(2) for the shears
MANDEL_SCALE = np.array([1.0, 1.0, 1.0, SQRT2, SQRT2, SQRT2])
_PAIR_I, _PAIR_J = np.array(COMPONENT_PAIRS).T

#: second-order identity as a Mandel vector
IVEC = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
IDENTITY = np.eye(6)

SYMMETRY_TOL = 1e-12   # of a 3x3 matrix, relative to max(1, its largest entry)
COND_LIMIT = 1e12      # condition number past which a fourth-order operator is singular
ROTATION_TOL = 1e-12   # of orthonormality and of det = +1


def sym2_from_matrix(m: np.ndarray) -> np.ndarray:
    """Convert a symmetric 3x3 matrix to its Mandel 6-vector."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    scale = max(1.0, np.abs(m).max())
    if np.abs(m - m.T).max() > SYMMETRY_TOL * scale:
        raise SymmetryError("matrix is not symmetric to within tolerance")
    return MANDEL_SCALE * m[_PAIR_I, _PAIR_J]


def sym2_to_matrix(v: np.ndarray) -> np.ndarray:
    """Convert a Mandel 6-vector back to the symmetric 3x3 matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape != (6,):
        raise ValueError(f"expected a Mandel 6-vector, got shape {v.shape}")
    m = np.empty((3, 3))
    m[_PAIR_I, _PAIR_J] = m[_PAIR_J, _PAIR_I] = v / MANDEL_SCALE
    return m


def ten4_from_tensor(t: np.ndarray) -> np.ndarray:
    """Convert a minor-symmetric 3x3x3x3 tensor to its Mandel 6x6 matrix."""
    t = np.asarray(t, dtype=float)
    return (np.outer(MANDEL_SCALE, MANDEL_SCALE)
            * t[_PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I[None, :], _PAIR_J[None, :]])


def ten4_inv(t: np.ndarray) -> np.ndarray:
    """Invert fourth-order operators (..., 6, 6), rejecting ill-conditioned input."""
    t = np.asarray(t, dtype=float)
    cond = np.ravel(np.linalg.cond(t))
    bad = np.flatnonzero(~(cond <= COND_LIMIT))
    if bad.size:
        raise SingularOperatorError("fourth-order operator not invertible",
                                    float(cond[bad[0]]), index=int(bad[0]))
    return np.linalg.inv(t)


def is_major_symmetric(t: np.ndarray, tol: float = 1e-12) -> bool:
    t = np.asarray(t)
    scale = max(1.0, np.abs(t).max())
    return bool(np.abs(t - t.T).max() <= tol * scale)


#: spherical and deviatoric projectors (J, K), J + K = I
J_PROJ = np.outer(IVEC, IVEC) / 3.0
K_PROJ = IDENTITY - J_PROJ
for _constant in (MANDEL_SCALE, _PAIR_I, _PAIR_J, IVEC, IDENTITY, J_PROJ, K_PROJ):
    _constant.setflags(write=False)


def iso_stiffness(young: float, poisson: float) -> np.ndarray:
    """Isotropic stiffness 3k*J + 2mu*K from Young's modulus (MPa) and Poisson ratio."""
    if not 0.0 < young < math.inf:
        raise ValueError(f"Young's modulus must be positive and finite, got {young}")
    if not -1.0 < poisson < 0.5:
        if poisson == 0.5:
            raise IncompressibilityError("poisson ratio 0.5 gives a singular stiffness")
        raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {poisson}")
    k = young / (3.0 * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    return 3.0 * k * J_PROJ + 2.0 * mu * K_PROJ


def check_rotation(r: np.ndarray) -> np.ndarray:
    """Validate proper rotation matrices (..., 3, 3) and return them as a float array."""
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (3, 3):
        raise ValueError(f"rotations must be 3x3, got shape {r.shape}")
    if not np.all(np.abs(np.swapaxes(r, -1, -2) @ r - np.eye(3)) <= ROTATION_TOL):
        raise ValueError("rotation matrix is not orthonormal")
    if not np.all(np.abs(np.linalg.det(r) - 1.0) <= ROTATION_TOL):
        raise ValueError("rotation matrix must be proper (det = +1)")
    return r


def rotation_operator(r: np.ndarray) -> np.ndarray:
    """Mandel operators (..., 6, 6) of the rotations a -> R a R^T; orthogonal.

    Closed form (Mehrabadi & Cowin 1990): for alpha = (i, j) and beta = (k, l),
    Q[alpha, beta] = s_alpha s_beta (R_ik R_jl + R_il R_jk) / 2.
    """
    r = check_rotation(r)
    i, j = _PAIR_I[:, None], _PAIR_J[:, None]
    k, l = _PAIR_I[None, :], _PAIR_J[None, :]
    return 0.5 * np.outer(MANDEL_SCALE, MANDEL_SCALE) * (r[..., i, k] * r[..., j, l]
                                                         + r[..., i, l] * r[..., j, k])
