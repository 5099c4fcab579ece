"""Eshelby and Hill morphology tensors for spheroids in an isotropic matrix.

Conventions: the spheroid has unit equatorial semi-axes and symmetry-axis
semi-axis equal to the aspect ratio, with the symmetry axis along local x3.
All results are Mandel 6x6 matrices in that local frame.

Two independent evaluation routes are provided: the classical closed forms
(with a series branch near the sphere where they cancel catastrophically) and
a direct spherical-surface quadrature of the Green-operator integral.  The
quadrature route exists to cross-check the closed forms and is used by the
self-test battery.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import MorphologyError
from .tensors import is_major_symmetric, iso_stiffness, ten4_from_tensor, ten4_inv

# Taylor coefficients of the transverse depolarization integral about the
# sphere (argument: aspect_ratio - 1); rational multiples of pi.
_I1_SERIES = np.pi * np.array([
    4.0 / 3.0, 8.0 / 15.0, -12.0 / 35.0, 64.0 / 315.0, -80.0 / 693.0,
    64.0 / 1001.0, -224.0 / 6435.0, 2048.0 / 109395.0, -2304.0 / 230945.0,
])
_I1_SERIES.setflags(write=False)

# inside this window the arccos/arccosh forms lose ~|w-1| in relative accuracy,
# so the series (truncation error ~|w-1|^9) takes over
_SERIES_WINDOW = 1e-3

# the closed forms divide by the squared aspect ratio and raise it to the
# third power; outside this range either overflows
ASPECT_RANGE = (float(np.sqrt(4.0 * np.pi / np.finfo(float).max)),
                float(np.cbrt(np.finfo(float).max)))
_N_AZIMUTH = 32        # azimuthal points of the quadrature route (exact: see below)


def _depolarization_integrals(aspect_ratio: float) -> tuple[float, float]:
    """(I1, I13): transverse first integral and the mixed second integral."""
    w = aspect_ratio
    d = w - 1.0
    if abs(d) < _SERIES_WINDOW:
        # I1 = 4pi/3 + d*tail(d); I13 = 3*tail(d)/(2 + d) avoids the 0/0 at d=0
        tail = float(np.polyval(_I1_SERIES[:0:-1], d))
        return _I1_SERIES[0] + d * tail, 3.0 * tail / (2.0 + d)
    if w < 1.0:
        i1 = (2.0 * np.pi * w / (1.0 - w * w) ** 1.5) * (
            np.arccos(w) - w * np.sqrt(1.0 - w * w))
    else:
        i1 = (2.0 * np.pi * w / (w * w - 1.0) ** 1.5) * (
            w * np.sqrt(w * w - 1.0) - np.arccosh(w))
    i3 = 4.0 * np.pi - 2.0 * i1
    return i1, (i3 - i1) / (1.0 - w * w)


def eshelby_tensor(aspect_ratio: float, nu_matrix: float) -> np.ndarray:
    """Interior Eshelby tensor of a spheroid, Mandel 6x6, symmetry axis = x3.

    Transversely isotropic: a (11,22,33) normal block plus equal (23),(13)
    shears and the in-plane (12) shear tied to the normal block.
    """
    w = float(aspect_ratio)
    nu = float(nu_matrix)
    if w <= 0.0:
        raise ValueError(f"aspect ratio must be positive, got {w}")
    if not -1.0 < nu < 0.5:
        raise ValueError(f"matrix Poisson ratio must lie in (-1, 0.5), got {nu}")
    if not ASPECT_RANGE[0] < w < ASPECT_RANGE[1]:
        raise MorphologyError(f"aspect ratio {w!r} lies outside ({ASPECT_RANGE[0]:.3g}, "
                              f"{ASPECT_RANGE[1]:.3g}), where the closed forms overflow")
    i1, i13 = _depolarization_integrals(w)
    i3 = 4.0 * np.pi - 2.0 * i1
    i12 = np.pi - i13 / 4.0
    i11 = i12
    i33 = (4.0 * np.pi / w**2 - 2.0 * i13) / 3.0
    q = 1.0 / (8.0 * np.pi * (1.0 - nu))
    m = 1.0 - 2.0 * nu
    s11 = q * (3.0 * i11 + m * i1)
    s12 = q * (i12 - m * i1)
    s13 = q * (w * w * i13 - m * i1)
    s31 = q * (i13 - m * i3)
    s33 = q * (3.0 * w * w * i33 + m * i3)
    s44 = 0.5 * q * ((1.0 + w * w) * i13 + m * (i1 + i3))  # 2323 = 1313
    s66 = q * (i12 + m * i1)                               # 1212
    s = np.zeros((6, 6))
    s[0, 0] = s[1, 1] = s11
    s[0, 1] = s[1, 0] = s12
    s[0, 2] = s[1, 2] = s13
    s[2, 0] = s[2, 1] = s31
    s[2, 2] = s33
    s[3, 3] = s[4, 4] = 2.0 * s44
    s[5, 5] = 2.0 * s66
    return s


def sphere_eshelby_coefficients(nu_matrix: float) -> tuple[float, float]:
    """Spherical/deviatoric coefficients of the sphere tensor alpha*J + beta*K."""
    nu = float(nu_matrix)
    return (1.0 + nu) / (3.0 * (1.0 - nu)), 2.0 * (4.0 - 5.0 * nu) / (15.0 * (1.0 - nu))


def hill_tensor(aspect_ratio: float, young: float, poisson: float) -> np.ndarray:
    """Hill polarization tensor P = S : C0^{-1} of a spheroid in the isotropic
    matrix of Young's modulus ``young`` (MPa) and Poisson ratio ``poisson``.

    Closed-form route; ``hill_tensor_quadrature`` takes the same inputs.
    """
    p = eshelby_tensor(aspect_ratio, poisson) @ ten4_inv(iso_stiffness(young, poisson))
    if not is_major_symmetric(p, tol=1e-10):
        raise MorphologyError("Hill tensor lost major symmetry; inputs inconsistent")
    return 0.5 * (p + p.T)


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of order ``n``, computed once, read-only."""
    u, wu = np.polynomial.legendre.leggauss(n)
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def hill_tensor_quadrature(aspect_ratio: float, young: float, poisson: float,
                           n_polar: int = 512) -> np.ndarray:
    """Hill tensor from Gauss-Legendre quadrature of the Green-operator integral.

    Independent of the closed forms: integrates
    ``sym(zeta_i K^{-1}_jk zeta_l) / (zeta . Z^2 zeta)^{3/2}`` over the unit
    sphere, with Z = diag(1, 1, aspect_ratio) and K the acoustic tensor of the
    matrix.  The azimuthal trapezoid rule is exact here (the integrand is a
    short trigonometric polynomial in the azimuth); the polar Gauss order
    controls accuracy for extreme aspect ratios.
    """
    w = float(aspect_ratio)
    lam = young * poisson / ((1.0 + poisson) * (1.0 - 2.0 * poisson))
    mu = young / (2.0 * (1.0 + poisson))
    chi = (lam + mu) / (lam + 2.0 * mu)
    u, wu = _leggauss(n_polar)
    phi = 2.0 * np.pi * np.arange(_N_AZIMUTH) / _N_AZIMUTH
    st = np.sqrt(1.0 - u**2)
    # unit directions, shape (npts, 3)
    z = np.stack([np.outer(st, np.cos(phi)).ravel(),
                  np.outer(st, np.sin(phi)).ravel(),
                  np.outer(u, np.ones(_N_AZIMUTH)).ravel()], axis=1)
    weights = (np.outer(wu, np.ones(_N_AZIMUTH)) * (2.0 * np.pi / _N_AZIMUTH)).ravel()
    denom = (z[:, 0] ** 2 + z[:, 1] ** 2 + (w * z[:, 2]) ** 2) ** 1.5
    kinv = (np.eye(3)[None, :, :] - chi * np.einsum("pi,pj->pij", z, z)) / mu
    # contract over the points first: symmetrizing is linear
    g = np.einsum("p,pi,pjk,pl->ijkl", weights / denom, z, kinv, z, optimize=True)
    g = 0.25 * (g + g.transpose(1, 0, 2, 3) + g.transpose(0, 1, 3, 2)
                + g.transpose(1, 0, 3, 2))
    return ten4_from_tensor(g * (w / (4.0 * np.pi)))


def eshelby_tensor_quadrature(aspect_ratio: float, poisson: float,
                              n_polar: int = 512) -> np.ndarray:
    """Eshelby tensor S = P : C0 via the quadrature route (scale-free in E)."""
    young = 1.0
    p = hill_tensor_quadrature(aspect_ratio, young, poisson, n_polar)
    return p @ iso_stiffness(young, poisson)
