"""Drucker-Prager perfect plasticity: one batched kernel for invariants, yield value, flow.

Zero friction angle reduces the criterion to von Mises with the equivalent
stress capped at the shear failure stress.  Perfect plasticity only: the
surface carries no internal variables.

The kernel works on ``(m, 6)`` Mandel stresses with ``(m,)`` arrays of angle
tangents and shear strengths (or on one ``(6,)`` stress with scalars).  The
solver passes rows of the plastic-phase table on the mean-field operators
(``MeanFieldOperators.plastic_index`` and the ``plastic_*`` arrays beside it);
one model's are ``np.tan(model.friction_angle)``,
``np.tan(model.potential_angle)`` and ``model.shear_strength``.  ``dp_yield``
is ``stress_invariants`` followed by ``dp_yield_of``; a return-mapping iterate
evaluates the invariants of its stresses once with ``dp_direction`` and
applies ``dp_yield_of``, the flow of ``dp_flow_of`` and ``dp_flow_gradient_of``
to them, and calls ``dp_yield`` once more only at an iterate whose residual is
within tolerance, for F at the stresses it would hand to the state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ApexSingularityError
from .tensors import IVEC, K_PROJ

# relative equivalent-stress floor below which the deviatoric direction is undefined
APEX_TOLERANCE = 1e-10
# yield value, relative to the shear strength, above which a stress is past yield
YIELD_TOL = 1e-10


@dataclass(frozen=True)
class DruckerPrager:
    """Pressure-sensitive yield surface F = s_eq + s_m tan(phi) - s0.

    friction_angle in radians, shear_strength (s0) in MPa.  A distinct
    dilation_angle makes the flow non-associated; left None the flow is
    associated (potential = yield function).
    """

    friction_angle: float
    shear_strength: float
    dilation_angle: float | None = None

    def __post_init__(self):
        if not 0.0 < self.shear_strength < np.inf:
            raise ValueError(f"shear strength must be positive and finite, "
                             f"got {self.shear_strength}")
        if not 0.0 <= self.friction_angle < np.pi / 2.0:
            raise ValueError(f"friction angle must lie in [0, pi/2), got {self.friction_angle}")
        if self.dilation_angle is not None and not 0.0 <= self.dilation_angle < np.pi / 2.0:
            raise ValueError(f"dilation angle must lie in [0, pi/2), got {self.dilation_angle}")

    @property
    def potential_angle(self) -> float:
        return self.friction_angle if self.dilation_angle is None else self.dilation_angle


def stress_invariants(sig):
    """(mean stress, deviator, equivalent deviatoric stress) of Mandel stresses."""
    sig = np.asarray(sig, dtype=float)
    mean = (sig[..., 0] + sig[..., 1] + sig[..., 2]) / 3.0
    dev = sig - mean[..., None] * IVEC
    eq = np.sqrt(1.5 * np.einsum("...i,...i->...", dev, dev))
    return mean, dev, eq


def dp_yield(sig, tan_friction, strength):
    """Yield values F = s_eq + s_m tan(phi) - s0 in MPa; positive means inadmissible."""
    mean, _, eq = stress_invariants(sig)
    return dp_yield_of(mean, eq, tan_friction, strength)


def dp_direction(sig, strength):
    """(s_m, n_dev = 1.5 dev / s_eq, s_eq) of Mandel stresses.

    The one evaluation of the invariants from which ``dp_yield_of``,
    ``dp_flow_of`` and ``dp_flow_gradient_of`` give the yield value, the flow
    direction and its derivative at the same point.  Raises at the apex,
    where n_dev is undefined, naming the first apex row.
    """
    mean, dev, eq = stress_invariants(sig)
    apex = eq <= APEX_TOLERANCE * np.asarray(strength)
    if np.any(apex):
        raise ApexSingularityError(
            "deviatoric stress vanishes; flow direction undefined at the apex",
            index=int(np.flatnonzero(apex)[0]))
    return mean, 1.5 * dev / eq[..., None], eq


def dp_yield_of(mean, eq, tan_friction, strength):
    """Yield values from the mean and equivalent stresses."""
    return eq + mean * tan_friction - strength


def dp_pressure_term(tan_angle):
    """Pressure terms tan / 3 of the gradients of F (or of the potential), as the
    ``(m, 1)`` column ``dp_flow_of`` adds; they depend on the angles only, so a
    caller forms them once for a fixed set of phases."""
    return (np.asarray(tan_angle) / 3.0)[..., None]


def dp_flow_of(n_dev, pressure_term):
    """Gradients of F (or of the potential) from n_dev and ``dp_pressure_term``'s column."""
    return n_dev + pressure_term * IVEC


def dp_flow_gradient_of(n_dev, eq):
    """Derivatives d n / d sig = (1.5 / s_eq)(K - 2/3 n_dev n_dev) of the flow directions.

    ``(m, 6, 6)`` for ``(m, 6)`` directions; the same for every angle, since
    the pressure term of the direction is constant.
    """
    outer = n_dev[..., :, None] * n_dev[..., None, :]
    return (1.5 / eq)[..., None, None] * (K_PROJ - (2.0 / 3.0) * outer)

