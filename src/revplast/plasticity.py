"""Drucker-Prager perfect plasticity: one batched kernel for invariants, yield value, flow.

Zero friction angle reduces the criterion to von Mises with the equivalent
stress capped at the shear failure stress.  Perfect plasticity only: the
surface carries no internal variables.

``dp_yield`` and ``dp_flow`` work on ``(m, 6)`` Mandel stresses with ``(m,)``
arrays of angle tangents and shear strengths (or on one ``(6,)`` stress with
scalars); the solver calls them with the per-phase parameter arrays stored on
the mean-field operators.  Each is the invariants followed by its ``_of``
formula; a return-mapping iterate evaluates the invariants of its stresses
once with ``dp_direction`` and applies ``dp_yield_of``, ``dp_flow_of`` and
``dp_flow_gradient_of`` to them.  The model-level functions below call the same
kernel with one model's scalars.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ApexSingularityError
from .tensors import IVEC, K_PROJ

# relative equivalent-stress floor below which the deviatoric direction is undefined
APEX_TOLERANCE = 1e-10


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
        if self.shear_strength <= 0.0:
            raise ValueError(f"shear strength must be positive, got {self.shear_strength}")
        if not 0.0 <= self.friction_angle < np.pi / 2.0:
            raise ValueError(f"friction angle must lie in [0, pi/2), got {self.friction_angle}")
        if self.dilation_angle is not None and not 0.0 <= self.dilation_angle < np.pi / 2.0:
            raise ValueError(f"dilation angle must lie in [0, pi/2), got {self.dilation_angle}")

    @property
    def potential_angle(self) -> float:
        return self.friction_angle if self.dilation_angle is None else self.dilation_angle


def _invariants(sig):
    """(mean stress, deviator, equivalent deviatoric stress) of Mandel stresses."""
    sig = np.asarray(sig, dtype=float)
    mean = (sig[..., 0] + sig[..., 1] + sig[..., 2]) / 3.0
    dev = sig - mean[..., None] * IVEC
    eq = np.sqrt(1.5 * np.einsum("...i,...i->...", dev, dev))
    return mean, dev, eq


def dp_yield(sig, tan_friction, strength):
    """Yield values F = s_eq + s_m tan(phi) - s0 in MPa; positive means inadmissible."""
    mean, _, eq = _invariants(sig)
    return dp_yield_of(mean, eq, tan_friction, strength)


def dp_direction(sig, strength):
    """(s_m, n_dev = 1.5 dev / s_eq, s_eq) of Mandel stresses.

    The one evaluation of the invariants from which ``dp_yield_of``,
    ``dp_flow_of`` and ``dp_flow_gradient_of`` give the yield value, the flow
    direction and its derivative at the same point.  Raises at the apex,
    where n_dev is undefined, naming the first apex row.
    """
    mean, dev, eq = _invariants(sig)
    apex = eq <= APEX_TOLERANCE * np.asarray(strength)
    if np.any(apex):
        raise ApexSingularityError(
            "deviatoric stress vanishes; flow direction undefined at the apex",
            index=int(np.flatnonzero(apex)[0]))
    return mean, 1.5 * dev / eq[..., None], eq


def dp_yield_of(mean, eq, tan_friction, strength):
    """Yield values from the mean and equivalent stresses."""
    return eq + mean * tan_friction - strength


def dp_flow_of(n_dev, tan_angle):
    """Gradients of F (or of the potential, given its angle tangent) from n_dev."""
    return n_dev + (np.asarray(tan_angle) / 3.0)[..., None] * IVEC


def dp_flow_gradient_of(n_dev, eq):
    """Derivatives d n / d sig = (1.5 / s_eq)(K - 2/3 n_dev n_dev) of ``dp_flow``.

    ``(m, 6, 6)`` for ``(m, 6)`` directions; the same for every angle, since
    the pressure term of the direction is constant.
    """
    outer = n_dev[..., :, None] * n_dev[..., None, :]
    return (1.5 / eq)[..., None, None] * (K_PROJ - (2.0 / 3.0) * outer)


def dp_flow(sig, tan_angle, strength):
    """Gradients of F (or of the potential, given its angle tangent) at ``sig``.

    Undefined where the deviatoric stress vanishes; for positive friction that
    is the surface apex, which this model deliberately does not regularize.
    """
    _, n_dev, _ = dp_direction(sig, strength)
    return dp_flow_of(n_dev, tan_angle)


def stress_invariants(sig: np.ndarray):
    """(mean stress, equivalent deviatoric stress) of a (6,) or (n, 6) Mandel stress."""
    mean, _, eq = _invariants(sig)
    return mean, eq


def yield_value(model: DruckerPrager, sig: np.ndarray):
    """Yield function value(s) of ``model`` in MPa; positive means inadmissible."""
    return dp_yield(sig, np.tan(model.friction_angle), model.shear_strength)


def flow_direction(model: DruckerPrager, sig: np.ndarray,
                   angle: float | None = None) -> np.ndarray:
    """Gradient of the yield function (or potential, via ``angle``) at ``sig``."""
    tan_a = np.tan(model.friction_angle if angle is None else angle)
    return dp_flow(sig, tan_a, model.shear_strength)


def potential_direction(model: DruckerPrager, sig: np.ndarray) -> np.ndarray:
    """Plastic flow direction from the potential (associated unless a dilation angle is set)."""
    return flow_direction(model, sig, angle=model.potential_angle)
