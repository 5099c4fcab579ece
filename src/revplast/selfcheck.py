"""Built-in invariant battery: independent oracles the CLI `check` command runs.

Each check returns (name, measured residual, tolerance); a check passes when
the residual does not exceed the tolerance.  The oracles deliberately avoid
the code paths they verify: quadrature against closed forms, a textbook
radial-return integrator against the coupled solver, and exact limit
identities against the assembled operators.
"""
from __future__ import annotations

import numpy as np

from .eshelby import (eshelby_tensor, eshelby_tensor_quadrature,
                      sphere_eshelby_coefficients)
from .mean_field import PhaseSpec, Spheroid, assemble_operators
from .plasticity import DruckerPrager
from .solver import SolverSettings, drive, strain_program
from .tensors import IVEC, J_PROJ, K_PROJ, iso_stiffness


def check_sphere_eshelby() -> tuple[str, float, float]:
    """Sphere tensor against the classical coefficients and the quadrature route."""
    nu = 0.25
    alpha, beta = sphere_eshelby_coefficients(nu)
    s = eshelby_tensor(1.0, nu)
    res = np.abs(s - (alpha * J_PROJ + beta * K_PROJ)).max()
    s_quad = eshelby_tensor_quadrature(1.0, nu, n_polar=128)
    res = max(res, float(np.abs(s - s_quad).max()))
    return "sphere Eshelby tensor", float(res), 1e-10


def check_spheroid_quadrature() -> tuple[str, float, float]:
    """Closed-form spheroid tensor against the quadrature oracle."""
    worst = 0.0
    for aspect in (0.35, 0.1, 2.5):
        for nu in (0.0, 0.25, 0.4):
            s = eshelby_tensor(aspect, nu)
            s_quad = eshelby_tensor_quadrature(aspect, nu)
            worst = max(worst, float(np.abs(s - s_quad).max()))
    return "spheroid Eshelby vs quadrature", worst, 1e-8


def _homogeneous_phases(plastic: DruckerPrager | None = None):
    return (
        PhaseSpec("matrix", 0.7, 100.0, 0.25, plastic=plastic),
        PhaseSpec("incl", 0.3, 100.0, 0.25,
                  spheroid=Spheroid(0.35, (1.0, 2.0, 3.0)), plastic=plastic),
    )


def check_homogeneous_limit() -> tuple[str, float, float]:
    """Identical phases: concentration = identity, influence rows sum to zero."""
    ops = assemble_operators(_homogeneous_phases())
    res = max(np.abs(ops.concentration - np.eye(6)).max(),
              np.abs(ops.influence.sum(axis=1)).max())
    return "homogeneous-limit operators", float(res), 1e-10


def _radial_return(young, nu, strength, strain_path):
    """Textbook J2 perfect-plasticity radial return along a strain path.

    Returns (stress, plastic strain, multiplier) per step.  The invariants are
    computed here, not by the ``plasticity`` kernel the solver uses.
    """
    c = iso_stiffness(young, nu)
    mu = young / (2.0 * (1.0 + nu))
    eps_p = np.zeros(6)
    out = []
    for eps in strain_path:
        sig_tr = c @ (eps - eps_p)
        dev = sig_tr - sig_tr[:3].mean() * IVEC
        eq = np.sqrt(1.5 * dev @ dev)
        lam = max(eq - strength, 0.0) / (3.0 * mu)
        if lam > 0.0:
            direction = 1.5 * dev / eq
            eps_p = eps_p + lam * direction
            sig = sig_tr - 2.0 * mu * lam * direction
        else:
            sig = sig_tr
        out.append((sig, eps_p.copy(), lam))
    return out


def check_radial_return() -> tuple[str, float, float]:
    """Homogeneous two-phase REV against the single-material radial return."""
    young, nu, strength = 100.0, 0.25, 0.12
    model = DruckerPrager(friction_angle=0.0, shear_strength=strength)
    ops = assemble_operators(_homogeneous_phases(model))
    program = strain_program([(np.array([0.0, 0.0, -0.004, 0.0, 0.0, 0.0]), 20)])
    states = drive(ops, program, SolverSettings())
    oracle = _radial_return(young, nu, strength,
                            [st.macro_strain for st in states[1:]])
    worst = 0.0
    for st, (sig, eps_p, _) in zip(states[1:], oracle):
        worst = max(worst, float(np.abs(st.macro_stress - sig).max()))
        worst = max(worst, float(np.abs(st.plastic_strain - eps_p).max()))
        worst = max(worst, float(np.abs(st.macro_plastic - eps_p).max()))
    return "homogeneous REV vs radial return", worst, 1e-10


def run_selfchecks() -> list[tuple[str, float, float]]:
    return [check_sphere_eshelby(), check_spheroid_quadrature(),
            check_homogeneous_limit(), check_radial_return()]
