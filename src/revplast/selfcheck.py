"""Built-in invariant battery: independent oracles the CLI `check` command runs.

Each check returns (name, measured residual, tolerance); a check passes when
the residual does not exceed the tolerance.  The oracles deliberately avoid
the code paths they verify: quadrature against closed forms, a textbook
radial-return integrator against the coupled solver (macro stress and
plastic strain, every phase's stress and plastic strain, and the
multipliers), and exact limit, two-material (Levin) and Hashin-Shtrikman
identities against the assembled operators.  ``localize`` and
``upscale_stress`` run the concentration product and the macro plastic strain
the solver calls, so the Levin identities check the engine's own maps.  The
residual functions ``homogeneous_limit_gap``, ``radial_return_gap`` and
``levin_gaps`` take their case, so the test suite evaluates the same oracles
on its own cases.
The CSV number formatter is compared with Python's ``%.17g`` on
``number_format_cases``, because its exactness rests on the platform's IEEE
double arithmetic.
"""
from __future__ import annotations

import numpy as np

from .eshelby import (eshelby_tensor, eshelby_tensor_quadrature,
                      sphere_eshelby_coefficients)
from .mean_field import (PhaseSpec, Spheroid, assemble_operators, eigen_response,
                         localize, upscale_stress)
from .plasticity import DruckerPrager
from .results import format_rows
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


def homogeneous_limit_gap(ops) -> float:
    """Largest gap of identical phases' operators to the homogeneous limit:
    every concentration tensor is the identity, and uniform eigen-strains
    (the influence rows summed) induce no strain."""
    uniform = np.broadcast_to(np.eye(6), (ops.n_phases, 6, 6))
    return float(max(np.abs(ops.concentration - np.eye(6)).max(),
                     np.abs(eigen_response(ops, uniform)).max()))


def check_homogeneous_limit() -> tuple[str, float, float]:
    """Identical phases: concentration = identity, uniform eigen-strains induce no strain."""
    res = homogeneous_limit_gap(assemble_operators(_homogeneous_phases()))
    return "homogeneous-limit operators", res, 1e-10


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


def radial_return_gap(n_steps: int) -> float:
    """Largest gap of a homogeneous two-phase von Mises REV, driven to 0.4 %
    axial compression in ``n_steps`` strain-controlled increments, to the
    single-material radial return: the macro stress and plastic strain, every
    phase's stress and plastic strain, and every phase's multiplier."""
    young, nu, strength = 100.0, 0.25, 0.12
    model = DruckerPrager(friction_angle=0.0, shear_strength=strength)
    ops = assemble_operators(_homogeneous_phases(model))
    program = strain_program([(np.array([0.0, 0.0, -0.004, 0.0, 0.0, 0.0]), n_steps)])
    states = drive(ops, program, SolverSettings())[1:]
    oracle = _radial_return(young, nu, strength, [st.macro_strain for st in states])
    worst = 0.0
    for st, (sig, eps_p, lam) in zip(states, oracle):
        for got, ref in ((st.macro_stress, sig), (st.macro_plastic, eps_p),
                         (st.stress, sig), (st.plastic_strain, eps_p),
                         (st.multipliers, lam)):
            worst = max(worst, float(np.abs(got - ref).max()))
    return worst


def check_radial_return() -> tuple[str, float, float]:
    """Homogeneous two-phase REV against the single-material radial return."""
    return "homogeneous REV vs radial return", radial_return_gap(20), 1e-10


def levin_gaps(ops, eps_1, eps_2) -> tuple[float, float, float]:
    """Relative gaps of a matrix (phase 0) and one inclusion material (every
    other phase) with the uniform eigen-strains ``eps_1`` and ``eps_2`` to
    Levin's two-material identities, which need C_hom alone:

    - the macro eigen-stress is tau_1 + (C_hom - C_1)(C_2 - C_1)^-1 (tau_2 - tau_1),
      tau_r = -C_r eps_r (``upscale_stress`` at zero strain);
    - at E* = (C_2 - C_1)^-1 (C_2 eps_2 - C_1 eps_1) every phase strain is E*
      (``localize``), and the macro stress is C_1 (E* - eps_1).

    Since tau_2 - tau_1 = -(C_2 - C_1) E*, both follow from one solve.
    """
    c_1, c_2 = ops.stiffness[0], ops.stiffness[1]
    eps_p = np.vstack((eps_1, np.tile(eps_2, (ops.n_phases - 1, 1))))
    e_star = np.linalg.solve(c_2 - c_1, c_2 @ eps_2 - c_1 @ eps_1)
    eigen_stress = -c_1 @ eps_1 - (ops.stiffness_hom - c_1) @ e_star
    sig_star = c_1 @ (e_star - eps_1)
    return tuple(float(np.abs(got - ref).max() / np.abs(ref).max()) for got, ref in (
        (upscale_stress(ops, np.zeros(6), eps_p), eigen_stress),
        (localize(ops, e_star, eps_p), e_star),
        (upscale_stress(ops, e_star, eps_p), sig_star)))


def _two_material_cases():
    """Per scheme: operators of a matrix and one inclusion material in three
    shapes on seeded axes, and the two materials' uniform eigen-strains."""
    rng = np.random.default_rng(5)
    aspects = (0.2, 1.0, 3.0)
    phases = [PhaseSpec("matrix", 0.7, 100.0, 0.25)] + [
        PhaseSpec(f"incl{k}", 0.025, 600.0, 0.3,
                  spheroid=Spheroid(aspects[k % 3], tuple(rng.normal(size=3))))
        for k in range(12)]
    eps_1, eps_2 = rng.normal(size=(2, 6)) * 1e-3
    for scheme in ("mori_tanaka", "dilute"):
        yield assemble_operators(phases, scheme=scheme), eps_1, eps_2


def check_levin_eigen_stress() -> tuple[str, float, float]:
    """Levin: the macro eigen-stress of two materials from C_hom alone."""
    worst = max(levin_gaps(*case)[0] for case in _two_material_cases())
    return "Levin two-material eigen-stress (upscale)", worst, 1e-12


def check_levin_uniform_field() -> tuple[str, float, float]:
    """Levin's uniform field: the phase strains and the macro stress at E*."""
    worst = max(max(levin_gaps(*case)[1:]) for case in _two_material_cases())
    return "Levin uniform field (localize)", worst, 1e-12


def hashin_shtrikman_spheres(young0, nu0, young1, nu1, f1) -> np.ndarray:
    """Hashin-Shtrikman stiffness of isotropic spheres (fraction ``f1``) in a
    matrix taken as reference medium, from the Young's moduli and Poisson
    ratios; it divides by no modulus difference, so equal phases are allowed."""
    k0, mu0 = young0 / (3 * (1 - 2 * nu0)), young0 / (2 * (1 + nu0))
    k1, mu1 = young1 / (3 * (1 - 2 * nu1)), young1 / (2 * (1 + nu1))
    f0 = 1.0 - f1
    zeta0 = mu0 * (9 * k0 + 8 * mu0) / (6 * (k0 + 2 * mu0))
    k_hs = k0 + f1 * (k1 - k0) * (3 * k0 + 4 * mu0) / (3 * k0 + 4 * mu0 + 3 * f0 * (k1 - k0))
    mu_hs = mu0 + f1 * (mu1 - mu0) * (mu0 + zeta0) / (mu0 + zeta0 + f0 * (mu1 - mu0))
    return 3.0 * k_hs * J_PROJ + 2.0 * mu_hs * K_PROJ


def check_hashin_shtrikman_spheres() -> tuple[str, float, float]:
    """Mori-Tanaka on isotropic spheres is the Hashin-Shtrikman estimate with
    the matrix as reference medium (Weng, 1984): one seeded two-phase case."""
    rng = np.random.default_rng(1984)
    young0, nu0 = 100.0, 0.25
    young1 = young0 * 10.0 ** rng.uniform(-3.0, 3.0)
    nu1 = rng.uniform(-0.4, 0.45)
    f1 = rng.uniform(0.1, 0.6)
    ops = assemble_operators([
        PhaseSpec("matrix", 1.0 - f1, young0, nu0),
        PhaseSpec("sphere", f1, young1, nu1,
                  spheroid=Spheroid(1.0, tuple(rng.normal(size=3))))])
    c_hs = hashin_shtrikman_spheres(young0, nu0, young1, nu1, f1)
    res = np.abs(ops.stiffness_hom - c_hs).max() / np.abs(c_hs).max()
    return "Mori-Tanaka spheres vs Hashin-Shtrikman", float(res), 1e-12


def number_format_cases() -> np.ndarray:
    """Doubles to format: a seeded log-uniform sample of both signs from 1e-30
    to 1e20, and an edge grid of each power of ten from 1e-30 to 1e20 with its
    neighbours on both sides, integers in [1e16, 1e17), dyadic values whose
    18th significant digit is an exact tie (odd ``m`` over ``2**s`` with
    ``m 5**s`` of 18 digits), signed zeros, subnormals, extremes, inf and nan."""
    rng = np.random.default_rng(1990)
    sample = 10.0 ** rng.uniform(-30.0, 20.0, 20000)
    powers = np.array([float(f"1e{k}") for k in range(-30, 21)])
    integers = np.concatenate(([1e16, 1e16 + 2.0, 1e17 - 16.0],
                               rng.integers(10**16, 10**17, 2000).astype(float)))
    ties = [m / 2**s for s in range(3, 26)
            for m in rng.integers(-(-10**17 // 5**s), min(10**18 // 5**s, 2**53), 200) | 1]
    grid = np.concatenate((sample, powers, np.nextafter(powers, 0.0),
                           np.nextafter(powers, np.inf), integers, ties))
    special = [0.0, 5e-324, 1.2345e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
               np.inf]
    return np.concatenate((grid, -grid, special, np.negative(special), [np.nan]))


def number_format_mismatches(values: np.ndarray) -> list[float]:
    """The values whose ``format_rows`` field differs from ``b"%.17g" % x``."""
    lines = format_rows(np.asarray(values, dtype=np.float64)[:, None]).split(b"\n")[:-1]
    if len(lines) != len(values):
        return list(values)
    return [x for x, line in zip(values.tolist(), lines) if line != b"%.17g" % x]


def check_csv_number_format() -> tuple[str, float, float]:
    """The vectorized CSV number formatter against ``%.17g``: mismatches counted."""
    return ("CSV numbers vs %.17g", float(len(number_format_mismatches(number_format_cases()))),
            0.0)


def run_selfchecks() -> list[tuple[str, float, float]]:
    return [check_sphere_eshelby(), check_spheroid_quadrature(),
            check_homogeneous_limit(), check_radial_return(),
            check_levin_eigen_stress(), check_levin_uniform_field(),
            check_hashin_shtrikman_spheres(), check_csv_number_format()]
