"""Mean-field operators: concentration/influence tensors and upscaling maps.

The assembly follows the Mori-Tanaka estimate with the matrix phase as the
reference medium.  Strain concentration tensors come from the dilute solution
normalized over all phases; influence tensors are built numerically, column by
column, by placing unit eigen-strains in each phase at zero macroscopic strain
and solving the dilute interaction system closed by the strain-average rule.
Two consistency identities gate the construction: the fraction-weighted
concentration tensors sum to the identity, and the fraction-weighted influence
tensors sum to zero for every source phase.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MorphologyError, SingularOperatorError
from .eshelby import hill_tensor
from .orientations import rotation_to_axis
from .plasticity import DruckerPrager
from .tensors import IDENTITY, iso_stiffness, rotation_operator, ten4_inv

CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class Spheroid:
    """Spheroidal inclusion morphology: aspect ratio and global symmetry axis."""

    aspect_ratio: float
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        if self.aspect_ratio <= 0.0:
            raise ValueError(f"aspect ratio must be positive, got {self.aspect_ratio}")


@dataclass(frozen=True)
class PhaseSpec:
    """One material phase of the representative volume.

    ``spheroid`` is None for the (single) matrix phase.  ``plastic`` is None
    for purely elastic phases.
    """

    name: str
    volume_fraction: float
    young_modulus: float
    poisson_ratio: float
    spheroid: Spheroid | None = None
    plastic: DruckerPrager | None = None

    def __post_init__(self):
        if self.young_modulus <= 0.0:
            raise ValueError(f"phase {self.name!r}: Young's modulus must be "
                             f"positive, got {self.young_modulus}")
        if not -1.0 < self.poisson_ratio < 0.5:
            raise ValueError(f"phase {self.name!r}: Poisson ratio must lie in "
                             f"(-1, 0.5), got {self.poisson_ratio}")

    @property
    def is_matrix(self) -> bool:
        return self.spheroid is None

    def stiffness(self) -> np.ndarray:
        return iso_stiffness(self.young_modulus, self.poisson_ratio)


def validate_phases(phases) -> tuple[PhaseSpec, ...]:
    phases = tuple(phases)
    if not phases:
        raise ValueError("phase list is empty")
    matrices = [p for p in phases if p.is_matrix]
    if len(matrices) != 1:
        raise ValueError(f"exactly one matrix phase required, got {len(matrices)}")
    if not phases[0].is_matrix:
        raise ValueError("matrix phase must come first")
    for p in phases:
        if p.volume_fraction <= 0.0:
            raise ValueError(f"phase {p.name!r}: volume fraction must be positive")
    total = sum(p.volume_fraction for p in phases)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"volume fractions sum to {total!r}, expected 1")
    return phases


@dataclass(frozen=True)
class MeanFieldOperators:
    """Precomputed localization and upscaling operators for a phase assembly.

    concentration: (n, 6, 6) strain concentration tensors.
    influence: (n, n, 6, 6); ``influence[a, b]`` maps an eigen-strain in phase
    b to the induced strain of phase a at zero macroscopic strain.
    plastic: (n,) mask of the phases with a yield surface; tan_friction,
    tan_dilation (potential angle) and shear_strength are their Drucker-Prager
    parameters, zero for elastic phases.
    """

    phases: tuple[PhaseSpec, ...]
    scheme: str
    fractions: np.ndarray
    stiffness: np.ndarray
    concentration: np.ndarray
    influence: np.ndarray
    stiffness_hom: np.ndarray
    plastic: np.ndarray
    tan_friction: np.ndarray
    tan_dilation: np.ndarray
    shear_strength: np.ndarray
    consistency_residuals: tuple[float, float] = field(default=(0.0, 0.0))

    @property
    def n_phases(self) -> int:
        return len(self.phases)


def dilute_concentration(p_hill: np.ndarray, c_incl: np.ndarray,
                         c0: np.ndarray) -> np.ndarray:
    """Dilute strain concentration [I + P : (C_incl - C0)]^{-1}."""
    bracket = IDENTITY + p_hill @ (np.asarray(c_incl) - np.asarray(c0))
    try:
        return ten4_inv(bracket)
    except SingularOperatorError as exc:
        raise MorphologyError(
            f"dilute concentration singular for this morphology/stiffness pair: {exc}"
        ) from exc


def _phase_tensors(phases: tuple[PhaseSpec, ...]):
    """Per-phase stiffness, dilute concentration and eigen-stress response operators."""
    c0 = phases[0].stiffness()
    n = len(phases)
    cmats = np.empty((n, 6, 6))
    a_dil = np.empty((n, 6, 6))
    resp = np.empty((n, 6, 6))  # Y_a : P_a, response of phase strain to its polarization
    cmats[0] = c0
    a_dil[0] = IDENTITY
    resp[0] = 0.0
    for a, ph in enumerate(phases[1:], start=1):
        cmats[a] = ph.stiffness()
        p_loc = hill_tensor(ph.spheroid.aspect_ratio, c0)
        rot = rotation_operator(rotation_to_axis(ph.spheroid.axis))
        p_glob = rot @ p_loc @ rot.T
        a_dil[a] = dilute_concentration(p_glob, cmats[a], c0)
        resp[a] = a_dil[a] @ p_glob
    return cmats, a_dil, resp


def _eigen_columns(f, cmats, a_dil, resp, t_norm_inv, b):
    """Phase strains for the six unit eigen-strains placed in phase b, zero macro strain.

    Each inclusion sees the polarization of its own eigen-stress relative to
    the matrix eigen-stress.  The matrix strain is eliminated through the
    strain-average rule: for Mori-Tanaka it doubles as the inclusions' remote
    strain; for the dilute variant (``t_norm_inv`` None) the remote strain is
    the zero macroscopic strain and only the matrix absorbs the average.
    Returns (n, 6, 6) with columns indexed by the unit eigen-strain component.
    """
    n = len(f)
    sig_b = -cmats[b]  # eigen-stress columns for unit eigen-strains in phase b
    t = np.zeros((n, 6, 6))
    if b == 0:
        for a in range(1, n):
            t[a] = resp[a] @ sig_b          # polarization -(0 - sig_0) = +sig_0
    else:
        t[b] = -resp[b] @ sig_b
    if t_norm_inv is None:
        cols = t.copy()
        cols[0] = -np.einsum("a,aij->ij", f, t) / f[0]
        return cols
    eps0 = t_norm_inv @ -np.einsum("a,aij->ij", f, t)
    cols = np.einsum("aij,jk->aik", a_dil, eps0) + t
    cols[0] = eps0
    return cols


def assemble_operators(phases, scheme: str = "mori_tanaka") -> MeanFieldOperators:
    """Build concentration/influence tensors and the homogenized stiffness.

    ``scheme`` is ``"mori_tanaka"`` (default) or ``"dilute"``; the dilute
    variant skips the normalization and is only meaningful at small inclusion
    fractions (its consistency residuals grow with the fraction).
    """
    phases = validate_phases(phases)
    if scheme not in ("mori_tanaka", "dilute"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n = len(phases)
    f = np.array([p.volume_fraction for p in phases])
    cmats, a_dil, resp = _phase_tensors(phases)

    if scheme == "mori_tanaka":
        t_norm = np.einsum("a,aij->ij", f, a_dil)
        t_norm_inv = ten4_inv(t_norm)
        conc = np.einsum("aij,jk->aik", a_dil, t_norm_inv)
    else:
        # dilute: inclusions see the macroscopic strain directly; the matrix
        # concentration absorbs the strain average
        t_norm_inv = None
        conc = a_dil.copy()
        conc[0] = (IDENTITY - np.einsum("a,aij->ij", f[1:], a_dil[1:])) / f[0]

    infl = np.empty((n, n, 6, 6))
    for b in range(n):
        infl[:, b] = _eigen_columns(f, cmats, a_dil, resp, t_norm_inv, b)

    c_hom = np.einsum("a,aij,ajk->ik", f, cmats, conc)
    asym = np.abs(c_hom - c_hom.T).max()
    if asym > 1e-8 * np.abs(c_hom).max():
        raise MorphologyError(
            f"homogenized stiffness lost major symmetry (residual {asym:.3e})")
    c_hom = 0.5 * (c_hom + c_hom.T)
    if np.linalg.eigvalsh(c_hom).min() <= 0.0:
        raise MorphologyError("homogenized stiffness is not positive definite")

    res_a = float(np.abs(np.einsum("a,aij->ij", f, conc) - IDENTITY).max())
    res_b = float(np.abs(np.einsum("a,abij->bij", f, infl)).max())
    if res_a > CONSISTENCY_TOL or res_b > CONSISTENCY_TOL:
        raise MorphologyError(
            f"operator consistency violated: |sum f A - I| = {res_a:.3e}, "
            f"max_b |sum f B| = {res_b:.3e}")

    models = [p.plastic for p in phases]
    plastic = np.array([m is not None for m in models])
    tan_f = np.array([np.tan(m.friction_angle) if m else 0.0 for m in models])
    tan_g = np.array([np.tan(m.potential_angle) if m else 0.0 for m in models])
    s0 = np.array([m.shear_strength if m else 0.0 for m in models])

    for arr in (f, cmats, conc, infl, c_hom, plastic, tan_f, tan_g, s0):
        arr.setflags(write=False)
    return MeanFieldOperators(phases=phases, scheme=scheme, fractions=f,
                              stiffness=cmats, concentration=conc, influence=infl,
                              stiffness_hom=c_hom, plastic=plastic, tan_friction=tan_f,
                              tan_dilation=tan_g, shear_strength=s0,
                              consistency_residuals=(float(res_a), float(res_b)))


def localize(ops: MeanFieldOperators, macro_strain: np.ndarray,
             plastic_strains: np.ndarray) -> np.ndarray:
    """Per-phase strain estimates from the macroscopic strain and all eigen-strains."""
    plastic_strains = np.asarray(plastic_strains, dtype=float)
    if plastic_strains.shape != (ops.n_phases, 6):
        raise ValueError(f"expected plastic strains of shape {(ops.n_phases, 6)}, "
                         f"got {plastic_strains.shape}")
    return (np.einsum("aij,j->ai", ops.concentration, np.asarray(macro_strain, float))
            + np.einsum("abij,bj->ai", ops.influence, plastic_strains))


def eigen_stress_hom(ops: MeanFieldOperators, plastic_strains: np.ndarray) -> np.ndarray:
    """Macroscopic eigen-stress: fraction-weighted A^T : C : eps_p over phases."""
    return np.einsum("a,aji,ajk,ak->i", ops.fractions, ops.concentration,
                     ops.stiffness, np.asarray(plastic_strains, float))


def upscale_stress(ops: MeanFieldOperators, macro_strain: np.ndarray,
                   plastic_strains: np.ndarray) -> np.ndarray:
    """Macroscopic stress from the homogenized law with upscaled eigen-stress."""
    return ops.stiffness_hom @ np.asarray(macro_strain, float) - eigen_stress_hom(
        ops, plastic_strains)


def macro_plastic_strain(ops: MeanFieldOperators,
                         plastic_strains: np.ndarray) -> np.ndarray:
    """Macroscopic plastic strain: homogenized compliance applied to the eigen-stress."""
    return np.linalg.solve(ops.stiffness_hom, eigen_stress_hom(ops, plastic_strains))
