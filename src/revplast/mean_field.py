"""Mean-field operators: concentration/influence tensors and upscaling maps.

The assembly follows the Mori-Tanaka estimate with the matrix phase as the
reference medium.  Every inclusion sees the same matrix strain, so the
influence operator is kept as per-phase factors, never as a dense array:
eigen-strains x induce u_a - M_a sum_c f_c u_c, u_a = R_a (C_a x_a - C_0 x_0),
with R_a = A_dil,a P_a and M_a = L_a (sum_c f_c L_c)^-1, where L is A_dil for
Mori-Tanaka and its matrix row alone for the dilute variant.  Two consistency
identities gate the construction: the fraction-weighted concentration tensors
sum to the identity, and the fraction-weighted influence tensors sum to zero
for every source phase.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MorphologyError, SingularOperatorError
from .eshelby import ASPECT_RANGE, hill_tensor
from .orientations import rotation_to_axis
from .plasticity import YIELD_TOL, DruckerPrager
from .tensors import IDENTITY, iso_stiffness, rotation_operator, ten4_inv

SCHEMES = ("mori_tanaka", "dilute")  # mean-field schemes of assemble_operators
CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class Spheroid:
    """Spheroidal inclusion morphology: aspect ratio and global symmetry axis."""

    aspect_ratio: float
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        lo, hi = ASPECT_RANGE
        if not lo < self.aspect_ratio < hi:
            if not self.aspect_ratio > 0.0:
                raise ValueError(f"aspect ratio must be positive, got {self.aspect_ratio}")
            raise ValueError(f"aspect ratio {self.aspect_ratio!r} lies outside "
                             f"({lo:.3g}, {hi:.3g}), where the closed forms overflow")
        if len(self.axis) != 3:
            raise ValueError(f"spheroid axis must be three numbers, got {self.axis!r}")
        axis = [float(x) for x in self.axis]
        if not all(map(math.isfinite, axis)) or not any(axis):
            raise ValueError(f"spheroid axis must be a nonzero finite vector, got {self.axis}")
        # the operators divide by sqrt(axis . axis): its square must neither
        # overflow nor fall below the normal range
        if not sys.float_info.min <= sum(x * x for x in axis) < math.inf:
            raise ValueError(f"spheroid axis {self.axis} cannot be normalized in "
                             "double precision")


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
        if not 0.0 < self.volume_fraction < math.inf:
            raise ValueError(f"phase {self.name!r}: volume fraction must be "
                             f"positive and finite, got {self.volume_fraction}")
        if not 0.0 < self.young_modulus < math.inf:
            raise ValueError(f"phase {self.name!r}: Young's modulus must be "
                             f"positive and finite, got {self.young_modulus}")
        if not -1.0 < self.poisson_ratio < 0.5:
            raise ValueError(f"phase {self.name!r}: Poisson ratio must lie in "
                             f"(-1, 0.5), got {self.poisson_ratio}")

    @property
    def is_matrix(self) -> bool:
        return self.spheroid is None


def validate_phases(phases) -> tuple[PhaseSpec, ...]:
    phases = tuple(phases)
    if not phases:
        raise ValueError("phase list is empty")
    matrices = [p for p in phases if p.is_matrix]
    if len(matrices) != 1:
        raise ValueError(f"exactly one matrix phase required, got {len(matrices)}")
    if not phases[0].is_matrix:
        raise ValueError("matrix phase must come first")
    total = sum(p.volume_fraction for p in phases)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"volume fractions sum to {total!r}, expected 1")
    return phases


@dataclass(frozen=True)
class MeanFieldOperators:
    """Precomputed localization and upscaling operators for a phase assembly.

    concentration: (n, 6, 6) strain concentration tensors.
    response, mixing: (n, 6, 6) factors R_a (zero for the matrix) and M_a of the
    influence operator, which ``eigen_response`` applies in O(n).  Under
    Mori-Tanaka M_a = A_a, and mixing is the concentration array itself.
    The plastic-phase table: plastic_index, the (p,) ascending indices of the
    phases with a yield surface, and, row k belonging to phase plastic_index[k],
    their Drucker-Prager tan(phi) plastic_tan_friction, tan(psi) (potential
    angle) plastic_tan_dilation, s0 plastic_strength and past-yield threshold
    YIELD_TOL s0 plastic_yield_tol.  Elastic phases have no row.
    Every array is read-only.
    """

    phases: tuple[PhaseSpec, ...]
    scheme: str
    fractions: np.ndarray
    stiffness: np.ndarray
    concentration: np.ndarray
    response: np.ndarray
    mixing: np.ndarray
    stiffness_hom: np.ndarray
    plastic_index: np.ndarray
    plastic_tan_friction: np.ndarray
    plastic_tan_dilation: np.ndarray
    plastic_strength: np.ndarray
    plastic_yield_tol: np.ndarray
    consistency_residuals: tuple[float, float]

    @property
    def n_phases(self) -> int:
        return len(self.phases)


def dilute_concentration(p_hill: np.ndarray, c_incl: np.ndarray,
                         c0: np.ndarray) -> np.ndarray:
    """Dilute strain concentrations [I + P : (C_incl - C0)]^{-1}, batched over
    the leading axes of ``p_hill`` and ``c_incl``."""
    return ten4_inv(IDENTITY + p_hill @ (np.asarray(c_incl) - np.asarray(c0)))


def _phase_tensors(phases: tuple[PhaseSpec, ...]):
    """Per-phase stiffness, dilute concentration and eigen-stress response operators.

    The inclusions fall into kinds, one per distinct (aspect ratio, E, nu),
    numbered in order of first appearance.  Each distinct aspect ratio has one
    local Hill tensor P_k, and each kind one stiffness C_k, dilute
    concentration A_k and response A_k P_k; a phase takes its kind's C_k and
    A_k, A_k P_k rotated into its own frame (Q C_k Q^T = C_k for an isotropic
    C_k, so the rotation commutes with the inverse).
    """
    young, poisson = phases[0].young_modulus, phases[0].poisson_ratio
    c0 = iso_stiffness(young, poisson)
    incl = phases[1:]
    spheroids = [p.spheroid for p in incl]
    keys = np.array([[s.aspect_ratio for s in spheroids], [p.young_modulus for p in incl],
                     [p.poisson_ratio for p in incl]], dtype=float).T
    _, first, kind = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # kinds in order of first appearance
    first, kind = first[order], np.argsort(order)[kind.reshape(-1)]
    keys = keys[first]
    aspects = keys[:, 0].tolist()
    hill = {w: hill_tensor(w, young, poisson) for w in set(aspects)}
    p_loc = np.array([hill[w] for w in aspects]).reshape(-1, 6, 6)
    c_kind = np.array([iso_stiffness(e, nu) for _, e, nu in keys.tolist()]).reshape(-1, 6, 6)
    try:
        a_kind = dilute_concentration(p_loc, c_kind, c0)
    except SingularOperatorError as exc:
        raise MorphologyError(
            f"phase {phases[1 + first[exc.index]].name!r}: dilute concentration singular "
            f"for this morphology/stiffness pair: {exc}") from exc
    # per kind, A_k and R_k = A_k P_k: phase strain per unit polarization
    local = np.stack([a_kind, a_kind @ p_loc], axis=1)[kind]
    axes = np.reshape([s.axis for s in spheroids], (-1, 3))
    rot = rotation_operator(rotation_to_axis(axes))[:, None]
    glob = rot @ local @ np.swapaxes(rot, -1, -2)
    cmats = np.concatenate([c0[None], c_kind[kind]])
    a_dil = np.concatenate([IDENTITY[None], glob[:, 0]])
    resp = np.concatenate([np.zeros((1, 6, 6)), glob[:, 1]])
    return cmats, a_dil, resp


def assemble_operators(phases, scheme: str = "mori_tanaka") -> MeanFieldOperators:
    """Build concentration tensors, influence factors and the homogenized stiffness.

    ``scheme`` is ``"mori_tanaka"`` (default) or ``"dilute"``; the dilute
    variant skips the normalization (its matrix row absorbs the strain average, so
    both consistency identities hold) and is physically meaningful only at small fractions.
    """
    phases = validate_phases(phases)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    f = np.array([p.volume_fraction for p in phases])
    cmats, a_dil, resp = _phase_tensors(phases)

    # L = A_dil (Mori-Tanaka: the matrix strain is every inclusion's remote strain)
    # or, dilute, its matrix row A_dil,0 = I alone (the matrix absorbs the average)
    lead = a_dil.copy()
    if scheme == "dilute":
        lead[1:] = 0.0
    mix = lead @ ten4_inv(np.einsum("a,aij->ij", f, lead))
    conc = a_dil + mix @ (IDENTITY - np.einsum("a,aij->ij", f, a_dil))
    if scheme == "mori_tanaka":
        mix = conc  # M = A_dil (sum_c f_c A_dil,c)^-1 = A: one array serves as both

    c_hom = np.einsum("a,aij->ij", f, cmats @ conc)
    asym = np.abs(c_hom - c_hom.T).max()
    if asym > 1e-8 * np.abs(c_hom).max():
        hint = ("" if scheme == "dilute" else
                "; the Mori-Tanaka estimate is not symmetric for inclusion families that "
                "differ in both stiffness and shape: use scheme = dilute, or one material "
                "per shape")
        raise MorphologyError(
            f"homogenized stiffness lost major symmetry (residual {asym:.3e}){hint}")
    c_hom = 0.5 * (c_hom + c_hom.T)
    if np.linalg.eigvalsh(c_hom).min() <= 0.0:
        raise MorphologyError("homogenized stiffness is not positive definite")

    res_a = float(np.abs(np.einsum("a,aij->ij", f, conc) - IDENTITY).max())
    # sum_a f_a B[a, b] = (I - sum_a f_a M_a) S_b, S_b = sum_c f_c u_c for unit x_b
    s_b = f[:, None, None] * (resp @ cmats)
    s_b[0] = -np.einsum("a,aij->ij", f, resp) @ cmats[0]
    res_b = float(np.abs((IDENTITY - np.einsum("a,aij->ij", f, mix)) @ s_b).max())
    if res_a > CONSISTENCY_TOL or res_b > CONSISTENCY_TOL:
        raise MorphologyError(
            f"operator consistency violated: |sum f A - I| = {res_a:.3e}, "
            f"max_b |sum f B| = {res_b:.3e}")

    index = np.array([a for a, p in enumerate(phases) if p.plastic is not None], dtype=np.intp)
    models = [phases[a].plastic for a in index]
    tan_f = np.tan(np.array([m.friction_angle for m in models], dtype=float))
    tan_g = np.tan(np.array([m.potential_angle for m in models], dtype=float))
    s0 = np.array([m.shear_strength for m in models])
    yield_tol = YIELD_TOL * s0

    for arr in (f, cmats, conc, resp, mix, c_hom, index, tan_f, tan_g, s0, yield_tol):
        arr.setflags(write=False)
    return MeanFieldOperators(phases=phases, scheme=scheme, fractions=f, stiffness=cmats,
                              concentration=conc, response=resp, mixing=mix,
                              stiffness_hom=c_hom, plastic_index=index,
                              plastic_tan_friction=tan_f, plastic_tan_dilation=tan_g,
                              plastic_strength=s0, plastic_yield_tol=yield_tol,
                              consistency_residuals=(float(res_a), float(res_b)))


def concentrate(ops: MeanFieldOperators, macro_strain: np.ndarray) -> np.ndarray:
    """The phase strains A_a eps_bar (n, 6) of a macro strain: one matrix-vector
    product on the stacked (6n, 6) concentration matrix."""
    return (ops.concentration.reshape(-1, 6) @ macro_strain).reshape(-1, 6)


def localize(ops: MeanFieldOperators, macro_strain: np.ndarray,
             plastic_strains: np.ndarray) -> np.ndarray:
    """Per-phase strain estimates from the macroscopic strain and all eigen-strains."""
    plastic_strains = np.asarray(plastic_strains, dtype=float)
    if plastic_strains.shape != (ops.n_phases, 6):
        raise ValueError(f"expected plastic strains of shape {(ops.n_phases, 6)}, "
                         f"got {plastic_strains.shape}")
    return (concentrate(ops, np.asarray(macro_strain, float))
            + eigen_response(ops, plastic_strains))


def eigen_response(ops: MeanFieldOperators, eigen_strains: np.ndarray) -> np.ndarray:
    """Phase strains u_a - M_a sum_c f_c u_c induced by eigen-strains (n, 6[, k])
    at zero macroscopic strain, u_a = R_a (C_a x_a - C_0 x_0) being the
    polarization of inclusion a by its eigen-stress relative to the matrix one."""
    x = np.asarray(eigen_strains, dtype=float)
    polar = np.einsum("aij,aj...->ai...", ops.stiffness, x) - ops.stiffness[0] @ x[0]
    u = np.einsum("aij,aj...->ai...", ops.response, polar)
    return u - np.einsum("aij,j...->ai...", ops.mixing,
                         np.einsum("a,ai...->i...", ops.fractions, u))


def upscale_stress(ops: MeanFieldOperators, macro_strain: np.ndarray,
                   plastic_strains: np.ndarray) -> np.ndarray:
    """Macroscopic stress C_hom (eps_bar - eps_bar_p) of the homogenized law."""
    return ops.stiffness_hom @ (np.asarray(macro_strain, float)
                                - macro_plastic_strain(ops, plastic_strains))


def macro_plastic_strain(ops: MeanFieldOperators,
                         plastic_strains: np.ndarray) -> np.ndarray:
    """Macroscopic plastic strain: the homogenized compliance applied to the
    Levin eigen-stress, fraction-weighted A^T : C : eps_p over phases."""
    stress = np.einsum("aij,aj->ai", ops.stiffness, np.asarray(plastic_strains, float))
    return np.linalg.solve(ops.stiffness_hom, (ops.fractions[:, None] * stress).ravel()
                           @ ops.concentration.reshape(-1, 6))
