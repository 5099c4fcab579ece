"""Incremental multiscale return-mapping driver with mixed strain/stress control.

Each increment advances the macroscopic strain, localizes a trial state with
frozen plastic strains, and if any phase violates its yield surface solves a
coupled Newton system for the plastic multiplier increments of the active
phases.  The active set is revised after every converged solve: phases whose
converged multiplier is negative leave, phases pushed past yield by the
redistribution join.  Macroscopic components may be strain- or
stress-controlled; stress control runs an outer fixed-point iteration on the
unknown strain components using the homogenized elastic stiffness as the
iteration operator, re-running the inner return mapping each pass.

Yield checks, the Newton residuals and flow directions and the KKT check of
every converged increment all call the batched Drucker-Prager kernel of
``plasticity`` on the per-phase parameter arrays of the operators.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ActiveSetOscillationError, StepFailureError
from .mean_field import (MeanFieldOperators, eigen_response, localize,
                         macro_plastic_strain, upscale_stress)
from .plasticity import dp_flow, dp_yield

STRAIN = "strain"
STRESS = "stress"

# candidate threshold relative to each phase's shear strength
YIELD_TOL = 1e-10
# multiplier step of the finite-difference Jacobian
FD_STEP = 1e-8


@dataclass(frozen=True)
class SolverSettings:
    newton_tol: float = 1e-12          # times the phase shear strength
    newton_max_iter: int = 50
    active_set_max_iter: int = 20
    mixed_tol: float = 1e-8            # times max(1, |macro stress|)
    mixed_max_iter: int = 60
    max_subdivisions: int = 8
    fd_jacobian: bool = False


@dataclass(frozen=True)
class LoadSegment:
    """Per-component end targets and control modes, reached in equal increments.

    A None target means "hold": the component stays at its segment-start value.
    Only strain-controlled components may hold.
    """

    targets: tuple[float | None, ...]
    modes: tuple[str, ...]
    increments: int

    def __post_init__(self):
        if len(self.targets) != 6 or len(self.modes) != 6:
            raise ValueError("segment needs 6 targets and 6 control modes")
        if any(m not in (STRAIN, STRESS) for m in self.modes):
            raise ValueError(f"control modes must be '{STRAIN}' or '{STRESS}'")
        if any(t is None and m == STRESS for t, m in zip(self.targets, self.modes)):
            raise ValueError("stress-controlled components need explicit targets")
        if self.increments < 1:
            raise ValueError("segment needs at least one increment")


@dataclass(frozen=True)
class LoadProgram:
    segments: tuple[LoadSegment, ...]

    @property
    def total_increments(self) -> int:
        return sum(s.increments for s in self.segments)


@dataclass(frozen=True)
class REVState:
    """Converged state of the representative volume at one time step."""

    step: int
    macro_strain: np.ndarray
    macro_stress: np.ndarray
    macro_plastic: np.ndarray
    strain: np.ndarray          # (n, 6)
    plastic_strain: np.ndarray  # (n, 6)
    stress: np.ndarray          # (n, 6)
    multipliers: np.ndarray     # (n,), zero for inactive phases
    active: tuple[bool, ...]


def initial_state(ops: MeanFieldOperators) -> REVState:
    n = ops.n_phases
    z6 = np.zeros(6)
    return REVState(step=0, macro_strain=z6, macro_stress=z6.copy(),
                    macro_plastic=z6.copy(), strain=np.zeros((n, 6)),
                    plastic_strain=np.zeros((n, 6)), stress=np.zeros((n, 6)),
                    multipliers=np.zeros(n), active=(False,) * n)


def phase_stresses(ops: MeanFieldOperators, strains: np.ndarray,
                   plastic_strains: np.ndarray) -> np.ndarray:
    return np.einsum("aij,aj->ai", ops.stiffness, strains - plastic_strains)


def _trial_at(ops: MeanFieldOperators, state: REVState, eps_bar: np.ndarray):
    eps_tr = localize(ops, eps_bar, state.plastic_strain)
    sig_tr = phase_stresses(ops, eps_tr, state.plastic_strain)
    return eps_bar, eps_tr, sig_tr


def check_yield(ops: MeanFieldOperators, stresses: np.ndarray
                ) -> tuple[np.ndarray, list[int]]:
    """Per-phase yield values (-inf for elastic phases) and candidate plastic set."""
    p = ops.plastic
    f_vals = np.full(ops.n_phases, -np.inf)
    f_vals[p] = dp_yield(stresses[p], ops.tan_friction[p], ops.shear_strength[p])
    candidates = np.flatnonzero(f_vals > YIELD_TOL * ops.shear_strength).tolist()
    return f_vals, candidates


class _ActiveSystem:
    """Operator and parameter slices of the active phases for the Newton solve."""

    def __init__(self, ops, active):
        self.ops = ops
        self.active = active
        self.tan_f = ops.tan_friction[active]
        self.tan_g = ops.tan_dilation[active]
        self.strength = ops.shear_strength[active]
        self.stiff_act = ops.stiffness[active]
        self.mix_act = ops.mixing[active]
        self.resp_act = ops.response[active] @ self.stiff_act  # R_b C_b

    def stress_update(self, sig_tr, lam, dirs):
        """Stresses of all phases for multipliers ``lam`` with flow ``dirs``."""
        x = np.zeros_like(sig_tr)
        x[self.active] = lam[:, None] * dirs
        return sig_tr + phase_stresses(self.ops, eigen_response(self.ops, x), x)

    def jacobian(self, sig_act, dirs):
        """d F_a / d lambda_b with flow directions frozen at the current iterate.

        Diagonal g_a.(R_a C_a - I) d_a plus the rank-6 mixing term
        -(M_a^T g_a).(f_b R_b C_b d_b), g_a = C_a n_a; an active matrix adds the
        dense column g_a.B[a, 0] d_0, as its eigen-strain polarizes every inclusion.
        """
        ops, active = self.ops, self.active
        g = np.einsum("aij,aj->ai", self.stiff_act,
                      dp_flow(sig_act, self.tan_f, self.strength))
        h = np.einsum("aij,aj->ai", self.resp_act, dirs)
        jac = -np.einsum("aji,aj->ai", self.mix_act, g) @ (
            ops.fractions[active, None] * h).T
        jac[np.diag_indices_from(jac)] += np.einsum("ai,ai->a", g, h - dirs)
        if 0 in active:
            x = np.zeros((ops.n_phases, 6))
            x[0] = dirs[active.index(0)]
            col = eigen_response(ops, x)[active]  # B[a, 0] d_0
            jac[:, active.index(0)] += np.einsum("ai,ai->a", g, col)
        return jac

    def fd_jacobian(self, sig_tr, lam, dirs):
        m = len(self.active)
        jac = np.empty((m, m))
        sig = self.stress_update(sig_tr, lam, dirs)
        base = dp_yield(sig[self.active], self.tan_f, self.strength)
        for kb in range(m):
            bumped = lam.copy()
            bumped[kb] += FD_STEP
            sig = self.stress_update(sig_tr, bumped, dirs)
            jac[:, kb] = (dp_yield(sig[self.active], self.tan_f, self.strength)
                          - base) / FD_STEP
        return jac


def _newton_multipliers(ops, sig_tr, active, settings):
    """Solve F(sig(lam)) = 0 on the active set; returns (lam, dirs, stresses).

    Flow directions are refreshed at each iterate; convergence is accepted only
    once the residual holds for stresses recomputed with the refreshed
    directions, so the discrete flow rule uses directions consistent with the
    returned stresses.
    """
    sys_ = _ActiveSystem(ops, active)
    tan_f, tan_g, s0 = sys_.tan_f, sys_.tan_g, sys_.strength
    tols = settings.newton_tol * s0
    lam = np.zeros(len(active))
    dirs = dp_flow(sig_tr[active], tan_g, s0)
    for _ in range(settings.newton_max_iter):
        sig = sys_.stress_update(sig_tr, lam, dirs)
        res = dp_yield(sig[active], tan_f, s0)
        if np.all(np.abs(res) <= tols):
            dirs_new = dp_flow(sig[active], tan_g, s0)
            sig_chk = sys_.stress_update(sig_tr, lam, dirs_new)
            if np.all(np.abs(dp_yield(sig_chk[active], tan_f, s0)) <= tols):
                return lam, dirs_new, sig_chk
            dirs = dirs_new
            continue
        dirs = dp_flow(sig[active], tan_g, s0)
        if settings.fd_jacobian:
            jac = sys_.fd_jacobian(sig_tr, lam, dirs)
        else:
            jac = sys_.jacobian(sig[active], dirs)
        try:
            lam = lam - np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise StepFailureError(f"singular return-mapping system: {exc}") from exc
    raise StepFailureError(
        f"return mapping did not converge in {settings.newton_max_iter} Newton "
        "iterations; subdivide the increment")


def return_map(ops: MeanFieldOperators, state: REVState, eps_bar: np.ndarray,
               eps_tr: np.ndarray, sig_tr: np.ndarray, candidates: list[int],
               settings: SolverSettings):
    """Active-set return mapping from a violating trial state.

    Returns (phase strains, plastic strains, stresses, multipliers, active mask).
    """
    if not candidates:
        raise ValueError("return mapping requires a nonempty candidate set")
    active = list(candidates)
    for _ in range(settings.active_set_max_iter):
        lam, dirs, sig = _newton_multipliers(ops, sig_tr, active, settings)
        negative = [active[k] for k in range(len(active)) if lam[k] < 0.0]
        if negative:
            active = [a for a in active if a not in negative]
            if not active:
                # entire candidate set withdrew: the step is elastic after all
                return (eps_tr, state.plastic_strain.copy(), sig_tr,
                        np.zeros(ops.n_phases), [False] * ops.n_phases)
            continue
        _, candidates = check_yield(ops, sig)
        newly = [a for a in candidates if a not in active]
        if not newly:
            break
        active = active + newly
    else:
        raise ActiveSetOscillationError(
            f"active set did not settle within {settings.active_set_max_iter} updates")

    multipliers = np.zeros(ops.n_phases)
    eps_p = state.plastic_strain.copy()
    multipliers[active] = lam
    eps_p[active] += lam[:, None] * dirs
    strains = localize(ops, eps_bar, eps_p)
    stresses = phase_stresses(ops, strains, eps_p)
    mask = [a in active for a in range(ops.n_phases)]
    return strains, eps_p, stresses, multipliers, mask


def _advance_to(ops: MeanFieldOperators, state: REVState, eps_bar_new: np.ndarray,
                settings: SolverSettings) -> REVState:
    """Advance to an absolute macroscopic strain (keeps prescribed components exact)."""
    eps_bar, eps_tr, sig_tr = _trial_at(ops, state, eps_bar_new)
    _, candidates = check_yield(ops, sig_tr)
    if candidates:
        strains, eps_p, stresses, multipliers, mask = return_map(
            ops, state, eps_bar, eps_tr, sig_tr, candidates, settings)
    else:
        strains, eps_p, stresses = eps_tr, state.plastic_strain.copy(), sig_tr
        multipliers, mask = np.zeros(ops.n_phases), [False] * ops.n_phases
    sig_bar = upscale_stress(ops, eps_bar, eps_p)
    eps_bar_p = macro_plastic_strain(ops, eps_p)
    return REVState(step=state.step + 1, macro_strain=eps_bar, macro_stress=sig_bar,
                    macro_plastic=eps_bar_p, strain=strains, plastic_strain=eps_p,
                    stress=stresses, multipliers=multipliers, active=tuple(mask))


def validate_state(ops: MeanFieldOperators, state: REVState,
                   tol: float = 1e-10) -> None:
    """Raise if a converged state violates the constitutive, averaging or KKT identities."""
    sig_ref = max(1.0, float(np.abs(state.stress).max()))
    res_c = np.abs(state.stress - phase_stresses(
        ops, state.strain, state.plastic_strain)).max()
    if res_c > tol * sig_ref:
        raise StepFailureError(f"constitutive residual {res_c:.3e} exceeds tolerance")
    avg = np.einsum("a,ai->i", ops.fractions, state.strain)
    res_avg = np.abs(avg - state.macro_strain).max()
    if res_avg > tol * max(1.0, float(np.abs(state.macro_strain).max())):
        raise StepFailureError(f"strain-average residual {res_avg:.3e} exceeds tolerance")
    p = ops.plastic
    f_vals = dp_yield(state.stress[p], ops.tan_friction[p], ops.shear_strength[p])
    tol_f = YIELD_TOL * ops.shear_strength[p]
    lam = state.multipliers[p]
    bad = np.flatnonzero((f_vals > tol_f) | (lam < 0.0) | (np.abs(lam * f_vals) > tol_f))
    if bad.size:
        k = bad[0]
        name = ops.phases[np.flatnonzero(p)[k]].name
        raise StepFailureError(
            f"KKT violation in phase {name!r}: F = {f_vals[k]:.3e}, "
            f"multiplier = {lam[k]:.3e}")
    two_forms = ops.stiffness_hom @ (state.macro_strain - state.macro_plastic)
    if np.abs(two_forms - state.macro_stress).max() > 1e-12 * sig_ref:
        raise StepFailureError("macro stress forms disagree beyond roundoff")


def _solve_mixed_increment(ops, state, targets, modes, settings):
    """One increment with per-component strain/stress control."""
    stress_idx = [i for i in range(6) if modes[i] == STRESS]
    strain_idx = [i for i in range(6) if modes[i] == STRAIN]
    eps_new = state.macro_strain.copy()
    eps_new[strain_idx] = np.asarray(targets)[strain_idx]  # prescribed exactly
    if not stress_idx:
        return _advance_to(ops, state, eps_new, settings)
    c_block = ops.stiffness_hom[np.ix_(stress_idx, stress_idx)]
    for _ in range(settings.mixed_max_iter):
        new = _advance_to(ops, state, eps_new, settings)
        residual = new.macro_stress[stress_idx] - np.asarray(targets)[stress_idx]
        scale = max(1.0, float(np.linalg.norm(new.macro_stress)))
        if np.abs(residual).max() <= settings.mixed_tol * scale:
            return new
        eps_new[stress_idx] -= np.linalg.solve(c_block, residual)
    raise StepFailureError(
        f"stress-controlled components did not converge in "
        f"{settings.mixed_max_iter} outer iterations")


def _advance_with_subdivision(ops, state, targets, modes, settings):
    """Solve one increment, halving it on failure up to the subdivision cap."""

    def recurse(st, tg, depth):
        try:
            return _solve_mixed_increment(ops, st, tg, modes, settings)
        except StepFailureError:
            if depth >= settings.max_subdivisions:
                raise
        start = np.where([m == STRAIN for m in modes], st.macro_strain, st.macro_stress)
        mid = 0.5 * (start + np.asarray(tg))
        half = recurse(st, mid, depth + 1)
        return recurse(half, tg, depth + 1)

    out = recurse(state, targets, 0)
    return replace(out, step=state.step + 1)


def drive(ops: MeanFieldOperators, program: LoadProgram,
          settings: SolverSettings | None = None) -> list[REVState]:
    """Run a load program from the virgin state; returns one state per increment plus the start."""
    settings = settings or SolverSettings()
    states = [initial_state(ops)]
    for segment in program.segments:
        start_strain = states[-1].macro_strain.copy()
        start_stress = states[-1].macro_stress.copy()
        start = np.where([m == STRAIN for m in segment.modes], start_strain, start_stress)
        end = np.array([start[i] if t is None else float(t)
                        for i, t in enumerate(segment.targets)])
        for k in range(1, segment.increments + 1):
            if k == segment.increments:
                targets = end.copy()  # land on the segment target bit-exactly
            else:
                targets = start + (end - start) * (k / segment.increments)
            new = _advance_with_subdivision(ops, states[-1], targets,
                                            segment.modes, settings)
            validate_state(ops, new)
            states.append(new)
    return states


def strain_program(path: list[tuple[np.ndarray, int]]) -> LoadProgram:
    """Fully strain-controlled program from (target strain, increments) pairs."""
    segments = tuple(LoadSegment(targets=tuple(float(x) for x in eps),
                                 modes=(STRAIN,) * 6, increments=n)
                     for eps, n in path)
    return LoadProgram(segments=segments)
