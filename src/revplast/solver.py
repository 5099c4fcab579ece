"""Incremental multiscale return-mapping driver with mixed strain/stress control.

Each increment advances the macroscopic strain, localizes a trial state with
frozen plastic strains, and if any phase violates its yield surface solves
the coupled return of the active phases: plastic strains are eigen-strains
of the Mori-Tanaka medium, so every active phase's stress depends on every
phase's flow.  The active set is revised after every converged solve: phases
whose converged multiplier is negative leave, phases pushed past yield by the
redistribution join.

The return is a consistent Newton method on the active stresses and
multipliers, linearized with the flow-direction derivative d n / d sig so it
converges quadratically.  Because the influence operator is stored as
per-phase factors, each phase's 7x7 block couples to the others only through
two 6-vectors (one fraction-weighted polarization sum and, when the matrix
yields, the matrix eigen-stress), so a step is one batched solve of the
blocks plus one 6x6 (12x12) system: O(m) in the number m of active phases.

Macroscopic components may be strain- or stress-controlled.  The unknown
strain components are predicted with the macro tangent of the previous
increment and corrected with the algorithmic tangent of each converged pass,
the same linearization solved for the trial-stress sensitivities; an
elastic increment takes one pass, a plastic one usually two.

Yield checks, the Newton residuals and flow directions and the KKT check of
every converged increment all call the batched Drucker-Prager kernel of
``plasticity`` on the per-phase parameter arrays of the operators.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ActiveSetOscillationError, StepFailureError
from .mean_field import (MeanFieldOperators, eigen_response, localize,
                         macro_plastic_strain, upscale_stress)
from .plasticity import dp_flow, dp_flow_gradient, dp_yield

STRAIN = "strain"
STRESS = "stress"

# candidate threshold relative to each phase's shear strength
YIELD_TOL = 1e-10


@dataclass(frozen=True)
class SolverSettings:
    newton_tol: float = 1e-12          # times the phase shear strength
    newton_max_iter: int = 50
    active_set_max_iter: int = 20
    mixed_tol: float = 1e-8            # times max(1, |macro stress|)
    mixed_max_iter: int = 60
    max_subdivisions: int = 8


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


def _solve(a, b, what):
    """``np.linalg.solve`` that fails the increment (so it is subdivided) when singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError(f"singular {what}: {exc}") from exc


class _ActiveSystem:
    """Residual and condensed linearization of the coupled return of the active phases.

    Unknowns are the active stresses sig_a and multipliers lam_a; with the
    eigen-strains x_b = lam_b n_g(sig_b) the residual is
    r_sig,a = sig_a - sig_tr,a - C_a (sum_b B[a, b] x_b - x_a) and r_F,a = F(sig_a).
    In the factored influence operator a phase's block couples to the others
    only through w = sum_c f_c R_c C_c dx_c and, when the matrix is active,
    y = C_0 dx_0.
    """

    def __init__(self, ops, active):
        self.ops = ops
        self.active = active
        self.tan_f = ops.tan_friction[active]
        self.tan_g = ops.tan_dilation[active]
        self.strength = ops.shear_strength[active]
        stiff = ops.stiffness[active]
        resp = ops.response[active]
        mix_stress = stiff @ ops.mixing[active]  # C_a M_a: response to w
        # C_a (I - R_a C_a): response to the phase's own eigen-strain
        self.own = stiff - stiff @ resp @ stiff
        self.weighted = ops.fractions[active, None, None] * (resp @ stiff)  # f_c R_c C_c
        self.matrix_index = active.index(0) if 0 in active else None
        blocks = [mix_stress]
        if self.matrix_index is not None:
            # C_a (R_a - M_a sum_c f_c R_c): response to y
            resp_mean = np.einsum("c,cij->ij", ops.fractions, ops.response)
            blocks.append(stiff @ resp - mix_stress @ resp_mean)
        self.coupling = np.zeros((len(active), 7, 6 * len(blocks)))
        self.coupling[:, :6] = np.concatenate(blocks, axis=2)

    def stress_update(self, sig_tr, lam, dirs):
        """Stresses of all phases for multipliers ``lam`` with flow ``dirs``."""
        x = np.zeros_like(sig_tr)
        x[self.active] = lam[:, None] * dirs
        return sig_tr + phase_stresses(self.ops, eigen_response(self.ops, x), x)

    def residual(self, sig_tr, sig_act, lam):
        """(m, 7) residual (r_sig, r_F) at the iterate, with the flow directions
        n_g(sig_act) and the stresses of all phases these directions give."""
        dirs = dp_flow(sig_act, self.tan_g, self.strength)
        sig = self.stress_update(sig_tr, lam, dirs)
        res = np.empty((len(lam), 7))
        res[:, :6] = sig_act - sig[self.active]
        res[:, 6] = dp_yield(sig_act, self.tan_f, self.strength)
        return res, dirs, sig

    def jacobian(self, sig_act, lam, rhs):
        """Solve the residual's linearization at (sig_act, lam) for ``rhs`` (m, 7, k).

        Phase a's 7x7 block [[I + lam_a D_a N_a, D_a n_a], [g_a^T, 0]], with
        D_a = C_a (I - R_a C_a), N_a = dn_g/dsig and g_a = dF/dsig, is solved
        for the right-hand sides and the coupling columns at once; the coupling
        vectors (w, y) then follow from one 6x6 (12x12) system.  Returns the
        corrections (m, 7, k) and the eigen-strain increments dx (m, 6, k).
        """
        s0 = self.strength
        flow = np.empty((len(lam), 6, 7))  # dx_a = flow_a @ (dsig_a, dlam_a)
        flow[:, :, :6] = lam[:, None, None] * dp_flow_gradient(sig_act, s0)
        flow[:, :, 6] = dp_flow(sig_act, self.tan_g, s0)
        block = np.zeros((len(lam), 7, 7))
        block[:, :6] = self.own @ flow
        block[:, :6, :6] += np.eye(6)
        block[:, 6, :6] = dp_flow(sig_act, self.tan_f, s0)
        k = rhs.shape[2]
        sol = _solve(block, np.concatenate((rhs, self.coupling), axis=2),
                     "return-mapping system")
        # coupling vectors: w = sum_c f_c R_c C_c dx_c, y = C_0 dx_0
        lead = (self.weighted @ flow).transpose(1, 0, 2).reshape(6, -1)
        coupled = lead @ sol.reshape(-1, sol.shape[2])
        if self.matrix_index is not None:
            c0_flow = self.ops.stiffness[0] @ flow[self.matrix_index]
            coupled = np.vstack((coupled, c0_flow @ sol[self.matrix_index]))
        schur = coupled[:, k:] + np.eye(coupled.shape[0])
        wy = _solve(schur, coupled[:, :k], "return-mapping system")
        z = sol[:, :, :k] - sol[:, :, k:] @ wy
        return z, flow @ z


def _newton_multipliers(ops, sig_tr, active, settings):
    """Solve the coupled return on the active set; returns (lam, dirs, stresses).

    Newton on the active stresses and multipliers from the trial state.  The
    solve is accepted once the stress residual and F of the stresses
    recomputed with the flow directions of the iterate are both within
    tolerance, so the discrete flow rule uses directions consistent with the
    returned stresses.
    """
    sys_ = _ActiveSystem(ops, active)
    tols = settings.newton_tol * sys_.strength
    sig_act = sig_tr[active]
    lam = np.zeros(len(active))
    for _ in range(settings.newton_max_iter):
        res, dirs, sig = sys_.residual(sig_tr, sig_act, lam)
        f_chk = dp_yield(sig[active], sys_.tan_f, sys_.strength)
        if np.all(np.maximum(np.abs(f_chk), np.abs(res[:, :6]).max(axis=1)) <= tols):
            return lam, dirs, sig
        z, _ = sys_.jacobian(sig_act, lam, -res[:, :, None])
        sig_act = sig_act + z[:, :6, 0]
        lam = lam + z[:, 6, 0]
    raise StepFailureError(
        f"return mapping did not converge in {settings.newton_max_iter} Newton "
        "iterations; subdivide the increment")


def _macro_tangent(ops: MeanFieldOperators, state: REVState) -> np.ndarray:
    """Algorithmic tangent d(macro stress)/d(macro strain) of a converged state.

    The return's linearization at the state, on its active set, solved for the
    trial-stress sensitivities C_a A_a; the homogenized stiffness when no
    phase is active.
    """
    active = np.flatnonzero(state.active).tolist()
    if not active:
        return ops.stiffness_hom
    sys_ = _ActiveSystem(ops, active)
    trial = ops.stiffness[active] @ ops.concentration[active]  # d sig_tr / d eps_bar
    rhs = np.zeros((len(active), 7, 6))
    rhs[:, :6] = trial
    _, dx = sys_.jacobian(state.stress[active], state.multipliers[active], rhs)
    # eigen-stress term sum_a f_a A_a^T C_a dx_a of upscale_stress
    return ops.stiffness_hom - np.einsum("a,aji,ajk->ik", ops.fractions[active],
                                         trial, dx)


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


def _solve_mixed_increment(ops, state, targets, modes, settings, tangent):
    """One increment with per-component strain/stress control.

    The stress-controlled strain components are predicted with ``tangent``
    (the macro tangent of the previous increment) and corrected with the
    algorithmic tangent of each pass.  Returns the state and the last tangent.
    """
    stress_idx = [i for i in range(6) if modes[i] == STRESS]
    strain_idx = [i for i in range(6) if modes[i] == STRAIN]
    targets = np.asarray(targets)
    eps_new = state.macro_strain.copy()
    eps_new[strain_idx] = targets[strain_idx]  # prescribed exactly
    if not stress_idx:
        return _advance_to(ops, state, eps_new, settings), tangent
    block = np.ix_(stress_idx, stress_idx)
    # predictor: the stress change still missing once the prescribed strain
    # change has acted through the previous tangent
    change = (targets[stress_idx] - state.macro_stress[stress_idx]
              - tangent[stress_idx] @ (eps_new - state.macro_strain))
    eps_new[stress_idx] += _solve(tangent[block], change, "macro tangent")
    for _ in range(settings.mixed_max_iter):
        new = _advance_to(ops, state, eps_new, settings)
        residual = new.macro_stress[stress_idx] - targets[stress_idx]
        scale = max(1.0, float(np.linalg.norm(new.macro_stress)))
        if np.abs(residual).max() <= settings.mixed_tol * scale:
            return new, tangent
        tangent = _macro_tangent(ops, new)
        eps_new[stress_idx] -= _solve(tangent[block], residual, "macro tangent")
    raise StepFailureError(
        f"stress-controlled components did not converge in "
        f"{settings.mixed_max_iter} outer iterations")


def _advance_with_subdivision(ops, state, targets, modes, settings, tangent):
    """Solve one increment, halving it on failure up to the subdivision cap.

    Returns the state and the macro tangent to predict the next increment with.
    """

    def recurse(st, tg, tan, depth):
        try:
            return _solve_mixed_increment(ops, st, tg, modes, settings, tan)
        except StepFailureError:
            if depth >= settings.max_subdivisions:
                raise
        start = np.where([m == STRAIN for m in modes], st.macro_strain, st.macro_stress)
        mid = 0.5 * (start + np.asarray(tg))
        half, tan = recurse(st, mid, tan, depth + 1)
        return recurse(half, tg, tan, depth + 1)

    out, tangent = recurse(state, targets, tangent, 0)
    return replace(out, step=state.step + 1), tangent


def drive(ops: MeanFieldOperators, program: LoadProgram,
          settings: SolverSettings | None = None) -> list[REVState]:
    """Run a load program from the virgin state; returns one state per increment plus the start."""
    settings = settings or SolverSettings()
    states = [initial_state(ops)]
    tangent = ops.stiffness_hom
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
            new, tangent = _advance_with_subdivision(ops, states[-1], targets,
                                                     segment.modes, settings, tangent)
            validate_state(ops, new)
            states.append(new)
    return states


def strain_program(path: list[tuple[np.ndarray, int]]) -> LoadProgram:
    """Fully strain-controlled program from (target strain, increments) pairs."""
    segments = tuple(LoadSegment(targets=tuple(float(x) for x in eps),
                                 modes=(STRAIN,) * 6, increments=n)
                     for eps, n in path)
    return LoadProgram(segments=segments)
