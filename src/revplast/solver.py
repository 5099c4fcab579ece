"""Incremental multiscale return-mapping driver with mixed strain/stress control.

Each increment is one nonlinear solve.  The stress-controlled macroscopic
strain components are predicted exactly for an elastic step, and the trial
state localized there with frozen plastic strains is accepted if no phase
violates its yield surface.  Otherwise the coupled return of the active
phases is solved: plastic strains are eigen-strains of the Mori-Tanaka
medium, so every active phase's stress depends on every phase's flow, and
the macroscopic stress is linear in the macroscopic strain and the
eigen-strains, so the k stress-controlled strain components are k more
unknowns of the same Newton method.  The active set is revised after every
converged solve: phases whose converged multiplier is negative leave,
phases pushed past yield by the redistribution join.  Each solve is
warm-started: the first from the multipliers of the previous increment
(halved when the increment is subdivided), a re-solve after an
active-set revision from the previous pass's multipliers and strain
corrections.  On the default scenario that takes 125 Newton steps for the
60 plastic increments, against 180 from zero multipliers.

The Newton method is linearized consistently, with the flow-direction
derivative d n / d sig, so it converges quadratically.  Because the
influence operator is stored as per-phase factors, each phase's 7x7 block
couples to the others only through two 6-vectors (one fraction-weighted
polarization sum and, when the matrix yields, the matrix eigen-stress), so
a step is one batched solve of the blocks for 1 + k right-hand sides plus
one 6x6 (12x12) system and one k x k system for the controlled strains:
O(m) in the number m of active phases.

Yield checks, the Newton residuals and flow directions and the KKT check of
every converged increment all call the batched Drucker-Prager kernel of
``plasticity`` on the per-phase parameter arrays of the operators.  A Newton
iterate evaluates the invariants of its active stresses once: the residual
keeps their deviatoric direction and equivalent stress for the linearization.

An increment attempt returns a state ``validate_state`` accepts or raises
StepFailureError, whatever the cause; ``drive`` halves a failed increment up
to ``max_subdivisions`` times, then raises with segment, increment and depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ApexSingularityError, StepFailureError
from .mean_field import (MeanFieldOperators, eigen_response, eigen_stress_hom,
                         localize, macro_plastic_strain, upscale_stress)
from .plasticity import (dp_direction, dp_flow, dp_flow_gradient_of, dp_flow_of,
                         dp_yield, dp_yield_of)

STRAIN = "strain"
STRESS = "stress"

# candidate threshold relative to each phase's shear strength
YIELD_TOL = 1e-10
MAX_ACTIVE_SET_PASSES = 20  # Newton solves per attempt while the active set settles


@dataclass(frozen=True)
class SolverSettings:
    newton_tol: float = 1e-12          # times the phase shear strength
    newton_max_iter: int = 50
    mixed_tol: float = 1e-8            # times max(1, |macro stress|)
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
        if not all(t is None or math.isfinite(t) for t in self.targets):
            raise ValueError(f"segment targets must be finite, got {self.targets}")
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


class _StressControl:
    """The stress-controlled macro components S of one increment attempt.

    ``eps_bar`` is the macro strain with the exact elastic predictor of the
    components S.  The macro stress is linear in their corrections d eps_S
    and in the eigen-strain increments x_a of the return:
    sig_bar = sig_pred + C_hom[:, S] d eps_S - sum_a f_a A_a^T C_a x_a.
    """

    def __init__(self, ops, state, targets, modes):
        self.ops = ops
        self.idx = [i for i in range(6) if modes[i] == STRESS]
        targets = np.asarray(targets, dtype=float)
        self.target = targets[self.idx]
        c_hom = ops.stiffness_hom
        eps = np.where([m == STRAIN for m in modes], targets, state.macro_strain)
        sig = state.macro_stress + c_hom @ (eps - state.macro_strain)
        eps[self.idx] += _solve(c_hom[np.ix_(self.idx, self.idx)],
                                self.target - sig[self.idx], "macro stiffness")
        self.eps_bar = eps
        self.sig_bar = state.macro_stress + c_hom @ (eps - state.macro_strain)

    @cached_property
    def sens(self):
        """Trial-stress sensitivities C_a A_a[:, S] to the controlled strains, (n, 6, k)."""
        return self.ops.stiffness @ self.ops.concentration[:, :, self.idx]

    def residual(self, d_eps, active, x):
        """sig_bar_S - target_S at (d_eps, x) and the scale max(1, |sig_bar|)."""
        if not self.idx:
            return np.zeros(0), 1.0
        x_all = np.zeros((self.ops.n_phases, 6))
        x_all[active] = x
        sig = (self.sig_bar + self.ops.stiffness_hom[:, self.idx] @ d_eps
               - eigen_stress_hom(self.ops, x_all))
        return sig[self.idx] - self.target, max(1.0, float(np.linalg.norm(sig)))


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

    def start(self, sig_tr, lam):
        """Active stresses the multipliers ``lam`` give with flow directions at
        the trial stresses ``sig_tr``: where a warm-started Newton begins."""
        dirs = dp_flow(sig_tr[self.active], self.tan_g, self.strength)
        return self.stress_update(sig_tr, lam, dirs)[self.active]

    def residual(self, sig_tr, sig_act, lam):
        """(m, 7) residual (r_sig, r_F) at the iterate, with the flow directions
        n_g(sig_act), the stresses of all phases these directions give and the
        point ``(n_dev, s_eq)`` of sig_act that ``jacobian`` linearizes at."""
        mean, n_dev, eq = dp_direction(sig_act, self.strength)
        dirs = dp_flow_of(n_dev, self.tan_g)
        sig = self.stress_update(sig_tr, lam, dirs)
        res = np.empty((len(lam), 7))
        res[:, :6] = sig_act - sig[self.active]
        res[:, 6] = dp_yield_of(mean, eq, self.tan_f, self.strength)
        return res, dirs, sig, (n_dev, eq)

    def jacobian(self, point, lam, rhs):
        """Solve the residual's linearization at (sig_act, lam) for ``rhs`` (m, 7, k);
        ``point`` is the ``(n_dev, s_eq)`` of sig_act that ``residual`` returns.

        Phase a's 7x7 block [[I + lam_a D_a N_a, D_a n_a], [g_a^T, 0]], with
        D_a = C_a (I - R_a C_a), N_a = dn_g/dsig and g_a = dF/dsig, is solved
        for the right-hand sides and the coupling columns at once; the coupling
        vectors (w, y) then follow from one 6x6 (12x12) system.  Returns the
        corrections (m, 7, k) and the eigen-strain increments dx (m, 6, k).
        """
        n_dev, eq = point
        flow = np.empty((len(lam), 6, 7))  # dx_a = flow_a @ (dsig_a, dlam_a)
        flow[:, :, :6] = lam[:, None, None] * dp_flow_gradient_of(n_dev, eq)
        flow[:, :, 6] = dp_flow_of(n_dev, self.tan_g)
        block = np.zeros((len(lam), 7, 7))
        block[:, :6] = self.own @ flow
        block[:, :6, :6] += np.eye(6)
        block[:, 6, :6] = dp_flow_of(n_dev, self.tan_f)
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

    def step(self, point, lam, res, control, macro_res):
        """Newton correction (m, 7) of (sig_act, lam) and d eps_S (k,) of the
        stress-controlled strains for the residuals ``res`` and ``macro_res``
        at the iterate whose ``(n_dev, s_eq)`` is ``point``.

        One ``jacobian`` call solves for -res and for the residual's
        macro-strain columns, the trial sensitivities C_a A_a[:, S]; the macro
        stress rows C_hom[S, S] d eps_S - sum_a f_a (A_a^T C_a)_S dx_a = -macro_res
        then give d eps_S from one k x k system.
        """
        sens = control.sens[self.active]
        rhs = np.zeros((len(lam), 7, 1 + len(control.idx)))
        rhs[:, :, 0] = -res
        rhs[:, :6, 1:] = sens
        z, dx = self.jacobian(point, lam, rhs)
        coupled = np.einsum("a,aji,ajk->ik", self.ops.fractions[self.active], sens, dx)
        block = self.ops.stiffness_hom[np.ix_(control.idx, control.idx)]
        d_eps = _solve(block - coupled[:, 1:], coupled[:, 0] - macro_res, "macro tangent")
        return z[:, :, 0] + z[:, :, 1:] @ d_eps, d_eps


def _newton_multipliers(ops, sig_tr, active, settings, control, lam, d_eps):
    """Solve the coupled return on the active set with the stress-controlled
    strains of ``control``; returns (lam, dirs, stresses, d_eps).

    Newton on the active stresses and multipliers and the corrections d_eps
    of the controlled strains, from the trial state ``sig_tr`` at the
    predicted macro strain and the guess (``lam``, ``d_eps``).  The iteration
    starts at the stresses the guessed multipliers give with flow directions
    at the trial stresses.  The solve is accepted once the stress residual
    and F of the stresses recomputed with the flow directions of the iterate
    are both within tolerance, so the discrete flow rule uses directions
    consistent with the returned stresses, and the controlled macro stresses
    meet their targets within ``mixed_tol``; a guess that already does so
    returns without a linearization.
    """
    sys_ = _ActiveSystem(ops, active)
    tols = settings.newton_tol * sys_.strength
    sig_act = sys_.start(sig_tr + control.sens @ d_eps, lam)
    # what the failure message reports if no iterate is evaluated
    res, f_chk, macro_res, scale = np.full((1, 7), np.inf), np.inf, np.zeros(0), 1.0
    for _ in range(settings.newton_max_iter):
        res, dirs, sig, point = sys_.residual(sig_tr + control.sens @ d_eps, sig_act, lam)
        f_chk = dp_yield(sig[active], sys_.tan_f, sys_.strength)
        macro_res, scale = control.residual(d_eps, active, lam[:, None] * dirs)
        if (np.all(np.maximum(np.abs(f_chk), np.abs(res[:, :6]).max(axis=1)) <= tols)
                and np.all(np.abs(macro_res) <= settings.mixed_tol * scale)):
            return lam, dirs, sig, d_eps
        step, d = sys_.step(point, lam, res, control, macro_res)
        sig_act = sig_act + step[:, :6]
        lam = lam + step[:, 6]
        d_eps = d_eps + d
    err = np.maximum(np.abs(f_chk), np.abs(res[:, :6]).max(axis=1)) / tols
    raise StepFailureError(
        f"return mapping did not converge in {settings.newton_max_iter} Newton iterations; "
        f"last stress/yield residual {np.max(err, initial=0.0):.3e} times its tolerance, "
        f"macro residual {np.abs(macro_res).max(initial=0.0):.3e} "
        f"(tolerance {settings.mixed_tol * scale:.3e})")


def validate_state(ops: MeanFieldOperators, state: REVState,
                   tol: float = 1e-10) -> None:
    """Raise if a converged state violates the constitutive, averaging or KKT
    identities; a NaN residual fails every check."""
    sig_ref = max(1.0, float(np.abs(state.stress).max()))
    res_c = np.abs(state.stress - phase_stresses(
        ops, state.strain, state.plastic_strain)).max()
    if not res_c <= tol * sig_ref:
        raise StepFailureError(f"constitutive residual {res_c:.3e} exceeds tolerance")
    avg = np.einsum("a,ai->i", ops.fractions, state.strain)
    res_avg = np.abs(avg - state.macro_strain).max()
    if not res_avg <= tol * max(1.0, float(np.abs(state.macro_strain).max())):
        raise StepFailureError(f"strain-average residual {res_avg:.3e} exceeds tolerance")
    p = ops.plastic
    f_vals = dp_yield(state.stress[p], ops.tan_friction[p], ops.shear_strength[p])
    tol_f = YIELD_TOL * ops.shear_strength[p]
    lam = state.multipliers[p]
    ok = (f_vals <= tol_f) & (lam >= 0.0) & (np.abs(lam * f_vals) <= tol_f)
    bad = np.flatnonzero(~ok)
    if bad.size:
        k = bad[0]
        name = ops.phases[np.flatnonzero(p)[k]].name
        raise StepFailureError(
            f"KKT violation in phase {name!r}: F = {f_vals[k]:.3e}, "
            f"multiplier = {lam[k]:.3e}")
    two_forms = ops.stiffness_hom @ (state.macro_strain - state.macro_plastic)
    if not np.abs(two_forms - state.macro_stress).max() <= 1e-12 * sig_ref:
        raise StepFailureError("macro stress forms disagree beyond roundoff")


def _solve_mixed_increment(ops, state, targets, modes, settings):
    """One attempt at an increment with per-component strain/stress control.

    The trial state at the exact elastic predictor is accepted if no phase
    yields; otherwise the active-set iteration solves the coupled return with
    the stress-controlled strains among the Newton unknowns.  Raises
    StepFailureError (the caller then subdivides) when a solve fails, the
    active set does not settle or an active phase reaches the cone apex.
    """
    control = _StressControl(ops, state, targets, modes)
    eps_bar, strains, stresses = _trial_at(ops, state, control.eps_bar)
    _, candidates = check_yield(ops, stresses)
    eps_p = state.plastic_strain.copy()
    macro_plastic = state.macro_plastic
    multipliers = np.zeros(ops.n_phases)
    active = []
    if candidates:
        sig_tr = stresses
        active = candidates
        # warm start: the last increment's multipliers, then each pass's own
        guess = state.multipliers
        d_eps = np.zeros(len(control.idx))
        for _ in range(MAX_ACTIVE_SET_PASSES):
            try:
                lam, dirs, sig, d_eps = _newton_multipliers(ops, sig_tr, active, settings,
                                                            control, guess[active], d_eps)
            except ApexSingularityError as exc:
                raise StepFailureError(f"cone apex reached in phase "
                                       f"{ops.phases[active[exc.index]].name!r}") from exc
            guess = np.zeros(ops.n_phases)
            guess[active] = np.maximum(lam, 0.0)
            negative = [a for a, lam_a in zip(active, lam) if lam_a < 0.0]
            if negative:
                active = [a for a in active if a not in negative]
                continue
            _, candidates = check_yield(ops, sig)
            newly = [a for a in candidates if a not in active]
            if not newly:
                break
            active = active + newly
        else:
            raise StepFailureError(
                f"active set did not settle within {MAX_ACTIVE_SET_PASSES} passes")
        eps_bar = eps_bar.copy()
        eps_bar[control.idx] += d_eps
        multipliers[active] = lam
        eps_p[active] += lam[:, None] * dirs
        strains = localize(ops, eps_bar, eps_p)
        stresses = phase_stresses(ops, strains, eps_p)
        macro_plastic = macro_plastic_strain(ops, eps_p)
    sig_bar = upscale_stress(ops, eps_bar, eps_p)
    miss = np.abs(sig_bar[control.idx] - control.target).max(initial=0.0)
    if miss > settings.mixed_tol * max(1.0, float(np.linalg.norm(sig_bar))):
        raise StepFailureError(
            f"stress-controlled components miss their targets by {miss:.3e}")
    mask = np.zeros(ops.n_phases, dtype=bool)
    mask[active] = True
    return REVState(step=state.step + 1, macro_strain=eps_bar, macro_stress=sig_bar,
                    macro_plastic=macro_plastic, strain=strains, plastic_strain=eps_p,
                    stress=stresses, multipliers=multipliers, active=tuple(mask.tolist()))


def _advance_with_subdivision(ops, state, targets, modes, settings):
    """Solve and validate one increment, halving it on failure up to the subdivision cap."""

    def recurse(st, tg, depth):
        try:
            new = _solve_mixed_increment(ops, st, tg, modes, settings)
            validate_state(ops, new)
            return new
        except StepFailureError as exc:
            if depth >= settings.max_subdivisions:
                exc.depth = depth
                raise
        start = np.where([m == STRAIN for m in modes], st.macro_strain, st.macro_stress)
        mid = 0.5 * (start + np.asarray(tg))
        # the half increment's Newton starts from half the multipliers
        half = replace(st, multipliers=0.5 * st.multipliers)
        return recurse(recurse(half, mid, depth + 1), tg, depth + 1)

    return replace(recurse(state, targets, 0), step=state.step + 1)


def drive(ops: MeanFieldOperators, program: LoadProgram,
          settings: SolverSettings | None = None) -> list[REVState]:
    """Run a load program from the virgin state; returns one state per increment plus the start."""
    settings = settings or SolverSettings()
    states = [initial_state(ops)]
    for s, segment in enumerate(program.segments, 1):
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
            try:
                new = _advance_with_subdivision(ops, states[-1], targets, segment.modes,
                                                settings)
            except StepFailureError as exc:
                raise StepFailureError(
                    f"segment {s}, increment {k}, subdivision depth {exc.depth} "
                    f"(cap used up): {exc}",
                    segment=s, increment=k, depth=exc.depth) from exc
            states.append(new)
    return states


def strain_program(path: list[tuple[np.ndarray, int]]) -> LoadProgram:
    """Fully strain-controlled program from (target strain, increments) pairs."""
    segments = tuple(LoadSegment(targets=tuple(float(x) for x in eps),
                                 modes=(STRAIN,) * 6, increments=n)
                     for eps, n in path)
    return LoadProgram(segments=segments)
