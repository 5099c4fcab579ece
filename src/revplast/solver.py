"""Incremental multiscale return-mapping driver with mixed strain/stress control.

Each increment is one nonlinear solve.  The stress-controlled macroscopic
strain components are predicted exactly for an elastic step, by one 6x6 map
of the load segment applied to what is left of the targets.  Plastic strains
are eigen-strains of the Mori-Tanaka medium, which is linear, so an
increment's phase fields are the converged ones plus their response to the
increment.  The trial state adds the elastic response A_a d eps_bar
(``mean_field.concentrate``, one matrix-vector product), with the
plastic strains frozen and is accepted if no phase yields.  Otherwise the
coupled return of the active phases, where every active stress depends on
every phase's flow, is solved, and its converged iterate adds the response to
its eigen-strain increments and controlled-strain corrections.  Either way
the macro stress is C_hom (eps_bar - eps_bar_p).  It is affine in the
macroscopic strain and the eigen-strains, so the corrections of the k
stress-controlled strain components are a fixed linear function of the
eigen-strain increments: they are eliminated exactly, and the controlled
stresses are on target at every Newton iterate.  That function depends on
the control modes only, so ``drive`` builds it once per load segment.  An
active set's Newton system depends on the control modes and the set only, so
a segment keeps the last one it built and rebuilds it only when the active
set changes.  The active set is revised between Newton iterates by a
primal-dual active-set switch: phases whose multiplier it rejects leave,
phases pushed past yield join at a converged iterate, and the solve goes on.
After a segment's first increment, an increment's solve starts from the
linear extrapolation of the last two converged states (the secant
predictor): the multipliers max(2 lam_n - lam_n-1, 0) of the phases active
before, else lam_n, and flow directions at 2 sig_n - sig_n-1; a segment's
increments are equal steps, so 2 and -1 are the exact coefficients.  A
segment's first increment, and the one re-solve of a failed secant start,
start cold: zero multipliers and directions at the trial stresses.  On the
default scenario the 60 plastic increments take 68 linearizations and 31
chord steps (below), and 4 systems are built.

The Newton method is linearized consistently, with the flow-direction
derivative d n / d sig, so it converges quadratically.  Because the
influence operator is stored as per-phase factors, each phase's 7x7 block
couples to the others only through a few 6-vectors (one fraction-weighted
polarization sum and, when the matrix yields, the matrix eigen-stress) and
the k controlled-strain corrections, so a linearization is one batched
inversion of the blocks plus one (6 + k)x(6 + k) ((12 + k)x(12 + k)) Schur
system: O(m) in the number m of active phases.  The blocks and the coupling
rows are each one batched matrix product, written straight into the layout
the solve reads, so the inversion is most of a linearization's cost.  Its
factors are kept for the rest of the solve, and solving with them is a few
matmuls.  So an iterate whose residual the last linearized step's contraction
would take to the tolerance in two steps makes a chord step (the modified
Newton method): it solves the kept linearization for its own residual instead
of building a new one.  The residual goes through the same coupling vectors,
each way by one matrix-vector product, so a whole iterate costs O(m); all n
phases are evaluated once per converged iterate, for the joins and the state.

Yield checks, Newton residuals and flow directions and the KKT check all call
the batched Drucker-Prager kernel of ``plasticity``.  A Newton iterate
evaluates the invariants of its active stresses once, for the residual and
its linearization at the iterate.  It has converged once its stress
residuals and F at the iterate are within tolerance and, evaluated only
then, F at the stresses recomputed with its flow is too: those are (up to
roundoff) the stresses a converged iterate hands to the state, so F is
bounded where the state is accepted.  An active system gathers its phases'
operators and stresses with one integer index, and the pressure terms of its
flow and yield gradients are computed once per system.

The operators' plastic-phase table (``MeanFieldOperators.plastic_index`` and
the ``plastic_*`` arrays beside it, gathered once by ``assemble_operators``) is
the only store of the Drucker-Prager parameters and past-yield thresholds:
``check_yield`` and ``validate_state`` read it whole, and an active system
reads its phases' rows of it.  ``validate_state`` still recomputes every value
it checks from the state's own arrays, never from the solver's intermediates.

An increment returns a state ``validate_state`` accepts or raises
StepFailureError, whatever the cause, and ``drive`` then raises it with the
segment and increment.  There is one attempt per increment: only a failed
secant-started solve is solved again, once, cold.

Each state after the first records its increment's work, ``IncrementStats``,
counted by the segment's control where the work happens; a re-solved
increment's record holds the work of both its solves.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ApexSingularityError, StepFailureError
from .mean_field import (MeanFieldOperators, concentrate, eigen_response,
                         macro_plastic_strain)
from .plasticity import (dp_direction, dp_flow_gradient_of, dp_flow_of, dp_pressure_term,
                         dp_yield, dp_yield_of)
from .tensors import MANDEL_SCALE

STRAIN = "strain"
STRESS = "stress"

# constitutive and strain-average residuals of a converged state, times
# max(1, |sig|) and max(1, |eps_bar|): at the default scenario's scales
# (|eps_bar| <= 1e-3, |sig| <= 0.14) both bounds are absolute
STATE_TOL = 1e-10

_EYE6 = np.eye(6)


def _count(name, value):
    """``value`` as an int (``np.int64`` is one); ValueError for a non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class SolverSettings:
    newton_tol: float = 1e-12          # times the phase shear strength
    newton_max_iter: int = 50          # Newton steps and active-set revisions
    mixed_tol: float = 1e-8            # times max(1, |macro stress|)

    def __post_init__(self):
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if not 0.0 < self.mixed_tol < math.inf:
            raise ValueError(f"mixed_tol must be positive and finite, got {self.mixed_tol}")
        if _count("newton_max_iter", self.newton_max_iter) < 1:
            raise ValueError(f"newton_max_iter must be at least 1, got {self.newton_max_iter}")


@dataclass(frozen=True)
class LoadSegment:
    """Per-component end targets and control modes, reached in equal increments.

    Targets are plain tensor components, as in a scenario document and the
    CSV files: ``drive`` scales the shears by sqrt(2) into the Mandel
    components of the states.  A None target means "hold": the component
    stays at its segment-start value.  Only strain-controlled components may
    hold.
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
        if _count("segment increments", self.increments) < 1:
            raise ValueError("segment needs at least one increment")


@dataclass(frozen=True)
class LoadProgram:
    segments: tuple[LoadSegment, ...]

    @property
    def total_increments(self) -> int:
        return sum(s.increments for s in self.segments)


@dataclass(frozen=True, slots=True)
class IncrementStats:
    """The work ``drive`` spent on one increment, a failed secant-started solve
    included; equal records of one load segment are one object."""

    solves: int          # Newton solves of the coupled return: 2 when re-solved cold
    linearizations: int  # Newton linearizations built, each with its step
    chords: int          # Newton steps that re-solved a solve's last linearization
    systems: int         # active-set Newton systems built (a segment keeps its last one)
    revisions: int       # new active sets inside a Newton solve


@dataclass(frozen=True, slots=True)
class REVState:
    """Converged state of the representative volume at one time step.

    A state is a read-only value: construction marks its arrays read-only, so
    consecutive states share the arrays an increment leaves unchanged (an
    elastic increment shares the plastic strains of the state before it, and
    its zero multipliers too when that state was elastic).  A caller who wants
    to write takes a copy, ``np.array(state.stress)``.  The active phases are
    those with a positive multiplier.
    """

    step: int
    macro_strain: np.ndarray
    macro_stress: np.ndarray
    macro_plastic: np.ndarray
    strain: np.ndarray          # (n, 6)
    plastic_strain: np.ndarray  # (n, 6)
    stress: np.ndarray          # (n, 6)
    multipliers: np.ndarray     # (n,), zero for inactive phases
    stats: IncrementStats | None = None  # the increment's work; None for the initial state

    def __post_init__(self):
        for arr in (self.macro_strain, self.macro_stress, self.macro_plastic, self.strain,
                    self.plastic_strain, self.stress, self.multipliers):
            arr.setflags(write=False)

    @property
    def active(self) -> tuple[bool, ...]:
        return tuple((self.multipliers > 0.0).tolist())


def initial_state(ops: MeanFieldOperators) -> REVState:
    n = ops.n_phases
    z6, zn6 = np.zeros(6), np.zeros((n, 6))
    return REVState(step=0, macro_strain=z6, macro_stress=z6, macro_plastic=z6,
                    strain=zn6, plastic_strain=zn6, stress=zn6,
                    multipliers=np.zeros(n))


def phase_stresses(ops: MeanFieldOperators, strains: np.ndarray,
                   plastic_strains: np.ndarray) -> np.ndarray:
    return np.einsum("aij,aj->ai", ops.stiffness, strains - plastic_strains)


def _trial_at(ops: MeanFieldOperators, state: REVState, eps_bar: np.ndarray):
    """Trial strains and stresses at ``eps_bar`` with the plastic strains of
    ``state`` frozen: the REV is then linear, so they are the converged fields
    plus the elastic response A_a (eps_bar - eps_bar_n) to the macro increment."""
    d = concentrate(ops, eps_bar - state.macro_strain)
    return state.strain + d, state.stress + np.einsum("aij,aj->ai", ops.stiffness, d)


def check_yield(ops: MeanFieldOperators, stresses: np.ndarray) -> list[int]:
    """Candidate plastic set: the plastic phases whose yield value exceeds YIELD_TOL s0."""
    p = ops.plastic_index
    f_vals = dp_yield(stresses.take(p, axis=0), ops.plastic_tan_friction, ops.plastic_strength)
    return p[f_vals > ops.plastic_yield_tol].tolist()


def _inverse(a, what):
    """``np.linalg.inv`` that raises StepFailureError when ``a`` (or one of a
    stack) is singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise StepFailureError(f"singular {what}: {exc}") from exc


class _StressControl:
    """The stress-controlled macro components S of one load segment.

    The macro stress is affine in the macro strain and in the eigen-strain
    increments x_b of the return,
    sig_bar = sig_pred + C_hom[:, S] d eps_S - sum_b f_b A_b^T C_b x_b, so the
    targets hold for d eps_S = C_hom[S, S]^-1 sum_b f_b (A_b^T C_b x_b)_S.
    Only the elastic predictor of an increment depends on its state and
    targets, through one 6x6 map of the segment.
    The segment's solves share the last active system it built, and it
    counts the work of the current increment.
    """

    def __init__(self, ops, modes):
        self.ops = ops
        self.strain_mode = np.array([m == STRAIN for m in modes])
        self.idx = np.flatnonzero(~self.strain_mode)
        c_hom = ops.stiffness_hom
        self.inverse = _inverse(c_hom[np.ix_(self.idx, self.idx)], "macro stiffness")
        # the exact elastic predictor eps_bar - eps_bar_n = step @ (targets - controlled):
        # the identity on the strain rows, C_hom[S, S]^-1 (r_S - C_hom[S, E] r_E) on S
        self.step = _EYE6.copy()
        self.step[self.idx] = self.inverse @ np.where(self.strain_mode, -c_hom[self.idx],
                                                      _EYE6[self.idx])
        # trial-stress sensitivities C_a A_a[:, S] to the controlled strains, (n, 6, k)
        self.sens = ops.stiffness @ ops.concentration[:, :, self.idx]
        # controlled-strain corrections per unit eigen-strain increment,
        # C_hom[S, S]^-1 f_b (A_b^T C_b)[S, :], (n, k, 6)
        self.gain = self.inverse @ (ops.fractions[:, None, None]
                                    * self.sens.transpose(0, 2, 1))
        self._system = None
        self._records = {}
        self.begin()

    def begin(self):
        """Start counting the work of a new increment."""
        self.solves = self.linearizations = self.chords = self.systems = self.revisions = 0

    def record(self):
        """The work counted since ``begin``; one object per distinct record of the segment."""
        counts = (self.solves, self.linearizations, self.chords, self.systems,
                  self.revisions)
        if counts not in self._records:
            self._records[counts] = IncrementStats(*counts)
        return self._records[counts]

    def system(self, active):
        """The segment's active system for ``active``: the kept one when its
        active list is ``active`` in the same order (the order is the row
        layout), else a new one, which replaces it."""
        if self._system is None or self._system.active != active:
            self._system = None  # at most one system per segment stays alive
            self._system = _ActiveSystem(self.ops, active, self)
            self.systems += 1
        return self._system

    def controlled(self, state):
        """Per component, the strain if it is strain-controlled, else the stress."""
        return np.where(self.strain_mode, state.macro_strain, state.macro_stress)

    def predict(self, state, targets):
        """The exact elastic macro strain of the increment from ``state`` to
        ``targets``; its strain-controlled components are the targets, bit for bit."""
        eps = state.macro_strain + self.step @ (targets - self.controlled(state))
        return np.where(self.strain_mode, targets, eps)


class _ActiveSystem:
    """Residual and condensed linearization of the coupled return of the active phases.

    Unknowns are the active stresses sig_a and multipliers lam_a; with the
    eigen-strains x_b = lam_b n_g(sig_b) and the controlled-strain corrections
    e = sum_b gain_b x_b of ``control`` the residual is
    r_sig,a = sig_a - sig_tr,a - sens_a e - C_a (sum_b B[a, b] x_b - x_a) and
    r_F,a = F(sig_a).  In the factored influence operator a phase's block
    couples to the others only through v = sum_b weighted_b x_b, which stacks
    w = sum_c f_c R_c C_c x_c, e and, when the matrix is active, y = C_0 x_0.
    Both sides of that coupling are stored in the layout of their products:
    ``weighted`` as (c, m, 6), so v is one matrix-vector product with the
    stacked x, and ``stress_coupling``, the active stresses' response to v, as
    (m, 6, c), so the coupling stresses are one matrix-vector product too.
    A system holds nothing that depends on an iterate or an increment, so the
    solves of a load segment reuse it while their active set is the same.
    """

    def __init__(self, ops, active, control):
        self.ops = ops
        self.active = active
        self.index = index = np.array(active, dtype=np.intp)  # for take and scatter
        self.idx = control.idx
        # every active phase is plastic, so its row of the plastic-phase table is exact
        rows = np.searchsorted(ops.plastic_index, index)
        self.tan_f = ops.plastic_tan_friction.take(rows)
        self.strength = ops.plastic_strength.take(rows)
        # the (m, 1) pressure columns of the yield and flow gradients
        self.pressure_f = dp_pressure_term(self.tan_f)
        self.pressure_g = dp_pressure_term(ops.plastic_tan_dilation.take(rows))
        stiff = ops.stiffness.take(index, axis=0)
        # active-set switch: leave once lam + c (F - YIELD_TOL s0) <= 0, c = 1 / (3 mu)
        self.switch_c = 2.0 / (3.0 * stiff[:, 3, 3])  # Mandel C[3, 3] = 2 mu
        self.switch_at = self.switch_c * ops.plastic_yield_tol.take(rows)
        resp = ops.response.take(index, axis=0)
        mix_stress = stiff @ ops.mixing.take(index, axis=0)  # C_a M_a: response to w
        # C_a (I - R_a C_a): response to the phase's own eigen-strain
        self.own = stiff - stiff @ resp @ stiff
        # per coupling vector (w, e and, with the matrix active, y): its rows per
        # unit eigen-strain of each phase and the active stresses' response to it
        pairs = [(ops.fractions.take(index)[:, None, None] * (resp @ stiff), mix_stress),
                 (control.gain.take(index, axis=0), -control.sens.take(index, axis=0))]
        if 0 in active:  # y = C_0 x_0, to which C_a (R_a - M_a sum_c f_c R_c) responds
            c0_rows = np.zeros((len(active), 6, 6))
            c0_rows[active.index(0)] = ops.stiffness[0]
            resp_mean = np.einsum("c,cij->ij", ops.fractions, ops.response)
            pairs.append((c0_rows, stiff @ resp - mix_stress @ resp_mean))
        self.weighted = np.concatenate([p[0].transpose(1, 0, 2) for p in pairs])
        self.stress_coupling = np.concatenate([p[1] for p in pairs], axis=2)

    def stress_update(self, sig_tr, x_act, d_eps):
        """All-phase response to the active eigen-strain increments ``x_act`` (m, 6)
        and their controlled-strain corrections ``d_eps`` (k,), as ``residual``
        returns them: eigen-strain increments x (n, 6), strain increments
        du = A[:, :, S] d_eps + eigen_response(x) and stresses sig_tr + C_a (du_a - x_a)."""
        x = np.zeros_like(sig_tr)
        x[self.index] = x_act
        e = np.zeros(6)
        e[self.idx] = d_eps
        du = concentrate(self.ops, e) + eigen_response(self.ops, x)
        return x, du, sig_tr + phase_stresses(self.ops, du, x)

    def residual(self, sig_tr, sig_act, lam):
        """(m, 7) residual (r_sig, r_F) at the iterate, with the eigen-strain
        increments x = lam n_g(sig_act), the active stresses (m, 6) and the
        controlled-strain corrections this flow gives, and the point
        ``(n_dev, s_eq)`` of sig_act that ``jacobian`` linearizes at.

        O(m): with x_a = lam_a n_g,a the active stresses are
        sig_tr,a - own_a x_a - coupling_a . v, v = sum_b weighted_b x_b,
        whose first 6 + k entries are w and d eps_S.
        """
        mean, n_dev, eq = dp_direction(sig_act, self.strength)
        x = lam[:, None] * dp_flow_of(n_dev, self.pressure_g)
        n_coupling = len(self.weighted)
        v = self.weighted.reshape(n_coupling, -1) @ x.ravel()
        sig = (sig_tr.take(self.index, axis=0) - np.einsum("aij,aj->ai", self.own, x)
               - (self.stress_coupling.reshape(-1, n_coupling) @ v).reshape(-1, 6))
        res = np.empty((len(lam), 7))
        res[:, :6] = sig_act - sig
        res[:, 6] = dp_yield_of(mean, eq, self.tan_f, self.strength)
        return res, x, sig, v[6:6 + len(self.idx)], (n_dev, eq)

    def flow(self, point, lam):
        """(m, 6, 7): the eigen-strain increments dx_a = flow_a @ (dsig_a, dlam_a)
        of a correction at (sig_act, lam); ``point`` as for ``jacobian``."""
        n_dev, eq = point
        flow = np.empty((len(lam), 6, 7))
        flow[:, :, :6] = lam[:, None, None] * dp_flow_gradient_of(n_dev, eq)
        flow[:, :, 6] = dp_flow_of(n_dev, self.pressure_g)
        return flow

    def jacobian(self, point, lam):
        """Build the ``_Linearization`` of the residual at (sig_act, lam); the Newton
        loop then solves it for its step and any chord steps after it.  ``point``
        is the ``(n_dev, s_eq)`` of sig_act that ``residual`` returns.

        Phase a's 7x7 block [[I + lam_a D_a N_a, D_a n_a], [g_a^T, 0]], with
        D_a = C_a (I - R_a C_a), N_a = dn_g/dsig and g_a = dF/dsig, is inverted
        and applied to the coupling columns; the coupling vectors (w, e, y) then
        follow from one (6 + k)x(6 + k) ((12 + k)x(12 + k)) Schur system, whose
        inverse is kept with them.  The blocks' stress rows D_a flow_a and the
        coupling rows weighted_b flow_b are each one batched matrix product
        written into the array that keeps them, the coupling rows' (c, m, 7)
        through its (m, c, 7) view, so neither is copied into place.
        """
        m = len(lam)
        flow = self.flow(point, lam)
        block = np.empty((m, 7, 7))
        np.matmul(self.own, flow, out=block[:, :6])
        block.reshape(m, 49)[:, 0:41:8] += 1.0  # the identity on the stress rows' diagonal
        block[:, 6, :6] = dp_flow_of(point[0], self.pressure_f)
        block[:, 6, 6] = 0.0
        inv_block = _inverse(block, "return-mapping system")
        del block
        inv_coupling = inv_block[:, :, :6] @ self.stress_coupling
        # coupling vectors: w = sum_c f_c R_c C_c dx_c, e = sum_c gain_c dx_c, y = C_0 dx_0
        n_coupling = len(self.weighted)
        lead = np.empty((n_coupling, m, 7))
        np.matmul(self.weighted.transpose(1, 0, 2), flow, out=lead.transpose(1, 0, 2))
        lead = lead.reshape(n_coupling, -1)
        schur = lead @ inv_coupling.reshape(-1, n_coupling) + np.eye(n_coupling)
        return _Linearization(inv_block, inv_coupling, lead,
                              _inverse(schur, "return-mapping system"))


class _Linearization(NamedTuple):
    """The kept factors of one Newton linearization of an ``_ActiveSystem``: the
    inverse blocks B^-1 (m, 7, 7), their solution B^-1 U for the coupling
    columns (m, 7, c), the coupling rows L (c, 7m) and the Schur inverse
    (I + L B^-1 U)^-1 (c, c)."""

    inv_block: np.ndarray
    inv_coupling: np.ndarray
    lead: np.ndarray
    inv_schur: np.ndarray

    def solve(self, rhs):
        """The corrections (m, 7, r) of the linearization for ``rhs`` (m, 7, r):
        B^-1 rhs - B^-1 U (I + L B^-1 U)^-1 L B^-1 rhs, a few matmuls."""
        sol = self.inv_block @ rhs
        wy = self.inv_schur @ (self.lead @ sol.reshape(-1, sol.shape[2]))
        return sol - self.inv_coupling @ wy


def _chord(err, rate):
    """Whether a Newton iterate with the scaled residual ``err`` solves the kept
    linearization again: whether two steps at the last linearized step's
    contraction ``rate`` would take it to the tolerance (``err`` 1)."""
    return err * rate * rate <= 1.0


def _newton_multipliers(ops, sig_tr, active, settings, control, lam, sig_dir=None):
    """Solve the coupled return under the stress control of ``control`` from
    the candidate phases ``active`` and their start ``lam``, revising the
    active set between iterates; returns the final set and multipliers, the
    converged iterate's controlled-strain corrections and its ``stress_update``,
    (active, lam, x, d_eps, du, stresses).

    Newton on the active stresses and multipliers from the trial state
    ``sig_tr`` at the predicted macro strain, starting at the stresses the
    start multipliers give with flow directions at the candidates' stresses
    ``sig_dir`` (m, 6), by default their trial stresses;
    every iterate carries the controlled-strain corrections d_eps of its flow.
    An iterate has converged once its residual (r_sig and F at the iterate)
    is within tolerance and then F of the stresses recomputed with its flow
    directions is too.  At every iterate, the start included, a phase with
    lam_a + c_a (F_a - YIELD_TOL s0_a) <= 0 leaves with its multiplier; at a
    converged iterate the plastic phases past yield join from their current
    stress with lam = 0.  A revision costs no linearization; the solve returns
    at a converged iterate that changes nothing.  ``newton_max_iter`` caps
    steps and revisions together.

    Chord steps: if the last linearized step took the worst scaled residual
    (in units of the tolerance) from e0 to e1, a later iterate with residual e
    solves that linearization again for its own residual while
    e (e1/e0)^2 <= 1, i.e. while two steps at that rate would reach the
    tolerance; otherwise it linearizes anew.  A revision drops the kept
    factors, and a solve starts without any.
    """
    control.solves += 1
    try:
        sys_ = control.system(active)
        if sig_dir is None:
            sig_dir = sig_tr.take(sys_.index, axis=0)
        sig_act = sys_.residual(sig_tr, sig_dir, lam)[2]
        tols = settings.newton_tol * sys_.strength
        lin = None  # the kept factors of the last linearization of sys_
        for _ in range(settings.newton_max_iter):
            res, x, sig, d_eps, point = sys_.residual(sig_tr, sig_act, lam)
            gap = np.abs(res).max(axis=1)
            # F at the stresses the iterate hands on, only where it can converge
            converged = ((gap <= tols).all()
                         and (np.abs(dp_yield(sig, sys_.tan_f, sys_.strength)) <= tols).all())
            keep = lam + sys_.switch_c * res[:, 6] > sys_.switch_at
            join = []
            if converged:  # the only all-phase evaluation: join check and result
                x, du, sig = sys_.stress_update(sig_tr, x, d_eps)
                join = sorted(set(check_yield(ops, sig)) - set(active))
            if keep.all() and not join:
                if converged:
                    return active, lam, x, d_eps, du, sig
                err = float(np.max(gap / tols))
                if lin is not None and rate is None:
                    rate = err / err_lin  # the contraction of the linearized step
                if lin is not None and _chord(err, rate):
                    control.chords += 1
                else:
                    control.linearizations += 1
                    lin = sys_.jacobian(point, lam)
                    err_lin, rate = err, None
                z = lin.solve(-res[:, :, None])
                sig_act = sig_act + z[:, :6, 0]
                lam = lam + z[:, 6, 0]
                continue
            err = float(np.max(gap / tols, initial=0.0))
            active = [a for a, k in zip(active, keep) if k] + join
            sig_act = np.concatenate((sig_act[keep], sig[join]))
            lam = np.concatenate((lam[keep], np.zeros(len(join))))
            control.revisions += 1
            sys_, lin = control.system(active), None
            tols = settings.newton_tol * sys_.strength
    except ApexSingularityError as exc:
        phase = ops.phases[active[exc.index]]
        where = ("cone apex reached" if phase.plastic.friction_angle > 0.0
                 else "equivalent stress vanished on the von Mises axis")  # no apex at phi = 0
        raise StepFailureError(f"{where} in phase {phase.name!r}") from exc
    raise StepFailureError(
        f"return mapping did not converge in {settings.newton_max_iter} Newton iterations; "
        f"last stress/yield residual {err:.3e} times its tolerance")


def validate_state(ops: MeanFieldOperators, state: REVState) -> None:
    """Raise if a converged state violates the constitutive, averaging or KKT
    identities; a NaN residual fails every check."""
    sig_ref = max(1.0, float(np.abs(state.stress).max()))
    res_c = np.abs(state.stress - phase_stresses(
        ops, state.strain, state.plastic_strain)).max()
    if not res_c <= STATE_TOL * sig_ref:
        raise StepFailureError(f"constitutive residual {res_c:.3e} exceeds tolerance")
    res_avg = np.abs(ops.fractions @ state.strain - state.macro_strain).max()
    if not res_avg <= STATE_TOL * max(1.0, float(np.abs(state.macro_strain).max())):
        raise StepFailureError(f"strain-average residual {res_avg:.3e} exceeds tolerance")
    p, tol_f = ops.plastic_index, ops.plastic_yield_tol
    f_vals = dp_yield(state.stress.take(p, axis=0), ops.plastic_tan_friction,
                      ops.plastic_strength)
    lam = state.multipliers[p]
    ok = (f_vals <= tol_f) & (lam >= 0.0) & (np.abs(lam * f_vals) <= tol_f)
    if not ok.all():
        k = int(np.argmin(ok))  # the first violating plastic phase
        name = ops.phases[p[k]].name
        raise StepFailureError(
            f"KKT violation in phase {name!r}: F = {f_vals[k]:.3e}, "
            f"multiplier = {lam[k]:.3e}")
    two_forms = ops.stiffness_hom @ (state.macro_strain - state.macro_plastic)
    if not np.abs(two_forms - state.macro_stress).max() <= 1e-12 * sig_ref:
        raise StepFailureError("macro stress forms disagree beyond roundoff")


def _solve_mixed_increment(ops, state, targets, control, settings, before=None):
    """The increment from ``state`` to ``targets`` under the segment's ``control``.

    The trial state at the exact elastic predictor is accepted if no phase
    yields; otherwise one Newton solve, which revises the active set as it
    goes, returns the coupled return with the stress-controlled strains
    eliminated.  The solve starts cold, from zero multipliers with flow
    directions at the trial stresses, unless it is given the converged state
    ``before`` one equal step before ``state``: it then starts from the linear
    extrapolation of the two over the candidate phases, multipliers
    max(2 lam_n - lam_n-1, 0) where the phase was active before, else lam_n,
    and flow directions at 2 sig_n - sig_n-1.  If that secant-started solve
    fails, the increment is solved once more, cold, from the same trial state
    and candidates.  Returns the new state once ``validate_state`` accepts it;
    raises StepFailureError when the cold solve fails, an active phase's
    equivalent stress vanishes in it, the stress targets are missed or the
    state is rejected.
    """
    eps_bar = control.predict(state, targets)
    strains, stresses = _trial_at(ops, state, eps_bar)
    active = check_yield(ops, stresses)
    eps_p, macro_plastic = state.plastic_strain, state.macro_plastic
    multipliers = state.multipliers
    if active:
        solved = None
        if before is not None:  # the secant predictor
            index = np.array(active, dtype=np.intp)
            lam, lam_before = state.multipliers.take(index), before.multipliers.take(index)
            lam = np.where(lam_before > 0.0, np.maximum(2.0 * lam - lam_before, 0.0), lam)
            sig_dir = 2.0 * state.stress.take(index, axis=0) - before.stress.take(index, axis=0)
            try:
                solved = _newton_multipliers(ops, stresses, active, settings, control, lam,
                                             sig_dir)
            except StepFailureError:
                pass  # solved again cold, below
        if solved is None:
            solved = _newton_multipliers(ops, stresses, active, settings, control,
                                         np.zeros(len(active)))
        active, lam, x, d_eps, du, stresses = solved
        eps_bar[control.idx] += d_eps
        multipliers = np.zeros(ops.n_phases)
        multipliers[active] = lam
        strains, eps_p = strains + du, eps_p + x
        macro_plastic = macro_plastic_strain(ops, eps_p)
    elif multipliers.any():  # else shared, like the plastic strains
        multipliers = np.zeros(ops.n_phases)
    sig_bar = ops.stiffness_hom @ (eps_bar - macro_plastic)
    miss = np.abs(sig_bar[control.idx] - targets[control.idx]).max(initial=0.0)
    if miss > settings.mixed_tol * max(1.0, math.sqrt(sig_bar @ sig_bar)):
        raise StepFailureError(
            f"stress-controlled components miss their targets by {miss:.3e}")
    new = REVState(step=state.step + 1, macro_strain=eps_bar, macro_stress=sig_bar,
                   macro_plastic=macro_plastic, strain=strains, plastic_strain=eps_p,
                   stress=stresses, multipliers=multipliers, stats=control.record())
    validate_state(ops, new)
    return new


def _advance_with_subdivision(ops, state, targets, control, settings, before=None):
    """Solve one increment: start counting its work and make its one attempt.

    The name is kept for the benchmark's increment clock: ``perfbench`` wraps
    this function by name, and ``drive`` looks it up at call time, once per
    increment."""
    control.begin()
    return _solve_mixed_increment(ops, state, targets, control, settings, before)


def drive(ops: MeanFieldOperators, program: LoadProgram,
          settings: SolverSettings | None = None) -> list[REVState]:
    """Run a load program from the virgin state; returns one state per increment plus the start.

    The states are read-only and share the arrays an increment left unchanged:
    each elastic increment's ``plastic_strain`` and ``macro_plastic`` are the
    previous state's objects, and so are its ``multipliers`` when the previous
    state is elastic too.
    """
    settings = settings or SolverSettings()
    states = [initial_state(ops)]
    for s, segment in enumerate(program.segments, 1):
        try:
            control = _StressControl(ops, segment.modes)
        except StepFailureError as exc:
            raise StepFailureError(f"segment {s}: {exc}", segment=s) from exc
        start = control.controlled(states[-1])
        end = np.array([start[i] if t is None else float(t) * MANDEL_SCALE[i]
                        for i, t in enumerate(segment.targets)])
        for k in range(1, segment.increments + 1):
            if k == segment.increments:
                targets = end  # land on the segment target bit-exactly
            else:
                targets = start + (end - start) * (k / segment.increments)
            before = states[-2] if k > 1 else None  # the segment's steps are equal
            try:
                new = _advance_with_subdivision(ops, states[-1], targets, control, settings,
                                                before)
            except StepFailureError as exc:
                raise StepFailureError(f"segment {s}, increment {k}: {exc}",
                                       segment=s, increment=k) from exc
            states.append(new)
    return states


def strain_program(path: list[tuple[np.ndarray, int]]) -> LoadProgram:
    """Fully strain-controlled program from (target strain, increments) pairs;
    the targets are tensor components, like those of ``LoadSegment``."""
    segments = tuple(LoadSegment(targets=tuple(float(x) for x in eps),
                                 modes=(STRAIN,) * 6, increments=n)
                     for eps, n in path)
    return LoadProgram(segments=segments)
