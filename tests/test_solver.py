import re

import numpy as np
import pytest

import revplast.solver as solver_mod
from revplast.errors import ApexSingularityError, RevplastError, StepFailureError
from revplast.mean_field import (PhaseSpec, Spheroid, assemble_operators, localize,
                                 upscale_stress)
from revplast.plasticity import DruckerPrager, yield_value
from revplast.scenario import default_scenario
from revplast.selfcheck import _homogeneous_phases, _radial_return
from dataclasses import replace

from revplast.solver import (STRAIN, STRESS, LoadProgram, LoadSegment,
                             SolverSettings, _solve_mixed_increment, _trial_at,
                             check_yield, drive, initial_state, strain_program,
                             validate_state)

E0, NU, EI = 100.0, 0.25, 1000.0
VM12 = DruckerPrager(friction_angle=0.0, shear_strength=0.12)


def two_phase_homogeneous(plastic=VM12):
    return assemble_operators(_homogeneous_phases(plastic))


def default_ops():
    return assemble_operators(default_scenario().phases())


# ------------------------------------------------------------------ trial

def test_trial_zero_increment_is_identity():
    ops = default_ops()
    program = strain_program([(np.array([1e-4, 0, -2e-4, 0, 0, 0]), 2)])
    state = drive(ops, program)[-1]
    eps_bar, eps_tr, sig_tr = _trial_at(ops, state, state.macro_strain)
    assert np.abs(eps_bar - state.macro_strain).max() == 0.0
    assert np.abs(eps_tr - state.strain).max() < 1e-15
    assert np.abs(sig_tr - state.stress).max() < 1e-15


def test_elastic_rev_accepts_trial():
    # elastic variant of the default assembly: trial stresses are final
    sc = default_scenario()
    phases = [PhaseSpec(p.name, p.volume_fraction, p.young_modulus, p.poisson_ratio,
                        spheroid=p.spheroid, plastic=None) for p in sc.phases()]
    ops = assemble_operators(phases)
    deps = np.array([2e-4, -1e-4, -4e-4, 0, 5e-5, 0])
    state = initial_state(ops)
    _, eps_tr, sig_tr = _trial_at(ops, state, deps)
    new = _solve_mixed_increment(ops, state, deps, (STRAIN,) * 6, SolverSettings())
    assert np.abs(new.stress - sig_tr).max() == 0.0
    assert np.abs(new.macro_stress - ops.stiffness_hom @ deps).max() < 1e-14


def test_trial_inclusion_stress_oracle():
    # hand-rolled matrix product: first elastic step gives C_i : A_i : d_eps
    ops = default_ops()
    deps = np.array([0.0, 0, -1e-5, 0, 0, 0])
    _, _, sig_tr = _trial_at(ops, initial_state(ops), deps)
    for a in (1, 9, 20):
        oracle = ops.stiffness[a] @ (ops.concentration[a] @ deps)
        assert np.abs(sig_tr[a] - oracle).max() < 1e-18


# ------------------------------------------------------------------ yield check

def test_check_yield_sets():
    ops = default_ops()
    n = ops.n_phases
    calm = np.zeros((n, 6))
    f_vals, cand = check_yield(ops, calm)
    assert cand == []
    assert f_vals[0] == -np.inf  # elastic matrix has no yield value
    hot = calm.copy()
    hot[7] = np.array([0.0, 0, -0.2, 0, 0, 0])
    _, cand = check_yield(ops, hot)
    assert cand == [7]


def test_check_yield_mixed_angles_and_elastic_phase(rng):
    models = (None, DruckerPrager(0.3, 0.05), DruckerPrager(0.0, 0.12),
              DruckerPrager(0.4, 0.02, dilation_angle=0.1))
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    phases = [PhaseSpec("matrix", 0.7, E0, NU)] + [
        PhaseSpec(f"incl{k}", 0.1, EI, NU, spheroid=Spheroid(0.35, axis), plastic=m)
        for k, (axis, m) in enumerate(zip(axes, models[1:]))]
    ops = assemble_operators(phases)
    assert ops.plastic.tolist() == [False, True, True, True]
    sig = rng.normal(size=(4, 6)) * 0.1
    f_vals, cand = check_yield(ops, sig)
    assert f_vals[0] == -np.inf
    rows = [yield_value(m, s) for m, s in zip(models[1:], sig[1:])]
    assert np.array_equal(f_vals[1:], rows)
    assert cand == [a for a in (1, 2, 3)
                    if f_vals[a] > solver_mod.YIELD_TOL * models[a].shear_strength]
    assert all(type(a) is int for a in cand)


def test_symmetric_orientations_yield_symmetrically():
    # axisymmetric loading of the cube orientation set: equal yield values
    # inside each orientation orbit (faces, edges, vertices)
    ops = default_ops()
    deps = np.array([1e-4, 1e-4, -4e-4, 0, 0, 0])
    _, _, sig_tr = _trial_at(ops, initial_state(ops), deps)
    f_vals, _ = check_yield(ops, sig_tr)
    incl = f_vals[1:]
    faces, edges, verts = incl[:6], incl[6:18], incl[18:]
    assert np.ptp(verts) < 1e-12
    # faces split by axis alignment; the four equatorial ones match
    assert np.ptp(faces[:4]) < 1e-12
    assert np.ptp(faces[4:]) < 1e-12
    assert np.ptp(edges[:4]) < 1e-9  # in-plane edges
    assert len(set(np.round(edges, 9))) <= 2


# ------------------------------------------------------------------ return map

def test_homogeneous_matches_radial_return():
    ops = two_phase_homogeneous()
    n_steps = 40
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), n_steps)])
    states = drive(ops, program)
    oracle = _radial_return(E0, NU, 0.12, [st.macro_strain for st in states[1:]])
    for st, (sig, eps_p, lam) in zip(states[1:], oracle):
        assert np.abs(st.macro_stress - sig).max() < 1e-10
        assert np.abs(st.macro_plastic - eps_p).max() < 1e-10
        for a in range(2):
            assert np.abs(st.plastic_strain[a] - eps_p).max() < 1e-10
            assert np.abs(st.stress[a] - sig).max() < 1e-10
        if lam > 0.0:
            assert st.multipliers[:2] == pytest.approx([lam, lam], abs=1e-10)


def four_phase_ops(scheme):
    # plastic matrix, two plastic inclusions with distinct stiffness and
    # Drucker-Prager parameters and one elastic inclusion, all on one spheroid
    shape = Spheroid(0.35, (1, 2, 3))
    return assemble_operators([
        PhaseSpec("matrix", 0.7, E0, NU, plastic=DruckerPrager(0.2, 0.12)),
        PhaseSpec("stiff", 0.1, EI, 0.2, spheroid=shape,
                  plastic=DruckerPrager(0.3, 0.5, dilation_angle=0.1)),
        PhaseSpec("soft", 0.1, 300.0, 0.3, spheroid=shape,
                  plastic=DruckerPrager(0.0, 0.2)),
        PhaseSpec("elastic", 0.1, 2000.0, 0.25, spheroid=shape),
    ], scheme=scheme)


FOUR_PHASE_STRAIN = np.array([1e-3, -5e-4, -2e-3, 3e-4, 0.0, 2e-4])


@pytest.mark.parametrize("scheme", ["mori_tanaka", "dilute"])
@pytest.mark.parametrize("active", [[0, 1, 2], [1, 2], [2, 0]])
def test_jacobian_matches_finite_differences(scheme, active):
    # the condensed Newton step solves the dense central-difference Jacobian of
    # the (sigma, lambda) residual at a mid-Newton iterate
    ops = four_phase_ops(scheme)
    _, _, sig_tr = _trial_at(ops, initial_state(ops), FOUR_PHASE_STRAIN)
    sys_ = solver_mod._ActiveSystem(ops, active)
    m = len(active)
    sig_act = sig_tr[active] * 0.9 + 0.01  # off the trial state, lambda > 0
    lam = 1e-4 * np.arange(1.0, m + 1.0)

    def residual(v):
        return sys_.residual(sig_tr, v[:, :6], v[:, 6])[0].ravel()

    point = np.column_stack((sig_act, lam))
    steps = np.empty((m, 7))
    steps[:, :6] = 1e-7 * np.abs(sig_act).max()
    steps[:, 6] = 1e-7 * lam.max()
    jac_fd = np.empty((7 * m, 7 * m))
    for k in range(7 * m):
        bump = np.zeros(7 * m)
        bump[k] = steps.flat[k]
        bump = bump.reshape(m, 7)
        jac_fd[:, k] = (residual(point + bump) - residual(point - bump)) / (
            2.0 * steps.flat[k])
    res, _, _, at = sys_.residual(sig_tr, sig_act, lam)
    z, dx = sys_.jacobian(at, lam, -res.reshape(m, 7, 1))
    res = res.ravel()
    assert np.abs(jac_fd @ z.ravel() + res).max() <= 1e-6 * np.abs(res).max()
    # dx is the eigen-strain increment lam dn + n dlam the correction implies
    def eigen_strain(v):
        return v[:, 6, None] * solver_mod.dp_flow(v[:, :6], sys_.tan_g, sys_.strength)

    t = 1e-3
    dx_fd = (eigen_strain(point + t * z[..., 0])
             - eigen_strain(point - t * z[..., 0])) / (2.0 * t)
    assert np.abs(dx[..., 0] - dx_fd).max() <= 1e-6 * np.abs(dx_fd).max()


MIXED_MODES = (STRESS, STRESS, STRAIN, STRESS, STRAIN, STRAIN)


@pytest.mark.parametrize("scheme", ["mori_tanaka", "dilute"])
@pytest.mark.parametrize("active", [[0, 1, 2], [1, 2], [2, 0]])
def test_macro_tangent_matches_finite_differences(scheme, active):
    # the macro-strain columns and macro-stress rows of the Newton linearization
    # (its response to the stress targets at a converged state) against central
    # differences of converged returns on the same active set
    ops = four_phase_ops(scheme)
    start = initial_state(ops)
    settings = SolverSettings()
    stress_idx = [i for i in range(6) if MIXED_MODES[i] == STRESS]

    def converged(targets, modes):
        control = solver_mod._StressControl(ops, start, targets, modes)
        _, _, sig_tr = _trial_at(ops, start, control.eps_bar)
        lam, dirs, sig, d_eps = solver_mod._newton_multipliers(
            ops, sig_tr, active, settings, control, np.zeros(len(active)),
            np.zeros(len(control.idx)))
        eps_bar = control.eps_bar.copy()
        eps_bar[control.idx] += d_eps
        return control, np.column_stack((sig[active], lam)), eps_bar, lam[:, None] * dirs

    # targets: the macro stresses of the strain-controlled return at FOUR_PHASE_STRAIN
    _, _, _, flow = converged(FOUR_PHASE_STRAIN, (STRAIN,) * 6)
    eps_p = np.zeros((ops.n_phases, 6))
    eps_p[active] = flow
    targets = np.where(np.array(MIXED_MODES) == STRESS,
                       upscale_stress(ops, FOUR_PHASE_STRAIN, eps_p), FOUR_PHASE_STRAIN)
    control, point, eps_bar, _ = converged(targets, MIXED_MODES)
    assert np.abs(eps_bar - FOUR_PHASE_STRAIN).max() <= 1e-9 * np.abs(FOUR_PHASE_STRAIN).max()
    sys_ = solver_mod._ActiveSystem(ops, active)
    m, k = len(active), len(stress_idx)
    h = 1e-6 * np.abs(targets[stress_idx]).max()
    for j, i in enumerate(stress_idx):
        # raising target i by one leaves the macro residual at -e_j
        at = solver_mod.dp_direction(point[:, :6], sys_.strength)[1:]
        step, d_eps = sys_.step(at, point[:, 6], np.zeros((m, 7)), control, -np.eye(k)[j])
        bump = np.zeros(6)
        bump[i] = h
        _, hi, eps_hi, _ = converged(targets + bump, MIXED_MODES)
        _, lo, eps_lo, _ = converged(targets - bump, MIXED_MODES)
        step_fd = (hi - lo) / (2.0 * h)
        eps_fd = (eps_hi - eps_lo)[stress_idx] / (2.0 * h)
        assert np.abs(step - step_fd).max() <= 1e-6 * np.abs(step_fd).max()
        assert np.abs(d_eps - eps_fd).max() <= 1e-6 * np.abs(eps_fd).max()
        # plastic flow softens the response: not the elastic compliance
        elastic = np.linalg.solve(ops.stiffness_hom[np.ix_(stress_idx, stress_idx)],
                                  np.eye(k)[j])
        assert np.abs(d_eps - elastic).max() > 1e-3 * np.abs(eps_fd).max()


def counted_newton(monkeypatch, ops, state, targets, modes, active, lam, d_eps):
    """One seeded Newton solve of the increment to ``targets``: its result and
    the number of linearizations it made."""
    calls = []
    jacobian = solver_mod._ActiveSystem.jacobian

    def counted(self, *args):
        calls.append(1)
        return jacobian(self, *args)

    monkeypatch.setattr(solver_mod._ActiveSystem, "jacobian", counted)
    control = solver_mod._StressControl(ops, state, targets, modes)
    _, _, sig_tr = _trial_at(ops, state, control.eps_bar)
    out = solver_mod._newton_multipliers(ops, sig_tr, active, SolverSettings(), control,
                                         lam, d_eps)
    return out, len(calls)


def test_converged_guess_needs_no_linearization(monkeypatch):
    # von Mises phases of one stiffness return radially, so the flow directions
    # at the trial stresses are the converged ones: seeded with its own
    # converged multipliers and strain corrections, the solve starts converged
    ops = two_phase_homogeneous()
    state = initial_state(ops)
    targets = np.array([0.0, 0.0, -0.004, 0.0, 0.0, 0.0])
    active = [0, 1]
    (lam, _, sig, d_eps), cold = counted_newton(monkeypatch, ops, state, targets,
                                                MIXED_MODES, active, np.zeros(2), np.zeros(3))
    assert cold >= 1 and (lam > 0.0).all()
    (lam_w, _, sig_w, d_w), warm = counted_newton(monkeypatch, ops, state, targets,
                                                  MIXED_MODES, active, lam, d_eps)
    assert warm == 0
    tol = SolverSettings().newton_tol * 0.12
    assert np.abs(lam_w - lam).max() <= tol
    assert np.abs(sig_w - sig).max() <= tol
    assert np.abs(d_w - d_eps).max() <= tol


@pytest.mark.parametrize("scale", [0.0, 5.0])
def test_seeded_newton_reaches_the_same_return(monkeypatch, scale):
    # a plastic increment of the default run, solved from no multipliers and
    # from five times the converged ones: one answer within the tolerance
    sc = default_scenario()
    ops = assemble_operators(sc.phases())
    segment = sc.program.segments[0]
    states = drive(ops, LoadProgram((segment,)), sc.settings)
    prev, new = states[60], states[61]
    targets = np.where([m == STRAIN for m in segment.modes], new.macro_strain,
                       new.macro_stress)
    active = np.flatnonzero(new.active).tolist()
    assert len(active) >= 10
    k = sum(m == STRESS for m in segment.modes)
    (lam, _, sig, _), _ = counted_newton(monkeypatch, ops, prev, targets, segment.modes,
                                         active, new.multipliers[active], np.zeros(k))
    (lam_s, _, sig_s, _), _ = counted_newton(monkeypatch, ops, prev, targets, segment.modes,
                                             active, scale * lam, np.zeros(k))
    tol = SolverSettings().newton_tol * ops.shear_strength[active].min()
    assert np.abs(lam_s - lam).max() <= tol
    assert np.abs(sig_s[active] - sig[active]).max() <= tol


def test_negative_multiplier_candidate_dropped(monkeypatch):
    # aligned twin inclusion phases with slightly different strengths: the
    # weaker-violation phase starts in the candidate set but its converged
    # multiplier would be negative, so it must withdraw; the re-solve starts
    # from the remaining phase's multiplier of the first pass
    phases = [
        PhaseSpec("matrix", 0.60, E0, NU),
        PhaseSpec("soft", 0.25, EI, NU, spheroid=Spheroid(0.35, (0, 0, 1)),
                  plastic=DruckerPrager(0.0, 0.12)),
        PhaseSpec("hard", 0.15, EI, NU, spheroid=Spheroid(0.35, (0, 0, 1)),
                  plastic=DruckerPrager(0.0, 0.121)),
    ]
    ops = assemble_operators(phases)
    state = initial_state(ops)
    # scale a uniaxial strain so the harder phase barely trial-violates
    probe = np.array([0.0, 0, -1.0, 0, 0, 0])
    _, _, sig_probe = _trial_at(ops, state, probe)
    f_unit = yield_value(DruckerPrager(0.0, 1e-9), sig_probe[2]) + 1e-9
    deps = probe * (0.121 / f_unit) * 1.0001
    _, _, sig_tr = _trial_at(ops, state, deps)
    f_tr, candidates = check_yield(ops, sig_tr)
    assert candidates == [1, 2]
    assert 0.0 < f_tr[2] < 1e-4
    passes = []
    newton = solver_mod._newton_multipliers

    def recorded(ops_, sig_tr_, active, settings, control, lam, d_eps):
        out = newton(ops_, sig_tr_, active, settings, control, lam, d_eps)
        passes.append((list(active), lam, out[0]))
        return out

    monkeypatch.setattr(solver_mod, "_newton_multipliers", recorded)
    new = _solve_mixed_increment(ops, state, deps, (STRAIN,) * 6, SolverSettings())
    assert [p[0] for p in passes] == [[1, 2], [1]]
    assert not passes[0][1].any() and passes[0][2][1] < 0.0
    assert np.array_equal(passes[1][1], passes[0][2][:1])
    assert new.active[1] and not new.active[2]
    assert new.multipliers[1] > 0.0
    assert new.multipliers[2] == 0.0
    assert np.abs(new.plastic_strain[2]).max() == 0.0
    assert yield_value(phases[1].plastic, new.stress[1]) <= 1e-10 * 0.12
    assert yield_value(phases[2].plastic, new.stress[2]) <= 1e-10 * 0.121


def test_all_candidates_withdrawing_raises_typed_error(monkeypatch):
    # if every candidate's multiplier comes back negative, the emptied active
    # set goes through the same loop; its elastic solution violates yield, so
    # the attempt ends in a typed error, never in a state that fails KKT
    ops = two_phase_homogeneous()
    state = initial_state(ops)
    seen = []

    def fake_newton(ops_, sig_tr_, active, settings_, control, lam, d_eps):
        seen.append(list(active))
        m = len(active)
        return -np.ones(m), np.zeros((m, 6)), sig_tr_, np.zeros(len(control.idx))

    monkeypatch.setattr(solver_mod, "_newton_multipliers", fake_newton)
    with pytest.raises(RevplastError):
        _solve_mixed_increment(ops, state, np.array([0, 0, -0.002, 0, 0, 0]),
                               (STRAIN,) * 6, SolverSettings())
    assert seen[:3] == [[0, 1], [], [0, 1]]


def test_active_set_iteration_cap(monkeypatch):
    # an active set that does not settle fails the attempt like any other cause
    ops = two_phase_homogeneous()
    state = initial_state(ops)
    monkeypatch.setattr(solver_mod, "MAX_ACTIVE_SET_PASSES", 0)
    with pytest.raises(StepFailureError, match="active set did not settle within 0 passes"):
        _solve_mixed_increment(ops, state, np.array([0, 0, -0.002, 0, 0, 0]),
                               (STRAIN,) * 6, SolverSettings())


NEWTON_CAP = (r"return mapping did not converge in 1 Newton iterations; last stress/yield "
              r"residual (\S+) times its tolerance, macro residual (\S+) \(tolerance (\S+)\)")


def test_newton_cap_raises_step_failure():
    # the cap's message reports the last iterate's residuals against their tolerances
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 2)])
    with pytest.raises(StepFailureError) as info:
        drive(ops, program, SolverSettings(newton_max_iter=1, max_subdivisions=2))
    ratio, macro, macro_tol = map(float, re.search(NEWTON_CAP, str(info.value)).groups())
    assert ratio > 1.0
    assert macro == 0.0  # no stress-controlled component

    sc = default_scenario()
    with pytest.raises(StepFailureError) as info:
        drive(assemble_operators(sc.phases()), sc.program,
              SolverSettings(newton_max_iter=1, max_subdivisions=0))
    ratio, macro, macro_tol = map(float, re.search(NEWTON_CAP, str(info.value)).groups())
    assert ratio > 1.0 or macro > macro_tol
    assert macro_tol >= SolverSettings().mixed_tol


def test_subdivision_cap_failure_is_located():
    # the error that leaves drive names the increment that used up the cap
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.001, 0, 0, 0]), 1),
                              (np.array([0, 0, -0.004, 0, 0, 0]), 2)])
    with pytest.raises(StepFailureError) as info:
        drive(ops, program, SolverSettings(newton_max_iter=1, max_subdivisions=2))
    exc = info.value
    assert (exc.segment, exc.increment, exc.depth) == (2, 1, 2)
    assert re.fullmatch("segment 2, increment 1, subdivision depth 2 \\(cap used up\\): "
                        + NEWTON_CAP, str(exc))
    assert isinstance(exc.__cause__, StepFailureError)
    assert exc.__cause__.segment is None and exc.__cause__.depth == 2


def test_apex_in_attempt_is_located_step_failure():
    # hydrostatic tension drives both frictional phases to the cone apex: the
    # attempt fails, is halved to the cap and leaves drive located
    ops = two_phase_homogeneous(DruckerPrager(0.5, 0.12))
    program = strain_program([((2e-3, 2e-3, 2e-3, 0, 0, 0), 10)])
    with pytest.raises(StepFailureError) as info:
        drive(ops, program)
    exc = info.value
    assert (exc.segment, exc.increment, exc.depth) == (1, 6, 8)
    assert "cone apex" in str(exc) and "'matrix'" in str(exc)
    assert isinstance(exc.__cause__.__cause__, ApexSingularityError)


def test_singular_macro_tangent_raises_step_failure():
    # a stress-controlled increment whose macro system cannot be solved fails
    # with the typed error (after subdivision), never a LinAlgError
    ops = default_ops()
    stiff = ops.stiffness_hom.copy()
    stiff[:2, :2] = 0.0
    ops = replace(ops, stiffness_hom=stiff)
    modes = (STRESS, STRESS, STRAIN, STRAIN, STRAIN, STRAIN)
    program = LoadProgram((LoadSegment(targets=(0.0, 0.0, -0.001, 0.0, 0.0, 0.0),
                                       modes=modes, increments=20),))
    with pytest.raises(StepFailureError, match="singular macro"):
        drive(ops, program, SolverSettings(max_subdivisions=1))


# ------------------------------------------------------------------ driver

def test_strain_controlled_elastic_path():
    ops = default_ops()
    target = np.array([1e-4, -5e-5, -3e-4, 0, 2e-5, 0])
    states = drive(ops, strain_program([(target, 5)]))
    for k, st in enumerate(states):
        frac = k / 5.0
        assert np.abs(st.macro_strain - frac * target).max() < 1e-18
        assert np.abs(st.macro_stress - ops.stiffness_hom @ st.macro_strain).max() < 1e-12


def test_driver_hits_strain_targets_exactly():
    ops = default_ops()
    sc = default_scenario()
    states = drive(ops, sc.program, sc.settings)
    for k in range(101):
        assert states[k].macro_strain[2] == -0.001 * (k / 100)
    for k in range(1, 51):
        expected = -0.001 + 0.0005 * (k / 50)
        assert states[100 + k].macro_strain[2] == expected


def test_hold_targets_keep_components():
    ops = two_phase_homogeneous(plastic=None)
    seg1 = LoadSegment(targets=(None, None, -2e-4, None, None, None),
                       modes=(STRAIN,) * 6, increments=2)
    seg2 = LoadSegment(targets=(1e-4, None, None, None, None, None),
                       modes=(STRAIN,) * 6, increments=2)
    states = drive(ops, LoadProgram((seg1, seg2)))
    assert states[2].macro_strain[2] == pytest.approx(-2e-4, abs=0)
    assert states[-1].macro_strain[2] == pytest.approx(-2e-4, abs=0)
    assert states[-1].macro_strain[0] == pytest.approx(1e-4, abs=0)


def test_mixed_control_zero_lateral_stress():
    ops = default_ops()
    sc = default_scenario()
    states = drive(ops, sc.program, sc.settings)
    worst = max(np.abs(st.macro_stress[:2]).max() for st in states)
    assert worst <= 1e-8


def test_unload_to_zero_stress_recovers_macro_plastic():
    # residual strain at zero macroscopic stress equals the upscaled plastic strain
    ops = default_ops()
    modes = (STRESS, STRESS, STRAIN, STRAIN, STRAIN, STRAIN)
    load = LoadSegment(targets=(0.0, 0.0, -0.001, 0.0, 0.0, 0.0), modes=modes,
                       increments=50)
    unload = LoadSegment(targets=(0.0,) * 6,
                         modes=(STRESS, STRESS, STRESS, STRAIN, STRAIN, STRAIN),
                         increments=10)
    states = drive(ops, LoadProgram((load, unload)))
    final = states[-1]
    assert np.abs(final.macro_stress).max() <= 1e-8
    assert np.abs(final.macro_strain - final.macro_plastic).max() < 1e-8
    assert np.abs(final.macro_plastic[2]) > 1e-5  # genuinely plasticized


def test_reload_retraces_unloading_branch():
    ops = two_phase_homogeneous()
    down = np.array([0, 0, -0.004, 0, 0, 0])
    half = np.array([0, 0, -0.002, 0, 0, 0])
    deeper = np.array([0, 0, -0.0044, 0, 0, 0])
    program = strain_program([(down, 20), (half, 10), (deeper, 12)])
    states = drive(ops, program)
    unload = {round(st.macro_strain[2], 12): st for st in states[20:31]}
    for st in states[31:41]:  # reload branch up to the previous maximum
        key = round(st.macro_strain[2], 12)
        assert key in unload
        ref = unload[key]
        assert np.abs(st.macro_stress - ref.macro_stress).max() < 1e-12
        assert np.abs(st.plastic_strain - ref.plastic_strain).max() == 0.0
    # no plastic flow until the previous maximum strain is exceeded
    assert max(st.multipliers.max() for st in states[31:41]) == 0.0
    assert all(st.multipliers.max() > 0.0 for st in states[41:])


def test_elastic_step_keeps_macro_plastic():
    ops = two_phase_homogeneous()
    # yield, then a small elastic unloading increment
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 10),
                              (np.array([0, 0, -0.0038, 0, 0, 0]), 1)])
    states = drive(ops, program)
    assert states[10].multipliers.max() > 0.0
    assert states[11].multipliers.max() == 0.0
    assert np.array_equal(states[11].macro_plastic, states[10].macro_plastic)
    assert np.array_equal(states[11].plastic_strain, states[10].plastic_strain)


def test_stress_routes_at_converged_plastic_state():
    # the eigen-stress upscaling route and the volume average of localized
    # stresses are distinct mean-field estimates for a multi-orientation
    # assembly: close, but not coincident
    ops = default_ops()
    program = strain_program([(np.array([0, 0, -0.001, 0, 0, 0]), 20)])
    final = drive(ops, program)[-1]
    assert sum(final.active) > 0
    sig_avg = np.einsum("a,ai->i", ops.fractions, final.stress)
    gap = np.abs(sig_avg - final.macro_stress).max()
    assert 0.0 < gap < 1e-3
    # the two analytic forms of the macroscopic stress agree identically
    two_forms = ops.stiffness_hom @ (final.macro_strain - final.macro_plastic)
    assert np.abs(two_forms - final.macro_stress).max() < 1e-12


def test_huge_strength_matches_elastic():
    sc = default_scenario()
    strong = [PhaseSpec(p.name, p.volume_fraction, p.young_modulus, p.poisson_ratio,
                        spheroid=p.spheroid,
                        plastic=None if p.plastic is None
                        else DruckerPrager(0.0, 1e6))
              for p in sc.phases()]
    elastic = [PhaseSpec(p.name, p.volume_fraction, p.young_modulus, p.poisson_ratio,
                         spheroid=p.spheroid, plastic=None) for p in sc.phases()]
    program = strain_program([(np.array([1e-4, 0, -1e-3, 0, 0, 0]), 10)])
    got = drive(assemble_operators(strong), program)
    ref = drive(assemble_operators(elastic), program)
    for a, b in zip(got, ref):
        assert np.abs(a.macro_stress - b.macro_stress).max() < 1e-10
        assert np.abs(a.plastic_strain).max() == 0.0


def test_kkt_and_validation_on_plastic_run():
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 15)])
    for st in drive(ops, program):
        validate_state(ops, st)


def test_nan_state_fails_validation():
    # every check is written so that a NaN residual fails it
    ops = two_phase_homogeneous()
    final = drive(ops, strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 5)]))[-1]
    validate_state(ops, final)
    for field in ("stress", "strain", "multipliers", "macro_stress"):
        bad = getattr(final, field).copy()
        bad.flat[0] = np.nan
        with pytest.raises(StepFailureError):
            validate_state(ops, replace(final, **{field: bad}))


def test_kkt_negative_multiplier_names_phase():
    ops = default_ops()
    program = strain_program([(np.array([0, 0, -0.001, 0, 0, 0]), 20)])
    final = drive(ops, program)[-1]
    validate_state(ops, final)
    last = ops.n_phases - 1
    lam = final.multipliers.copy()
    lam[last] = -1e-3
    with pytest.raises(StepFailureError,
                       match=f"phase '{ops.phases[last].name}'.*multiplier = -1.000e-03"):
        validate_state(ops, replace(final, multipliers=lam))


def test_kkt_yield_violation_names_first_phase():
    # an unreturned violating trial state: constitutive and averaging identities
    # hold, the yield condition does not
    ops = default_ops()
    state = initial_state(ops)
    eps_bar, eps_tr, sig_tr = _trial_at(ops, state, np.array([0, 0, -0.002, 0, 0, 0]))
    _, cand = check_yield(ops, sig_tr)
    assert cand and cand[0] > 0
    bad = replace(state, step=1, macro_strain=eps_bar,
                  macro_stress=ops.stiffness_hom @ eps_bar, strain=eps_tr, stress=sig_tr)
    with pytest.raises(StepFailureError, match=f"phase '{ops.phases[cand[0]].name}'"):
        validate_state(ops, bad)


def test_determinism_bitwise():
    sc = default_scenario()
    program = LoadProgram((sc.program.segments[0],))
    runs = []
    for _ in range(2):
        ops = assemble_operators(sc.phases())
        short = LoadProgram((LoadSegment(targets=program.segments[0].targets,
                                         modes=program.segments[0].modes,
                                         increments=30),))
        runs.append(drive(ops, short, sc.settings))
    for a, b in zip(*runs):
        assert np.array_equal(a.macro_stress, b.macro_stress)
        assert np.array_equal(a.plastic_strain, b.plastic_strain)
        assert np.array_equal(a.stress, b.stress)


def test_subdivision_recovers_from_oversized_steps(monkeypatch):
    ops = two_phase_homogeneous()
    real_attempt = solver_mod._solve_mixed_increment
    calls = []

    def fussy_attempt(ops_, state, targets, modes, settings):
        size = np.abs(np.asarray(targets) - state.macro_strain).max()
        calls.append(size)
        if size > 1.1e-4:
            raise StepFailureError("increment too large for this test")
        return real_attempt(ops_, state, targets, modes, settings)

    monkeypatch.setattr(solver_mod, "_solve_mixed_increment", fussy_attempt)
    program = strain_program([(np.array([0, 0, -0.0008, 0, 0, 0]), 2)])
    states = drive(ops, program, SolverSettings(max_subdivisions=3))
    assert len(states) == 3
    assert states[-1].macro_strain[2] == pytest.approx(-0.0008, abs=0)
    assert any(c > 1.1e-4 for c in calls)  # at least one rejected attempt

    monkeypatch.setattr(solver_mod, "_solve_mixed_increment", real_attempt)
    oracle = drive(ops, program, SolverSettings())
    assert np.abs(states[-1].macro_stress - oracle[-1].macro_stress).max() < 1e-12


def test_subdivided_increment_starts_from_half_the_multipliers(monkeypatch):
    # the warm start of a half increment is half the last increment's
    # multipliers; the second half starts from the first half's
    ops = two_phase_homogeneous()
    real_attempt = solver_mod._solve_mixed_increment
    seen = []

    def failing_once(ops_, state, targets, modes, settings):
        seen.append(state.multipliers)
        if state.step == 3 and len(seen) == 4:
            raise StepFailureError("increment too large for this test")
        return real_attempt(ops_, state, targets, modes, settings)

    monkeypatch.setattr(solver_mod, "_solve_mixed_increment", failing_once)
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 5)])
    states = drive(ops, program)
    assert len(seen) == 7 and len(states) == 6
    assert (seen[3] > 0.0).all()
    assert np.array_equal(seen[4], 0.5 * seen[3])
    assert (seen[5] > 0.0).all() and not np.array_equal(seen[5], seen[3])


def test_failed_validation_is_subdivided(monkeypatch):
    # validation runs inside the attempt: a rejected state is halved, the
    # half states are validated too, and at the cap the error is located
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 5)])
    reference = drive(ops, program)
    real_validate = solver_mod.validate_state
    steps = []

    def fails_once(ops_, state):
        steps.append(state.step)
        if len(steps) == 3:
            raise StepFailureError("rejected once for this test")
        real_validate(ops_, state)

    monkeypatch.setattr(solver_mod, "validate_state", fails_once)
    states = drive(ops, program)
    assert steps == [1, 2, 3, 3, 4, 4, 5]  # step 3 rejected, then its two halves
    assert [st.step for st in states] == list(range(6))
    assert np.abs(states[-1].macro_stress - reference[-1].macro_stress).max() < 1e-12

    def always_fails(ops_, state):
        raise StepFailureError("rejected for this test")

    monkeypatch.setattr(solver_mod, "validate_state", always_fails)
    with pytest.raises(StepFailureError) as info:
        drive(ops, program, SolverSettings(max_subdivisions=3))
    exc = info.value
    assert (exc.segment, exc.increment, exc.depth) == (1, 1, 3)
    assert str(exc).endswith("(cap used up): rejected for this test")


def test_subdivision_cap_exhausts(monkeypatch):
    ops = two_phase_homogeneous()

    def always_fails(*args, **kwargs):
        raise StepFailureError("forced failure")

    monkeypatch.setattr(solver_mod, "_solve_mixed_increment", always_fails)
    program = strain_program([(np.array([0, 0, -0.0008, 0, 0, 0]), 1)])
    with pytest.raises(StepFailureError):
        drive(ops, program, SolverSettings(max_subdivisions=3))


def test_segment_validation():
    with pytest.raises(ValueError):
        LoadSegment(targets=(0.0,) * 5, modes=(STRAIN,) * 6, increments=1)
    with pytest.raises(ValueError):
        LoadSegment(targets=(0.0,) * 6, modes=("bogus",) * 6, increments=1)
    with pytest.raises(ValueError):
        LoadSegment(targets=(0.0,) * 6, modes=(STRAIN,) * 6, increments=0)
    with pytest.raises(ValueError):
        LoadSegment(targets=(None,) * 6, modes=(STRESS,) * 6, increments=1)
    # a non-finite target would drive NaN states
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            LoadSegment(targets=(bad, 0.0, -1e-4, 0.0, 0.0, 0.0), modes=(STRAIN,) * 6,
                        increments=2)
        with pytest.raises(ValueError, match="finite"):
            LoadSegment(targets=(0.0, 0.0, bad, 0.0, 0.0, 0.0),
                        modes=(STRESS,) + (STRAIN,) * 5, increments=2)


@pytest.mark.parametrize("path", ["_advance_with_subdivision", "_solve_mixed_increment",
                                  "check_yield",
                                  "validate_state", "_newton_multipliers",
                                  "_ActiveSystem.jacobian",
                                  "_ActiveSystem.stress_update"])
def test_benchmark_hook_targets_exist(path):
    # perfbench/ wraps these solver attributes by name (speed normalization cuts
    # drives at _advance_with_subdivision); a rename silently drops its metrics
    owner = solver_mod
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
