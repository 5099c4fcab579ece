import gc
import importlib
import inspect
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import revplast.solver as solver_mod
from conftest import STATE_FIELDS, inject_failures, record_work
from revplast.errors import ApexSingularityError, RevplastError, StepFailureError
from revplast.mean_field import (PhaseSpec, Spheroid, assemble_operators, eigen_response,
                                 upscale_stress)
from revplast.plasticity import YIELD_TOL, DruckerPrager, dp_direction, dp_flow_of, dp_yield
from revplast.scenario import default_scenario
from revplast.selfcheck import _homogeneous_phases, radial_return_gap
from revplast.solver import (STRAIN, STRESS, LoadProgram, LoadSegment,
                             SolverSettings, _solve_mixed_increment, _trial_at,
                             check_yield, drive, initial_state, strain_program,
                             validate_state)
from revplast.tensors import MANDEL_SCALE

E0, NU, EI = 100.0, 0.25, 1000.0
VM12 = DruckerPrager(friction_angle=0.0, shear_strength=0.12)


def two_phase_homogeneous(plastic=VM12):
    return assemble_operators(_homogeneous_phases(plastic))


def default_ops():
    return assemble_operators(default_scenario().phases())


def strain_control(ops):
    return solver_mod._StressControl(ops, (STRAIN,) * 6)


def attempt(ops, state, targets, settings=SolverSettings()):
    return _solve_mixed_increment(ops, state, targets, strain_control(ops), settings)


def newton_solve(ops, state, targets, control, active, lam):
    """The Newton solve of the increment from ``state`` to ``targets`` under
    ``control``, from the candidates ``active`` and their start ``lam``: the
    ``_newton_multipliers`` result at the trial state of the predictor."""
    _, sig_tr = _trial_at(ops, state, control.predict(state, targets))
    return solver_mod._newton_multipliers(ops, sig_tr, active, SolverSettings(), control,
                                          lam)


def active_sets(work):
    """The active sets the recorded solves built their systems for, in order."""
    return [list(args[2]) for args in work.calls("_ActiveSystem.__init__")]


# ------------------------------------------------------------------ trial

def test_trial_zero_increment_is_identity():
    ops = default_ops()
    program = strain_program([(np.array([1e-4, 0, -2e-4, 0, 0, 0]), 2)])
    state = drive(ops, program)[-1]
    eps_tr, sig_tr = _trial_at(ops, state, state.macro_strain)
    assert np.abs(eps_tr - state.strain).max() < 1e-15
    assert np.abs(sig_tr - state.stress).max() < 1e-15


def test_elastic_rev_accepts_trial():
    # elastic variant of the default assembly: trial stresses are final
    ops = assemble_operators([replace(p, plastic=None)
                              for p in default_scenario().phases()])
    deps = np.array([2e-4, -1e-4, -4e-4, 0, 5e-5, 0])
    state = initial_state(ops)
    _, sig_tr = _trial_at(ops, state, deps)
    new = attempt(ops, state, deps)
    assert np.abs(new.stress - sig_tr).max() == 0.0
    assert np.abs(new.macro_stress - ops.stiffness_hom @ deps).max() < 1e-14


def test_trial_inclusion_stress_oracle():
    # hand-rolled matrix product: first elastic step gives C_i : A_i : d_eps
    ops = default_ops()
    deps = np.array([0.0, 0, -1e-5, 0, 0, 0])
    _, sig_tr = _trial_at(ops, initial_state(ops), deps)
    for a in (1, 9, 20):
        oracle = ops.stiffness[a] @ (ops.concentration[a] @ deps)
        assert np.abs(sig_tr[a] - oracle).max() < 1e-18


# ------------------------------------------------------------------ yield check

def test_check_yield_sets():
    ops = default_ops()
    n = ops.n_phases
    calm = np.zeros((n, 6))
    assert check_yield(ops, calm)[0] == []
    hot = calm.copy()
    hot[7] = np.array([0.0, 0, -0.2, 0, 0, 0])
    hot[0] = hot[7]  # the elastic matrix has no yield value
    assert check_yield(ops, hot)[0] == [7]


def test_check_yield_mixed_angles_and_elastic_phase(rng):
    models = (None, DruckerPrager(0.3, 0.05), DruckerPrager(0.0, 0.12),
              DruckerPrager(0.4, 0.02, dilation_angle=0.1))
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    phases = [PhaseSpec("matrix", 0.7, E0, NU)] + [
        PhaseSpec(f"incl{k}", 0.1, EI, NU, spheroid=Spheroid(0.35, axis), plastic=m)
        for k, (axis, m) in enumerate(zip(axes, models[1:]))]
    ops = assemble_operators(phases)
    assert ops.plastic_index.tolist() == [1, 2, 3]
    sig = rng.normal(size=(4, 6)) * 0.1
    sig[0] = 10.0 * np.abs(sig).max()  # the elastic matrix is never a candidate
    cand, f = check_yield(ops, sig)
    rows = [dp_yield(s, np.tan(m.friction_angle), m.shear_strength)
            for m, s in zip(models[1:], sig[1:])]
    np.testing.assert_allclose(f, rows, rtol=1e-14, atol=1e-16)  # row k is phase k + 1
    assert cand == [a for a in (1, 2, 3)
                    if rows[a - 1] > YIELD_TOL * models[a].shear_strength]
    assert all(type(a) is int for a in cand)


def interleaved_ops(models=(DruckerPrager(0.3, 0.5), None, DruckerPrager(0.0, 0.5),
                            DruckerPrager(0.0, 1e-3))):
    """An elastic matrix and four inclusions with the yield surfaces ``models``,
    of which 1, 3 and 4 are plastic: the plastic index [1, 3, 4] skips the
    elastic inclusion 2.  With the default models inclusion 4 is the weakest,
    so a small compression makes it yield alone."""
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0))
    phases = [PhaseSpec("matrix", 0.6, E0, NU)] + [
        PhaseSpec(f"incl{k}", 0.1, EI, NU, spheroid=Spheroid(0.35, axis), plastic=m)
        for k, (axis, m) in enumerate(zip(axes, models), 1)]
    ops = assemble_operators(phases)
    assert ops.plastic_index.tolist() == [1, 3, 4]
    return ops


def test_check_yield_maps_the_plastic_index_to_phases():
    ops = interleaved_ops()
    sig = np.zeros((5, 6))
    sig[:, 2] = -1.0  # past every plastic phase's yield surface
    cand = check_yield(ops, sig)[0]
    assert cand == [1, 3, 4]
    assert all(type(a) is int for a in cand)
    sig[[1, 3]] = 0.0  # the elastic phases 0 and 2 are never candidates
    assert check_yield(ops, sig)[0] == [4]


def test_validation_names_phases_through_the_plastic_index():
    ops = interleaved_ops()
    state = initial_state(ops)
    validate_state(ops, state)
    for a in (1, 3, 4):
        lam = np.zeros(5)
        lam[a] = -1e-3
        with pytest.raises(StepFailureError, match=f"phase 'incl{a}'.*multiplier"):
            validate_state(ops, replace(state, multipliers=lam))
    # an unreturned trial state past yield in inclusion 4 alone
    eps_bar = np.array([0, 0, -2e-5, 0, 0, 0])
    eps_tr, sig_tr = _trial_at(ops, state, eps_bar)
    assert check_yield(ops, sig_tr)[0] == [4]
    bad = replace(state, step=1, macro_strain=eps_bar,
                  macro_stress=ops.stiffness_hom @ eps_bar, strain=eps_tr, stress=sig_tr)
    with pytest.raises(StepFailureError, match="KKT violation in phase 'incl4': F = "):
        validate_state(ops, bad)


def test_solver_takes_its_gradients_and_steps_from_one_place():
    # the flow and yield gradients come from the kernel's dp_flow_of and
    # dp_pressure_term, and the Newton loop solves each step at one site
    source = inspect.getsource(solver_mod)
    assert not hasattr(solver_mod, "IVEC")
    assert source.count(".solve(") == 1
    assert ".solve(" in inspect.getsource(solver_mod._newton_multipliers)


def test_active_system_reads_its_own_rows_of_the_plastic_table():
    # interleaved plastic phases [1, 3, 4], each with its own angles and
    # strength, and an unsorted active set: row k of the table is phase
    # plastic_index[k], so rows taken as phase ids or shifted by one would
    # read another phase's parameters or fall off the table
    ops = interleaved_ops((DruckerPrager(0.1, 0.2, dilation_angle=0.05), None,
                           DruckerPrager(0.2, 0.3, dilation_angle=0.15),
                           DruckerPrager(0.3, 0.4, dilation_angle=0.25)))
    active = [4, 1]
    sys_ = solver_mod._ActiveSystem(ops, active, strain_control(ops))
    want = [ops.phases[a].plastic for a in active]
    assert sys_.tan_f.tolist() == [np.tan(m.friction_angle) for m in want]
    assert sys_.pressure_f.tolist() == [[np.tan(m.friction_angle) / 3.0] for m in want]
    assert sys_.pressure_g.tolist() == [[np.tan(m.potential_angle) / 3.0] for m in want]
    assert sys_.strength.tolist() == [m.shear_strength for m in want]
    mu = EI / (2.0 * (1.0 + NU))  # switch: lam + (F - YIELD_TOL s0) / (3 mu) <= 0
    np.testing.assert_allclose(sys_.switch_at,
                               [YIELD_TOL * m.shear_strength / (3.0 * mu) for m in want],
                               rtol=1e-14, atol=0.0)


def test_all_elastic_assembly_has_an_empty_plastic_index():
    ops = assemble_operators([replace(p, plastic=None) for p in default_scenario().phases()])
    assert ops.plastic_index.shape == (0,) and ops.plastic_index.dtype.kind == "i"
    assert ops.plastic_yield_tol.shape == (0,)
    assert check_yield(ops, np.full((ops.n_phases, 6), 1e3))[0] == []
    states = drive(ops, strain_program([(np.array([2e-4, 0, -1e-3, 0, 0, 0]), 3)]))
    for st in states:
        validate_state(ops, st)
    stress = np.array(states[-1].stress)
    stress[5, 1] = np.nan
    with pytest.raises(StepFailureError, match="constitutive residual"):
        validate_state(ops, replace(states[-1], stress=stress))


def test_symmetric_orientations_yield_symmetrically():
    # axisymmetric loading of the cube orientation set: equal yield values
    # inside each orientation orbit (faces, edges, vertices)
    ops = default_ops()
    deps = np.array([1e-4, 1e-4, -4e-4, 0, 0, 0])
    _, sig_tr = _trial_at(ops, initial_state(ops), deps)
    assert ops.plastic_index.tolist() == list(range(1, ops.n_phases))
    incl = dp_yield(sig_tr[1:], ops.plastic_tan_friction, ops.plastic_strength)
    faces, edges, verts = incl[:6], incl[6:18], incl[18:]
    assert np.ptp(verts) < 1e-12
    # faces split by axis alignment; the four equatorial ones match
    assert np.ptp(faces[:4]) < 1e-12
    assert np.ptp(faces[4:]) < 1e-12
    assert np.ptp(edges[:4]) < 1e-9  # in-plane edges
    assert len(set(np.round(edges, 9))) <= 2


# ------------------------------------------------------------------ return map

def test_homogeneous_matches_radial_return():
    assert radial_return_gap(40) < 1e-10


def four_phase_ops(scheme, plastic=(0, 1, 2)):
    # plastic matrix, two plastic inclusions with distinct stiffness and
    # Drucker-Prager parameters and one elastic inclusion, all on one spheroid;
    # the phases not in ``plastic`` are made elastic too
    shape = Spheroid(0.35, (1, 2, 3))
    models = (DruckerPrager(0.2, 0.12), DruckerPrager(0.3, 0.5, dilation_angle=0.1),
              DruckerPrager(0.0, 0.2))
    return assemble_operators([
        PhaseSpec("matrix", 0.7, E0, NU, plastic=models[0] if 0 in plastic else None),
        PhaseSpec("stiff", 0.1, EI, 0.2, spheroid=shape,
                  plastic=models[1] if 1 in plastic else None),
        PhaseSpec("soft", 0.1, 300.0, 0.3, spheroid=shape,
                  plastic=models[2] if 2 in plastic else None),
        PhaseSpec("elastic", 0.1, 2000.0, 0.25, spheroid=shape),
    ], scheme=scheme)


FOUR_PHASE_STRAIN = np.array([1e-3, -5e-4, -2e-3, 3e-4, 0.0, 2e-4])


MIXED_MODES = (STRESS, STRESS, STRAIN, STRESS, STRAIN, STRAIN)


@pytest.mark.parametrize("scheme,modes", [
    pytest.param(scheme, modes, id=scheme + suffix)
    for suffix, modes in (("", (STRAIN,) * 6), ("-mixed", MIXED_MODES))
    for scheme in ("mori_tanaka", "dilute")])
@pytest.mark.parametrize("active", [[0, 1, 2], [1, 2], [2, 0]])
def test_jacobian_matches_finite_differences(scheme, modes, active):
    # the condensed Newton step solves the dense central-difference Jacobian of
    # the (sigma, lambda) residual at a mid-Newton iterate; under stress control
    # the residual includes the controlled-strain corrections of the flow
    ops = four_phase_ops(scheme)
    state = initial_state(ops)
    _, sig_tr = _trial_at(ops, state, FOUR_PHASE_STRAIN)
    control = solver_mod._StressControl(ops, modes)
    sys_ = solver_mod._ActiveSystem(ops, active, control)
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
    res, _, _, _, at = sys_.residual(sig_tr, sig_act, lam)
    lin = sys_.jacobian(at, lam)
    assert isinstance(lin, solver_mod._Linearization)
    z = lin.solve(-res.reshape(m, 7, 1))
    dx = sys_.flow(at, lam) @ z
    res = res.ravel()
    assert np.abs(jac_fd @ z.ravel() + res).max() <= 1e-6 * np.abs(res).max()
    # the kept factors solve the same linearization for other right-hand sides
    rhs = res.reshape(m, 7, 1) * np.random.default_rng(3).uniform(-1.0, 1.0, size=(m, 7, 2))
    sol = lin.solve(rhs).reshape(7 * m, 2)
    assert np.abs(jac_fd @ sol - rhs.reshape(7 * m, 2)).max() <= 1e-6 * np.abs(rhs).max()
    # dx is the eigen-strain increment lam dn + n dlam the correction implies
    def eigen_strain(v):
        return v[:, 6, None] * dp_flow_of(dp_direction(v[:, :6], sys_.strength)[1],
                                          sys_.pressure_g)

    t = 1e-3
    dx_fd = (eigen_strain(point + t * z[..., 0])
             - eigen_strain(point - t * z[..., 0])) / (2.0 * t)
    assert np.abs(dx[..., 0] - dx_fd).max() <= 1e-6 * np.abs(dx_fd).max()


def wide_ops(matrix_plastic):
    # the 200 inclusions of scripts/phase_sweep.py at 200 axes (the wide
    # benchmark workloads' phases): one shape and fraction on seeded random axes
    axes = np.random.default_rng(20201124).normal(size=(200, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    fraction = 0.143 / 200
    return assemble_operators(
        [PhaseSpec("matrix", 1.0 - fraction * 200, E0, NU,
                   plastic=VM12 if matrix_plastic else None)]
        + [PhaseSpec(f"incl{k}", fraction, EI, NU, plastic=VM12,
                     spheroid=Spheroid(0.35, tuple(float(x) for x in axis)))
           for k, axis in enumerate(axes)])


@pytest.mark.parametrize("modes", [(STRAIN,) * 6, MIXED_MODES], ids=["strain", "mixed"])
@pytest.mark.parametrize("matrix_plastic,n_coupling", [(False, 6), (True, 12)],
                         ids=["inclusions", "with-matrix"])
def test_newton_step_matches_directional_differences_at_width(matrix_plastic, n_coupling,
                                                              modes):
    # at the benchmark's width, 200 or 201 active phases and 6 to 15 coupling
    # vectors, the condensed Newton step z solves J z = -r: the central
    # difference of the residual along z is -r to 2.0e-10 to 2.8e-10 of |r|.
    # Coupling rows laid out per phase, (m, c, 7), in place of per coupling
    # vector, (c, m, 7), miss it by 0.15 to 0.47 of |r|
    ops = wide_ops(matrix_plastic)
    _, sig_tr = _trial_at(ops, initial_state(ops), np.array([5e-4, 5e-4, -1e-3, 0, 0, 0]))
    control = solver_mod._StressControl(ops, modes)
    active = list(range(0 if matrix_plastic else 1, ops.n_phases))
    assert check_yield(ops, sig_tr)[0] == active
    sys_ = solver_mod._ActiveSystem(ops, active, control)
    assert len(sys_.weighted) == n_coupling + len(control.idx)
    m = len(active)
    sig_act = sig_tr[active] * 0.9 + 0.01  # off the trial state, lambda > 0
    lam = 1e-4 * np.arange(1.0, m + 1.0) / m

    def residual(v):
        return sys_.residual(sig_tr, v[:, :6], v[:, 6])[0]

    res, _, _, _, at = sys_.residual(sig_tr, sig_act, lam)
    z = sys_.jacobian(at, lam).solve(-res[:, :, None])[..., 0]
    point, t = np.column_stack((sig_act, lam)), 1e-6
    slope = (residual(point + t * z) - residual(point - t * z)) / (2.0 * t)
    assert np.abs(slope + res).max() <= 1e-6 * np.abs(res).max()


@pytest.mark.parametrize("scheme,modes", [
    pytest.param(scheme, modes, id=scheme + suffix)
    for suffix, modes in (("", (STRAIN,) * 6), ("-mixed", MIXED_MODES))
    for scheme in ("mori_tanaka", "dilute")])
@pytest.mark.parametrize("active", [[0, 1, 2], [1, 2], [2, 0]])
def test_condensed_residual_matches_all_phase_stresses(scheme, modes, active):
    # the residual's O(m) active stresses and controlled-strain corrections
    # against the all-phase evaluation through eigen_response, at random iterates
    ops = four_phase_ops(scheme)
    _, sig_tr = _trial_at(ops, initial_state(ops), FOUR_PHASE_STRAIN)
    control = solver_mod._StressControl(ops, modes)
    sys_ = solver_mod._ActiveSystem(ops, active, control)
    m = len(active)
    rng = np.random.default_rng(7)
    for _ in range(5):
        sig_act = sig_tr[active] * rng.uniform(0.5, 1.5, size=(m, 6)) + 0.05 * rng.normal(
            size=(m, 6))
        lam = 1e-3 * rng.uniform(0.1, 1.0, size=m)
        dirs = dp_flow_of(dp_direction(sig_act, sys_.strength)[1], sys_.pressure_g)
        res, x_act, sig, d_eps_act, _ = sys_.residual(sig_tr, sig_act, lam)
        x, du, full = sys_.stress_update(sig_tr, x_act, d_eps_act)
        scale = np.abs(full).max()
        # the update is the localization of its eigen-strain increments and
        # controlled-strain corrections, and the stresses follow from it
        assert np.array_equal(x[active], lam[:, None] * dirs)
        assert not np.delete(x, active, axis=0).any()
        d_eps = np.einsum("bki,bi->k", control.gain, x)  # all-phase corrections
        e = np.zeros(6)
        e[control.idx] = d_eps_act
        # built here, not by the solver's own localization, which stress_update calls
        local = np.einsum("aij,j->ai", ops.concentration, e) + eigen_response(ops, x)
        assert np.abs(du - local).max() <= 1e-13 * np.abs(local).max()
        stresses = sig_tr + solver_mod.phase_stresses(ops, du, x)
        assert np.abs(full - stresses).max() <= 1e-13 * scale
        assert np.abs(sig - full[active]).max() <= 1e-13 * scale
        assert np.abs(res[:, :6] - (sig_act - full[active])).max() <= 1e-13 * scale
        assert d_eps_act.shape == d_eps.shape == (len(control.idx),)
        assert np.abs(d_eps_act - d_eps).max(initial=0.0) <= 1e-13 * np.abs(d_eps).max(
            initial=0.0)
        # the flow reaches the stresses: not the trial state
        assert np.abs(sig - sig_tr[active]).max() > 1e-2 * scale


@pytest.mark.parametrize("scheme", ["mori_tanaka", "dilute"])
def test_controlled_strains_keep_the_targets(scheme):
    # the eliminated strain corrections put the controlled macro stresses on
    # target for any eigen-strain increments, not only at a converged return;
    # from a strained start the held strains are still the targets bit for bit,
    # where eps_n + (target - eps_n) misses 3e-4 and 1e-4 by an ulp
    ops = four_phase_ops(scheme)
    targets = np.array([0.03, -0.02, -2e-3, 0.01, 3e-4, 1e-4])
    control = solver_mod._StressControl(ops, MIXED_MODES)
    held = np.array(MIXED_MODES) == STRAIN
    for start_strain in (0.0, -2e-4):
        eps_n = np.full(6, start_strain)
        start = replace(initial_state(ops), macro_strain=eps_n,
                        macro_stress=ops.stiffness_hom @ eps_n)
        predicted = control.predict(start, targets)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = 1e-3 * rng.normal(size=(ops.n_phases, 6))
            eps = predicted.copy()
            eps[control.idx] += np.einsum("bki,bi->k", control.gain, x)
            sig = upscale_stress(ops, eps, x)
            miss = sig[control.idx] - targets[control.idx]
            assert np.abs(miss).max() <= 1e-12 * np.abs(sig).max()
            assert np.array_equal(eps[held], targets[held])


@pytest.mark.parametrize("scheme", ["mori_tanaka", "dilute"])
@pytest.mark.parametrize("active", [[0, 1, 2], [1, 2], [2, 0]])
def test_macro_tangent_matches_finite_differences(scheme, active):
    # the Newton linearization's response to the stress targets at a converged
    # state, with the controlled strains it implies, against central
    # differences of converged returns on the same active set; the phases
    # outside it are elastic, and at four times FOUR_PHASE_STRAIN the solver
    # returns exactly that set with positive multipliers
    ops = four_phase_ops(scheme, plastic=active)
    start = initial_state(ops)
    stress_idx = [i for i in range(6) if MIXED_MODES[i] == STRESS]
    strain = 4.0 * FOUR_PHASE_STRAIN

    def converged(targets, modes):
        control = solver_mod._StressControl(ops, modes)
        got, lam, x, d_eps, _, sig, _ = newton_solve(ops, start, targets, control, active,
                                                     np.zeros(len(active)))
        assert got == active and (lam > 0.0).all()
        eps_bar = control.predict(start, targets)
        eps_bar[control.idx] += d_eps
        return control, np.column_stack((sig[active], lam)), eps_bar, x[active]

    # targets: the macro stresses of the strain-controlled return at ``strain``
    _, _, _, flow = converged(strain, (STRAIN,) * 6)
    eps_p = np.zeros((ops.n_phases, 6))
    eps_p[active] = flow
    targets = np.where(np.array(MIXED_MODES) == STRESS,
                       upscale_stress(ops, strain, eps_p), strain)
    control, point, eps_bar, _ = converged(targets, MIXED_MODES)
    assert np.abs(eps_bar - strain).max() <= 1e-9 * np.abs(strain).max()
    sys_ = solver_mod._ActiveSystem(ops, active, control)
    m, k = len(active), len(stress_idx)
    h = 1e-6 * np.abs(targets[stress_idx]).max()
    at = solver_mod.dp_direction(point[:, :6], sys_.strength)[1:]
    for j, i in enumerate(stress_idx):
        # raising target i by one moves the elastic predictor by
        # C_hom[S, S]^-1 e_j, so the trial stresses by sens_a C_hom[S, S]^-1 e_j
        elastic = np.linalg.solve(ops.stiffness_hom[np.ix_(stress_idx, stress_idx)],
                                  np.eye(k)[j])
        rhs = np.zeros((m, 7, 1))
        rhs[:, :6, 0] = control.sens[active] @ elastic
        z = sys_.jacobian(at, point[:, 6]).solve(rhs)
        dx = sys_.flow(at, point[:, 6]) @ z
        step = z[..., 0]
        d_eps = elastic + np.einsum("aki,ai->k", control.gain[active], dx[..., 0])
        bump = np.zeros(6)
        bump[i] = h
        _, hi, eps_hi, _ = converged(targets + bump, MIXED_MODES)
        _, lo, eps_lo, _ = converged(targets - bump, MIXED_MODES)
        step_fd = (hi - lo) / (2.0 * h)
        eps_fd = (eps_hi - eps_lo)[stress_idx] / (2.0 * h)
        assert np.abs(step - step_fd).max() <= 1e-6 * np.abs(step_fd).max()
        assert np.abs(d_eps - eps_fd).max() <= 1e-6 * np.abs(eps_fd).max()
        # plastic flow softens the response: not the elastic compliance
        assert np.abs(d_eps - elastic).max() > 1e-3 * np.abs(eps_fd).max()


def test_converged_guess_needs_no_linearization(monkeypatch):
    # von Mises phases of one stiffness return radially, so the flow directions
    # at the trial stresses are the converged ones: seeded with its own
    # converged multipliers, the solve starts converged
    ops = two_phase_homogeneous()
    state = initial_state(ops)
    targets = np.array([0.0, 0.0, -0.004, 0.0, 0.0, 0.0])
    active = [0, 1]
    work = record_work(monkeypatch)
    got, lam, _, d_eps, _, sig, _ = newton_solve(
        ops, state, targets, solver_mod._StressControl(ops, MIXED_MODES), active, np.zeros(2))
    assert got == active and (lam > 0.0).all()
    cold = len(work.calls("_ActiveSystem.jacobian"))
    got, lam_w, _, d_w, _, sig_w, _ = newton_solve(
        ops, state, targets, solver_mod._StressControl(ops, MIXED_MODES), active, lam)
    assert cold >= 1 and len(work.calls("_ActiveSystem.jacobian")) == cold and got == active
    tol = SolverSettings().newton_tol * 0.12
    assert np.abs(lam_w - lam).max() <= tol
    assert np.abs(sig_w - sig).max() <= tol
    assert np.abs(d_w - d_eps).max() <= tol


@pytest.mark.parametrize("scale", [0.0, 5.0])
def test_seeded_newton_reaches_the_same_return(scale):
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
    got, lam, *_, sig, _ = newton_solve(ops, prev, targets,
                                        solver_mod._StressControl(ops, segment.modes), active,
                                        new.multipliers[active])
    got_s, lam_s, *_, sig_s, _ = newton_solve(ops, prev, targets,
                                              solver_mod._StressControl(ops, segment.modes),
                                              active, scale * lam)
    assert got == got_s == active
    tol = SolverSettings().newton_tol * min(ops.phases[a].plastic.shear_strength
                                            for a in active)
    assert np.abs(lam_s - lam).max() <= tol
    assert np.abs(sig_s[active] - sig[active]).max() <= tol


def twin_inclusions():
    """Aligned twin inclusion phases with slightly different strengths, and a
    uniaxial strain increment scaled so the harder phase barely trial-violates:
    (phases, operators, virgin state, increment)."""
    phases = [
        PhaseSpec("matrix", 0.60, E0, NU),
        PhaseSpec("soft", 0.25, EI, NU, spheroid=Spheroid(0.35, (0, 0, 1)),
                  plastic=DruckerPrager(0.0, 0.12)),
        PhaseSpec("hard", 0.15, EI, NU, spheroid=Spheroid(0.35, (0, 0, 1)),
                  plastic=DruckerPrager(0.0, 0.121)),
    ]
    ops = assemble_operators(phases)
    state = initial_state(ops)
    probe = np.array([0.0, 0, -1.0, 0, 0, 0])
    _, sig_probe = _trial_at(ops, state, probe)
    f_unit = dp_yield(sig_probe[2], 0.0, 1e-9) + 1e-9
    return phases, ops, state, probe * (0.121 / f_unit) * 1.0001


def test_negative_multiplier_candidate_dropped(monkeypatch):
    # the weaker-violation twin starts in the candidate set, but the switch
    # withdraws it within the one Newton solve: the solve continues on the
    # remaining phase from its iterate, with no second solve
    phases, ops, state, deps = twin_inclusions()
    _, sig_tr = _trial_at(ops, state, deps)
    assert check_yield(ops, sig_tr)[0] == [1, 2]
    hard = phases[2].plastic
    assert 0.0 < dp_yield(sig_tr[2], np.tan(hard.friction_angle), hard.shear_strength) < 1e-4
    work = record_work(monkeypatch)
    new = attempt(ops, state, deps)
    assert active_sets(work) == [[1, 2], [1]]
    assert (new.stats.solves, new.stats.revisions) == (1, 1)
    assert new.active[1] and not new.active[2]
    assert new.multipliers[1] > 0.0
    assert new.multipliers[2] == 0.0
    assert np.abs(new.plastic_strain[2]).max() == 0.0
    for a in (1, 2):
        m = phases[a].plastic
        f_val = dp_yield(new.stress[a], np.tan(m.friction_angle), m.shear_strength)
        assert f_val <= 1e-10 * m.shear_strength


def test_revision_drops_the_kept_linearization(monkeypatch):
    # with every step allowed to re-solve the kept factors, the twin case
    # still linearizes again once the hard twin has left: the factors of the
    # two-phase system never solve the one-phase one, and the state is the one
    # the chord rule reaches
    _, ops, state, deps = twin_inclusions()
    reference = attempt(ops, state, deps)
    monkeypatch.setattr(solver_mod, "_chord", lambda *args: True)
    work = record_work(monkeypatch)
    new = attempt(ops, state, deps)
    assert active_sets(work) == [[1, 2], [1]]
    assert [name for name, _ in work if name.startswith(("_Active", "_Linear"))] == [
        "_ActiveSystem.__init__", "_ActiveSystem.jacobian", "_Linearization.solve"] * 2
    assert work.per_increment([new.stats]) == [(2, 0, 2, 1)]
    assert all(np.array_equal(getattr(new, f), getattr(reference, f)) for f in STATE_FIELDS)


def test_switch_acts_on_the_start_iterate(monkeypatch):
    # seeded with the converged multipliers, the soft twin's flow relaxes the
    # hard twin below yield at the start iterate: it leaves there, and the
    # solve is done without a linearization
    _, ops, state, deps = twin_inclusions()
    new = attempt(ops, state, deps)
    work = record_work(monkeypatch)
    active, lam, *_, sig, _ = newton_solve(ops, state, deps, strain_control(ops), [1, 2],
                                           new.multipliers[[1, 2]])
    assert active == [1] and not work.calls("_ActiveSystem.jacobian")
    tol = SolverSettings().newton_tol * 0.12
    assert abs(lam[0] - new.multipliers[1]) <= tol
    assert np.abs(sig - new.stress).max() <= tol


def test_all_candidates_withdrawing_raises_typed_error(monkeypatch):
    # a linearization that sends every multiplier negative empties the active
    # set; the emptied set's (trial) stresses violate yield, so the candidates
    # rejoin, and the attempt ends in a typed error at the Newton cap, never in
    # a state that fails KKT
    ops = two_phase_homogeneous()
    state = initial_state(ops)

    def negative_step(self, point, lam):
        def solve(rhs):
            z = np.zeros_like(rhs)
            z[:, 6, 0] = -1.0 - lam
            return z
        return SimpleNamespace(solve=solve)

    monkeypatch.setattr(solver_mod._ActiveSystem, "jacobian", negative_step)
    work = record_work(monkeypatch)
    with pytest.raises(StepFailureError, match="did not converge in 50 Newton iterations"):
        attempt(ops, state, np.array([0, 0, -0.002, 0, 0, 0]))
    assert active_sets(work)[:5] == [[0, 1], [], [0, 1], [], [0, 1]]


def test_active_set_iteration_cap(monkeypatch):
    # an active set that has not settled within the Newton cap fails the
    # attempt like any other cause: the twin case revises its set at the second
    # iterate and converges at the fourth, so a cap of three fails after the revision
    _, ops, state, deps = twin_inclusions()
    work = record_work(monkeypatch)
    with pytest.raises(StepFailureError) as info:
        attempt(ops, state, deps, SolverSettings(newton_max_iter=3))
    assert active_sets(work) == [[1, 2], [1]]
    assert re.fullmatch(NEWTON_CAP.replace(" 1 ", " 3 "), str(info.value))
    new = attempt(ops, state, deps, SolverSettings(newton_max_iter=4))
    assert new.active == (False, True, False)


def same_return(a, b):
    """Whether two ``_newton_multipliers`` results are bitwise equal."""
    return a[0] == b[0] and all(np.array_equal(p, q) for p, q in zip(a[1:], b[1:]))


@pytest.mark.parametrize("scale,revised", [
    (2.0, [[0, 1, 2], [0], [0, 2]]),  # 'soft' leaves and rejoins
    (3.0, [[0, 1, 2], [0, 2]]),       # 'stiff' leaves
])
def test_kept_system_across_a_revision(monkeypatch, scale, revised):
    # the solve revises its set, so the segment keeps the last system it
    # built; a second solve on the same control starts from that system and
    # rebuilds, a third from the returned set reuses it, a fourth from that
    # set reversed rebuilds (the order is the row layout), and each returns
    # bitwise what it returns on a fresh control
    ops = four_phase_ops("dilute")
    state = initial_state(ops)
    targets = scale * FOUR_PHASE_STRAIN
    work = record_work(monkeypatch)

    def solve(control, active, lam):
        return newton_solve(ops, state, targets, control, active, lam)

    control = solver_mod._StressControl(ops, MIXED_MODES)
    first = solve(control, [0, 1, 2], np.zeros(3))
    second = solve(control, [0, 1, 2], np.zeros(3))
    third = solve(control, first[0], first[1])
    reverse = (first[0][::-1], first[1][::-1])
    fourth = solve(control, *reverse)
    assert first[0] == revised[-1] and (first[1] > 0.0).all()
    assert active_sets(work) == revised * 2 + [reverse[0]]
    for got, start in ((first, ([0, 1, 2], np.zeros(3))), (second, ([0, 1, 2], np.zeros(3))),
                       (third, first[:2]), (fourth, reverse)):
        assert same_return(got, solve(solver_mod._StressControl(ops, MIXED_MODES), *start))


NEWTON_CAP = (r"return mapping did not converge in 1 Newton iterations; last stress/yield "
              r"residual (\S+) times its tolerance")


def test_newton_cap_raises_step_failure():
    # the cap's message reports the last iterate's residual against its tolerance;
    # the controlled stresses are on target at every iterate, so it has no macro part
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 2)])
    with pytest.raises(StepFailureError) as info:
        drive(ops, program, SolverSettings(newton_max_iter=1))
    assert float(re.search(NEWTON_CAP, str(info.value)).group(1)) > 1.0

    sc = default_scenario()
    with pytest.raises(StepFailureError) as info:
        drive(assemble_operators(sc.phases()), sc.program,
              SolverSettings(newton_max_iter=1))
    assert float(re.search(NEWTON_CAP, str(info.value)).group(1)) > 1.0


def test_cold_start_failure_is_located(monkeypatch):
    # a solve that starts cold, here a segment's first increment, is not
    # solved again: the error leaves drive at once, naming the segment and
    # increment, with the solve's error as its cause; segment 1 is elastic
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.001, 0, 0, 0]), 1),
                              (np.array([0, 0, -0.004, 0, 0, 0]), 2)])
    with pytest.raises(StepFailureError) as info:
        drive(ops, program, SolverSettings(newton_max_iter=1))
    exc = info.value
    assert (exc.segment, exc.increment) == (2, 1)
    assert re.fullmatch("segment 2, increment 1: " + NEWTON_CAP, str(exc))
    assert isinstance(exc.__cause__, StepFailureError)
    assert (exc.__cause__.segment, exc.__cause__.increment) == (None, None)

    seen = inject_failures(monkeypatch, lambda k, sig_dir: sig_dir is None)
    with pytest.raises(StepFailureError) as info:
        drive(ops, program)
    assert (info.value.segment, info.value.increment) == (2, 1)
    assert str(info.value) == "segment 2, increment 1: failure injected by the test"
    assert len(seen) == 1


def test_apex_in_attempt_is_located_step_failure():
    # hydrostatic tension drives both frictional phases to the cone apex: the
    # secant-started solve fails, so does its cold re-solve, and the error
    # leaves drive located
    ops = two_phase_homogeneous(DruckerPrager(0.5, 0.12))
    program = strain_program([((2e-3, 2e-3, 2e-3, 0, 0, 0), 10)])
    with pytest.raises(StepFailureError) as info:
        drive(ops, program)
    exc = info.value
    assert (exc.segment, exc.increment) == (1, 6)
    assert "cone apex" in str(exc) and "'matrix'" in str(exc)
    assert isinstance(exc.__cause__.__cause__, ApexSingularityError)


def test_vanished_von_mises_stress_is_no_cone_apex():
    # a phi = 0 surface has no apex: flow directions started at a hydrostatic
    # stress fail on the von Mises axis, naming the phase
    ops = two_phase_homogeneous()
    control = strain_control(ops)
    state = initial_state(ops)
    _, sig_tr = _trial_at(ops, state, control.predict(state, (0, 0, -3e-3, 0, 0, 0)))
    hydrostatic = np.tile([-0.1, -0.1, -0.1, 0.0, 0.0, 0.0], (2, 1))
    with pytest.raises(StepFailureError) as info:
        solver_mod._newton_multipliers(ops, sig_tr, [0, 1], SolverSettings(), control,
                                       np.zeros(2), hydrostatic)
    assert str(info.value) == ("equivalent stress vanished on the von Mises axis "
                               "in phase 'matrix'")
    assert isinstance(info.value.__cause__, ApexSingularityError)


def test_singular_macro_tangent_raises_step_failure():
    # a stress-controlled segment whose macro system cannot be solved fails
    # with the typed error at its start, located, never a LinAlgError
    ops = default_ops()
    stiff = ops.stiffness_hom.copy()
    stiff[:2, :2] = 0.0
    ops = replace(ops, stiffness_hom=stiff)
    modes = (STRESS, STRESS, STRAIN, STRAIN, STRAIN, STRAIN)
    program = LoadProgram((LoadSegment(targets=(0.0, 0.0, -0.001, 0.0, 0.0, 0.0),
                                       modes=modes, increments=20),))
    with pytest.raises(StepFailureError, match="singular macro") as info:
        drive(ops, program)
    assert info.value.segment == 1


# ------------------------------------------------------------------ driver

def test_strain_controlled_elastic_path():
    ops = default_ops()
    target = np.array([1e-4, -5e-5, -3e-4, 0, 2e-5, 0])
    states = drive(ops, strain_program([(target, 5)]))
    for k, st in enumerate(states):
        frac = k / 5.0
        assert np.abs(st.macro_strain - frac * target * MANDEL_SCALE).max() < 1e-18
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


def test_states_are_read_only_and_share_frozen_plastic_strains():
    states = drive(default_ops(), default_scenario().program)
    for st in states:
        assert not any(getattr(st, field).flags.writeable for field in STATE_FIELDS)
    with pytest.raises(ValueError, match="read-only"):
        states[1].macro_plastic[2] = 123.0
    elastic = plastic = after_plastic = 0
    for prev, st in zip(states, states[1:]):
        if any(st.active):
            plastic += 1
            assert st.plastic_strain is not prev.plastic_strain
        else:
            elastic += 1
            assert st.plastic_strain is prev.plastic_strain
            assert st.macro_plastic is prev.macro_plastic
            # zero multipliers pass through consecutive elastic states; the
            # first one after a plastic state needs fresh zeros
            assert not st.multipliers.any() and not any(st.active)
            if any(prev.active):
                after_plastic += 1
                assert st.multipliers is not prev.multipliers
            else:
                assert st.multipliers is prev.multipliers
    assert elastic and plastic and after_plastic


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
    phases = default_scenario().phases()
    strong = [replace(p, plastic=None if p.plastic is None else DruckerPrager(0.0, 1e6))
              for p in phases]
    elastic = [replace(p, plastic=None) for p in phases]
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
    eps_bar = np.array([0, 0, -0.002, 0, 0, 0])
    eps_tr, sig_tr = _trial_at(ops, state, eps_bar)
    cand = check_yield(ops, sig_tr)[0]
    assert cand and cand[0] > 0
    bad = replace(state, step=1, macro_strain=eps_bar,
                  macro_stress=ops.stiffness_hom @ eps_bar, strain=eps_tr, stress=sig_tr)
    with pytest.raises(StepFailureError, match=f"phase '{ops.phases[cand[0]].name}'"):
        validate_state(ops, bad)


@pytest.fixture(scope="module")
def plastic_default_state():
    """Operators and the last state of the default scenario's loading segment."""
    sc = default_scenario()
    ops = assemble_operators(sc.phases())
    final = drive(ops, LoadProgram(sc.program.segments[:1]), sc.settings)[-1]
    assert sum(final.active) >= 10
    return ops, final


def bumped(arr, delta, at=0):
    out = np.array(arr)
    out.flat[at] += delta
    return out


VALIDATION_CHECKS = {
    # a plastic strain off its phase's stress breaks the constitutive identity alone
    "constitutive residual": lambda ops, st: {
        "plastic_strain": bumped(st.plastic_strain, 1e-6)},
    # the macro strain and macro plastic strain moved together: the phase
    # strains no longer average to the macro strain, the macro stress forms agree
    "strain-average residual": lambda ops, st: {
        "macro_strain": bumped(st.macro_strain, 1e-6),
        "macro_plastic": bumped(st.macro_plastic, 1e-6)},
    "macro stress forms disagree": lambda ops, st: {
        "macro_stress": bumped(st.macro_stress, 1e-9)},
    # the next two are 10 times what their checks allow at the default
    # scenario's scales (1e-10 absolute): a check loosened 100-fold passes them.
    # Component 11 of phase 5, an inclusion with C[0, 0] = 1200:
    "constitutive residual 1.200e-09": lambda ops, st: {
        "plastic_strain": bumped(st.plastic_strain, 1e-12, at=5 * 6)},
    # every phase strain shifted by 1e-9 in component 33 and its stress by C_a
    # times that shift: the phase strains average 1e-9 off the macro strain
    "strain-average residual 1.000e-09": lambda ops, st: {
        "strain": st.strain + 1e-9 * np.eye(6)[2],
        "stress": st.stress + 1e-9 * ops.stiffness[:, :, 2]},
}


@pytest.mark.parametrize("message", list(VALIDATION_CHECKS))
def test_each_validation_check_fires_alone(plastic_default_state, message):
    ops, final = plastic_default_state
    validate_state(ops, final)
    bad = replace(final, **VALIDATION_CHECKS[message](ops, final))
    with pytest.raises(StepFailureError, match=f"^{message}"):
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


def cyclic_garbage(run):
    """The objects ``run()`` leaves that only the cycle collector frees."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def test_drive_leaves_no_cyclic_garbage():
    # a finished increment or segment frees what it built, Newton systems
    # included, by reference counting alone: neither a kept system nor the
    # error of a failed solve may sit in a reference cycle
    sc = default_scenario()
    ops = assemble_operators(sc.phases())
    assert cyclic_garbage(lambda: drive(ops, sc.program, sc.settings)) == 0


def test_resolved_drive_leaves_no_cyclic_garbage(monkeypatch):
    # every secant-started solve fails and is solved again cold
    ops = two_phase_homogeneous()
    inject_failures(monkeypatch, lambda k, sig_dir: sig_dir is not None)
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 5)])
    states = []
    assert cyclic_garbage(lambda: states.extend(drive(ops, program))) == 0
    assert len(states) == 6 and states[-1].active == (True, True)
    assert [st.stats.solves for st in states[1:]] == [0, 2, 2, 2, 2]


def test_failed_secant_start_is_solved_cold(monkeypatch):
    # a segment's first increment starts cold: zero multipliers and no
    # sig_dir (directions at the trial stresses); every other plastic
    # increment starts from the secant predictor, and a secant-started solve
    # that fails is solved once more, cold, from the same trial stresses and
    # candidates.  Here the 4th increment's secant start fails; the first
    # increment is elastic and the second segment's first one yields.  The
    # failed solve's work counts in its increment's record
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 5),
                              (np.array([0, 0, -0.0056, 0, 0, 0]), 2)])
    reference = drive(ops, program)
    work = record_work(monkeypatch)
    seen = inject_failures(monkeypatch, lambda k, sig_dir: k == 3)
    states = drive(ops, program)
    # per solve, whether it starts cold (c) or from the secant predictor (s)
    assert "".join("c" if sig_dir is None else "s" for *_, sig_dir in seen) == "ssscscs"
    records = [st.stats for st in states[1:]]
    assert [r.solves for r in records] == [0, 1, 1, 2, 1, 1, 1]
    assert [(r.linearizations, r.chords, r.systems, r.revisions)
            for r in records] == work.per_increment(records)
    starts = iter(seen)
    for (_, state, _, _, _, before), record in zip(
            work.calls("_solve_mixed_increment"), records):
        for k in range(record.solves):
            active, lam, sig_dir = next(starts)
            if before is None or k == 1:
                assert not lam.any() and sig_dir is None
                continue
            lam_n, lam_before = state.multipliers[active], before.multipliers[active]
            assert np.array_equal(lam, np.where(
                lam_before > 0.0, np.maximum(2.0 * lam_n - lam_before, 0.0), lam_n))
            assert np.array_equal(sig_dir, 2.0 * state.stress[active] - before.stress[active])
    failed, cold = work.calls("_newton_multipliers")[2:4]
    assert cold[1] is failed[1] and cold[2] == failed[2]  # trial stresses and candidates
    assert np.abs(states[-1].macro_stress - reference[-1].macro_stress).max() < 1e-12


def test_failed_validation_fails_the_increment(monkeypatch):
    # validation runs inside the increment, after its solve: a rejected state
    # fails drive at once, located, and is not solved again, though its solve
    # started from the secant predictor
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 5)])
    work = record_work(monkeypatch)
    real_validate = solver_mod.validate_state
    steps = []

    def fails_third(ops_, state, f):
        steps.append(state.step)
        if state.step == 3:
            raise StepFailureError("rejected for this test")
        real_validate(ops_, state, f)

    monkeypatch.setattr(solver_mod, "validate_state", fails_third)
    with pytest.raises(StepFailureError) as info:
        drive(ops, program)
    exc = info.value
    assert (exc.segment, exc.increment) == (1, 3)
    assert str(exc) == "segment 1, increment 3: rejected for this test"
    assert steps == [1, 2, 3]
    solves = work.calls("_newton_multipliers")
    assert len(solves) == 2 and solves[1][6] is not None  # increments 2 and 3, one each


def test_validation_reads_the_yield_values_of_its_state(monkeypatch):
    # an increment evaluates F at most once, on the array that becomes its
    # state's stresses: the yield check that selected the state (the trial
    # check of an elastic increment, the converged iterate's join check of a
    # plastic one, the cold solve's after a failed secant start) hands its
    # values to the KKT check, and they are F of the state's plastic rows, bit
    # for bit.  An elastic trial in the elastic ball of the last checked trial
    # state evaluates no F, and the KKT check reads the ball's bound on it,
    # which is <= 0 and >= F, on a state with no multiplier: 67 of the
    # default run's 150 states
    real_validate = solver_mod.validate_state
    received = []

    def checked(ops_, state, f):
        p = ops_.plastic_index
        want = dp_yield(state.stress.take(p, axis=0), ops_.plastic_tan_friction,
                        ops_.plastic_strength)
        exact = (f.dtype == want.dtype and f.shape == want.shape
                 and f.tobytes() == want.tobytes())
        bound = (f.shape == want.shape and not state.multipliers.any()
                 and bool((f <= 0.0).all() and (f >= want).all()))
        received.append((state.stats.solves, exact, bound))
        real_validate(ops_, state, f)

    monkeypatch.setattr(solver_mod, "validate_state", checked)
    sc = default_scenario()
    drive(assemble_operators(sc.phases()), sc.program, sc.settings)
    assert len(received) == 150 and {s for s, _, _ in received} == {0, 1}
    assert sum(not exact for _, exact, _ in received) == 67
    ops = two_phase_homogeneous()
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 5)])
    assert drive(ops, program)[-1].active == (True, True)  # every phase yields
    inject_failures(monkeypatch, lambda k, sig_dir: sig_dir is not None)
    drive(ops, program)
    assert [s for s, _, _ in received[150:]] == [0, 1, 1, 1, 1, 0, 2, 2, 2, 2]
    assert all(exact for _, exact, _ in received[150:])
    assert all(exact or bound for _, exact, bound in received)


def test_stress_control_miss_fails_the_attempt(monkeypatch):
    # the check against mixed_tol is the last guard of the stress targets: a
    # macro plastic strain off by 1e-6 in component 11 moves the stress-controlled
    # s11 off its target once the inclusions yield, and the attempt fails there
    real = solver_mod.macro_plastic_strain

    def offset(ops_, eps_p):
        macro = real(ops_, eps_p).copy()
        macro[0] += 1e-6
        return macro

    monkeypatch.setattr(solver_mod, "macro_plastic_strain", offset)
    sc = default_scenario()
    with pytest.raises(StepFailureError) as info:
        drive(default_ops(), sc.program, sc.settings)
    assert (info.value.segment, info.value.increment) == (1, 41)
    assert str(info.value) == ("segment 1, increment 41: "
                               "stress-controlled components miss their targets by 1.537e-04")


def test_segment_validation():
    with pytest.raises(ValueError):
        LoadSegment(targets=(0.0,) * 5, modes=(STRAIN,) * 6, increments=1)
    with pytest.raises(ValueError):
        LoadSegment(targets=(0.0,) * 6, modes=("bogus",) * 6, increments=1)
    with pytest.raises(ValueError):
        LoadSegment(targets=(0.0,) * 6, modes=(STRAIN,) * 6, increments=0)
    # a non-integer count would fail only in drive, with a bare TypeError
    with pytest.raises(ValueError, match="segment increments must be an integer"):
        LoadSegment(targets=(0.0,) * 6, modes=(STRAIN,) * 6, increments=2.5)
    assert LoadSegment(targets=(0.0,) * 6, modes=(STRAIN,) * 6,
                       increments=np.int64(2)).increments == 2
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


@pytest.mark.parametrize("bad,match", [
    ({"newton_tol": 0.0}, "newton_tol must be positive"),
    ({"newton_tol": -1e-12}, "newton_tol must be positive"),
    ({"newton_tol": np.nan}, "newton_tol must be positive"),
    ({"newton_max_iter": 0}, "newton_max_iter must be at least 1"),
    ({"newton_max_iter": -5}, "newton_max_iter must be at least 1"),
    ({"mixed_tol": 0.0}, "mixed_tol must be positive"),
    ({"mixed_tol": -1e-8}, "mixed_tol must be positive"),
    ({"newton_max_iter": 2.5}, "newton_max_iter must be an integer"),
])
def test_solver_settings_reject_out_of_range(bad, match):
    # each of these used to fail only at the first (plastic) increment, with
    # a bare TypeError, or to run silently as another value
    with pytest.raises(ValueError, match=match):
        SolverSettings(**bad)


def test_solver_settings_accept_their_limits():
    settings = SolverSettings(newton_tol=1e-300, newton_max_iter=1, mixed_tol=1e-300)
    assert settings.newton_max_iter == 1
    assert SolverSettings(newton_max_iter=np.int64(3)).newton_max_iter == 3


NON_FINITE_FIELDS = [
    ("volume fraction", lambda v: PhaseSpec("matrix", v, E0, NU)),
    ("Young's modulus", lambda v: PhaseSpec("matrix", 1.0, v, NU)),
    ("shear strength", lambda v: DruckerPrager(0.0, v)),
    ("newton_tol", lambda v: SolverSettings(newton_tol=v)),
    ("mixed_tol", lambda v: SolverSettings(mixed_tol=v)),
]


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field,build", NON_FINITE_FIELDS,
                         ids=[field for field, _ in NON_FINITE_FIELDS])
def test_constructors_reject_non_finite_constants(field, build, value):
    # each used to be accepted and fail later: a bare LinAlgError in the
    # assembly, a KKT violation at the first plastic increment, or a switched-off check
    with pytest.raises(ValueError, match=f"{field} must be positive and finite, got {value}"):
        build(value)


BENCHMARK_HOOKS = [
    ("revplast.scenario", "parse_scenario"), ("revplast.scenario", "Scenario.phases"),
    ("revplast.mean_field", "assemble_operators"), ("revplast.mean_field", "hill_tensor"),
    *[("revplast.solver", path) for path in (
        "_advance_with_subdivision", "_solve_mixed_increment", "_trial_at", "check_yield",
        "validate_state", "_newton_multipliers", "_ActiveSystem.__init__",
        "_ActiveSystem.jacobian", "_ActiveSystem.stress_update",
        "macro_plastic_strain")]]


@pytest.mark.parametrize("module,path", BENCHMARK_HOOKS,
                         ids=[path for _, path in BENCHMARK_HOOKS])
def test_benchmark_hook_targets_exist(module, path):
    # perfbench/ wraps these attributes by name for its metrics (speed
    # normalization cuts drives at _advance_with_subdivision); a rename
    # silently drops them
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_drive_advances_once_per_increment(monkeypatch):
    # perfbench's increment clock wraps _advance_with_subdivision the same way
    # and cuts each drive at its calls: drive must look it up at call time and
    # call it once per increment, also when the increment is solved twice
    real_advance = solver_mod._advance_with_subdivision
    calls = []

    def counted(*args):
        calls.append(args)
        return real_advance(*args)

    monkeypatch.setattr(solver_mod, "_advance_with_subdivision", counted)
    sc = default_scenario()
    drive(assemble_operators(sc.phases()), sc.program, sc.settings)
    assert len(calls) == 150
    calls.clear()
    seen = inject_failures(monkeypatch, lambda k, sig_dir: sig_dir is not None)
    program = strain_program([(np.array([0, 0, -0.004, 0, 0, 0]), 5)])
    drive(two_phase_homogeneous(), program)
    assert len(calls) == 5 and len(seen) == 8  # 4 plastic increments, 2 solves each
