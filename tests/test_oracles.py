"""Oracles that share no code with the solver, and its deterministic work counts.

Symmetry equivariance, the sign of the dissipation, the discrete flow rule
on seeded random mixed-control scenarios and the localization identities of
every converged state check the converged states from the outside; the work
counts pin the cost of the default run.
"""
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import revplast.plasticity as plasticity
import revplast.solver as solver_mod
from conftest import STATE_FIELDS, WorkLog, inject_failures, record_work
from revplast.errors import StepFailureError
from revplast.mean_field import (PhaseSpec, Spheroid, assemble_operators, localize,
                                 upscale_stress)
from revplast.plasticity import DruckerPrager, dp_direction, dp_flow_of, dp_pressure_term
from revplast.scenario import default_scenario
from revplast.selfcheck import _homogeneous_phases
from revplast.solver import STRAIN, STRESS, LoadProgram, LoadSegment, SolverSettings, drive
from revplast.tensors import MANDEL_SCALE, sym2_to_matrix

# Mandel components of a tensor reflected through the plane x1 = x3
SWAP_13 = [2, 1, 0, 5, 4, 3]


@pytest.fixture(scope="module")
def counted_default_run():
    """The default run and the work it recorded."""
    sc = default_scenario()
    ops = assemble_operators(sc.phases())
    with pytest.MonkeyPatch.context() as mp:
        work = record_work(mp)
        states = drive(ops, sc.program, sc.settings)
    return sc, ops, states, work


# ------------------------------------------------------------------ work counts

def test_default_run_work_counts(counted_default_run):
    # one Newton solve per plastic increment, started from the extrapolation
    # of the last two states: one or two linearizations each, and a chord
    # step where the last linearized step's rate reaches the tolerance in
    # two (measured 60 solves, 68 linearizations and 31 chord steps, 97
    # linearizations without chord steps, 125 from the last increment's
    # multipliers with directions at the trial stresses, 180 from zero
    # multipliers; about 10 % headroom)
    _, _, states, work = counted_default_run
    solves = [st.stats.solves for st in states[1:]]
    assert len(solves) == 150
    assert sum(solves) <= 66
    assert sum(st.stats.linearizations for st in states[1:]) <= 75
    assert sum(st.stats.chords for st in states[1:]) <= 35
    assert max(solves) <= 1
    # the stress-control constants are built once per load segment, and a
    # segment rebuilds its active system only when the active set changes
    # (4 distinct sets; 60 builds when every solve built its own)
    assert len(work.calls("_StressControl.__init__")) == 2
    assert sum(st.stats.systems for st in states[1:]) == 4
    # a Newton iterate evaluates its m active stresses only; all n phases are
    # evaluated once per converged iterate, whose response updates the state
    # (305 calls when every one of the 245 residuals went through
    # eigen_response, 120 when each plastic increment re-localized its state)
    assert len(work.calls("eigen_response")) == 60


def test_default_run_yield_kernel_calls(monkeypatch):
    # the Drucker-Prager invariants, counted by the function that asks for
    # them: one evaluation per residual (60 Newton starts and 159 iterates),
    # one more at each iterate whose residual is within tolerance (62; F is
    # bounded at the stresses a converged iterate hands on), and one per
    # yield check and state validation: 641 calls, against 738 when every
    # iterate also evaluated F at its recomputed stresses
    real = plasticity.stress_invariants
    callers = Counter()

    def counted(sig):
        callers[sys._getframe(2).f_code.co_name] += 1
        return real(sig)

    monkeypatch.setattr(plasticity, "stress_invariants", counted)
    sc = default_scenario()
    drive(assemble_operators(sc.phases()), sc.program, sc.settings)
    assert callers == {"residual": 219, "_newton_multipliers": 62, "check_yield": 210,
                       "validate_state": 150}
    assert callers.total() == 641


def test_stress_controlled_elastic_increment_one_pass(monkeypatch):
    # all six components stress-controlled below yield: one attempt per
    # increment, no Newton solve, and the plastic strains are never localized
    sc = default_scenario()
    ops = assemble_operators(sc.phases())
    work = record_work(monkeypatch)
    target = (2e-3, -1e-3, -4e-3, 1e-3, 0.0, -5e-4)  # MPa, well below yield
    segment = LoadSegment(targets=target, modes=(STRESS,) * 6, increments=2)
    states = drive(ops, LoadProgram((segment,)))
    assert [(st.stats.attempts, st.stats.solves) for st in states[1:]] == [(1, 0)] * 2
    assert not work.calls("eigen_response")
    strain = np.linalg.solve(ops.stiffness_hom, np.asarray(target) * MANDEL_SCALE)
    assert np.abs(states[-1].macro_strain - strain).max() <= 1e-12 * np.abs(strain).max()


def test_records_match_an_independent_count(counted_default_run):
    # each increment's record against the calls logged inside the Newton
    # solves it claims; the plastic increments are the ones with a solve, and
    # the elastic predictor is exact below yield, so the first ten
    # increments, elastic under stress control, take none
    _, _, states, work = counted_default_run
    records = [st.stats for st in states[1:]]
    assert [(r.linearizations, r.chords, r.systems, r.revisions)
            for r in records] == work.per_increment(records)
    solves = [r.solves for r in records]
    assert solves == [int(any(st.active)) for st in states[1:]]
    assert not any(solves[:10])
    assert {(r.attempts, r.depth) for r in records} == {(1, 0)}


# ------------------------------------------------------------------ oracles

def localization_gaps(ops, states):
    """Largest gaps of the states' (strain, stress, macro_stress) to the
    values recomputed from each state's macro and plastic strains, relative to
    the run's largest recomputed value: the identities on which an increment
    builds its trial state from the previous converged state."""
    eps_p = np.array([st.plastic_strain for st in states])
    strain = np.array([localize(ops, st.macro_strain, st.plastic_strain) for st in states])
    stress = np.einsum("aij,saj->sai", ops.stiffness, strain - eps_p)
    macro = np.array([upscale_stress(ops, st.macro_strain, st.plastic_strain)
                      for st in states])
    return tuple(float(np.abs(np.array([getattr(st, name) for st in states]) - ref).max()
                       / np.abs(ref).max())
                 for name, ref in (("strain", strain), ("stress", stress),
                                   ("macro_stress", macro)))


def test_default_states_are_localizations(counted_default_run):
    _, ops, states, _ = counted_default_run
    assert max(localization_gaps(ops, states)) <= 1e-12


def phase_average_gap(ops, states):
    """Largest gap of a state's phase-averaged stress sum_a f_a sig_a to its
    macro stress, relative to that macro stress.  The two agree where the
    influence operator is reciprocal (the dilute scheme, or Mori-Tanaka with
    one inclusion shape and axis); on the default Mori-Tanaka run they
    differ by up to 5.6e-3 once plastic strains exist."""
    return max(float(np.abs(ops.fractions @ st.stress - st.macro_stress).max()
                     / max(np.abs(st.macro_stress).max(), np.finfo(float).tiny))
               for st in states)


def test_dilute_default_stress_is_the_phase_average():
    sc = default_scenario()
    ops = assemble_operators(sc.phases(), "dilute")
    states = drive(ops, sc.program, sc.settings)
    assert any(st.multipliers.any() for st in states)
    assert phase_average_gap(ops, states) <= 1e-12


def frictional_three_phases():
    """Operators of a matrix and two frictional inclusions on non-aligned
    axes, and control modes with stress-free lateral components."""
    phases = [PhaseSpec("matrix", 0.8, 100.0, 0.25)] + [
        PhaseSpec(f"incl{k}", 0.1, 400.0, 0.3, spheroid=Spheroid(0.5, axis),
                  plastic=DruckerPrager(0.2, 0.05))
        for k, axis in enumerate(((1.0, 0.0, 1.0), (0.0, 1.0, 2.0)))]
    return assemble_operators(phases), (STRESS, STRESS, STRAIN, STRAIN, STRAIN, STRAIN)


def test_long_elastic_segment_does_not_drift():
    # 2,000 elastic increments after a plastic one, each trial built on the
    # last: the roundoff of the updates grows with the stretch but stays
    # within 1e-12 of the identities (measured 9e-14 and 6e-13)
    ops, modes = frictional_three_phases()
    program = LoadProgram((LoadSegment((0.0, 0.0, -1e-3, 2e-4, 0.0, 0.0), modes, 1),
                           LoadSegment((0.0, 0.0, -5e-4, 1e-4, 0.0, 0.0), modes, 2000)))
    states = drive(ops, program)
    assert any(states[1].active)
    elastic = states[1:]
    assert not any(any(st.active) for st in elastic[1:])
    eps_p = elastic[0].plastic_strain
    assert all(np.array_equal(st.plastic_strain, eps_p) for st in elastic)
    macro_strain, macro_plastic, strain, stress, macro_stress = (
        np.array([getattr(st, name) for st in elastic])
        for name in ("macro_strain", "macro_plastic", "strain", "stress", "macro_stress"))
    # localize is affine in the macro strain: one eigen response serves all states
    local = (np.einsum("aij,sj->sai", ops.concentration, macro_strain)
             + localize(ops, np.zeros(6), eps_p))
    assert np.abs(strain - local).max() <= 1e-12 * np.abs(local).max()
    constitutive = np.einsum("aij,saj->sai", ops.stiffness, strain - eps_p) - stress
    assert np.abs(constitutive).max() <= 1e-12 * np.abs(stress).max()
    two_forms = (macro_strain - macro_plastic) @ ops.stiffness_hom.T - macro_stress
    assert np.abs(two_forms).max() <= 1e-14 * np.abs(macro_stress).max()


def test_long_plastic_cycles_do_not_drift():
    # a plastic increment adds its return's response to the trial state, so
    # the roundoff of the updates is never reset: over six mixed-control
    # cycles of compression and shear reversal (748 plastic increments) the
    # states stay within 1e-12 of the identities (measured 3.7e-15)
    ops, modes = frictional_three_phases()
    cycle = (LoadSegment((0.0, 0.0, -3e-3, 1e-3, 0.0, 0.0), modes, 90),
             LoadSegment((0.0, 0.0, -1e-3, -1e-3, 0.0, 0.0), modes, 90))
    states = drive(ops, LoadProgram(cycle * 6))
    assert sum(any(st.active) for st in states) >= 700
    assert max(localization_gaps(ops, states)) <= 1e-12


def test_dissipation_nonnegative(counted_default_run):
    _, _, states, _ = counted_default_run
    dissipated = np.array([np.einsum("ai,ai->a", st.stress,
                                     st.plastic_strain - prev.plastic_strain)
                           for prev, st in zip(states, states[1:])])
    assert dissipated.min() >= 0.0
    assert (dissipated > 0.0).any(axis=1).sum() >= 50  # the plastic increments


def test_loading_along_x1_mirrors_x3(counted_default_run):
    # cube26 is closed under swapping x1 and x3: driving the default program
    # along x1 reproduces the x3 response with its components permuted
    sc, ops, states, _ = counted_default_run
    mirrored = LoadProgram(tuple(
        LoadSegment(targets=tuple(s.targets[i] for i in SWAP_13),
                    modes=tuple(s.modes[i] for i in SWAP_13), increments=s.increments)
        for s in sc.program.segments))
    states_x1 = drive(ops, mirrored, sc.settings)
    sig_ref = np.abs([st.macro_stress for st in states]).max()
    eps_p_ref = np.abs([st.plastic_strain for st in states]).max()
    assert eps_p_ref > 1e-5  # genuinely plastic
    # phase b of the x1 run holds the mirrored axis of phase a of the x3 run
    axes = [np.asarray(p.spheroid.axis, float) if p.spheroid else None for p in ops.phases]
    partner = [0] + [next(b for b in range(1, ops.n_phases)
                          if np.allclose(axes[b], axes[a][[2, 1, 0]]))
                     for a in range(1, ops.n_phases)]
    for a_st, b_st in zip(states, states_x1):
        assert np.abs(b_st.macro_stress - a_st.macro_stress[SWAP_13]).max() <= 1e-12 * sig_ref
        assert (np.abs(b_st.macro_plastic - a_st.macro_plastic[SWAP_13]).max()
                <= 1e-12 * eps_p_ref)
        assert (np.abs(b_st.plastic_strain[partner] - a_st.plastic_strain[:, SWAP_13]).max()
                <= 1e-12 * eps_p_ref)


@pytest.mark.parametrize("seed", range(3))
def test_phase_order_is_equivariant(counted_default_run, seed):
    # the benchmark seeds permute the phase order: the default inclusions in a
    # seeded order make the same work, increment by increment (150 attempts,
    # 60 solves, 68 linearizations, 31 chord steps, 4 systems in all) and,
    # un-permuted, the same active sets and states (measured over ten orders:
    # at most 4.1e-14 relative, in the multipliers)
    sc, ops, states, _ = counted_default_run
    order = np.concatenate(([0], 1 + np.random.default_rng(seed).permutation(
        ops.n_phases - 1)))
    states_p = drive(assemble_operators([ops.phases[a] for a in order]),
                     sc.program, sc.settings)
    assert [st.stats for st in states_p] == [st.stats for st in states]
    assert [tuple(np.array(st.active)[order]) for st in states] == [
        st.active for st in states_p]
    for field in STATE_FIELDS:
        ref = np.array([getattr(st, field) for st in states])
        got = np.array([getattr(st, field) for st in states_p])
        if not field.startswith("macro_"):  # per phase
            ref = ref[:, order]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), field


def shared_criterion_ops(friction):
    """The default cube26 operators with every phase, the matrix included, on
    one Drucker-Prager criterion: the REV's strength domain is that cone."""
    sc = default_scenario()
    model = DruckerPrager(friction, 0.12)
    sc = replace(sc, matrix_plastic=model,
                 families=tuple(replace(fam, plastic=model) for fam in sc.families))
    return assemble_operators(sc.phases())


def cone_value(stresses, friction, strength):
    """F = s_eq + s_m tan(phi) - s0 of Mandel stresses, from their 3x3 tensors."""
    tensors = np.array([sym2_to_matrix(s) for s in np.atleast_2d(stresses)])
    mean = np.trace(tensors, axis1=1, axis2=2) / 3.0
    dev = tensors - mean[:, None, None] * np.eye(3)
    eq = np.sqrt(1.5 * np.einsum("aij,aij->a", dev, dev))
    return eq + mean * np.tan(friction) - strength


# stress rays: one strain component (or e11 = e22) driven far past first
# yield, every other component stress-free or, for plane strain, held
S, E = STRESS, STRAIN
STRESS_RAYS = {
    "e33 compression": ((0.0, 0.0, -0.05, 0.0, 0.0, 0.0), (S, S, E, S, S, S)),
    "e33 tension": ((0.0, 0.0, 0.05, 0.0, 0.0, 0.0), (S, S, E, S, S, S)),
    "e12 shear": ((0.0, 0.0, 0.0, 0.0, 0.0, 0.05), (S, S, S, S, S, E)),
    "e23 shear": ((0.0, 0.0, 0.0, -0.05, 0.0, 0.0), (S, S, S, E, S, S)),
    "equibiaxial compression": ((-0.05, -0.05, 0.0, 0.0, 0.0, 0.0), (E, E, S, S, S, S)),
    "plane-strain e33": ((0.0, None, -0.05, 0.0, 0.0, 0.0), (S, E, E, S, S, S)),
}


@pytest.mark.parametrize("friction", [0.0, 0.3])
def test_shared_criterion_is_the_strength_domain(friction):
    # limit analysis: when every phase has the same convex criterion G, the
    # uniform stress field and the convexity of G bound the REV's strength
    # domain from both sides, so it is G.  Every stress ray ends with every
    # phase plastic on G and the phase average on G.  Measured: phases at
    # most 3.5e-14 s0, average 7.9e-15 s0, macro stress 1.9e-13 s0 at
    # phi = 0.  At phi = 0.3 the macro stress lies between -2.8e-4 s0 and
    # +2.0e-3 s0 off G, because the non-aligned Mori-Tanaka operator is not
    # reciprocal (ROADMAP item 13), so only phi = 0 checks it.
    s0 = 0.12
    ops = shared_criterion_ops(friction)
    for targets, modes in STRESS_RAYS.values():
        final = drive(ops, LoadProgram((LoadSegment(targets, modes, 20),)))[-1]
        assert (final.multipliers > 0.0).all()
        assert np.abs(cone_value(final.stress, friction, s0)).max() <= 1e-10 * s0
        average = ops.fractions @ final.stress
        assert abs(cone_value(average, friction, s0)[0]) <= 1e-10 * s0
        if friction == 0.0:
            assert abs(cone_value(final.macro_stress, friction, s0)[0]) <= 1e-10 * s0


def random_scenario(seed, scale=1.0):
    """Mori-Tanaka-symmetric phases (one spheroid shape and axis) with random
    stiffness and Drucker-Prager parameters, under mixed strain/stress control;
    ``scale`` multiplies the strain-controlled targets."""
    rng = np.random.default_rng(seed)
    shape = Spheroid(float(np.exp(rng.uniform(np.log(0.2), np.log(5.0)))),
                     tuple(rng.normal(size=3)))
    n_incl = int(rng.integers(2, 5))
    fractions = rng.uniform(0.05, 0.15, size=n_incl)

    def model():
        if rng.random() < 0.2:
            return None
        friction = float(rng.uniform(0.0, 0.5))
        dilation = float(rng.uniform(0.0, friction)) if rng.random() < 0.5 else None
        return DruckerPrager(friction, float(rng.uniform(0.05, 0.3)), dilation_angle=dilation)

    phases = [PhaseSpec("matrix", 1.0 - fractions.sum(), 100.0,
                        float(rng.uniform(0.15, 0.35)), plastic=model())]
    for k, frac in enumerate(fractions):
        phases.append(PhaseSpec(f"incl{k}", float(frac),
                                float(np.exp(rng.uniform(np.log(50.0), np.log(2000.0)))),
                                float(rng.uniform(0.15, 0.35)), spheroid=shape,
                                plastic=model()))
    # axial compression with shear; some lateral or shear components stress-free
    modes = [STRAIN] * 6
    for i in rng.choice([0, 1, 3, 4, 5], size=int(rng.integers(1, 4)), replace=False):
        modes[i] = STRESS
    strain = np.zeros(6)
    strain[2] = -rng.uniform(2e-3, 6e-3)
    strain[:2] = rng.uniform(-5e-4, 5e-4, size=2)
    strain[3:] = rng.uniform(-1e-3, 1e-3, size=3)
    strain *= scale
    load = tuple(0.0 if m == STRESS else float(e) for m, e in zip(modes, strain))
    unload = tuple(0.0 if m == STRESS else 0.6 * float(e) for m, e in zip(modes, strain))
    program = LoadProgram((LoadSegment(load, tuple(modes), 12),
                           LoadSegment(unload, tuple(modes), 4)))
    return assemble_operators(phases), program


def test_kept_active_systems_match_fresh_ones(monkeypatch):
    # a segment keeps its last active system and reuses it while the active
    # set repeats; a fresh system at every request gives bitwise the same
    # states, from about three times the builds (measured 235 against 652).
    # The kept runs' records match the logged work increment by increment
    # and sum to 960 attempts (none subdivided), 615 solves, 1,357
    # linearizations, 1,025 chord steps, 233 systems and 35 active-set
    # revisions.  While a segment's first increment started from the last
    # multipliers, they read 1,358 linearizations, 235 systems and 37
    # revisions: the only plastic solve that differs is seed 41's increment
    # 13, the unload segment's first, which took 4 linearizations, 3 systems
    # and 2 revisions warm and takes 3, 1 and 0 cold.  (1,367 linearizations
    # and 1,002 chord steps while the convergence test took F at the
    # recomputed stresses in place of the residual's F at the iterate; 1,024
    # chord steps while each phase's dilute concentration was inverted in its
    # own frame: seed 30's increment 10 then converged after two chord steps,
    # with F at 0.99997 of its tolerance, where it now reads 1.00067)
    work = record_work(monkeypatch)
    runs, logs = {}, {}
    for mode in ("kept", "fresh"):
        if mode == "fresh":
            monkeypatch.setattr(solver_mod._StressControl, "system",
                                lambda control, active: solver_mod._ActiveSystem(
                                    control.ops, active, control))
        runs[mode] = [drive(*random_scenario(seed)) for seed in range(60)]
        logs[mode] = WorkLog(work)
        work.clear()
    for kept, fresh in zip(runs["kept"], runs["fresh"]):
        assert len(kept) == len(fresh)
        for a, b in zip(kept, fresh):
            assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in STATE_FIELDS)
    builds = {mode: len(log.calls("_ActiveSystem.__init__")) for mode, log in logs.items()}
    assert builds["kept"] < 0.5 * builds["fresh"]
    records = [st.stats for states in runs["kept"] for st in states[1:]]
    assert [(r.linearizations, r.chords, r.systems, r.revisions)
            for r in records] == logs["kept"].per_increment(records)
    assert tuple(sum(getattr(r, name) for r in records) for name in (
        "attempts", "depth", "solves", "linearizations", "chords", "systems",
        "revisions")) == (960, 0, 615, 1357, 1025, 233, 35)


def test_stressed_generator_fails_where_pinned():
    # the generator at ten times its strains: four seeds use up the
    # subdivision cap on the Newton cap, and the other 56 converge unhalved.
    # Their summed records were 2,400 linearizations, 1,352 chord steps, 343
    # systems and 166 revisions while a segment's first increment started
    # from the last multipliers and each half from half its part's guess, and
    # 1,353 chord steps while the linearization's coupling rows were summed by
    # an einsum: seed 41's increment 13 (the unload segment's first) then left
    # its worst residual at 0.95 of its tolerance after two chord steps, where
    # the batched product's roundoff leaves 1.10 and takes a third
    failed, records = [], []
    for seed in range(60):
        try:
            states = drive(*random_scenario(seed, scale=10.0))
        except StepFailureError as exc:
            failed.append(seed)
            assert exc.depth == 8
            assert "did not converge in 50 Newton iterations" in str(exc)
            continue
        records += [st.stats for st in states[1:]]
    assert failed == [15, 18, 45, 46]
    assert tuple(sum(getattr(r, name) for r in records) for name in (
        "attempts", "depth", "solves", "linearizations", "chords", "systems",
        "revisions")) == (896, 0, 846, 2367, 1354, 281, 104)


# ------------------------------------------------------------ the secant start and chord steps

def recorded_drive(mp, seed):
    """The default run (seed None) or ``random_scenario(seed)`` driven with each
    attempt recorded through the MonkeyPatch ``mp``, which is then undone:
    (ops, program, settings, states, ``inject_failures``' record)."""
    if seed is None:
        sc = default_scenario()
        ops, program, settings = assemble_operators(sc.phases()), sc.program, sc.settings
    else:
        (ops, program), settings = random_scenario(seed), SolverSettings()
    seen = inject_failures(mp, lambda state, targets: False)
    states = drive(ops, program, settings)
    mp.undo()
    assert len(seen) == len(states) - 1  # one attempt per increment
    return ops, program, settings, states, seen


def rerun_plastic_increments(ops, program, settings, states, seen, extrapolate):
    """Per plastic increment of an unsubdivided drive, its converged state and
    the state of its attempt re-run from its start state, with the ``before``
    it had if ``extrapolate``, else cold (``before=None``)."""
    modes = [seg.modes for seg in program.segments for _ in range(seg.increments)]
    for (state, targets, before), new, mode in zip(seen, states[1:], modes):
        if new.stats.solves:
            control = solver_mod._StressControl(ops, mode)
            yield new, solver_mod._solve_mixed_increment(
                ops, state, targets, control, settings, before if extrapolate else None)


def assert_same_return(new, old, fields):
    """The same active set, and ``fields`` within 1e-10 of their largest value."""
    assert new.active == old.active
    for field in fields:
        ref = np.abs(getattr(old, field)).max()
        assert np.abs(getattr(new, field) - getattr(old, field)).max() <= 1e-10 * ref, field


@pytest.mark.parametrize("seed", [None, *range(60)])
def test_secant_start_changes_the_work_not_the_answer(monkeypatch, seed):
    # the extrapolated start of an increment's first attempt reaches the same
    # active set and state as the cold start, within the Newton tolerance
    # (default: None; else random_scenario(seed))
    ops, program, settings, states, seen = recorded_drive(monkeypatch, seed)
    plastic = 0
    for new, old in rerun_plastic_increments(ops, program, settings, states, seen, False):
        plastic += 1
        assert_same_return(new, old, ("stress", "strain", "macro_stress", "macro_strain"))
    assert plastic >= (60 if seed is None else 2)


@pytest.mark.parametrize("seed", [None, *range(60)])
def test_chord_steps_change_the_work_not_the_answer(monkeypatch, seed):
    # every plastic increment re-solved with each Newton step a fresh
    # linearization reaches the same active set and state as with chord
    # steps, within the Newton tolerance (default: None; else
    # random_scenario(seed); measured at most 1.7e-11 relative, in the
    # multipliers and plastic strains)
    ops, program, settings, states, seen = recorded_drive(monkeypatch, seed)
    monkeypatch.setattr(solver_mod, "_chord", lambda *args: False)
    plastic = chords = 0
    for chorded, fresh in rerun_plastic_increments(ops, program, settings, states, seen,
                                                   True):
        plastic += 1
        chords += chorded.stats.chords
        assert fresh.stats.chords == 0
        assert fresh.stats.linearizations >= chorded.stats.linearizations
        assert_same_return(chorded, fresh, STATE_FIELDS)
    assert plastic >= (60 if seed is None else 2)
    assert chords >= (31 if seed is None else 1)


def test_only_a_whole_increment_after_a_segment_start_extrapolates(monkeypatch):
    # an increment's first attempt extrapolates from the state one step
    # before its start, except in a segment's first increment; the halves of
    # a failed part and the part after a converged part start cold: the
    # two-phase homogeneous run, whose parts above 1.1e-4 fail (each plastic
    # increment is halved three times)
    ops = assemble_operators(_homogeneous_phases(DruckerPrager(0.0, 0.12)))
    program = LoadProgram(tuple(
        LoadSegment((0.0, 0.0, e33, 0.0, 0.0, 0.0), (STRAIN,) * 6, 5)
        for e33 in (-0.004, -0.008)))
    seen = inject_failures(monkeypatch, lambda state, targets: (
        np.abs(targets - state.macro_strain).max() > 1.1e-4))
    states = drive(ops, program, SolverSettings(max_subdivisions=3))
    befores = iter(before for *_, before in seen)
    for i, st in enumerate(states[1:], 1):
        first = next(befores)
        assert first is (None if i in (1, 6) else states[i - 2])
        assert all(next(befores) is None for _ in range(st.stats.attempts - 1))
    assert next(befores, None) is None
    assert [st.stats.attempts for st in states[1:]] == [15] * 10


@pytest.mark.parametrize("seed", range(60))
def test_random_mixed_scenarios_converge_without_subdivision(seed):
    # every increment is one attempt of one Newton solve at most: the active
    # set is revised inside it, never by solving again
    ops, program = random_scenario(seed)
    states = drive(ops, program)  # validates every state
    assert all(st.stats.attempts == 1 and st.stats.solves <= 1 for st in states[1:])
    assert max(localization_gaps(ops, states)) <= 1e-12
    assert phase_average_gap(ops, states) <= 1e-12
    plastic = 0
    for prev, st in zip(states, states[1:]):
        assert np.isfinite(st.stress).all()
        step = st.plastic_strain - prev.plastic_strain
        active = np.flatnonzero(st.active)
        assert not step[np.flatnonzero(~np.asarray(st.active))].any()
        if active.size:
            plastic += 1
            # discrete flow rule at the returned stresses
            models = [ops.phases[a].plastic for a in active]
            s0 = np.array([m.shear_strength for m in models])
            tan_g = np.array([np.tan(m.potential_angle) for m in models])
            n_dev = dp_direction(st.stress[active], s0)[1]
            flow = st.multipliers[active, None] * dp_flow_of(n_dev, dp_pressure_term(tan_g))
            assert np.abs(step[active] - flow).max() <= 1e-10 * np.abs(step).max()
    assert plastic >= 2
