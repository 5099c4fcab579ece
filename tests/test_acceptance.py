"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from revplast.eshelby import (eshelby_tensor, eshelby_tensor_quadrature,
                              sphere_eshelby_coefficients)
from revplast.mean_field import assemble_operators, eigen_response
from revplast.plasticity import dp_yield
from revplast.results import write_macro_csv
from revplast.scenario import default_scenario
from revplast.selfcheck import radial_return_gap
from revplast.solver import LoadProgram, LoadSegment, drive
from revplast.tensors import J_PROJ, K_PROJ


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{criterion}] {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def scenario():
    return default_scenario()


@pytest.fixture(scope="module")
def ops(scenario):
    return assemble_operators(scenario.phases())


@pytest.fixture(scope="module")
def default_run(scenario, ops):
    return drive(ops, scenario.program, scenario.settings)


@pytest.fixture(scope="module")
def elastic_variant(scenario):
    return assemble_operators([replace(p, plastic=None) for p in scenario.phases()])


@pytest.fixture(scope="module")
def elastic_run(scenario, elastic_variant):
    return drive(elastic_variant, scenario.program, scenario.settings)


def test_criterion_01_operator_consistency(scenario):
    t0 = time.thread_time()
    ops = assemble_operators(scenario.phases())
    res_a = np.abs(np.einsum("a,aij->ij", ops.fractions, ops.concentration)
                   - np.eye(6)).max()
    # every influence column: the response to each unit eigen-strain of each phase
    units = np.eye(6 * ops.n_phases).reshape(ops.n_phases, 6, -1)
    res_b = np.abs(np.einsum("a,aik->ik", ops.fractions, eigen_response(ops, units))).max()
    elapsed = time.thread_time() - t0
    report("1 operator consistency",
           res_a < 1e-10 and res_b < 1e-10 and elapsed < 1.0,
           f"|sum f A - I| = {res_a:.2e}, max_b |sum f B| = {res_b:.2e}, "
           f"{elapsed:.2f} s")


def test_criterion_02_eshelby_grid():
    t0 = time.thread_time()
    alpha, beta = sphere_eshelby_coefficients(0.25)
    sphere_res = max(abs(alpha - 5.0 / 9.0), abs(beta - 22.0 / 45.0),
                     float(np.abs(eshelby_tensor(1.0, 0.25)
                                  - (alpha * J_PROJ + beta * K_PROJ)).max()))
    worst = 0.0
    for aspect in np.geomspace(0.05, 5.0, 10):
        for poisson in np.linspace(0.0, 0.45, 5):
            s = eshelby_tensor(float(aspect), float(poisson))
            s_quad = eshelby_tensor_quadrature(float(aspect), float(poisson))
            worst = max(worst, float(np.abs(s - s_quad).max()))
    elapsed = time.thread_time() - t0
    report("2 Eshelby correctness",
           worst < 1e-8 and sphere_res < 1e-10 and elapsed < 10.0,
           f"grid residual {worst:.2e}, sphere {sphere_res:.2e}, {elapsed:.2f} s")


def test_criterion_03_homogeneous_limit():
    t0 = time.perf_counter()
    worst = radial_return_gap(40)
    elapsed = time.perf_counter() - t0
    report("3 homogeneous-limit equivalence",
           worst < 1e-10 and elapsed < 1.0,
           f"max deviation from radial return {worst:.2e}, {elapsed:.2f} s")


def test_criterion_04_yield_consistency(ops, default_run):
    worst_f = 0.0
    worst_lam = 0.0
    worst_avg = 0.0
    for st in default_run[1:]:
        for a, phase in enumerate(ops.phases):
            if phase.plastic is None:
                continue
            m = phase.plastic
            f_val = dp_yield(st.stress[a], np.tan(m.friction_angle), m.shear_strength)
            tol = 1e-10 * phase.plastic.shear_strength
            if st.active[a]:
                worst_f = max(worst_f, abs(f_val) / tol)
            else:
                worst_f = max(worst_f, f_val / tol)
        worst_lam = min(float(st.multipliers.min()), worst_lam)
        avg = np.einsum("a,ai->i", ops.fractions, st.strain)
        worst_avg = max(worst_avg, float(np.abs(avg - st.macro_strain).max()))
    report("4 yield consistency",
           worst_f <= 1.0 and worst_lam >= 0.0 and worst_avg <= 1e-10,
           f"max |F|/tol = {worst_f:.3f}, min multiplier = {worst_lam:.1e}, "
           f"strain-average residual = {worst_avg:.2e}")


def test_criterion_05_mixed_control(default_run):
    worst = max(float(np.abs(st.macro_stress[:2]).max()) for st in default_run)
    report("5 mixed-control accuracy", worst <= 1e-8,
           f"max |lateral stress| = {worst:.2e} MPa")


def test_criterion_06_unloading_elasticity(default_run):
    first = default_run[1]
    initial_modulus = first.macro_stress[2] / first.macro_strain[2]
    peak, end = default_run[100], default_run[150]
    secant = ((end.macro_stress[2] - peak.macro_stress[2])
              / (end.macro_strain[2] - peak.macro_strain[2]))
    slope_dev = abs(secant - initial_modulus) / initial_modulus
    residual_strain = end.macro_strain[2] - end.macro_stress[2] / secant
    plastic_dev = abs(residual_strain - end.macro_plastic[2])
    report("6 unloading elasticity",
           slope_dev < 1e-3 and plastic_dev < 1e-8,
           f"secant/elastic deviation = {slope_dev:.2e}, "
           f"residual-vs-plastic gap = {plastic_dev:.2e}")


def test_criterion_07_plastic_below_elastic(default_run, elastic_run):
    plastic = abs(default_run[100].macro_stress[2])
    elastic = abs(elastic_run[100].macro_stress[2])
    gap = elastic - plastic
    report("7 plastic-vs-elastic ordering", gap > 1e-4,
           f"|sig33| plastic {plastic:.5f} < elastic {elastic:.5f}, "
           f"gap {gap:.2e} MPa")


def test_criterion_08_frozen_elastic_strain(ops, default_run):
    end = default_run[100]
    plain = np.einsum("a,ai->i", ops.fractions, end.plastic_strain)
    gap = float(np.abs(end.macro_plastic - plain).max())
    report("8 frozen elastic strain", gap > 1e-6,
           f"upscaled vs plain plastic average differ by {gap:.2e}")


def test_criterion_09_step_refinement(scenario, ops, default_run):
    refined = LoadProgram(tuple(
        LoadSegment(targets=s.targets, modes=s.modes, increments=2 * s.increments)
        for s in scenario.program.segments))
    states = drive(ops, refined, scenario.settings)
    coarse = default_run[-1].macro_stress[2]
    fine = states[-1].macro_stress[2]
    rel = abs(coarse - fine) / abs(fine)
    report("9 step-refinement convergence", rel < 1e-3,
           f"final sig33 changes by {rel:.2e} when halving increments")


def test_criterion_10_determinism(scenario, tmp_path):
    paths = []
    for k in range(2):
        ops = assemble_operators(scenario.phases())
        states = drive(ops, scenario.program, scenario.settings)
        path = tmp_path / f"run{k}.csv"
        write_macro_csv(states, str(path))
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report("10 determinism", identical,
           "repeated runs wrote byte-identical result files")
