import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import revplast.mean_field as mean_field
import revplast.selfcheck as selfcheck
import revplast.solver as solver_mod
from conftest import record_work
from revplast.errors import MorphologyError
from revplast.eshelby import hill_tensor
from revplast.mean_field import (PhaseSpec, Spheroid, assemble_operators,
                                 dilute_concentration, localize,
                                 macro_plastic_strain, upscale_stress,
                                 validate_phases)
from revplast.orientations import rotation_to_axis
from revplast.plasticity import YIELD_TOL, DruckerPrager
from revplast.scenario import default_scenario
from revplast.selfcheck import hashin_shtrikman_spheres, homogeneous_limit_gap, levin_gaps
from revplast.tensors import J_PROJ, K_PROJ, iso_stiffness, rotation_operator

E0, NU = 100.0, 0.25
EI = 1000.0


def matrix_phase(f, plastic=None):
    return PhaseSpec("matrix", f, E0, NU, plastic=plastic)


def spheroid_phase(name, f, axis=(0, 0, 1), young=EI, aspect=0.35, plastic=None):
    return PhaseSpec(name, f, young, NU, spheroid=Spheroid(aspect, axis),
                     plastic=plastic)


@pytest.fixture(scope="module")
def default_ops():
    return assemble_operators(default_scenario().phases())


# ---------------------------------------------------------------- dilute

def test_dilute_homogeneous_limit():
    c0 = iso_stiffness(E0, NU)
    p = hill_tensor(0.35, E0, NU)
    assert np.abs(dilute_concentration(p, c0, c0) - np.eye(6)).max() < 1e-14


def test_dilute_sphere_volumetric_part():
    # scalar oracle: a_J = 1/(1 + alpha*(k_i/k_0 - 1)) = 1/6 for a 10x contrast
    c0 = iso_stiffness(E0, NU)
    ci = iso_stiffness(EI, NU)
    a = dilute_concentration(hill_tensor(1.0, E0, NU), ci, c0)
    a_j = float(np.tensordot(J_PROJ, a))
    assert a_j == pytest.approx(1.0 / 6.0, rel=1e-13)


def test_dilute_rigid_inclusion_limit():
    # concentration vanishes like 1/E; the scaled tensor E*A has the
    # morphology-dependent limit (P : C_unit)^{-1}
    c0 = iso_stiffness(E0, NU)
    p = hill_tensor(0.35, E0, NU)
    norms = []
    for young in (1e3, 1e5, 1e7, 1e9):
        a = dilute_concentration(p, iso_stiffness(young, NU), c0)
        norms.append(np.linalg.norm(a))
    assert all(n2 < n1 for n1, n2 in zip(norms, norms[1:]))
    scaled = 1e9 * dilute_concentration(p, iso_stiffness(1e9, NU), c0)
    limit = np.linalg.inv(p @ iso_stiffness(1.0, NU))
    assert np.abs(scaled - limit).max() < 1e-5 * np.abs(limit).max()


# ---------------------------------------------------------------- assembly

def test_single_phase_operators():
    # uniform eigen-strain in a clamped homogeneous body produces zero strain,
    # so the self-influence operator must vanish (pinned by both consistency
    # identities and the homogeneous-limit rule)
    assert homogeneous_limit_gap(assemble_operators([matrix_phase(1.0)])) < 1e-14


def test_identical_phases_homogeneous_limit():
    phases = [matrix_phase(0.55),
              spheroid_phase("a", 0.25, axis=(1, 0, 0), young=E0),
              spheroid_phase("b", 0.20, axis=(1, 1, 1), young=E0, aspect=2.0)]
    assert homogeneous_limit_gap(assemble_operators(phases)) < 1e-10


def test_default_consistency_invariants(default_ops):
    res_a, res_b = default_ops.consistency_residuals
    assert res_a < 1e-10
    assert res_b < 1e-10
    summed = np.einsum("a,aij->ij", default_ops.fractions, default_ops.concentration)
    assert np.abs(summed - np.eye(6)).max() < 1e-10


def test_default_homogenized_stiffness(default_ops):
    c = default_ops.stiffness_hom
    assert np.abs(c - c.T).max() < 1e-12 * np.abs(c).max()
    assert np.linalg.eigvalsh(c).min() > 0.0
    iso = (np.tensordot(J_PROJ, c) / 1.0) * J_PROJ + (np.tensordot(K_PROJ, c) / 5.0) * K_PROJ
    assert np.linalg.norm(c - iso) / np.linalg.norm(c) < 1e-2


def test_default_axial_modulus_against_scalar_oracle(default_ops):
    # orientation-averaged scalar Mori-Tanaka oracle on the J/K subspaces
    c0 = iso_stiffness(E0, NU)
    ci = iso_stiffness(EI, NU)
    a_dil = dilute_concentration(hill_tensor(0.35, E0, NU), ci, c0)
    a_j = float(np.tensordot(J_PROJ, a_dil))
    a_k = float(np.tensordot(K_PROJ, a_dil)) / 5.0
    f = 0.143
    k0, mu0 = 200.0 / 3.0, 40.0
    ki, mui = 2000.0 / 3.0, 400.0
    k_bar = ((1 - f) * k0 + f * ki * a_j) / ((1 - f) + f * a_j)
    mu_bar = ((1 - f) * mu0 + f * mui * a_k) / ((1 - f) + f * a_k)
    young_oracle = 9 * k_bar * mu_bar / (3 * k_bar + mu_bar)
    compliance = np.linalg.inv(default_ops.stiffness_hom)
    young_engine = 1.0 / compliance[2, 2]
    assert abs(young_engine - young_oracle) / young_oracle < 5e-3


def test_mori_tanaka_spheres_match_hashin_shtrikman():
    # for isotropic spheres, Mori-Tanaka is the Hashin-Shtrikman estimate with
    # the matrix as reference medium (Weng 1984); its closed form divides by
    # no modulus difference, so equal phases are included (measured 1.8e-15)
    rng = np.random.default_rng(1984)
    worst = 0.0
    for _ in range(200):
        young0 = 100.0
        young1 = young0 * 10.0 ** rng.uniform(-3.0, 3.0)
        nu0, nu1 = rng.uniform(-0.4, 0.45, size=2)
        f1 = rng.uniform(0.0, 0.6)
        if rng.random() < 0.05:
            young1, nu1 = young0, nu0
        ops = assemble_operators([
            PhaseSpec("matrix", 1.0 - f1, young0, nu0),
            PhaseSpec("sphere", f1, young1, nu1,
                      spheroid=Spheroid(1.0, tuple(rng.normal(size=3))))])
        c_hs = hashin_shtrikman_spheres(young0, nu0, young1, nu1, f1)
        worst = max(worst, np.abs(ops.stiffness_hom - c_hs).max() / np.abs(c_hs).max())
    assert worst <= 1e-12


def test_dilute_scheme_assembles():
    phases = [matrix_phase(0.98), spheroid_phase("i", 0.02)]
    ops = assemble_operators(phases, scheme="dilute")
    assert ops.scheme == "dilute"
    # no normalization: inclusion concentration is the dilute tensor itself,
    # the matrix concentration absorbs the strain average
    c0 = iso_stiffness(E0, NU)
    a_dil = dilute_concentration(hill_tensor(0.35, E0, NU), iso_stiffness(EI, NU), c0)
    assert np.abs(ops.concentration[1] - a_dil).max() < 1e-14
    assert ops.consistency_residuals[0] < 1e-10
    # classical dilute estimate C0 + f*(Ci - C0):A_dil
    oracle = c0 + 0.02 * (iso_stiffness(EI, NU) - c0) @ a_dil
    assert np.abs(ops.stiffness_hom - oracle).max() < 1e-10
    # the matrix row absorbs the average, so the identities hold at any fraction
    for f in (0.5, 0.9):
        ops = assemble_operators([matrix_phase(1.0 - f), spheroid_phase("i", f)],
                                 scheme="dilute")
        assert max(ops.consistency_residuals) <= 1e-14
    # two materials crossed with two shapes, interleaved on random axes: each
    # inclusion's operators against its own frame's Hill tensor Q P Q^T
    rng = np.random.default_rng(29)
    kinds = [(young, nu, aspect) for young, nu in ((1000.0, 0.25), (3000.0, 0.3))
             for aspect in (0.35, 3.0)]
    phases = [matrix_phase(0.76)] + [
        PhaseSpec(f"i{k}", 0.02, young, nu, spheroid=Spheroid(aspect, tuple(rng.normal(size=3))))
        for k, (young, nu, aspect) in enumerate(kinds * 3)]
    ops = assemble_operators(phases, scheme="dilute")
    for a, phase in enumerate(phases[1:], 1):
        rot = rotation_operator(rotation_to_axis(phase.spheroid.axis))
        p_glob = rot @ hill_tensor(phase.spheroid.aspect_ratio, E0, NU) @ rot.T
        c_a = iso_stiffness(phase.young_modulus, phase.poisson_ratio)
        a_dil = dilute_concentration(p_glob, c_a, c0)
        for got, ref in ((ops.concentration[a], a_dil), (ops.response[a], a_dil @ p_glob),
                         (ops.stiffness[a], c_a)):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), phase.name


def test_mori_tanaka_close_to_dilute_at_small_fraction():
    # the two estimates agree to first order in the inclusion fraction
    def gap(f):
        phases = [matrix_phase(1 - f), spheroid_phase("i", f)]
        mt = assemble_operators(phases, scheme="mori_tanaka")
        dil = assemble_operators(phases, scheme="dilute")
        return np.abs(mt.stiffness_hom - dil.stiffness_hom).max()

    g1, g2 = gap(0.02), gap(0.002)
    assert g1 < 0.5
    assert g2 < 0.015 * g1  # contraction faster than linear in f


@pytest.mark.parametrize("scheme", ["mori_tanaka", "dilute"])
def test_assembly_follows_phase_order_and_axis_sign(monkeypatch, scheme):
    # two interleaved families of one material (Mori-Tanaka keeps C_hom
    # symmetric only then); reordering the phases and reversing every axis
    # (a spheroid is unchanged by it) must only permute the operators, and each
    # family's Hill tensor and dilute concentration are computed once per assembly
    work = record_work(monkeypatch)
    rng = np.random.default_rng(13)
    n = 12
    phases = [matrix_phase(0.8)] + [
        spheroid_phase(f"i{k}", 0.2 / n, axis=tuple(rng.normal(size=3)),
                       aspect=(0.35, 3.0)[k % 2])
        for k in range(n)]
    perm = rng.permutation(n)
    flipped = [phases[0]] + [
        dataclasses.replace(phases[1 + k], spheroid=Spheroid(
            phases[1 + k].spheroid.aspect_ratio,
            tuple(-x for x in phases[1 + k].spheroid.axis))) for k in perm]
    ops = assemble_operators(phases, scheme=scheme)
    assert len(work.calls("hill_tensor")) == 2
    # one dilute concentration conditioned per kind of inclusion, not per phase
    assert sum(len(args[0]) for args in work.calls("dilute_concentration")) == 2
    ops_flipped = assemble_operators(flipped, scheme=scheme)
    assert len(work.calls("hill_tensor")) == 4
    order = np.concatenate([[0], 1 + perm])
    for name in ("concentration", "response", "mixing"):
        ref = getattr(ops, name)[order]
        got = getattr(ops_flipped, name)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), name
    ref = ops.stiffness_hom
    assert np.abs(ops_flipped.stiffness_hom - ref).max() <= 1e-14 * np.abs(ref).max()


def test_mori_tanaka_asymmetry_names_cause():
    # families differing in both stiffness and shape make the Mori-Tanaka
    # estimate non-symmetric; the dilute estimate of the same phases is not
    rng = np.random.default_rng(5)
    phases = [matrix_phase(0.76)] + [
        spheroid_phase(f"i{k}", 0.02, axis=tuple(rng.normal(size=3)),
                       young=(1000.0, 3000.0)[k % 2], aspect=(0.35, 3.0)[k % 2])
        for k in range(12)]
    with pytest.raises(MorphologyError, match="lost major symmetry") as info:
        assemble_operators(phases, scheme="mori_tanaka")
    message = str(info.value)
    assert "differ in both stiffness and shape" in message
    assert "scheme = dilute" in message and "one material per shape" in message
    assert assemble_operators(phases, scheme="dilute").scheme == "dilute"


def test_singular_dilute_concentration_names_phase():
    # a nearly void penny crack: I + P:(C_i - C_0) has condition ~1.75e12
    phases = [matrix_phase(0.9), spheroid_phase("stiff", 0.05),
              spheroid_phase("crack", 0.05, young=1e-14, aspect=1e-12)]
    with pytest.raises(MorphologyError, match="phase 'crack'"):
        assemble_operators(phases)
    # two singular kinds: the first in phase order is named, although the
    # later one is worse conditioned (~3.5e12)
    phases = [matrix_phase(0.85),
              spheroid_phase("crack_a", 0.05, young=1e-14, aspect=1e-12),
              spheroid_phase("stiff", 0.05),
              spheroid_phase("crack_b", 0.05, axis=(1, 0, 0), young=1e-14, aspect=5e-13)]
    with pytest.raises(MorphologyError, match="phase 'crack_a'"):
        assemble_operators(phases)


# ---------------------------------------------------------------- validation

def test_phase_validation_errors():
    with pytest.raises(ValueError, match="sum"):
        validate_phases([matrix_phase(0.9), spheroid_phase("i", 0.2)])
    with pytest.raises(ValueError, match="matrix"):
        validate_phases([spheroid_phase("i", 1.0)])
    with pytest.raises(ValueError, match="matrix"):
        validate_phases([matrix_phase(0.5), matrix_phase(0.5)])
    with pytest.raises(ValueError, match="positive"):
        validate_phases([matrix_phase(1.2), spheroid_phase("i", -0.2)])


@pytest.mark.parametrize("build,match", [
    (lambda ph, ops: assemble_operators([]), "^phase list is empty$"),
    (lambda ph, ops: assemble_operators(ph[1:] + ph[:1]), "^matrix phase must come first$"),
    (lambda ph, ops: assemble_operators(ph, "bogus"), "^unknown scheme 'bogus'$"),
    (lambda ph, ops: localize(ops, np.zeros(6), np.zeros((3, 6))),
     r"^expected plastic strains of shape \(27, 6\), got \(3, 6\)$"),
], ids=["empty", "matrix-not-first", "unknown-scheme", "localize-shape"])
def test_assembly_and_localization_reject_bad_input(build, match, default_ops):
    with pytest.raises(ValueError, match=match):
        build(default_scenario().phases(), default_ops)


@pytest.mark.parametrize("aspect,axis,match", [
    (0.35, (0.0, 0.0, 0.0), "axis"),
    (0.35, (np.nan, 0.0, 1.0), "axis"),
    (0.35, (np.inf, 0.0, 0.0), "axis"),
    (np.nan, (0.0, 0.0, 1.0), "aspect ratio"),
    (0.35, (1.0, 2.0), "axis must be three numbers"),
])
def test_spheroid_rejects_degenerate_input(aspect, axis, match):
    with pytest.raises(ValueError, match=match):
        Spheroid(aspect, axis)


@pytest.mark.parametrize("axis", [(1e200, 1e200, 0.0), (1e-200, 1e-200, 0.0),
                                  (1e-160, 0.0, 0.0)])
def test_spheroid_rejects_axis_it_cannot_normalize(axis):
    # nonzero and finite, but axis . axis overflows or leaves the normal range;
    # rejected by name and without a numpy overflow warning
    with pytest.raises(ValueError, match="cannot be normalized in double precision"):
        Spheroid(0.35, axis)


@pytest.mark.parametrize("axis", [(1e150, -1e150, 0.0), (1e-150, 0.0, 1e-150)])
def test_spheroid_axis_at_extreme_scale_gives_a_rotation(axis):
    Spheroid(0.35, axis)
    r = rotation_to_axis(axis)
    assert np.abs(r.T @ r - np.eye(3)).max() < 1e-15
    assert np.allclose(r[:, 2], np.array(axis) / max(map(abs, axis)) / np.sqrt(2.0))


def test_phase_spec_rejects_bad_elasticity():
    with pytest.raises(ValueError):
        PhaseSpec("m", 1.0, -5.0, 0.25)
    with pytest.raises(ValueError):
        PhaseSpec("m", 1.0, 100.0, 0.5)


# ---------------------------------------------------------------- maps

def test_localize_elastic(default_ops):
    rng = np.random.default_rng(3)
    eps_bar = rng.normal(size=6) * 1e-3
    zeros = np.zeros((default_ops.n_phases, 6))
    eps = localize(default_ops, eps_bar, zeros)
    oracle = np.einsum("aij,j->ai", default_ops.concentration, eps_bar)
    assert np.abs(eps - oracle).max() < 1e-16


def test_localize_single_eigenstrain(default_ops):
    rng = np.random.default_rng(4)
    eps_p = np.zeros((default_ops.n_phases, 6))
    eps_p[5] = rng.normal(size=6) * 1e-3
    eps = localize(default_ops, np.zeros(6), eps_p)
    # the influence column of phase 5 written out: u_a - M_a sum_c f_c u_c with
    # u_5 = R_5 C_5 eps_p,5 the only nonzero polarization response
    u_5 = default_ops.response[5] @ default_ops.stiffness[5] @ eps_p[5]
    oracle = -default_ops.mixing @ (default_ops.fractions[5] * u_5)
    oracle[5] += u_5
    assert np.abs(eps - oracle).max() < 1e-16


def random_axis_phases(n_incl=100, seed=11, aspect=0.35):
    rng = np.random.default_rng(seed)
    f_incl = 0.3 / n_incl
    return [matrix_phase(1.0 - f_incl * n_incl)] + [
        spheroid_phase(f"i{k}", f_incl, axis=tuple(rng.normal(size=3)), aspect=aspect)
        for k in range(n_incl)]


@pytest.mark.parametrize("scheme", ["mori_tanaka", "dilute"])
@pytest.mark.parametrize("assembly", ["default", "random_axes"])
def test_uniform_eigen_stress_induces_no_strain(scheme, assembly):
    # clamped body, uniform eigen-stress tau: sigma = -tau everywhere is
    # equilibrated and compatible, so every phase strain must vanish
    phases = (default_scenario().phases() if assembly == "default"
              else random_axis_phases())
    ops = assemble_operators(phases, scheme=scheme)
    tau = np.random.default_rng(12).normal(size=6) * 0.1
    eps_p = np.linalg.solve(ops.stiffness, tau)  # C_b^-1 tau in every phase b
    eps = localize(ops, np.zeros(6), eps_p)
    assert np.abs(eps).max() <= 1e-14 * np.abs(eps_p).max()


def test_operators_store_no_dense_influence():
    ops = assemble_operators(random_axis_phases())
    for fld in dataclasses.fields(ops):
        value = getattr(ops, fld.name)
        if isinstance(value, np.ndarray):
            assert value.ndim <= 3, fld.name
    assert ".influence" not in inspect.getsource(solver_mod)
    assert not hasattr(mean_field.MeanFieldOperators, "influence")


@pytest.mark.parametrize("scheme", ["mori_tanaka", "dilute"])
def test_operator_arrays_are_read_only_and_gathered_from_the_models(scheme):
    # a plastic matrix, an elastic inclusion between plastic ones, mixed angles
    models = (DruckerPrager(0.2, 0.3), None, DruckerPrager(0.0, 0.12), None,
              DruckerPrager(0.4, 0.05, dilation_angle=0.1))
    phases = [matrix_phase(0.6, plastic=models[0])] + [
        spheroid_phase(f"incl{k}", 0.1, axis=axis, plastic=m)
        for k, (axis, m) in enumerate(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)),
                                          models[1:]))]
    ops = assemble_operators(phases, scheme=scheme)
    arrays = {fld.name: getattr(ops, fld.name) for fld in dataclasses.fields(ops)
              if isinstance(getattr(ops, fld.name), np.ndarray)}
    assert {"plastic_index", "plastic_tan_friction", "plastic_tan_dilation",
            "plastic_strength", "plastic_yield_tol"} <= set(arrays)
    for name, arr in arrays.items():
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    assert ops.plastic_index.dtype.kind == "i"
    assert ops.plastic_index.tolist() == [0, 2, 4]
    # Mori-Tanaka's mixing maps are its concentration tensors, one array
    assert (ops.mixing is ops.concentration) == (scheme == "mori_tanaka")
    table = [models[a] for a in ops.plastic_index]
    assert ops.plastic_tan_friction.tolist() == [np.tan(m.friction_angle) for m in table]
    assert ops.plastic_tan_dilation.tolist() == [np.tan(m.potential_angle) for m in table]
    assert ops.plastic_strength.tolist() == [m.shear_strength for m in table]
    assert ops.plastic_yield_tol.tolist() == [YIELD_TOL * m.shear_strength for m in table]
    # the table is the one representation: no zero-padded (n,) copies of it,
    # and the past-yield threshold is formed in the assembly alone
    names = {fld.name for fld in dataclasses.fields(ops)}
    assert not names & {"plastic", "tan_friction", "tan_dilation", "shear_strength"}
    assert not hasattr(solver_mod, "YIELD_TOL")


def test_localize_average_consistency(default_ops):
    rng = np.random.default_rng(5)
    eps_bar = rng.normal(size=6) * 1e-3
    eps_p = rng.normal(size=(default_ops.n_phases, 6)) * 1e-4
    eps = localize(default_ops, eps_bar, eps_p)
    avg = np.einsum("a,ai->i", default_ops.fractions, eps)
    assert np.abs(avg - eps_bar).max() < 1e-10


def test_upscale_elastic(default_ops):
    eps_bar = np.array([1e-3, -2e-4, 5e-4, 0, 0, 1e-4])
    zeros = np.zeros((default_ops.n_phases, 6))
    sig = upscale_stress(default_ops, eps_bar, zeros)
    assert np.abs(sig - default_ops.stiffness_hom @ eps_bar).max() < 1e-16
    assert np.abs(macro_plastic_strain(default_ops, zeros)).max() == 0.0


def test_upscale_pure_eigen_stress(default_ops):
    rng = np.random.default_rng(6)
    eps_p = rng.normal(size=(default_ops.n_phases, 6)) * 1e-4
    sig = upscale_stress(default_ops, np.zeros(6), eps_p)
    oracle = -np.einsum("a,aji,ajk,ak->i", default_ops.fractions,
                        default_ops.concentration, default_ops.stiffness, eps_p)
    assert np.abs(sig - oracle).max() < 1e-16


def test_stress_forms_agree(default_ops):
    # homogenized law in eigen-stress form vs plastic-strain form
    rng = np.random.default_rng(7)
    eps_bar = rng.normal(size=6) * 1e-3
    eps_p = rng.normal(size=(default_ops.n_phases, 6)) * 1e-4
    eigen_stress = np.einsum("a,aji,ajk,ak->i", default_ops.fractions,
                             default_ops.concentration, default_ops.stiffness, eps_p)
    sig_a = default_ops.stiffness_hom @ eps_bar - eigen_stress
    sig_b = upscale_stress(default_ops, eps_bar, eps_p)
    assert np.abs(sig_a - sig_b).max() < 1e-12


def test_macro_plastic_homogeneous_uniform():
    model = DruckerPrager(friction_angle=0.0, shear_strength=0.12)
    phases = [matrix_phase(0.7, plastic=model),
              spheroid_phase("i", 0.3, young=E0, plastic=model)]
    ops = assemble_operators(phases)
    e = np.array([1e-3, -5e-4, 2e-4, 1e-4, 0, 0])
    eps_p = np.tile(e, (2, 1))
    assert np.abs(macro_plastic_strain(ops, eps_p) - e).max() < 1e-14


def test_stress_average_identity_two_material_aligned():
    # for one inclusion material at one orientation, the concentration-weighted
    # eigen-stress upscaling agrees exactly with the volume average of the
    # localized stresses
    phases = [matrix_phase(0.75), spheroid_phase("i", 0.25, axis=(1, 2, -1))]
    ops = assemble_operators(phases)
    rng = np.random.default_rng(8)
    eps_bar = rng.normal(size=6) * 1e-3
    eps_p = rng.normal(size=(2, 6)) * 1e-4
    eps_p[0] = 0.0
    eps = localize(ops, eps_bar, eps_p)
    sig = np.einsum("aij,aj->ai", ops.stiffness, eps - eps_p)
    sig_avg = np.einsum("a,ai->i", ops.fractions, sig)
    sig_up = upscale_stress(ops, eps_bar, eps_p)
    assert np.abs(sig_avg - sig_up).max() < 1e-9


@pytest.mark.parametrize("scheme", ["mori_tanaka", "dilute"])
@pytest.mark.parametrize("aspect", [0.2, 1.0, 3.0])
def test_levin_two_material_eigen_stress(scheme, aspect):
    # Levin's theorem: with one inclusion stiffness and a uniform eigen-strain
    # per material, the macro eigen-stress and the uniform field E* follow
    # from C_hom alone, exactly for any shapes and orientations and without
    # the influence factors (the identities of ``selfcheck.levin_gaps``)
    ops = assemble_operators(random_axis_phases(n_incl=40, seed=14, aspect=aspect),
                             scheme=scheme)
    eps_1, eps_2 = np.random.default_rng(15).normal(size=(2, 6)) * 1e-3
    assert max(levin_gaps(ops, eps_1, eps_2)) <= 1e-12


def test_levin_oracles_check_the_maps_the_solver_runs(monkeypatch):
    # one copy of each macro<->phase map: the solver calls the concentration
    # product and the macro plastic strain that localize and upscale_stress,
    # and so the Levin oracles of ``revplast check``, run; a fault in either
    # fails an oracle
    assert solver_mod.concentrate is mean_field.concentrate
    assert solver_mod.macro_plastic_strain is mean_field.macro_plastic_strain
    assert not hasattr(solver_mod, "_localized")
    assert not hasattr(mean_field, "eigen_stress_hom")
    assert not hasattr(PhaseSpec, "stiffness")
    for check in (selfcheck.check_levin_uniform_field, selfcheck.check_levin_eigen_stress):
        _, residual, tol = check()
        assert residual <= tol

    def transposed(ops, macro_strain):
        return np.einsum("aji,j->ai", ops.concentration, macro_strain)

    with monkeypatch.context() as mp:
        mp.setattr(mean_field, "concentrate", transposed)
        _, residual, tol = selfcheck.check_levin_uniform_field()
        assert residual > tol
    real = mean_field.macro_plastic_strain
    monkeypatch.setattr(mean_field, "macro_plastic_strain",
                        lambda ops, plastic_strains: 2.0 * real(ops, plastic_strains))
    _, residual, tol = selfcheck.check_levin_eigen_stress()
    assert residual > tol


def distinct(ratio):
    """A modulus ratio at least 10 % away from 1."""
    return abs(np.log(ratio)) >= np.log(1.1)


# per shape: log10 of its aspect ratio and its volume fraction
SHAPES = st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(0.01, 0.2)),
                  min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(shapes=SHAPES, log_contrast=st.floats(-3.0, 3.0),
       poisson=st.tuples(st.floats(-0.4, 0.45), st.floats(-0.4, 0.45)),
       scheme=st.sampled_from(["mori_tanaka", "dilute"]), seed=st.integers(0, 2**32 - 1))
def test_levin_identities_hold_for_any_two_materials(shapes, log_contrast, poisson, scheme,
                                                     seed):
    # the Levin identities of ``selfcheck`` for a matrix and one inclusion
    # material in one to three shapes on random axes: they follow from C_hom
    # alone for any two-material assembly.  They divide by C_2 - C_1, so the
    # bulk and shear moduli each differ by 10 % at least.  A dilute assembly
    # at a large fraction can lose positive definiteness; that draw is rejected.
    nu_0, nu_1 = poisson
    young_1 = E0 * 10.0 ** log_contrast
    k_ratio = young_1 * (1 - 2 * nu_0) / (E0 * (1 - 2 * nu_1))
    mu_ratio = young_1 * (1 + nu_0) / (E0 * (1 + nu_1))
    if not (distinct(k_ratio) and distinct(mu_ratio)):
        reject()
    rng = np.random.default_rng(seed)
    phases = [PhaseSpec("matrix", 1.0 - sum(f for _, f in shapes), E0, nu_0)] + [
        PhaseSpec(f"i{k}", f, young_1, nu_1,
                  spheroid=Spheroid(10.0 ** log_aspect, tuple(rng.normal(size=3))))
        for k, (log_aspect, f) in enumerate(shapes)]
    try:
        ops = assemble_operators(phases, scheme=scheme)
    except MorphologyError:
        reject()
    eps_1, eps_2 = rng.normal(size=(2, 6)) * 1e-3
    assert max(levin_gaps(ops, eps_1, eps_2)) <= 1e-12


def test_stress_average_gap_bounded_for_default(default_ops):
    # with many orientations the two stress routes are distinct mean-field
    # estimates; they stay close but do not coincide
    rng = np.random.default_rng(9)
    eps_bar = rng.normal(size=6) * 1e-3
    eps_p = rng.normal(size=(default_ops.n_phases, 6)) * 1e-4
    eps_p[0] = 0.0
    eps = localize(default_ops, eps_bar, eps_p)
    sig = np.einsum("aij,aj->ai", default_ops.stiffness, eps - eps_p)
    sig_avg = np.einsum("a,ai->i", default_ops.fractions, sig)
    sig_up = upscale_stress(default_ops, eps_bar, eps_p)
    gap = np.abs(sig_avg - sig_up).max()
    assert gap < 1e-3
    assert gap > 0.0
