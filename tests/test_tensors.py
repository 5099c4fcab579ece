import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revplast.errors import IncompressibilityError, SingularOperatorError, SymmetryError
from revplast import tensors
from revplast.tensors import (IVEC, J_PROJ, K_PROJ, SQRT2, iso_stiffness,
                              rotation_operator, sym2_from_matrix, sym2_to_matrix,
                              ten4_from_tensor, ten4_inv)

from conftest import random_rotation, random_symmetric, rodrigues

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
sym_entries = st.lists(finite, min_size=6, max_size=6)


def sym_from_entries(entries):
    a, b, c, d, e, f = entries
    return np.array([[a, f, e], [f, b, d], [e, d, c]])


def test_identity_round_trip():
    v = sym2_from_matrix(np.eye(3))
    assert np.allclose(v, [1, 1, 1, 0, 0, 0])
    assert np.allclose(sym2_to_matrix(v), np.eye(3))


def test_converters_reject_wrong_shapes():
    with pytest.raises(ValueError, match=r"expected a 3x3 matrix, got shape \(2, 3\)"):
        sym2_from_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"expected a Mandel 6-vector, got shape \(7,\)"):
        sym2_to_matrix(np.arange(7.0))


def test_pure_shear_scaling():
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = 0.7
    v = sym2_from_matrix(m)
    assert v[5] == pytest.approx(SQRT2 * 0.7, abs=0.0)
    assert np.allclose(v[:5], 0.0)


@given(sym_entries)
def test_round_trip_property(entries):
    m = sym_from_entries(entries)
    back = sym2_to_matrix(sym2_from_matrix(m))
    assert np.abs(back - m).max() <= 1e-14 * max(1.0, np.abs(m).max())


@given(sym_entries, sym_entries)
@example(ea=[0, 0, 841, 7, -954, 732], eb=[2, 0, 896, 1, 961, 725])
def test_inner_product_equals_double_contraction(ea, eb):
    # the rounding error of a sum is bounded by the sum of the magnitudes of
    # its terms, not by its (possibly cancelled) value
    ma, mb = sym_from_entries(ea), sym_from_entries(eb)
    dot = float(sym2_from_matrix(ma) @ sym2_from_matrix(mb))
    full = float(np.tensordot(ma, mb))
    assert abs(dot - full) <= 1e-14 * max(1.0, float(np.abs(ma * mb).sum()))


def test_round_trip_many_random(rng):
    for _ in range(1000):
        m = random_symmetric(rng, scale=rng.uniform(0.1, 10.0))
        back = sym2_to_matrix(sym2_from_matrix(m))
        assert np.linalg.norm(back - m) < 1e-14 * max(1.0, np.linalg.norm(m))


def test_nonsymmetric_rejected():
    m = np.eye(3)
    m[0, 1] = 1e-6
    with pytest.raises(SymmetryError):
        sym2_from_matrix(m)


def test_ten4_identity_apply(rng):
    a = rng.normal(size=6)
    assert np.allclose(np.eye(6) @ a, a)


def test_ten4_inv_scalar_multiple():
    assert np.allclose(ten4_inv(2.0 * np.eye(6)), 0.5 * np.eye(6))


def test_ten4_inv_roundtrip(rng):
    t = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    assert np.abs(t @ ten4_inv(t) - np.eye(6)).max() < 1e-10


def test_ten4_inv_singular():
    t = np.zeros((6, 6))
    t[0, 0] = 1.0
    with pytest.raises(SingularOperatorError) as err:
        ten4_inv(t)
    assert err.value.condition > 1e12 or not np.isfinite(err.value.condition)
    # a batch names its first singular operator
    with pytest.raises(SingularOperatorError) as err:
        ten4_inv(np.stack([np.eye(6), 2.0 * np.eye(6), t, t]))
    assert err.value.index == 2


def test_hooke_uniaxial_strain():
    # oracle: lam*tr(eps)*I + 2*mu*eps with lam = mu = 40 MPa
    c = iso_stiffness(100.0, 0.25)
    eps = np.array([1e-3, 0, 0, 0, 0, 0])
    sig = c @ eps
    lam = mu = 40.0
    eps_m = sym2_to_matrix(eps)
    oracle = sym2_from_matrix(lam * np.trace(eps_m) * np.eye(3) + 2 * mu * eps_m)
    assert np.abs(sig - oracle).max() < 1e-15
    assert sig == pytest.approx([0.12, 0.04, 0.04, 0, 0, 0], abs=1e-15)


@pytest.mark.parametrize("young,poisson,k,mu", [
    (100.0, 0.25, 200.0 / 3.0, 40.0),
    (1000.0, 0.25, 2000.0 / 3.0, 400.0),
    (90.0, 0.0, 30.0, 45.0),
])
def test_iso_stiffness_moduli(young, poisson, k, mu):
    c = iso_stiffness(young, poisson)
    got_k, got_mu = np.tensordot(J_PROJ, c) / 3.0, np.tensordot(K_PROJ, c) / 10.0
    assert got_k == pytest.approx(k, rel=1e-14)
    assert got_mu == pytest.approx(mu, rel=1e-14)


def test_iso_stiffness_invalid():
    with pytest.raises(IncompressibilityError):
        iso_stiffness(100.0, 0.5)
    with pytest.raises(ValueError):
        iso_stiffness(-1.0, 0.25)
    with pytest.raises(ValueError):
        iso_stiffness(100.0, 0.7)


@pytest.mark.parametrize("young", [np.nan, np.inf, -np.inf])
def test_iso_stiffness_rejects_non_finite_modulus(young):
    # NaN fails every comparison, so only a positive-and-finite test rejects it
    with pytest.raises(ValueError, match=f"must be positive and finite, got {young}"):
        iso_stiffness(young, 0.25)


def test_projectors_algebra():
    j, k = J_PROJ, K_PROJ
    assert np.allclose(j + k, np.eye(6))
    assert np.abs(j @ j - j).max() < 1e-15
    assert np.abs(k @ k - k).max() < 1e-15
    assert np.abs(j @ k).max() < 1e-15
    hydro = 3.1 * IVEC
    assert np.abs(k @ hydro).max() < 1e-15
    assert np.allclose(j @ hydro, hydro)
    # the shared module constants are read-only, so no caller can change them
    assert not any(c.flags.writeable for c in (tensors.IVEC, tensors.IDENTITY,
                                               tensors.J_PROJ, tensors.K_PROJ))


def test_rotation_identity():
    assert np.abs(rotation_operator(np.eye(3)) - np.eye(6)).max() < 1e-15


def test_rotation_of_isotropic_ten4(rng):
    c = iso_stiffness(100.0, 0.3)
    q = rotation_operator(random_rotation(rng))
    assert np.abs(q @ c @ q.T - c).max() < 1e-12 * np.abs(c).max()


def test_quarter_turn_permutes_axes():
    q = rotation_operator(rodrigues([0, 0, 1], np.pi / 2.0))
    a = np.array([1.0, 0, 0, 0, 0, 0])
    assert q @ a == pytest.approx([0, 1, 0, 0, 0, 0], abs=1e-15)


def test_rotation_matches_index_notation(rng):
    # oracle: explicit R_ip R_jq a_pq and R_ip R_jq R_kr R_ls T_pqrs, one
    # batched call for the whole stack of rotations
    rs = np.stack([random_rotation(rng) for _ in range(20)])
    qs = rotation_operator(rs)
    assert qs.shape == (20, 6, 6)
    for r, q in zip(rs, qs):
        m = random_symmetric(rng)
        direct = r @ m @ r.T
        assert np.abs(sym2_to_matrix(q @ sym2_from_matrix(m)) - direct).max() < 1e-13
        t = rng.normal(size=(3, 3, 3, 3))
        t = t + t.transpose(1, 0, 2, 3) + t.transpose(0, 1, 3, 2) + t.transpose(1, 0, 3, 2)
        t_rot = np.einsum("ip,jq,kr,ls,pqrs->ijkl", r, r, r, r, t)
        got = q @ ten4_from_tensor(t) @ q.T
        assert np.abs(got - ten4_from_tensor(t_rot)).max() < 1e-12 * np.abs(t).max()


def test_rotation_norm_preserving(rng):
    q = rotation_operator(random_rotation(rng))
    a = rng.normal(size=6)
    t = rng.normal(size=(6, 6))
    assert np.linalg.norm(q @ a) == pytest.approx(np.linalg.norm(a), rel=1e-13)
    assert np.linalg.norm(q @ t @ q.T) == pytest.approx(np.linalg.norm(t), rel=1e-13)


@settings(max_examples=30)
@given(st.lists(finite, min_size=3, max_size=3), st.lists(finite, min_size=3, max_size=3),
       st.floats(min_value=0.0, max_value=6.283), st.floats(min_value=0.0, max_value=6.283))
def test_rotation_composition(ax1, ax2, ang1, ang2):
    a1, a2 = np.asarray(ax1), np.asarray(ax2)
    if np.linalg.norm(a1) < 1e-3 or np.linalg.norm(a2) < 1e-3:
        return
    r1, r2 = rodrigues(a1, ang1), rodrigues(a2, ang2)
    q1, q2 = rotation_operator(r1), rotation_operator(r2)
    t = np.arange(36.0).reshape(6, 6)
    combined = rotation_operator(r1 @ r2)
    assert np.abs(combined @ t @ combined.T - q1 @ q2 @ t @ q2.T @ q1.T).max() \
        < 1e-12 * np.abs(t).max()


@pytest.mark.parametrize("bad,match", [
    (np.diag([1.0, 1.0, -1.0]), "proper"),
    (1.01 * np.eye(3), "orthonormal"),
    (np.full((3, 3), np.nan), "orthonormal"),
    (np.eye(2), "3x3"),
])
def test_rotation_operator_rejects_non_rotations(bad, match):
    with pytest.raises(ValueError, match=match):
        rotation_operator(bad)
    # one bad slice rejects the whole batch
    if bad.shape == (3, 3):
        with pytest.raises(ValueError, match=match):
            rotation_operator(np.stack([np.eye(3), bad]))
