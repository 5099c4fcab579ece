import inspect
import re

import numpy as np
import pytest

from revplast import eshelby, tensors
from revplast.errors import MorphologyError
from revplast.eshelby import (eshelby_tensor, eshelby_tensor_quadrature,
                              hill_tensor, hill_tensor_quadrature,
                              sphere_eshelby_coefficients)
from revplast.tensors import (J_PROJ, K_PROJ, is_major_symmetric, iso_stiffness,
                              ten4_inv)


def test_sphere_classical_coefficients():
    alpha, beta = sphere_eshelby_coefficients(0.25)
    assert alpha == pytest.approx(5.0 / 9.0, abs=1e-15)
    assert beta == pytest.approx(22.0 / 45.0, abs=1e-15)
    s = eshelby_tensor(1.0, 0.25)
    assert np.abs(s - (alpha * J_PROJ + beta * K_PROJ)).max() < 1e-10


def test_sphere_against_quadrature():
    s = eshelby_tensor(1.0, 0.25)
    s_quad = eshelby_tensor_quadrature(1.0, 0.25, n_polar=128)
    assert np.abs(s - s_quad).max() < 1e-12


def test_paper_aspect_ratio_against_quadrature():
    s = eshelby_tensor(0.35, 0.25)
    s_quad = eshelby_tensor_quadrature(0.35, 0.25)
    assert np.abs(s - s_quad).max() < 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_random_pairs_against_quadrature(seed):
    # 20 random (aspect, poisson) pairs across the seeds
    rng = np.random.default_rng(1000 + seed)
    for _ in range(5):
        aspect = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        poisson = float(rng.uniform(0.0, 0.45))
        s = eshelby_tensor(aspect, poisson)
        s_quad = eshelby_tensor_quadrature(aspect, poisson)
        assert np.abs(s - s_quad).max() < 1e-8


def test_transverse_isotropy_structure():
    s = eshelby_tensor(0.35, 0.25)
    assert s[0, 0] == pytest.approx(s[1, 1], rel=1e-14)
    assert s[0, 2] == pytest.approx(s[1, 2], rel=1e-14)
    assert s[2, 0] == pytest.approx(s[2, 1], rel=1e-14)
    assert s[3, 3] == pytest.approx(s[4, 4], rel=1e-14)
    # in-plane shear tied to the normal block
    assert s[5, 5] == pytest.approx(s[0, 0] - s[0, 1], rel=1e-12)
    # couplings outside the transversely isotropic pattern vanish
    mask = np.ones((6, 6), dtype=bool)
    mask[:3, :3] = False
    mask[3, 3] = mask[4, 4] = mask[5, 5] = False
    assert np.abs(s[mask]).max() == 0.0


def test_continuity_through_sphere():
    s1 = eshelby_tensor(1.0, 0.25)
    for aspect in (1.0 - 1e-4, 1.0 + 1e-4):
        assert np.linalg.norm(eshelby_tensor(aspect, 0.25) - s1) < 1e-3


@pytest.mark.parametrize("aspect", [1.0 - 5e-4, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 + 5e-4])
def test_series_window_against_quadrature(aspect):
    # in the series window the quadrature oracle is the accuracy reference
    s = eshelby_tensor(aspect, 0.3)
    s_quad = eshelby_tensor_quadrature(aspect, 0.3, n_polar=256)
    assert np.abs(s - s_quad).max() < 1e-10


def test_hill_sphere_closed_form():
    alpha, beta = sphere_eshelby_coefficients(0.25)
    k, mu = 200.0 / 3.0, 40.0
    p = hill_tensor(1.0, 100.0, 0.25)
    oracle = (alpha / (3 * k)) * J_PROJ + (beta / (2 * mu)) * K_PROJ
    assert np.abs(p - oracle).max() < 1e-15


def test_hill_major_symmetry_and_quadrature():
    p = hill_tensor(0.35, 100.0, 0.25)
    assert is_major_symmetric(p, tol=1e-12)
    p_quad = hill_tensor_quadrature(0.35, 100.0, 0.25)
    assert np.abs(p - p_quad).max() < 1e-10


def test_both_routes_describe_the_matrix_by_young_and_poisson():
    # the closed form takes the matrix as the quadrature does; no helper turns
    # a stiffness back into moduli
    def head(f):
        return list(inspect.signature(f).parameters)[:3]
    assert head(hill_tensor) == head(hill_tensor_quadrature) == ["aspect_ratio", "young",
                                                                 "poisson"]
    assert not hasattr(eshelby, "_isotropic_moduli")
    assert not any(hasattr(tensors, name) for name in ("bulk_shear_moduli", "iso_projectors"))


def test_hill_positive_definite():
    for aspect in (0.05, 0.35, 1.0, 3.0):
        for poisson in (0.0, 0.25, 0.45):
            eigs = np.linalg.eigvalsh(hill_tensor(aspect, 100.0, poisson))
            assert eigs.min() > 0.0


def test_invalid_inputs():
    with pytest.raises(ValueError):
        eshelby_tensor(-0.5, 0.25)
    with pytest.raises(ValueError):
        eshelby_tensor(0.35, 0.6)
    # the closed forms over- or underflow: a typed error naming the aspect ratio
    for aspect in (1e-300, 1e-200, 1e-160, 1e150, 1e200):
        with pytest.raises(MorphologyError, match=re.escape(f"aspect ratio {aspect!r}")):
            hill_tensor(aspect, 100.0, 0.25)


def test_quadrature_scale_invariance():
    # S = P : C0 does not depend on the modulus scale used for P
    s = eshelby_tensor_quadrature(0.7, 0.2, n_polar=128)
    p = hill_tensor_quadrature(0.7, 100.0, 0.2, n_polar=128)
    assert np.abs(s - p @ iso_stiffness(100.0, 0.2)).max() < 1e-12
