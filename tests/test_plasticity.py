import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from revplast.errors import ApexSingularityError
from revplast.plasticity import (DruckerPrager, dp_direction, dp_flow,
                                 dp_flow_gradient_of, dp_yield, flow_direction,
                                 potential_direction, stress_invariants, yield_value)
from revplast.tensors import SQRT2

VM = DruckerPrager(friction_angle=0.0, shear_strength=0.12)


def test_invariants_hydrostatic():
    mean, eq = stress_invariants(np.array([2.5, 2.5, 2.5, 0, 0, 0]))
    assert mean == pytest.approx(2.5)
    assert eq == pytest.approx(0.0, abs=1e-15)


def test_invariants_uniaxial():
    t = 0.3
    mean, eq = stress_invariants(np.array([0, 0, -t, 0, 0, 0]))
    assert mean == pytest.approx(-t / 3.0)
    assert eq == pytest.approx(t)


def test_invariants_pure_shear():
    s = 0.25
    mean, eq = stress_invariants(np.array([0, 0, 0, 0, 0, SQRT2 * s]))
    assert mean == pytest.approx(0.0)
    assert eq == pytest.approx(np.sqrt(3.0) * s)


def test_von_mises_uniaxial_at_yield():
    sig = np.array([0, 0, -0.12, 0, 0, 0])
    assert yield_value(VM, sig) == pytest.approx(0.0, abs=1e-15)
    assert yield_value(VM, -sig) == pytest.approx(0.0, abs=1e-15)


def test_yield_at_zero_stress():
    assert yield_value(VM, np.zeros(6)) == pytest.approx(-0.12)


def test_frictional_hydrostatic():
    model = DruckerPrager(friction_angle=np.pi / 6.0, shear_strength=0.12)
    p = 0.8
    sig = p * np.array([1.0, 1, 1, 0, 0, 0])
    assert yield_value(model, sig) == pytest.approx(p * np.tan(np.pi / 6.0) - 0.12)


def test_flow_uniaxial_compression():
    sig = np.array([0, 0, -0.2, 0, 0, 0])
    n = flow_direction(VM, sig)
    assert n == pytest.approx([0.5, 0.5, -1.0, 0, 0, 0])
    assert n[:3].sum() == pytest.approx(0.0, abs=1e-15)


def test_flow_dilatancy_trace():
    model = DruckerPrager(friction_angle=0.3, shear_strength=0.12)
    sig = np.array([0.1, -0.05, 0.02, 0.03, 0.0, 0.01])
    n = flow_direction(model, sig)
    assert n[:3].sum() == pytest.approx(np.tan(0.3), rel=1e-13)


@pytest.mark.parametrize("friction", [0.0, 0.3])
def test_flow_matches_finite_difference(friction, rng):
    # associated flow: direction equals the yield-function gradient
    model = DruckerPrager(friction_angle=friction, shear_strength=0.12)
    step = 1e-6 * model.shear_strength
    for _ in range(100):
        sig = rng.normal(size=6) * 0.2
        if stress_invariants(sig)[1] < 1e-3:
            continue
        n = flow_direction(model, sig)
        grad = np.empty(6)
        for k in range(6):
            up, dn = sig.copy(), sig.copy()
            up[k] += step
            dn[k] -= step
            grad[k] = (yield_value(model, up) - yield_value(model, dn)) / (2 * step)
        assert np.abs(n - grad).max() < 1e-6


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.lists(st.floats(min_value=-10, max_value=10), min_size=6, max_size=6))
def test_yield_positive_homogeneity(c, entries):
    sig = np.array(entries)
    scaled_model = DruckerPrager(friction_angle=0.2, shear_strength=c * 0.12)
    model = DruckerPrager(friction_angle=0.2, shear_strength=0.12)
    left = yield_value(scaled_model, c * sig)
    right = c * yield_value(model, sig)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-12 * c)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_flow_scale_invariance(c):
    sig = np.array([0.3, -0.1, 0.05, 0.07, -0.02, 0.01])
    n1 = flow_direction(VM, sig)
    n2 = flow_direction(VM, c * sig)
    assert np.abs(n1 - n2).max() < 1e-12


def test_apex_error():
    with pytest.raises(ApexSingularityError) as info:
        flow_direction(VM, 0.5 * np.array([1.0, 1, 1, 0, 0, 0]))
    assert info.value.index == 0


def test_model_validation():
    with pytest.raises(ValueError):
        DruckerPrager(friction_angle=0.0, shear_strength=0.0)
    with pytest.raises(ValueError):
        DruckerPrager(friction_angle=-0.1, shear_strength=0.12)
    with pytest.raises(ValueError):
        DruckerPrager(friction_angle=1.8, shear_strength=0.12)


def test_non_associated_potential_accepted():
    model = DruckerPrager(friction_angle=0.4, shear_strength=0.12, dilation_angle=0.1)
    assert model.potential_angle == pytest.approx(0.1)
    sig = np.array([0.1, -0.05, 0.02, 0.03, 0.0, 0.01])
    n_yield = flow_direction(model, sig)
    n_pot = potential_direction(model, sig)
    assert n_pot[:3].sum() == pytest.approx(np.tan(0.1), rel=1e-12)
    assert not np.allclose(n_yield, n_pot)


MIXED = (DruckerPrager(0.0, 0.12), DruckerPrager(0.3, 0.2),
         DruckerPrager(0.4, 0.05, dilation_angle=0.1), DruckerPrager(1.2, 0.7))


def test_batched_kernel_matches_rows(rng):
    # one (n, 6) call with per-row parameters equals the stacked (6,) results
    sig = rng.normal(size=(len(MIXED), 6)) * 0.3
    tan_f = np.tan([m.friction_angle for m in MIXED])
    tan_g = np.tan([m.potential_angle for m in MIXED])
    s0 = np.array([m.shear_strength for m in MIXED])
    rows_f = np.array([yield_value(m, s) for m, s in zip(MIXED, sig)])
    rows_n = np.array([potential_direction(m, s) for m, s in zip(MIXED, sig)])
    rows_inv = np.array([stress_invariants(s) for s in sig])
    assert np.array_equal(dp_yield(sig, tan_f, s0), rows_f)
    assert np.array_equal(dp_flow(sig, tan_g, s0), rows_n)
    assert np.array_equal(np.column_stack(stress_invariants(sig)), rows_inv)
    # one model over a batch of stresses
    assert np.array_equal(yield_value(MIXED[1], sig),
                          [yield_value(MIXED[1], s) for s in sig])


def test_batched_flow_apex_row_raises(rng):
    sig = rng.normal(size=(4, 6)) * 0.3
    sig[2] = 0.5 * np.array([1.0, 1, 1, 0, 0, 0])
    s0 = np.full(4, 0.12)
    assert dp_yield(sig, np.zeros(4), s0).shape == (4,)  # yield values stay defined
    with pytest.raises(ApexSingularityError) as info:
        dp_flow(sig, np.zeros(4), s0)
    assert info.value.index == 2  # the first apex row
    sig[3] = sig[2]
    with pytest.raises(ApexSingularityError) as info:
        flow_direction(VM, sig)
    assert info.value.index == 2


def test_flow_gradient_matches_finite_differences(rng):
    # d n / d sig against central differences of dp_flow, per row and batched
    sig = rng.normal(size=(len(MIXED), 6)) * 0.3
    tan_g = np.tan([m.potential_angle for m in MIXED])
    s0 = np.array([m.shear_strength for m in MIXED])
    step = 1e-6
    fd = np.empty((len(MIXED), 6, 6))
    for k in range(6):
        up, dn = sig.copy(), sig.copy()
        up[:, k] += step
        dn[:, k] -= step
        fd[:, :, k] = (dp_flow(up, tan_g, s0) - dp_flow(dn, tan_g, s0)) / (2 * step)
    batched = dp_flow_gradient_of(*dp_direction(sig, s0)[1:])
    assert batched.shape == (len(MIXED), 6, 6)
    assert np.abs(batched - fd).max() < 1e-7 * np.abs(fd).max()
    for row, expected in zip(sig, batched):
        single = dp_flow_gradient_of(*dp_direction(row, 0.12)[1:])
        assert single.shape == (6, 6)
        assert np.array_equal(single, expected)
    # symmetric, and blind to pressure: dn/dsig maps the identity to zero
    assert np.abs(batched - batched.transpose(0, 2, 1)).max() < 1e-12
    assert np.abs(batched @ np.array([1.0, 1, 1, 0, 0, 0])).max() < 1e-12


def test_flow_gradient_apex_raises():
    with pytest.raises(ApexSingularityError):
        dp_direction(0.5 * np.array([1.0, 1, 1, 0, 0, 0]), 0.12)
