"""Material response: Drude limits, analytic derivatives, passivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polariton_lab.dispersion import swap_eps_mu
from polariton_lab.materials import (
    GAMMA_E_SILVER,
    OMEGA_E_SILVER,
    DrudeParams,
    HalfSpaceMaterial,
    d_omega_material,
    dielectric,
    eval_material,
    nimm,
    preset,
    silver,
)

# Frozen from a 50-digit evaluation of 1 - we^2/(w(w + i*ge)) at w = 0.4092*we
# with we = 1.37e16, ge = 2.73e13.
SILVER_EPS_04092 = complex(-4.9719814627711459, 0.029082042570807965)


def test_plasma_frequency_zero_crossing():
    m = HalfSpaceMaterial(DrudeParams(2.0e15, 0.0))
    assert eval_material(m, 2.0e15).epsilon == pytest.approx(0.0, abs=1e-14)


def test_high_frequency_limit():
    m = HalfSpaceMaterial(DrudeParams(2.0e15, 0.0))
    eps = eval_material(m, 1e3 * 2.0e15).epsilon
    # |eps - 1| equals (wf/w)^2 = 1e-6 exactly at this point; allow roundoff
    assert abs(eps - 1.0) < 1e-6 * (1 + 1e-9)
    assert abs(eval_material(m, 1e4 * 2.0e15).epsilon - 1.0) < 1e-6


def test_silver_preset_value():
    eps = eval_material(silver(), 0.4092 * OMEGA_E_SILVER).epsilon
    assert eps == pytest.approx(SILVER_EPS_04092, rel=1e-12)
    assert eps.real == pytest.approx(-4.97, abs=5e-3)


def test_constant_models_ignore_omega():
    m = dielectric()
    for omega in (1e13, 1e15, 1e17):
        r = eval_material(m, omega)
        assert r.epsilon == 1.3 + 0j
        assert r.mu == 1.0 + 0j


def test_nonpositive_omega_rejected():
    with pytest.raises(ValueError):
        eval_material(silver(), 0.0)
    with pytest.raises(ValueError):
        d_omega_material(silver(), -1e15)


def test_array_evaluation_matches_scalar_calls():
    omegas = np.geomspace(1e-2, 1e2, 33) * OMEGA_E_SILVER
    for m in (nimm(), silver(), dielectric()):
        r = eval_material(m, omegas)
        de, dm = d_omega_material(m, omegas)
        assert r.epsilon.shape == r.mu.shape == de.shape == dm.shape == omegas.shape
        for i, omega in enumerate(omegas):
            one = eval_material(m, float(omega))
            assert r.epsilon[i] == pytest.approx(one.epsilon, rel=1e-15)
            assert r.mu[i] == pytest.approx(one.mu, rel=1e-15)
            de1, dm1 = d_omega_material(m, float(omega))
            assert de[i] == pytest.approx(de1, rel=1e-15)
            assert dm[i] == pytest.approx(dm1, rel=1e-15)


def test_array_with_nonpositive_omega_rejected():
    with pytest.raises(ValueError):
        eval_material(nimm(), np.array([1e15, 0.0, 2e15]))
    with pytest.raises(ValueError):
        d_omega_material(nimm(), np.array([1e15, -1e15]))


def test_derivative_constant():
    de, dm = d_omega_material(dielectric(), 5e15)
    assert de == 1.3 + 0j
    assert dm == 1.0 + 0j


def test_derivative_lossless_drude_at_twice_plasma():
    m = HalfSpaceMaterial(DrudeParams(3e15, 0.0))
    de, _ = d_omega_material(m, 6e15)
    assert de == pytest.approx(1.25, rel=1e-14)


@pytest.mark.parametrize("wf,gf", [(1.37e16, 2.73e13), (6.85e15, 1e11), (2e15, 5e12)])
def test_derivative_matches_finite_difference(wf, gf):
    m = HalfSpaceMaterial(DrudeParams(wf, gf), DrudeParams(0.7 * wf, 0.3 * gf))
    for omega in np.geomspace(1e-2 * wf, 1e2 * wf, 25):
        h = 1e-6 * omega
        de, dm = d_omega_material(m, omega)
        for analytic, pick in ((de, lambda r: r.epsilon), (dm, lambda r: r.mu)):
            hi = pick(eval_material(m, omega + h)) * (omega + h)
            lo = pick(eval_material(m, omega - h)) * (omega - h)
            fd = (hi - lo) / (2 * h)
            assert abs(analytic - fd) / abs(fd) < 1e-5


def test_passivity_on_log_grid():
    m = nimm()
    wf = OMEGA_E_SILVER
    for omega in np.geomspace(1e-2 * wf, 1e2 * wf, 60):
        r = eval_material(m, omega)
        assert r.epsilon.imag >= 0
        assert r.mu.imag >= 0


def test_lossless_response_exactly_real():
    m = HalfSpaceMaterial(DrudeParams(1.37e16, 0.0), DrudeParams(6.85e15, 0.0))
    for omega in np.geomspace(1e14, 1e18, 20):
        r = eval_material(m, omega)
        assert r.epsilon.imag == 0.0
        assert r.mu.imag == 0.0


def test_presets():
    ag = preset("silver")
    assert isinstance(ag.epsilon_model, DrudeParams)
    assert ag.epsilon_model.plasma_frequency == OMEGA_E_SILVER
    assert ag.epsilon_model.loss_rate == GAMMA_E_SILVER
    assert ag.mu_model == 1.0

    nm = preset("nimm-default")
    assert isinstance(nm.mu_model, DrudeParams)
    assert nm.mu_model.plasma_frequency == pytest.approx(0.5 * OMEGA_E_SILVER)
    assert nm.mu_model.loss_rate == 1e11

    d13 = preset("dielectric-1.3")
    assert d13.epsilon_model == 1.3

    with pytest.raises(ValueError):
        preset("gold")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        DrudeParams(-1e15)
    with pytest.raises(ValueError):
        DrudeParams(1e15, -1.0)
    for eps in (0.0, -1.3):  # a constant permittivity must be positive
        with pytest.raises(ValueError):
            HalfSpaceMaterial(eps)
    with pytest.raises(ValueError):
        HalfSpaceMaterial(1.3, 0.0)


@pytest.mark.parametrize("rate", [np.nan, np.array([[1e13], [np.nan]])], ids=["scalar", "row"])
def test_nan_loss_rate_rejected(rate):
    with pytest.raises(ValueError, match="loss_rate must be non-negative"):
        DrudeParams(1e15, rate)


def test_dual_of_a_medium_with_small_constant_mu():
    # mu1 in (0, 1) is valid, so the dual medium's constant permittivity is too
    dual = swap_eps_mu(HalfSpaceMaterial(1.3, 0.5, "medium1"))
    assert (dual.epsilon_model, dual.mu_model) == (0.5, 1.3)
    assert eval_material(dual, 1e15).epsilon == 0.5 + 0j


def test_negative_loss_rate_element_rejected():
    with pytest.raises(ValueError, match="loss_rate"):
        DrudeParams(1e15, np.array([[1e11], [-1.0], [2e11]]))
    DrudeParams(1e15, np.array([[0.0], [1e11]]))  # zero is a valid rate


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(st.floats(0.0, 1e15), min_size=1, max_size=8),
    xs=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=40),
    magnetic=st.booleans(),
)
def test_batched_loss_rate_equals_per_row_calls(rates, xs, magnetic):
    omegas = np.array(xs) * OMEGA_E_SILVER
    batch = np.array(rates)[:, None]

    def medium(rate):
        pole = DrudeParams(0.5 * OMEGA_E_SILVER, rate)
        return HalfSpaceMaterial(DrudeParams(OMEGA_E_SILVER, rate), pole if magnetic else 1.0)

    r = eval_material(medium(batch), omegas)
    de, dm = d_omega_material(medium(batch), omegas)
    assert r.epsilon.shape == de.shape == (len(rates), len(xs))
    for i, rate in enumerate(rates):
        one = eval_material(medium(rate), omegas)
        de1, dm1 = d_omega_material(medium(rate), omegas)
        pairs = ((r.epsilon[i], one.epsilon), (de[i], de1))
        if magnetic:
            pairs += ((r.mu[i], one.mu), (dm[i], dm1))
        for got, want in pairs:
            assert got.tobytes() == want.tobytes()
