"""Pulse propagation: dispersionless checks, energy, grid stability, scaling."""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from polariton_lab.eit import LambdaMediumParams
from polariton_lab.errors import NumericError
from polariton_lab.propagation import (
    PropagationScenario,
    delay_slope,
    delay_vs_control,
    frequency_grid,
    layer_alpha,
    propagate_pulse,
    transfer_function,
)

V0 = 0.6269886348893801 * 299792458.0  # interface group velocity at the operating point
DT = 100e-9


def scenario(**kw):
    base = dict(
        delta_t=DT,
        x=1e-3,
        v0=V0,
        kappa31=100.0,
        alpha0=1e7,
        eit=LambdaMediumParams(),
    )
    base.update(kw)
    return PropagationScenario(**base)


def empty_layer(**kw):
    kw.setdefault("eit", LambdaMediumParams(n=0.0))
    return scenario(**kw)


def test_transfer_function_trivial_cases():
    s = empty_layer()
    h = transfer_function(s, 0.0)
    assert abs(h) == pytest.approx(math.exp(-100.0 * 1e-3), rel=1e-12)
    s0 = empty_layer(x=0.0)
    assert transfer_function(s0, 0.37e9) == 1.0


def test_transfer_function_overflow_clamped():
    with pytest.warns(UserWarning):
        s = empty_layer(kappa31=1e6, x=1e-2)
    assert transfer_function(s, 0.0) == 0


def test_transfer_magnitude_at_reference_point():
    # carrier transmission over 1 mm with the layer engaged: background loss
    # plus the tiny ground-decoherence floor
    s = scenario()
    h0 = abs(transfer_function(s, 0.0))
    assert 0.6 < h0 < 0.95
    assert h0 == pytest.approx(math.exp(-(100.0 + 0.2) * 1e-3), rel=1e-4)


def test_dispersionless_shift_and_attenuate():
    s = empty_layer()
    t, env, m = propagate_pulse(s)
    grid_step = t[1] - t[0]
    assert abs(m.delay - s.x / s.v0) < grid_step
    assert m.amp_ratio == pytest.approx(math.exp(-100.0 * 1e-3), abs=1e-6)
    assert m.width_ratio == pytest.approx(1.0, rel=1e-6)
    # the envelope is the input shifted by x/v0
    i_peak = int(np.argmax(np.abs(env)))
    assert abs(t[i_peak] - s.x / s.v0) <= grid_step


def test_energy_non_gain():
    for s in (empty_layer(), scenario()):
        t, env, _ = propagate_pulse(s)
        dt_grid = t[1] - t[0]
        energy_out = float((np.abs(env) ** 2).sum() * dt_grid)
        energy_in = DT * math.sqrt(math.pi)  # integral of exp(-t^2/dt^2)
        assert energy_out <= energy_in * (1 + 1e-12)


def test_grid_refinement_stability():
    m1 = propagate_pulse(scenario(n_nu=4096))[2]
    m2 = propagate_pulse(scenario(n_nu=8192))[2]
    assert abs(m1.delay - m2.delay) / m2.delay < 1e-4
    assert abs(m1.amp_ratio - m2.amp_ratio) / m2.amp_ratio < 1e-4


def test_delay_at_least_ballistic():
    for s in (empty_layer(), scenario()):
        t, _, m = propagate_pulse(s)
        assert m.delay >= s.x / s.v0 - (t[1] - t[0])


def test_doubling_distance_doubles_response():
    s1, s2 = scenario(x=1e-3), scenario(x=2e-3)
    for nu in (0.0, 3e6, -7e6):
        h1, h2 = transfer_function(s1, nu), transfer_function(s2, nu)
        assert 2 * math.log(abs(h1)) == pytest.approx(math.log(abs(h2)), rel=1e-10)
    m1 = propagate_pulse(s1)[2]
    m2 = propagate_pulse(s2)[2]
    eit1 = m1.delay - s1.x / s1.v0
    eit2 = m2.delay - s2.x / s2.v0
    assert eit2 == pytest.approx(2 * eit1, rel=1e-3)


def test_layer_delay_matches_reference_scenarios():
    m1 = propagate_pulse(scenario(x=1e-3))[2]
    assert m1.delay == pytest.approx(2 * DT, rel=0.01)
    assert m1.amp_ratio == pytest.approx(0.887, abs=0.01)
    m3 = propagate_pulse(scenario(x=3e-3))[2]
    assert m3.delay == pytest.approx(6 * DT, rel=0.01)
    assert m3.vg == pytest.approx(5000.0, rel=0.01)
    assert m3.l_sp == pytest.approx(5e-4, rel=0.01)


def test_delay_vs_control_inverse_square():
    sweep = delay_vs_control(scenario(), [0.5e9, 1e9, 2e9, 4e9])
    assert sweep.slope == pytest.approx(-2.0, abs=0.2)
    assert len(sweep.rows) == 4
    delays = [r.delay for r in sweep.rows]
    assert all(a > b for a, b in zip(delays, delays[1:]))


def test_single_point_sweep_has_no_fit():
    sweep = delay_vs_control(scenario(), [1e9])
    assert sweep.slope is None
    assert len(sweep.rows) == 1


def test_delay_slope_fits_positive_excess_only():
    omegas = [0.5e9, 1e9, 2e9, 4e9]
    ballistic = 1e-3 / V0
    delays = [ballistic + 3e-7 * (1e9 / om) ** 2 for om in omegas]
    assert delay_slope(omegas, delays, 1e-3, V0) == pytest.approx(-2.0, rel=1e-9)
    # points at or below the ballistic delay are left out of the fit
    delays[2] = delays[3] = ballistic
    assert delay_slope(omegas, delays, 1e-3, V0) == pytest.approx(-2.0, rel=1e-9)
    delays[1] = ballistic - 1e-9
    assert delay_slope(omegas, delays, 1e-3, V0) is None


def test_aliasing_detected():
    # ballistic shift of half the time window parks the peak on the grid edge
    s = empty_layer(kappa31=0.0, n_nu=1024)
    window = 2 * math.pi * s.n_nu / s.span
    with pytest.raises(NumericError):
        propagate_pulse(empty_layer(kappa31=0.0, n_nu=1024, x=V0 * window / 2))


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(n_nu=1000)  # not a power of two
    with pytest.raises(ValueError):
        scenario(n_nu=512)  # too small
    with pytest.raises(ValueError):
        scenario(nu_span=5.0 / DT)  # under-resolved spectrum
    with pytest.raises(ValueError):
        scenario(delta_t=-1.0)
    with pytest.warns(UserWarning):
        scenario(x=1.0)  # far beyond the background decay length


def test_centroid_close_to_peak_for_symmetric_output():
    _, _, m = propagate_pulse(empty_layer())
    assert m.centroid_delay == pytest.approx(m.t_peak, rel=1e-3)


def test_transfer_function_array_equals_scalar_calls():
    nus = np.linspace(-3 * DT**-1, 3 * DT**-1, 25)
    for s in (scenario(), empty_layer(), scenario(x=0.0), scenario(alpha0=0.0)):
        h = transfer_function(s, nus)
        assert h.shape == nus.shape
        assert h.tolist() == [transfer_function(s, float(nu)) for nu in nus]


def test_transfer_function_floors_only_the_opaque_bins():
    # Off the transparency window Re(alpha)*x is far beyond 700.
    s = scenario(alpha0=1e9)
    nus = np.array([-1e9, 0.0, 1e9])
    h = transfer_function(s, nus)
    assert h[0] == h[2] == 0
    assert h[1] != 0 and h[1] == transfer_function(s, 0.0)


@settings(max_examples=12, deadline=None)
@given(
    x=st.floats(0.0, 3e-3),
    kappa31=st.floats(0.0, 300.0),
    alpha0=st.floats(0.0, 3e7),
    omega_frac=st.floats(0.5, 4.0),
    gamma21=st.floats(0.0, 1e6),
    z0=st.floats(1e-9, 2e-8),
    delta_t=st.floats(50e-9, 200e-9),
)
def test_passive_layer_never_amplifies_the_peak(x, kappa31, alpha0, omega_frac, gamma21, z0,
                                                delta_t):
    # |H(nu)| <= 1 for a passive layer, so the output peak cannot exceed the
    # unit input peak; the FFT reproduces that peak only to rounding.
    layer = LambdaMediumParams(Omega=omega_frac * 1e9, gamma21=gamma21, z0=z0)
    s = scenario(x=x, kappa31=kappa31, alpha0=alpha0, eit=layer, delta_t=delta_t)
    try:
        m = propagate_pulse(s)[2]
    except NumericError:
        reject()  # aliased: the delayed pulse left the time window
    assert 0.0 < m.amp_ratio <= 1.0 + 1e-12


def test_precomputed_alpha_gives_the_same_pulse():
    # what the CLI does: one layer response per control amplitude, for every distance
    for x in (1e-3, 3e-3):
        s = PropagationScenario(delta_t=DT, x=x, v0=V0, kappa31=100.0, alpha0=1e7, n_nu=1024)
        alpha = layer_alpha(s.eit, s.alpha0, frequency_grid(s)[0])
        t, env, m = propagate_pulse(s)
        t2, env2, m2 = propagate_pulse(s, alpha)
        assert np.array_equal(t, t2) and m == m2
        assert np.array_equal(env.view(float), env2.view(float))
    assert layer_alpha(LambdaMediumParams(n=0.0), 1e7, np.zeros(3)) == 0.0
