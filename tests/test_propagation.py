"""Pulse propagation: dispersionless checks, energy, grid stability, scaling."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from _pulse_oracle import propagate_pair

from polariton_lab.eit import LambdaMediumParams
from polariton_lab.errors import NumericError
from polariton_lab.propagation import (
    PropagationScenario,
    delay_slope,
    delay_vs_control,
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


@settings(max_examples=30, deadline=None)
@given(
    xs=st.one_of(st.floats(0.0, 3e-3), st.lists(st.floats(0.0, 3e-3), min_size=1, max_size=3)),
    omega_fracs=st.lists(st.floats(0.0, 4.0), max_size=3),
    kappa31=st.sampled_from([0.0, 100.0]),
    alpha0=st.sampled_from([0.0, 1e7, 3e7]),
    b=st.one_of(st.sampled_from([0.3, 1.0, 2.0]), st.floats(0.05, 10.0)),
    gamma21=st.sampled_from([0.0, 1e3]),
    z0=st.one_of(st.floats(1e-8, 1e-5), st.just(math.inf)),
)
@example(xs=[1e-3, 3e-3], omega_fracs=[0.5, 4.0], kappa31=0.0, alpha0=3e7, b=0.3, gamma21=0.0,
         z0=math.inf)
def test_transfer_function_conjugation_is_bitwise(xs, omega_fracs, kappa31, alpha0, b, gamma21,
                                                  z0):
    # H(-nu) = conj H(nu) exactly, over detunings whose 2F1 arguments sweep
    # the series disc, the ring and |z| > 1.25: the mirror propagate_pulse takes
    x = np.array(xs)[:, None] if isinstance(xs, list) else xs
    omega = np.array(omega_fracs + [0.0]) * 1e9  # the control-off limit too
    s = scenario(x=x, kappa31=kappa31, alpha0=alpha0,
                 eit=LambdaMediumParams(Omega=omega, k1s=b * 1e6, gamma21=gamma21, z0=z0))
    nu = 1e9 * np.geomspace(1e-6, 1e3, 160)
    minus, plus = transfer_function(s, -nu), transfer_function(s, nu)
    assert np.array_equal(minus.real, plus.real)
    assert np.array_equal(minus.imag, -plus.imag)


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
    m, slope = delay_vs_control(scenario(), [0.5e9, 1e9, 2e9, 4e9])
    assert slope == pytest.approx(-2.0, abs=0.2)
    assert m.delay.shape == m.amp_ratio.shape == (4,)
    assert np.all(np.diff(m.delay) < 0)


def test_single_point_sweep_has_no_fit():
    m, slope = delay_vs_control(scenario(), [1e9])
    assert slope is None
    assert m.delay.shape == (1,)


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
    # on a grid, the error names the first aliased (x, Omega) pair
    xs = np.array([1e-3, V0 * window / 2, V0 * window / 2])[:, None]
    grid = empty_layer(kappa31=0.0, n_nu=1024, x=xs,
                       eit=LambdaMediumParams(n=0.0, Omega=np.array([1e9, 2e9])))
    prefix = ("output envelope does not decay at the time-grid edges; "
              "increase n_nu or shrink nu_span")
    with pytest.raises(NumericError, match=f"^{prefix}") as err:
        propagate_pulse(grid)
    assert f"(x = {xs[1, 0]:.6g} m, Omega = 1e+09 rad/s)" in str(err.value)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(n_nu=1000)  # not a power of two
    with pytest.raises(ValueError):
        scenario(n_nu=512)  # too small
    with pytest.raises(ValueError):
        scenario(nu_span=5.0 / DT)  # under-resolved spectrum
    with pytest.raises(ValueError):
        scenario(delta_t=-1.0)
    with pytest.warns(UserWarning) as record:
        scenario(x=1.0)  # far beyond the background decay length
    assert record[0].filename == __file__  # the caller, not the generated __init__
    with pytest.raises(ValueError):
        scenario(x=np.array([1e-3, -1e-3]))
    with pytest.raises(ValueError):  # x and Omega do not broadcast
        scenario(x=np.array([1e-3, 2e-3]), eit=LambdaMediumParams(Omega=np.array([1e9] * 3)))


@pytest.mark.parametrize(
    "kw",
    [{"x": math.nan}, {"x": np.array([1e-3, math.nan])}, {"kappa31": math.nan}],
    ids=["x", "x-element", "kappa31"],
)
def test_nan_distance_or_background_loss_rejected(kw):
    with pytest.raises(ValueError, match="must be non-negative"):
        scenario(**kw)


def test_centroid_close_to_peak_for_symmetric_output():
    _, _, m = propagate_pulse(empty_layer())
    assert m.centroid_delay == pytest.approx(m.delay, rel=1e-3)


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


def _aliased_alone(pair):
    try:
        propagate_pair(pair)
    except NumericError:
        return True
    return False


def _assert_grid_equals_per_pair_oracle(s):
    xs, omegas = np.broadcast_arrays(s.x, s.eit.Omega)
    pairs = {
        idx: replace(s, x=float(xs[idx]), eit=replace(s.eit, Omega=float(omegas[idx])))
        for idx in np.ndindex(s.shape)
    }
    try:
        t, env, m = propagate_pulse(s)
    except NumericError as exc:
        # an aliased grid fails where a pair fails alone, naming the first such pair
        first = next((p for p in pairs.values() if _aliased_alone(p)), None)
        assert first is not None, exc
        assert f"(x = {first.x:.6g} m, Omega = {first.eit.Omega:.6g} rad/s)" in str(exc)
        return
    assert env.shape == s.shape + (s.n_nu,)
    if not s.shape:
        assert all(type(getattr(m, name)) is float for name in vars(m))
    for idx, pair in pairs.items():
        t1, env1, m1 = propagate_pair(pair)
        assert t.view(float).tobytes() == t1.view(float).tobytes()
        assert env[idx].view(float).tobytes() == env1.view(float).tobytes(), idx
        for name, value in m1.items():
            got = np.float64(np.asarray(getattr(m, name))[idx])
            assert got.view(float).tobytes() == np.float64(value).view(float).tobytes(), (name, idx)


_CONTROL_SWEEP = dict(xs=[1e-3, 3e-3], omegas=[0.5e9, 1e9, 2e9, 4e9], kappa31=100.0,
                      alpha0=1e7, b=1.0, n_nu=4096, delta_t=DT, nu_span=None)


@settings(max_examples=25, deadline=None)
@given(
    xs=st.one_of(st.floats(0.0, 3e-3), st.lists(st.floats(0.0, 3e-3), min_size=1, max_size=3)),
    omegas=st.one_of(st.floats(0.5e9, 4e9),
                     st.lists(st.floats(0.5e9, 4e9), min_size=1, max_size=4)),
    kappa31=st.sampled_from([0.0, 100.0]),
    alpha0=st.sampled_from([0.0, 1e7, 3e7]),
    b=st.sampled_from([0.3, 1.0, 1.5, 2.0]),
    n_nu=st.just(1024),
    # nu_span in units of 1/delta_t; a grid edge past Omega reaches the 2F1
    # ring and series disc, not only |z| > 1.25
    delta_t=st.floats(1e-8, 1e-7),
    nu_span=st.one_of(st.none(), st.floats(10.0, 400.0)),
)
@example(**_CONTROL_SWEEP)  # 2 x 4 x 4096 complex: 512 KiB, past numpy's in-place reuse
@example(xs=[1e-3, 3e-3], omegas=[1e9, 0.5e9], kappa31=0.0, alpha0=3e7, b=1.0,
         n_nu=1024, delta_t=DT, nu_span=None)  # one aliased pair, (3e-3, 0.5e9)
@example(xs=[1e-3, 2e-3], omegas=[1e9, 4e9], kappa31=100.0, alpha0=3e7, b=0.3,
         n_nu=1024, delta_t=1e-8, nu_span=40.0)  # b < 1/2: the 1/z formula's m = 0 branch
@example(xs=[1e-3, 2e-3], omegas=[2e9, 4e9], kappa31=0.0, alpha0=1e7, b=2.0,
         n_nu=1024, delta_t=1e-8, nu_span=100.0)  # b = 2 in every 2F1 region
def test_grid_pulse_bit_equals_per_pair_oracle(xs, omegas, kappa31, alpha0, b, n_nu, delta_t,
                                               nu_span):
    # One pass over the (x, Omega) grid gives every pulse and metric that a
    # run of its pair alone gives, bit for bit; the pass mirrors the layer
    # response of its nu <= 0 half, the oracle evaluates every bin.
    x = np.array(xs) if isinstance(xs, list) else xs
    omega = np.array(omegas) if isinstance(omegas, list) else omegas
    if np.ndim(x) and np.ndim(omega):
        x = x[:, None]  # distances down, control amplitudes across
    s = scenario(x=x, kappa31=kappa31, alpha0=alpha0, n_nu=n_nu, delta_t=delta_t,
                 nu_span=None if nu_span is None else nu_span / delta_t,
                 eit=LambdaMediumParams(Omega=omega, k1s=b * 1e6))
    _assert_grid_equals_per_pair_oracle(s)
