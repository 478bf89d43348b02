"""Interface dispersion: oracle agreement, branch rules, abyss location."""

import math

import mpmath as mp
import numpy as np
import pytest
from _abyss_oracle import check_against_oracle, find_abyss_per_row
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from polariton_lab.dispersion import (
    AbyssNotFoundError,
    Polarization,
    find_abyss,
    group_velocity,
    loss_cancellation_residual,
    polarization_support,
    sp_wavevector,
    swap_eps_mu,
)
from polariton_lab.materials import (
    OMEGA_E_SILVER,
    DrudeParams,
    HalfSpaceMaterial,
    d_omega_material,
    dielectric,
    eval_material,
    nimm,
    silver,
)

C = 299792458.0
WE = OMEGA_E_SILVER

mp.mp.dps = 50


def _mp_k(w, gamma_m=1e11, metal=False, pol=Polarization.TM):
    """Independent high-precision interface wave vector at ``w`` (rad/s, an mpf)."""
    we = mp.mpf("1.37e16")
    e1, u1 = mp.mpf("1.3"), mp.mpf(1)
    e2 = 1 - we**2 / (w * (w + 1j * mp.mpf("2.73e13")))
    u2 = mp.mpf(1) if metal else 1 - (we / 2) ** 2 / (w * (w + 1j * mp.mpf(repr(gamma_m))))
    a1, a2, b1, b2 = (e1, e2, u1, u2) if pol is Polarization.TM else (u1, u2, e1, e2)
    s = mp.sqrt(a1 * a2 * (a2 * b1 - a1 * b2) / (a2**2 - a1**2))
    if mp.re(s) < 0:
        s = -s
    return (w / mp.mpf(repr(C))) * s


def _mp_wavevector(x, gamma_m=1e11, metal=False):
    """Independent high-precision evaluation of the TM wave vector at ``x`` omega_e."""
    return complex(_mp_k(mp.mpf(repr(x)) * mp.mpf("1.37e16"), gamma_m, metal))


def test_wavevector_matches_high_precision_oracle():
    m1, m2 = dielectric(), nimm()
    for x in np.linspace(0.3, 0.5, 41):
        dp = sp_wavevector(m1, m2, x * WE)
        ref = _mp_wavevector(float(x))
        assert abs(dp.k_parallel - ref) / abs(ref) < 1e-8


def test_metal_interface_bound_with_positive_loss():
    m1, m2 = dielectric(), silver()
    omega_sp = WE / math.sqrt(1 + 1.3)
    for x in np.linspace(0.05, 0.95, 19):
        dp = sp_wavevector(m1, m2, x * omega_sp)
        assert dp.bound
        assert dp.kappa > 0


def test_lossless_real_radicand_gives_zero_kappa():
    m1 = dielectric()
    m2 = HalfSpaceMaterial(DrudeParams(WE, 0.0), DrudeParams(0.5 * WE, 0.0))
    dp = sp_wavevector(m1, m2, 0.45 * WE)
    assert dp.kappa == 0.0
    assert dp.bound


def test_transverse_constants_satisfy_definitions():
    from polariton_lab.materials import eval_material

    m1, m2 = dielectric(), nimm()
    for x in (0.35, 0.4092, 0.45):
        omega = x * WE
        dp = sp_wavevector(m1, m2, omega)
        k2_sq = dp.k_parallel**2
        w_c2 = (omega / C) ** 2
        r1 = eval_material(m1, omega)
        r2 = eval_material(m2, omega)
        res1 = dp.k1**2 - (k2_sq - w_c2 * r1.epsilon * r1.mu)
        res2 = dp.k2**2 - (k2_sq - w_c2 * r2.epsilon * r2.mu)
        scale = abs(k2_sq) + w_c2 * max(abs(r1.epsilon * r1.mu), abs(r2.epsilon * r2.mu))
        assert abs(res1) <= 1e-10 * scale
        assert abs(res2) <= 1e-10 * scale


def test_boundary_condition_residual_on_bound_points():
    cases = [
        (dielectric(), nimm(), np.linspace(0.40916, 0.4999, 30), Polarization.TM),
        (dielectric(), silver(), np.linspace(0.05, 0.6, 30), Polarization.TM),
        (dielectric(), nimm(), np.linspace(0.37, 0.49, 30), Polarization.TE),
    ]
    found_bound = 0
    for m1, m2, grid, pol in cases:
        for x in grid:
            dp = sp_wavevector(m1, m2, float(x) * WE, pol)
            if dp.bound:
                found_bound += 1
                assert dp.bc_residual < 1e-8
    assert found_bound > 50


def test_tm_te_duality():
    m1, m2 = dielectric(), nimm()
    d1, d2 = swap_eps_mu(m1), swap_eps_mu(m2)
    for x in np.linspace(0.31, 0.49, 25):
        te = sp_wavevector(m1, m2, x * WE, Polarization.TE)
        tm = sp_wavevector(d1, d2, x * WE, Polarization.TM)
        assert abs(te.k_parallel - tm.k_parallel) <= 1e-12 * abs(tm.k_parallel)
        assert abs(te.k1 - tm.k1) <= 1e-12 * abs(tm.k1)
        assert abs(te.k2 - tm.k2) <= 1e-12 * abs(tm.k2)
        assert te.bound == tm.bound


def test_passivity_of_bound_tm_modes():
    # The forward TM branch below the cancellation frequency fails the
    # matching condition (backward-wave region) and is flagged unbound, so
    # every bound TM point must carry non-negative loss.
    for m2 in (nimm(), silver()):
        for x in np.linspace(0.05, 0.55, 40):
            dp = sp_wavevector(dielectric(), m2, x * WE)
            if dp.bound:
                assert dp.kappa >= -1e-12 * dp.k_par


def test_polarization_support_cases():
    assert polarization_support(dielectric(), silver(), 0.41 * WE) == {Polarization.TM}
    both = polarization_support(dielectric(), nimm(), 0.4092 * WE)
    assert both == {Polarization.TM, Polarization.TE}


@pytest.mark.filterwarnings("error")
def test_degenerate_interface_has_no_mode():
    vac1 = HalfSpaceMaterial(1.0, 1.0)
    vac2 = HalfSpaceMaterial(1.0, 1.0)
    dp = sp_wavevector(vac1, vac2, 0.4 * WE)
    assert math.isnan(dp.k_par) and math.isnan(dp.kappa)
    assert dp.bound is False
    assert polarization_support(vac1, vac2, 0.4 * WE) == set()


# A lossless magnetic pole: mu2 = -1 = -mu1 at WS, so TE is degenerate there.
MAGNETIC_POLE = HalfSpaceMaterial(DrudeParams(WE, 2.73e13), DrudeParams(0.5 * WE, 0.0))
WS = 0.5 * WE / math.sqrt(2.0)


@pytest.mark.filterwarnings("error")
def test_degenerate_element_is_the_only_unbound_one():
    m1 = HalfSpaceMaterial(1.3, 1.0)
    omegas = np.array([1.1 * WS, WS, 0.45 * WE, 0.49 * WE])
    band = sp_wavevector(m1, MAGNETIC_POLE, omegas, Polarization.TE)
    assert band.bound.tolist() == [True, False, True, True]
    assert np.isnan(band.kappa).tolist() == [False, True, False, False]
    for i in (0, 2, 3):
        one = sp_wavevector(m1, MAGNETIC_POLE, float(omegas[i]), Polarization.TE)
        assert band.k_parallel[i] == one.k_parallel


@pytest.mark.filterwarnings("error")
def test_abyss_search_steps_over_a_degenerate_scan_point():
    # The first point of the coarse scan is degenerate, and its NaN is never
    # the minimum; starting the band just above it finds the same minimum.
    m1 = HalfSpaceMaterial(1.3, 1.0)
    got = find_abyss(m1, MAGNETIC_POLE, (WS, 0.6 * WE), Polarization.TE)
    ref = find_abyss(m1, MAGNETIC_POLE, (1.001 * WS, 0.6 * WE), Polarization.TE)
    assert WS < got.omega0 < 0.6 * WE and math.isfinite(got.kappa_at_omega0)
    assert abs(got.omega0 - ref.omega0) <= 1e-9 * ref.omega0
    # a batch whose ratio-0 row is MAGNETIC_POLE meets the per-row oracle
    expected = _check_batch_against_oracle(
        m1, [0.0, 1e-3, 1e-1], 0.5 * WE, (WS, 0.6 * WE), Polarization.TE
    )
    assert None not in expected


def test_group_velocity_error_names_the_first_unbound_point():
    omegas = np.linspace(0.05, 0.95, 512) * WE
    unbound = ~sp_wavevector(dielectric(), nimm(), omegas).bound
    with pytest.raises(ValueError) as err:
        group_velocity(dielectric(), nimm(), omegas)
    message = str(err.value)
    assert len(message) < 120
    assert f"omega = {omegas[unbound][0]:.3g} " in message
    assert f"({np.count_nonzero(unbound)} of 512 points unbound)" in message


def test_group_velocity_step_halving_consistency():
    m1, m2 = dielectric(), nimm()
    omega = 0.4092 * WE

    def k_par(w):
        return sp_wavevector(m1, m2, w).k_par

    h = 1e-5 * omega
    d_h = (k_par(omega + h) - k_par(omega - h)) / (2 * h)
    d_h2 = (k_par(omega + h / 2) - k_par(omega - h / 2)) / h
    assert abs(d_h - d_h2) / abs(d_h2) < 1e-4

    v0 = group_velocity(m1, m2, omega)
    assert v0 == pytest.approx(1.0 / d_h2, rel=1e-5)
    assert 0 < v0 < C


def test_group_velocity_matches_high_precision_derivative():
    def k_par_mp(x):
        we = mp.mpf("1.37e16")
        w = x * we
        e1 = mp.mpf("1.3")
        e2 = 1 - we**2 / (w * (w + 1j * mp.mpf("2.73e13")))
        m2 = 1 - (we / 2) ** 2 / (w * (w + 1j * mp.mpf("1e11")))
        s = mp.sqrt(e1 * e2 * (e2 - e1 * m2) / (e2**2 - e1**2))
        if mp.re(s) < 0:
            s = -s
        return mp.re(w / mp.mpf(repr(C)) * s)

    x0 = mp.mpf("0.4092")
    deriv = mp.diff(k_par_mp, x0) / mp.mpf("1.37e16")  # dk_par/domega
    v_ref = float(1 / deriv)
    v0 = group_velocity(dielectric(), nimm(), 0.4092 * OMEGA_E_SILVER)
    assert v0 == pytest.approx(v_ref, rel=1e-6)


def test_group_velocity_array_equals_scalar_calls():
    m1, m2 = dielectric(), nimm()
    grid = np.linspace(0.3, 0.5, 64) * WE
    for pol in Polarization:
        bound = sp_wavevector(m1, m2, grid, pol).bound
        assert bound.any() and not bound.all()
        v0 = group_velocity(m1, m2, grid[bound], pol)
        scalar = [group_velocity(m1, m2, float(w), pol) for w in grid[bound]]
        np.testing.assert_allclose(v0, scalar, rtol=1e-12, atol=0.0)
        with pytest.raises(ValueError):
            group_velocity(m1, m2, grid, pol)  # any unbound point rejects the array


def test_group_velocity_requires_bound_mode():
    with pytest.raises(ValueError):
        group_velocity(dielectric(), nimm(), 0.405 * WE)  # backward-wave region


def test_find_abyss_location_and_depth():
    result = find_abyss(dielectric(), nimm(), (0.3 * WE, 0.5 * WE))
    assert result.omega0 / WE == pytest.approx(0.4092, abs=5e-4)
    # frozen from the high-precision zero of kappa(omega)
    assert result.omega0 / WE == pytest.approx(0.409159855377333, rel=1e-8)
    assert abs(result.kappa_at_omega0) < 1e-3
    assert result.is_cancellation
    assert result.residual < 0.05


@pytest.mark.parametrize(
    "pol, band", [(Polarization.TM, (0.3, 0.5)), (Polarization.TE, (0.45, 0.55))]
)
def test_find_abyss_is_the_high_precision_root(pol, band):
    # TM: kappa changes sign at the minimum; TE: a smooth minimum, dkappa/dw = 0
    result = find_abyss(dielectric(), nimm(), (band[0] * WE, band[1] * WE), pol)

    def kappa(w):
        return mp.im(_mp_k(w, pol=pol))

    f = kappa if pol is Polarization.TM else (lambda w: mp.diff(kappa, w))
    root = mp.findroot(f, mp.mpf(result.omega0))
    assert abs(mp.mpf(result.omega0) / root - 1) < 1e-14


def test_find_abyss_grid_stability():
    # two search bands, so two coarse scans, around one minimum
    wide = find_abyss(dielectric(), nimm(), (0.3 * WE, 0.5 * WE))
    narrow = find_abyss(dielectric(), nimm(), (0.37 * WE, 0.43 * WE))
    assert abs(wide.omega0 - narrow.omega0) / narrow.omega0 < 1e-13


@pytest.mark.parametrize(
    "gamma_m, pol, band",
    [(g, Polarization.TM, (0.3, 0.5)) for g in (2.73e8, 2.73e10, 2.73e12, 1.365e13)]
    + [(1e11, Polarization.TE, (0.45, 0.55))],  # a minimum with no sign change
)
def test_find_abyss_matches_golden_section(gamma_m, pol, band):
    from scipy.optimize import minimize_scalar

    m1, m2 = dielectric(), nimm(gamma_m=gamma_m)
    grid = np.linspace(band[0] * WE, band[1] * WE, 512)
    i = int(np.argmin(np.abs(sp_wavevector(m1, m2, grid, pol).kappa)))
    golden = minimize_scalar(
        lambda w: abs(sp_wavevector(m1, m2, w, pol).kappa),
        bracket=(grid[i - 1], grid[i], grid[i + 1]),
        method="golden",
        options={"xtol": 1e-9},
    )
    result = find_abyss(m1, m2, (band[0] * WE, band[1] * WE), pol)
    assert result.omega0 == pytest.approx(golden.x, rel=1e-9)
    assert abs(result.kappa_at_omega0) <= golden.fun * (1 + 1e-12)


def test_find_abyss_metal_has_no_cancellation():
    with pytest.raises(AbyssNotFoundError):
        find_abyss(dielectric(), silver(), (0.3 * WE, 0.5 * WE))
    # even at the NIMM cancellation frequency the metal residual is total
    assert loss_cancellation_residual(dielectric(), silver(), 0.40916 * WE) > 0.5


@pytest.mark.parametrize("ratio", [1e-5, 1e-3, 1e-1, 0.5])
def test_abyss_tracks_valley_of_loss_surface(ratio):
    gamma_m = ratio * 2.73e13
    m1, m2 = dielectric(), nimm(gamma_m=gamma_m)
    result = find_abyss(m1, m2, (0.3 * WE, 0.5 * WE))
    # brute-force grid minimum as the oracle
    grid = np.linspace(0.3 * WE, 0.5 * WE, 2048)
    kappas = np.array([abs(sp_wavevector(m1, m2, w).kappa) for w in grid])
    assert abs(result.kappa_at_omega0) <= kappas.min() + 1e-12
    i = int(np.argmin(kappas))
    assert abs(result.omega0 - grid[i]) <= 2 * (grid[1] - grid[0])


@settings(max_examples=20, deadline=None)
@given(log_ratio=st.floats(-3.5, -0.5))
def test_tm_kappa_changes_sign_across_abyss(log_ratio):
    # gamma_m/gamma_e from 3e-4 to 0.3: every abyss in this range cancels
    m1, m2 = dielectric(), nimm(gamma_m=10.0**log_ratio * 2.73e13)
    result = find_abyss(m1, m2, (0.3 * WE, 0.5 * WE))
    assert result.is_cancellation
    for step in (1e-9, 1e-6, 1e-4):
        below, above = sp_wavevector(m1, m2, result.omega0 * np.array([1 - step, 1 + step])).kappa
        assert below * above < 0, (step, below, above)


def test_lossless_limit_continuity():
    m1 = dielectric()
    for x in (0.45, 0.47, 0.49):
        omega = x * WE
        previous = math.inf
        for scale in (1e-3, 1e-6, 1e-9):
            m2 = HalfSpaceMaterial(
                DrudeParams(WE, scale * 2.73e13),
                DrudeParams(0.5 * WE, scale * 1e11),
            )
            dp = sp_wavevector(m1, m2, omega)
            assert dp.bound
            assert abs(dp.kappa) < previous
            assert abs(dp.kappa) < 10 * scale * 1e4  # linear-in-loss decay scale
            previous = abs(dp.kappa)
        lossless = HalfSpaceMaterial(DrudeParams(WE, 0.0), DrudeParams(0.5 * WE, 0.0))
        dp0 = sp_wavevector(m1, lossless, omega)
        assert dp0.bound
        assert abs(dp0.kappa) < 1e-12 * dp0.k_par


_MEDIUM2 = st.one_of(
    st.just(silver()),
    st.builds(dielectric, st.floats(1.0, 12.0)),
    st.builds(
        nimm,
        gamma_m=st.floats(1e6, 1e14),
        omega_m=st.floats(0.05 * WE, 1.5 * WE),
    ),
)


@settings(max_examples=80, deadline=None)
@given(
    eps1=st.floats(1.0, 4.0),
    m2=_MEDIUM2,
    pol=st.sampled_from(Polarization),
    xs=st.lists(st.floats(0.02, 1.5), min_size=1, max_size=24),
)
def test_array_wavevector_equals_scalar_calls(eps1, m2, pol, xs):
    m1 = dielectric(eps1)
    omegas = np.array(xs) * WE
    band = sp_wavevector(m1, m2, omegas, pol)
    assert band.k_par.shape == omegas.shape
    for i, w in enumerate(omegas):
        dp = sp_wavevector(m1, m2, float(w), pol)
        # A degenerate frequency is NaN in the array exactly where it is
        # NaN in the scalar call.
        assert math.isnan(band.kappa[i]) == math.isnan(dp.kappa)
        if math.isnan(dp.kappa):
            assert not band.bound[i] and not dp.bound
            continue
        pairs = ((band.k_parallel[i], dp.k_parallel), (band.k1[i], dp.k1), (band.k2[i], dp.k2))
        for got, want in pairs:
            assert abs(got - want) <= 1e-12 * abs(want)
        assert bool(band.bound[i]) == dp.bound


def _tm_residual_unit_mu1(m1, m2, omega):
    """The TM residual with mu1 = 1 hard-wired, as it was before it took ``pol``."""
    r1, r2 = eval_material(m1, omega), eval_material(m2, omega)
    e1 = r1.epsilon.real
    er, ei = r2.epsilon.real, r2.epsilon.imag
    mr, mi = r2.mu.real, r2.mu.imag
    lhs = mi * er * (er * er - e1 * e1)
    rhs = ei * (mr * (er * er + e1 * e1) - 2.0 * er * e1)
    scale = abs(lhs) + abs(rhs)
    return 0.0 if scale == 0.0 else abs(lhs - rhs) / scale


@settings(max_examples=60, deadline=None)
@given(eps1=st.floats(1.0, 4.0), m2=_MEDIUM2, x=st.floats(0.02, 1.5))
def test_tm_residual_with_unit_mu1_is_unchanged(eps1, m2, x):
    m1 = dielectric(eps1)
    got = loss_cancellation_residual(m1, m2, x * WE, Polarization.TM)
    assert got.hex() == _tm_residual_unit_mu1(m1, m2, x * WE).hex()


@settings(max_examples=60, deadline=None)
@given(eps1=st.floats(1.0, 4.0), mu1=st.floats(1.0, 3.0), m2=_MEDIUM2, x=st.floats(0.02, 1.5))
def test_te_residual_of_dual_materials_equals_tm_residual(eps1, mu1, m2, x):
    m1 = HalfSpaceMaterial(eps1, mu1, "medium1")
    te = loss_cancellation_residual(swap_eps_mu(m1), swap_eps_mu(m2), x * WE, Polarization.TE)
    assert te == loss_cancellation_residual(m1, m2, x * WE, Polarization.TM)


def test_find_abyss_reports_the_residual_of_its_polarization():
    band = (0.3 * WE, 0.5 * WE)
    tm = find_abyss(dielectric(), nimm(), band)
    te = find_abyss(swap_eps_mu(dielectric()), swap_eps_mu(nimm()), band, Polarization.TE)
    assert te == tm
    assert tm.residual == pytest.approx(0.00197, abs=1e-5)
    # mu1 = 2: kappa changes sign at the minimum, a genuine cancellation
    heavy = find_abyss(HalfSpaceMaterial(1.3, 2.0, "medium1"), nimm(), band)
    assert heavy.kappa_at_omega0 == 0.0
    assert heavy.residual == pytest.approx(0.0028, abs=1e-4)
    assert heavy.is_cancellation


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _check_batch_against_oracle(m1, ratios, omega_m, band, pol):
    """The batched search over ``ratios`` against the per-row oracle; the oracle's results.

    Each row meets the oracle to :func:`check_against_oracle`'s tolerances
    and is bit-equal to the scalar call with its medium.
    """
    rows = [nimm(gamma_m=r * 2.73e13, omega_m=omega_m) for r in ratios]
    batch = nimm(gamma_m=np.array(ratios)[:, None] * 2.73e13, omega_m=omega_m)
    got = find_abyss(m1, batch, band, pol)
    expected = []
    for r, m2 in enumerate(rows):
        try:
            want, crossing = find_abyss_per_row(m1, m2, band, pol)
        except AbyssNotFoundError:
            want, crossing = None, False
        expected.append(want)
        fields = (got.omega0[r], got.kappa_at_omega0[r], got.residual[r])
        check_against_oracle(fields[0], fields[1], want, crossing, m1, m2, pol)
        if want is None:
            assert math.isnan(fields[2])
            continue
        # the one-row view is the scalar call
        one = find_abyss(m1, m2, band, pol)
        assert [_bits(v) for v in (one.omega0, one.kappa_at_omega0, one.residual)] == [
            _bits(f) for f in fields
        ]
        # the scalar residual formula agrees to rounding
        scalar = loss_cancellation_residual(m1, m2, fields[0], pol)
        assert abs(fields[2] - scalar) <= 1e-9 * max(scalar, 1e-3)
    return expected


@settings(max_examples=150, deadline=None)
@given(
    log_ratios=st.lists(st.floats(-6.0, 0.5), min_size=1, max_size=6),
    omega_m=st.floats(0.4, 0.6),
    below=st.floats(-0.05, 0.4),
    above=st.floats(0.01, 0.4),
    pol=st.sampled_from(Polarization),
)
def test_batched_find_abyss_equals_per_row_search(log_ratios, omega_m, below, above, pol):
    # The band is drawn around where the minima lie for small losses, about
    # 0.82 omega_m for TM and omega_m for TE; below < 0 starts it past them.
    ratios = [10.0**x for x in log_ratios]
    centre = (0.82 if pol is Polarization.TM else 1.0) * omega_m * WE
    band = (centre * (1.0 - below), centre * (1.0 + above))
    assume(band[0] < band[1])
    expected = _check_batch_against_oracle(dielectric(), ratios, omega_m * WE, band, pol)
    event(f"rows without a minimum: {expected.count(None) > 0}")


def test_batched_find_abyss_rows_with_different_step_counts(monkeypatch):
    import polariton_lab.dispersion as dispersion

    ratios = np.geomspace(1e-5, 1.0, 13).tolist()
    band = (0.3 * WE, 0.5 * WE)
    expected = _check_batch_against_oracle(dielectric(), ratios, 0.5 * WE, band, Polarization.TM)
    assert expected[-1] is None and None not in expected[:-1]  # the last has no minimum
    # rows stop at different steps, yet each row of the batch is its scalar call
    solves, solve = [], dispersion._kappa_slope
    monkeypatch.setattr(dispersion, "_kappa_slope", lambda *args: solves.append(1) or solve(*args))
    steps = []
    for r in ratios[:-1]:
        solves.clear()
        find_abyss(dielectric(), nimm(gamma_m=r * 2.73e13), band)
        steps.append(len(solves) - 1)  # the first solve is the bracket's ends
    assert len(set(steps)) > 1, steps


def test_batched_find_abyss_shapes_and_scalar_errors():
    batch = nimm(gamma_m=np.array([[1e8], [1e11], [2.73e13]]))
    got = find_abyss(dielectric(), batch, (0.3 * WE, 0.5 * WE))
    assert got.omega0.shape == got.kappa_at_omega0.shape == got.residual.shape == (3,)
    assert math.isnan(got.omega0[2]) and list(got.is_cancellation) == [False, True, False]
    with pytest.raises(AbyssNotFoundError):
        find_abyss(dielectric(), nimm(gamma_m=2.73e13), (0.3 * WE, 0.5 * WE))
    with pytest.raises(ValueError, match=r"\(n, 1\)"):
        find_abyss(dielectric(), nimm(gamma_m=np.array([1e8, 1e11])), (0.3 * WE, 0.5 * WE))


def test_large_batch_wavevector_equals_per_row_calls():
    # 40 x 512 complex points: past the 256 KiB at which numpy reuses temporaries
    ratios = np.geomspace(1e-6, 1.0, 40)
    omegas = np.linspace(0.3, 0.5, 512) * WE
    for pol in Polarization:
        batch = sp_wavevector(dielectric(), nimm(gamma_m=ratios[:, None] * 2.73e13), omegas, pol)
        for i, r in enumerate(ratios.tolist()):
            row = sp_wavevector(dielectric(), nimm(gamma_m=r * 2.73e13), omegas, pol)
            for name in ("k_par", "kappa", "k1", "k2", "bc_residual", "bound"):
                assert getattr(batch, name)[i].tobytes() == getattr(row, name).tobytes(), name


@pytest.mark.parametrize("pol", list(Polarization))
def test_group_velocity_solves_the_interface_once(pol, monkeypatch):
    import polariton_lab.dispersion as dispersion

    m1, m2 = dielectric(), nimm()
    omegas = np.linspace(0.36, 0.49, 64) * WE
    bound = sp_wavevector(m1, m2, omegas, pol).bound
    calls = []
    monkeypatch.setattr(dispersion, "eval_material", lambda m, w: calls.append(m) or eval_material(m, w))
    got = group_velocity(m1, m2, omegas[bound], pol)
    assert len(calls) == 2
    # the same bits as the closed form evaluated on its own solve of the mode
    w = omegas[bound]
    point = sp_wavevector(m1, m2, w, pol)
    (a1, a2, b1, b2), denom, radicand = dispersion._interface(m1, m2, w, pol)
    da1, da2, db1, db2 = dispersion._by_polarization(
        pol, *d_omega_material(m1, w), *d_omega_material(m2, w)
    )
    d_radicand = (
        (a2 * a2 * b1 - 2.0 * a1 * a2 * b2 + 2.0 * radicand * a1) * da1
        + (2.0 * a1 * a2 * b1 - a1 * a1 * b2 - 2.0 * radicand * a2) * da2
        + a1 * a2 * a2 * db1
        - a1 * a1 * a2 * db2
    ) / denom
    want = 1.0 / (w * d_radicand / (2.0 * C * C * point.k_parallel)).real
    assert got.tobytes() == want.tobytes()
