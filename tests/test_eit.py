"""Layer absorption: closed form vs direct quadrature, limits, scalings."""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polariton_lab import eit
from polariton_lab.eit import (
    EitResponse,
    LambdaMediumParams,
    alpha_closed,
    alpha_quadrature,
    alpha_resonant,
)
from polariton_lab.config import load_config
from polariton_lab.errors import BranchCutError
from polariton_lab.propagation import PropagationScenario, frequency_grid

ROOT = Path(__file__).resolve().parents[1]
GAMMA31 = 1e9


def params(**kw):
    base = dict(n=1e24, z0=1e-8, gamma21=1e3, Gamma31=GAMMA31, Omega=1e9,
                k1s=1e6, k1c=1e6, Ly=2.5e-6)
    base.update(kw)
    return LambdaMediumParams(**base)


def gsq_over_v0_for(p, alpha0):
    """|g|^2/v0 consistent with a given resonant absorption."""
    return alpha0 * p.k1s * p.Gamma31 / (math.pi * p.n * p.Ly)


def test_control_off_thick_layer_recovers_alpha0():
    # vanishing control with finite ground decoherence: full absorption returns
    p = params(Omega=1e-6 * GAMMA31, gamma21=1e3, z0=30 / 1e6)
    resp = alpha_closed(p, 1e7, 0.0)
    assert resp.G == pytest.approx(1.0, rel=1e-5)
    assert resp.alpha == pytest.approx(1e7, rel=1e-5)
    # exactly off: the analytic limit path
    p0 = params(Omega=0.0, gamma21=0.0, z0=30 / 1e6)
    resp0 = alpha_closed(p0, 1e7, 0.0)
    assert resp0.G == pytest.approx(1.0, rel=1e-9)
    assert resp0.alpha == pytest.approx(1e7, rel=1e-9)


def test_zero_thickness_layer_is_transparent():
    p = params(z0=1e-30)
    resp = alpha_closed(p, 1e7, 0.3 * GAMMA31)
    assert abs(resp.alpha) < 1e7 * 1e-20


def test_transparency_window_open():
    p = params(gamma21=0.0)
    resp = alpha_closed(p, 1e7, 0.0)
    assert abs(resp.G) < 1e-12
    # compare against the quadrature route just off resonance
    nu = 1e-3 * GAMMA31
    ac = alpha_closed(p, 1e7, nu)
    aq = alpha_quadrature(p, gsq_over_v0_for(p, 1e7), nu)
    assert abs(ac.alpha - aq) <= 1e-8 * abs(aq)


def test_quadrature_reproduces_resonant_formula():
    # control off, resonance, layer much thicker than the probe depth
    p = params(Omega=0.0, z0=30 / 1e6)
    gsq_v0 = gsq_over_v0_for(p, 1e7)
    aq = alpha_quadrature(p, gsq_v0, 0.0)
    a0 = alpha_resonant(p, gsq_v0, 1.0)  # gsq/v0 folded into gsq with v0=1
    assert abs(aq - a0) <= 1e-8 * a0


def test_zero_density_gives_zero():
    p = params(n=0.0)
    assert alpha_quadrature(p, 1.0, 0.5 * GAMMA31) == 0


def test_oracle_equivalence_random_draws():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 200:
        Gamma31 = 10 ** rng.uniform(8, 10)
        gamma21 = 10 ** rng.uniform(0, 5)
        Omega = Gamma31 * 10 ** rng.uniform(-1, 1)
        k1s = 10 ** rng.uniform(5, 7)
        k1c = k1s * 10 ** rng.uniform(-0.7, 0.7)
        z0 = 10 ** rng.uniform(-8, -5)
        nu = rng.uniform(-5, 5) * Gamma31
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = LambdaMediumParams(
                n=1e24, z0=z0, gamma21=gamma21, Gamma31=Gamma31, Omega=Omega,
                k1s=k1s, k1c=k1c, Ly=2.5e-6,
            )
        alpha0 = 1e7
        gsq_v0 = gsq_over_v0_for(p, alpha0)
        aq = alpha_quadrature(p, gsq_v0, nu)
        ac = alpha_closed(p, alpha0, nu).alpha
        if abs(aq) < 1e-30:
            continue
        rel = abs(ac - aq) / abs(aq)
        worst = max(worst, rel)
        assert rel < 1e-6, (p, nu, rel)
        checked += 1
    assert worst < 1e-6


def test_resonant_absorption_scalings():
    p = params()
    gsq = 1e12
    base = alpha_resonant(p, gsq, 0.6 * 299792458.0)
    assert alpha_resonant(params(n=2e24), gsq, 0.6 * 299792458.0) == pytest.approx(2 * base)
    doubled_width = LambdaMediumParams(
        n=p.n, z0=p.z0, gamma21=p.gamma21, Gamma31=2e9, Omega=p.Omega,
        k1s=p.k1s, k1c=p.k1c, Ly=p.Ly,
    )
    assert alpha_resonant(doubled_width, gsq, 0.6 * 299792458.0) == pytest.approx(base / 2)
    with pytest.raises(ValueError):
        alpha_resonant(p, gsq, 0.0)


def test_exact_two_photon_resonance_without_ground_decay():
    p = params(gamma21=0.0)
    resp = alpha_closed(p, 1e7, 0.0)
    assert resp.alpha == 0
    aq_like = alpha_quadrature(p, gsq_over_v0_for(p, 1e7), 0.0)
    assert aq_like == 0


def test_real_part_nonnegative_over_detuning_grid():
    for omega_rabi in (0.3e9, 1e9, 3e9):
        for gamma21 in (0.0, 1e3, 1e5):
            p = params(Omega=omega_rabi, gamma21=gamma21)
            for nu in np.linspace(-5 * GAMMA31, 5 * GAMMA31, 101):
                resp = alpha_closed(p, 1e7, float(nu))
                assert resp.alpha.real >= -1e-9 * abs(resp.alpha)
                assert resp.alpha == resp.G * 1e7  # alpha = alpha0 * G


def test_residual_absorption_monotone_in_ground_decay():
    previous = 0.0
    for gamma21 in (1e2, 1e3, 1e4, 1e5):
        p = params(gamma21=gamma21)
        re_alpha = alpha_closed(p, 1e7, 0.0).alpha.real
        assert re_alpha > previous
        previous = re_alpha


def test_power_broadening_of_transparency_dip():
    """The half-width of the Re(alpha) < ref/2 dip grows with Omega.

    The reference is the layer's own control-off resonant absorption; the
    half-width is the first detuning where Re(alpha) rises through half of it.
    """
    alpha0 = 1e7
    ref = alpha_closed(params(Omega=0.0, gamma21=0.0), alpha0, 0.0).alpha.real

    def dip_halfwidth(omega_rabi):
        p = params(Omega=omega_rabi, gamma21=0.0)
        grid = np.linspace(0.0, 2.5 * max(omega_rabi, GAMMA31), 400)
        crossing = None
        for lo_nu, hi_nu in zip(grid, grid[1:]):
            if alpha_closed(p, alpha0, float(hi_nu)).alpha.real >= 0.5 * ref:
                crossing = (float(lo_nu), float(hi_nu))
                break
        assert crossing is not None
        lo, hi = crossing
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if alpha_closed(p, alpha0, mid).alpha.real < 0.5 * ref:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    widths = [dip_halfwidth(s * GAMMA31) for s in (0.1, 0.33, 1.0, 3.3, 10.0)]
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_control_off_limit_of_spectral_function():
    # at Omega -> 0 the spectral function tends to its control-off value 1
    p = params(Omega=1e-4 * GAMMA31, gamma21=1e5, z0=1e-3)
    resp = alpha_closed(p, 1e7, 0.0)
    assert abs(resp.G - 1.0) < 1e-4


def test_thick_layer_limit():
    p_inf = params(z0=math.inf)
    for k1s_z0 in (21.0, 30.0):
        p = params(z0=k1s_z0 / 1e6)
        for nu in np.linspace(-2 * GAMMA31, 2 * GAMMA31, 7):
            a_fin = alpha_closed(p, 1e7, float(nu)).alpha
            a_inf = alpha_closed(p_inf, 1e7, float(nu)).alpha
            assert abs(a_fin - a_inf) <= 1e-6 * max(abs(a_inf), 1e7 * 1e-12)


def test_parameter_validation_and_warning():
    with pytest.raises(ValueError):
        params(z0=0.0)
    with pytest.raises(ValueError):
        params(Gamma31=0.0)
    with pytest.raises(ValueError):
        params(k1s=-1.0)
    with pytest.warns(UserWarning) as record:
        params(gamma21=0.5 * GAMMA31)
    assert record[0].filename == __file__  # the caller, not the generated __init__


def _assert_same_as_scalar_calls(p, alpha0, nus):
    resp = alpha_closed(p, alpha0, nus)
    assert resp.alpha.shape == nus.shape
    for i, nu in enumerate(nus):
        one = alpha_closed(p, alpha0, float(nu))
        assert (resp.nu[i], resp.alpha[i], resp.beta[i], resp.G[i]) == (
            one.nu, one.alpha, one.beta, one.G
        )
    return resp


def test_array_response_equals_scalar_calls():
    nus = np.linspace(-6 * GAMMA31, 6 * GAMMA31, 49)
    for p in (
        params(),
        params(Omega=0.0),  # control-off limit
        params(Omega=30 * GAMMA31, k1c=0.4e6, z0=3e-6),  # ring and large-|z| kernel
        params(z0=math.inf),
    ):
        _assert_same_as_scalar_calls(p, 1e7, nus)


def test_array_transparent_point_is_the_only_zero():
    nus = np.linspace(-2 * GAMMA31, 2 * GAMMA31, 9)
    assert nus[4] == 0.0
    resp = _assert_same_as_scalar_calls(params(gamma21=0.0), 1e7, nus)
    assert resp.alpha[4] == 0 and resp.beta[4] == 0
    assert np.all(np.delete(resp.alpha, 4) != 0)


def test_branch_cut_element_raises(monkeypatch):
    # With valid rates w = (nu + i*gamma21)(nu + i*Gamma31) is real only at
    # nu = 0, where 1/beta is negative, or where nu*Gamma31 underflows, and
    # no nudge of the detuning would leave that underflow; a product patched
    # to put 1/beta = 2 at nu = 0 must raise, for a scalar and in an array.
    p = params()
    product = eit._pair_product
    monkeypatch.setattr(
        eit, "_pair_product", lambda p, nu: np.where(nu == 0, 0.5 * p.Omega**2, product(p, nu))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BranchCutError):
            alpha_closed(p, 1e7, np.array([-0.5 * GAMMA31, 0.0, 0.5 * GAMMA31]))
        with pytest.raises(BranchCutError):
            alpha_closed(p, 1e7, 0.0)
        alpha_closed(p, 1e7, 0.5 * GAMMA31)


def _same_bits(a, b):
    """Equal bit for bit: tells -0.0 from 0.0 and matches NaN payloads."""
    a, b = (np.atleast_1d(np.asarray(v, dtype=complex)).view(float) for v in (a, b))
    return np.array_equal(a, b)


def _same_response(got, want):
    return all(
        _same_bits(getattr(got, f), getattr(want, f)) for f in ("nu", "alpha", "beta", "G")
    )


@pytest.mark.parametrize(
    "layer",
    [
        {},
        {"gamma21": 0.0},  # nu = 0 is the transparent point
        {"k1c": 0.4e6, "z0": 3e-6},  # ring and large-|z| kernel
        {"k1c": 0.4e6, "z0": 3e-6, "gamma21": 0.0},
    ],
)
def test_omega_array_equals_scalar_omega_calls(layer):
    omegas = np.array([0.0, 0.5, 1.0, 30.0]) * GAMMA31
    nus = np.linspace(-6 * GAMMA31, 6 * GAMMA31, 49)
    assert nus[24] == 0.0
    grid = alpha_closed(params(Omega=omegas[:, None], **layer), 1e7, nus)
    assert grid.alpha.shape == (4, 49)
    column = alpha_closed(params(Omega=omegas, **layer), 1e7, 0.3 * GAMMA31)
    assert column.alpha.shape == (4,)
    for i, om in enumerate(omegas.tolist()):
        p = params(Omega=om, **layer)
        row = EitResponse(*(getattr(grid, f)[i] for f in ("nu", "alpha", "beta", "G")))
        assert _same_response(row, alpha_closed(p, 1e7, nus))
        one = EitResponse(*(getattr(column, f)[i] for f in ("nu", "alpha", "beta", "G")))
        assert _same_response(one, alpha_closed(p, 1e7, 0.3 * GAMMA31))


def test_pulse_grid_call_equals_per_omega_calls():
    # control_sweep.ini's 4 x 4096 pulse grid: the grid's kernel arrays pass
    # numpy's 256 KiB threshold for reusing a temporary in place, one
    # amplitude's do not
    cfg = load_config(ROOT / "scenarios" / "control_sweep.ini")
    pulse = cfg["pulse"]
    omegas = np.array(pulse["omega"])
    nu = frequency_grid(
        PropagationScenario(
            delta_t=pulse["delta_t"], x=1e-3, v0=1.0, kappa31=0.0, alpha0=1e7,
            n_nu=pulse["n_nu"], nu_span=pulse["nu_span_factor"] / pulse["delta_t"],
        )
    )[0]
    assert omegas.size * nu.size == 4 * 4096
    grid = alpha_closed(cfg.lambda_params(omegas[:, None]), 1e7, nu).alpha
    for i, om in enumerate(pulse["omega"]):
        row = alpha_closed(cfg.lambda_params(om), 1e7, nu).alpha
        assert np.array_equal(grid[i].view(float), row.view(float)), om


def test_beta_uses_python_square_of_omega():
    # numpy's ** squares by one multiply, Python's float ** calls pow(); they
    # round differently for about 1 in 1000 values, and the CLI's bytes were
    # written with Python's.
    omegas = np.random.default_rng(7).uniform(0.1, 30.0, 2000) * GAMMA31
    squares = [om**2 for om in omegas.tolist()]
    assert np.any(omegas * omegas != squares)
    nu = 0.3 * GAMMA31
    p = params(Omega=omegas)
    resp = alpha_closed(p, 1e7, nu)
    assert _same_bits(resp.beta, eit._pair_product(p, nu) / np.array(squares))


def test_negative_omega_element_rejected():
    with pytest.raises(ValueError, match="Omega"):
        params(Omega=np.array([1e9, -1.0, 2e9]))
    with pytest.raises(ValueError, match="Omega"):
        params(Omega=-1.0)
    params(Omega=np.array([0.0, 1e9]))


@pytest.mark.parametrize(
    "kw",
    [
        {"n": math.nan},
        {"gamma21": math.nan},
        {"Omega": math.nan},
        {"Omega": np.array([1e9, math.nan])},
    ],
    ids=["n", "gamma21", "Omega", "Omega-element"],
)
def test_nan_rate_rejected(kw):
    with pytest.raises(ValueError, match="must be non-negative"):
        params(**kw)


def test_alpha_quadrature_rejects_array_omega():
    p = params(Omega=np.array([0.5e9, 1e9]))
    with pytest.raises(ValueError, match="alpha_quadrature takes a scalar Omega"):
        alpha_quadrature(p, gsq_over_v0_for(params(), 1e7), 0.3 * GAMMA31)


def test_scalar_omega_equality_and_hash_as_a_dataclass():
    p = params()
    fields = (p.n, p.z0, p.gamma21, p.Gamma31, p.Omega, p.k1s, p.k1c, p.Ly)
    assert p == params() and hash(p) == hash(fields)
    assert p != params(Omega=2e9) and p != params(k1c=2e6)
    assert p.__eq__(object()) is NotImplemented


def _lambda_params(gamma31, g21_frac, omega_frac, k1s, k_ratio, z0):
    return LambdaMediumParams(
        n=1e24, z0=z0, gamma21=g21_frac * gamma31, Gamma31=gamma31,
        Omega=omega_frac * gamma31, k1s=k1s, k1c=k1s * k_ratio, Ly=2.5e-6,
    )


@settings(max_examples=60, deadline=None)
@given(
    p=st.builds(
        _lambda_params,
        gamma31=st.floats(1e8, 1e10),
        g21_frac=st.floats(0.0, 0.05),
        omega_frac=st.floats(0.0, 30.0),
        k1s=st.floats(1e5, 1e7),
        k_ratio=st.floats(0.2, 5.0),
        z0=st.one_of(st.floats(1e-8, 1e-5), st.just(math.inf)),
    )
)
def test_passivity_over_random_layers(p):
    # alpha is a difference of two 2F1 terms of order alpha0; at the window
    # centre with gamma21*Gamma31 << Omega^2 they cancel to far below alpha0,
    # so rounding is bounded against alpha0, not against alpha itself.
    alpha0 = 1e7
    resp = alpha_closed(p, alpha0, np.linspace(-40 * p.Gamma31, 40 * p.Gamma31, 161))
    assert np.all(resp.alpha.real >= -1e-12 * alpha0)


def test_alpha_quadrature_without_scipy_names_the_extra(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.integrate", None)
    with pytest.raises(ImportError, match=r"pip install polariton-lab\[test\]"):
        alpha_quadrature(params(), gsq_over_v0_for(params(), 1e7), 0.0)


# Detunings from far inside the window to far outside it: with Omega up to
# 30 Gamma31 both 2F1 arguments sweep the series disc, the ring and |z| > 1.25.
_NU_SWEEP = np.geomspace(1e-6, 1e3, 160)


@settings(max_examples=40, deadline=None)
@given(
    gamma31=st.floats(1e8, 1e10),
    g21_frac=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
    omega_fracs=st.lists(st.floats(0.0, 30.0), max_size=3),
    b=st.one_of(st.sampled_from([0.3, 1.0, 2.0]), st.floats(0.05, 10.0)),
    z0=st.one_of(st.floats(1e-8, 1e-5), st.just(math.inf)),
    nu_scale=st.floats(0.5, 2.0),
)
@example(gamma31=1e9, g21_frac=0.0, omega_fracs=[1.0, 30.0], b=0.3, z0=math.inf, nu_scale=1.0)
def test_conjugation_identity_is_bitwise(gamma31, g21_frac, omega_fracs, b, z0, nu_scale):
    # G(-nu) = conj G(nu) exactly: every step from nu to G commutes with
    # conjugation, and propagate_pulse relies on it to mirror its grid
    omega = np.array(omega_fracs + [0.0]) * gamma31  # the control-off limit too
    p = LambdaMediumParams(n=1e24, z0=z0, gamma21=g21_frac * gamma31, Gamma31=gamma31,
                           Omega=omega[:, None], k1s=b * 1e6, k1c=1e6, Ly=2.5e-6)
    nu = nu_scale * gamma31 * _NU_SWEEP
    minus, plus = (alpha_closed(p, 1e7, v).G for v in (-nu, nu))
    assert np.array_equal(minus.real, plus.real)
    assert np.array_equal(minus.imag, -plus.imag)
