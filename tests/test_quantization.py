"""Mode normalization: finite-difference oracle, scaling laws, couplings."""

import cmath
import math

import mpmath as mp
import pytest

from polariton_lab.dispersion import Polarization, sp_wavevector
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
from polariton_lab.quantization import (
    DIPOLE_EA0,
    coupling_constant,
    mode_normalization,
)

WE = OMEGA_E_SILVER
HBAR = 1.0545718176461565e-34  # scipy.constants.hbar (CODATA)
C = 299792458.0


def _normalization_fd_oracle(m1, m2, dp, Ly):
    """Recompute D, S, Lz with finite-difference material derivatives."""
    omega = dp.omega
    h = 1e-7 * omega

    def fd_pair(mat):
        rp, rm = eval_material(mat, omega + h), eval_material(mat, omega - h)
        de = ((omega + h) * rp.epsilon - (omega - h) * rm.epsilon) / (2 * h)
        dm = ((omega + h) * rp.mu - (omega - h) * rm.mu) / (2 * h)
        return de, dm

    de1, dm1 = fd_pair(m1)
    de2, dm2 = fd_pair(m2)
    e1 = eval_material(m1, omega).epsilon
    e2 = eval_material(m2, omega).epsilon
    k, k1, k2 = dp.k_parallel, dp.k1, dp.k2
    D = de1 * (k1**2 + k**2) / k1**3 + de2 * (k2**2 + k**2) / k2**3
    S = dm1 * e1**2 / k1**3 + dm2 * e2**2 / k2**3
    return D, S, D + (omega / C) ** 2 * S


def test_unbound_mode_rejected():
    dp = sp_wavevector(dielectric(), nimm(), 0.405 * WE)  # backward-wave region
    assert not dp.bound
    with pytest.raises(ValueError):
        mode_normalization(dielectric(), nimm(), dp, 2.5e-6)


def test_te_point_rejected():
    # The formula is TM-only; a bound TE point used to give Lz = 2.02e-5 + 1.27e-7i.
    dp = sp_wavevector(dielectric(), nimm(), 0.4092 * WE, Polarization.TE)
    assert dp.bound
    with pytest.raises(ValueError, match="TM-only"):
        mode_normalization(dielectric(), nimm(), dp, 2.5e-6)


def test_degenerate_symmetric_interface_has_no_mode():
    same = HalfSpaceMaterial(1.3, 1.0)
    dp = sp_wavevector(same, same, 0.4 * WE)
    assert not dp.bound
    with pytest.raises(ValueError, match="bound"):
        mode_normalization(same, same, dp, 2.5e-6)


def test_normalization_matches_finite_difference_oracle():
    m1 = dielectric()
    m2 = HalfSpaceMaterial(DrudeParams(WE, 0.0), DrudeParams(0.5 * WE, 0.0))
    dp = sp_wavevector(m1, m2, 0.45 * WE)
    assert dp.bound
    mn = mode_normalization(m1, m2, dp, 2.5e-6)
    D_fd, S_fd, Lz_fd = _normalization_fd_oracle(m1, m2, dp, 2.5e-6)
    assert abs(mn.D - D_fd) / abs(D_fd) < 1e-6
    assert abs(mn.S - S_fd) / abs(S_fd) < 1e-6
    assert abs(mn.Lz - Lz_fd) / abs(Lz_fd) < 1e-6


def test_textbook_metal_normalization_spot_check():
    """Independent symbolic evaluation for the nonmagnetic lossless case."""
    m1 = dielectric()
    m2 = HalfSpaceMaterial(DrudeParams(WE, 0.0), 1.0)
    omega = 0.40 * WE
    dp = sp_wavevector(m1, m2, omega)
    assert dp.bound
    mn = mode_normalization(m1, m2, dp, 2.5e-6)

    mp.mp.dps = 40
    w = mp.mpf("0.40") * mp.mpf("1.37e16")
    we = mp.mpf("1.37e16")
    e1, mu = mp.mpf("1.3"), mp.mpf(1)
    e2 = 1 - we**2 / w**2
    c = mp.mpf(repr(C))
    k = (w / c) * mp.sqrt(e1 * e2 * (e2 - e1) / (e2**2 - e1**2))
    k1 = mp.sqrt(k**2 - (w / c) ** 2 * e1)
    k2 = mp.sqrt(k**2 - (w / c) ** 2 * e2)
    de2 = 1 + we**2 / w**2  # d(w*eps2)/dw for the lossless pole
    D_ref = e1 * (k1**2 + k**2) / k1**3 + de2 * (k2**2 + k**2) / k2**3
    S_ref = mu * e1**2 / k1**3 + mu * e2**2 / k2**3
    Lz_ref = D_ref + (w / c) ** 2 * S_ref

    assert mn.D.real == pytest.approx(float(D_ref), rel=1e-10)
    assert abs(mn.D.imag) < 1e-12 * abs(mn.D.real)
    assert mn.S.real == pytest.approx(float(S_ref), rel=1e-10)
    assert mn.Lz.real == pytest.approx(float(Lz_ref), rel=1e-10)
    assert mn.Lz.real > 0
    assert mn.E0 == pytest.approx(
        math.sqrt(HBAR * float(w) / (2 * math.pi * 8.8541878128e-12 * 2.5e-6 * float(Lz_ref))),
        rel=1e-6,
    )


def test_operating_point_amplitude_is_finite():
    m1, m2 = dielectric(), nimm()
    dp = sp_wavevector(m1, m2, 0.4092 * WE)
    with pytest.warns(UserWarning):
        mn = mode_normalization(m1, m2, dp, 2.5e-6)  # Re(Lz) < 0 here
    assert math.isfinite(mn.E0) and mn.E0 > 0
    assert abs(mn.Lz) > 0
    # the quantization length is imaginary-dominated near the cancellation
    assert abs(mn.lz_phase) > 1.0


def test_coupling_aligned_dipole():
    m1, m2 = dielectric(), silver()
    dp = sp_wavevector(m1, m2, 0.41 * WE)
    mn = mode_normalization(m1, m2, dp, 2.5e-6)
    cc = coupling_constant(mn, dp, DIPOLE_EA0)
    # x-aligned dipole: the overlap is unity and |g| = |d| E0 / hbar
    assert cc.polarization_overlap == pytest.approx(1.0 + 0j, rel=1e-14)
    assert abs(cc.g) == pytest.approx(DIPOLE_EA0 * mn.E0 / HBAR, rel=1e-12)
    # a z component picks up the k_par/k1 weight
    cz = coupling_constant(mn, dp, (0.0, 0.0, DIPOLE_EA0))
    expected = DIPOLE_EA0 * abs(dp.k_parallel / dp.k1) * mn.E0 / HBAR
    assert abs(cz.g) == pytest.approx(expected, rel=1e-12)


def test_coupling_zero_dipole():
    m1, m2 = dielectric(), silver()
    dp = sp_wavevector(m1, m2, 0.41 * WE)
    mn = mode_normalization(m1, m2, dp, 2.5e-6)
    cc = coupling_constant(mn, dp, 0.0)
    assert cc.g == 0
    assert cc.polarization_overlap == 0


def test_coupling_doubling_ly_halves_gsq():
    m1, m2 = dielectric(), silver()
    dp = sp_wavevector(m1, m2, 0.41 * WE)
    g1 = coupling_constant(mode_normalization(m1, m2, dp, 2.5e-6), dp, DIPOLE_EA0)
    g2 = coupling_constant(mode_normalization(m1, m2, dp, 5.0e-6), dp, DIPOLE_EA0)
    assert abs(g2.g) ** 2 == pytest.approx(0.5 * abs(g1.g) ** 2, rel=1e-12)


def test_gsq_lz_ly_combination_invariant():
    """|g|^2 * |Lz| * Ly depends only on omega, dipole and overlap."""
    m1 = dielectric()
    dp_ref = None
    values = []
    for gamma_m in (1e11, 3e11):
        m2 = nimm(gamma_m=gamma_m)
        dp = sp_wavevector(m1, m2, 0.42 * WE)
        for Ly in (2.5e-6, 7.5e-6):
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                mn = mode_normalization(m1, m2, dp, Ly)
            cc = coupling_constant(mn, dp, (DIPOLE_EA0, 0.0, 0.0))
            # strip the overlap so only the amplitude normalization remains
            base = abs(cc.g / cc.polarization_overlap) ** 2 / DIPOLE_EA0**2
            values.append(base * abs(mn.Lz) * Ly)
    ref = values[0]
    for v in values[1:]:
        assert v == pytest.approx(ref, rel=1e-10)


def test_dipole_vector_validation():
    m1, m2 = dielectric(), silver()
    dp = sp_wavevector(m1, m2, 0.41 * WE)
    mn = mode_normalization(m1, m2, dp, 2.5e-6)
    with pytest.raises(ValueError):
        coupling_constant(mn, dp, (1.0, 2.0))
    cc = coupling_constant(mn, dp, (0.0, DIPOLE_EA0, 0.0))
    assert cc.g == 0  # y-directed dipole does not couple
