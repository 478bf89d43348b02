"""Complex surface-polariton dispersion at a planar two-media interface.

The guided wave vector along the interface is

    k_par + i*kappa = (w/c) * sqrt(a1*a2*(a2*b1 - a1*b2) / (a2**2 - a1**2))

with (a, b) = (eps, mu) for TM polarization and (mu, eps) for TE; the square
root branch is fixed so the propagation constant has a non-negative real
part.  The transverse constants k1, k2 follow from

    kj**2 = k**2 - (w/c)**2 * eps_j * mu_j

with the decaying branch Re(kj) >= 0.  A point is *bound* when the field
decays on both sides strictly and the unsquared matching condition
k1*s2 + k2*s1 = 0 holds (s = eps for TM, mu for TE): squaring the matching
condition introduces spurious roots with the wrong decay signature, and the
residual check rejects them.

Sign note: kappa is reported as computed from the chosen branch.  At a
dielectric/negative-index interface the TM mode changes the sign of kappa
through the loss-cancellation frequency (and the TE mode carries kappa < 0
over most of its band); these are backward-wave regions where energy flows
against the phase, so the attenuation along the energy flow is |kappa|.
Loss-minimum searches therefore operate on |kappa|.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import AbyssNotFoundError, NumericError
from .materials import DrudeParams, HalfSpaceMaterial, d_omega_material, eval_material

C = 299792458.0  # speed of light in vacuum, m/s (exact)

_BC_RESIDUAL_TOL = 1e-8
_DEGENERATE_TOL = 1e-12
_ABYSS_XTOL = 1e-9
_ZOOM_POINTS = 33


class Polarization(Enum):
    TM = "TM"
    TE = "TE"


@dataclass(frozen=True)
class DispersionPoint:
    """The complex interface dispersion at one frequency or a frequency array."""

    omega: float | np.ndarray
    k_par: float | np.ndarray
    kappa: float | np.ndarray
    k1: complex | np.ndarray
    k2: complex | np.ndarray
    polarization: Polarization
    bound: bool | np.ndarray
    bc_residual: float | np.ndarray

    @property
    def k_parallel(self) -> complex | np.ndarray:
        return self.k_par + 1j * self.kappa


@dataclass(frozen=True)
class AbyssResult:
    """Location and depth of the loss minimum plus the cancellation residual.

    Floats for one pair of media; for a batch, arrays with one element per
    row, NaN in the rows that have no interior minimum.
    """

    omega0: float | np.ndarray
    kappa_at_omega0: float | np.ndarray
    residual: float | np.ndarray

    @property
    def is_cancellation(self) -> bool | np.ndarray:
        return self.residual <= 0.05


def _principal_sqrt(z):
    """Square root with Re >= 0; on the Re = 0 ray pick Im >= 0."""
    s = np.sqrt(z)
    return np.where((s.real < 0) | ((s.real == 0) & (s.imag < 0)), -s, s)


def _frequencies(omega) -> np.ndarray:
    # A scalar runs as a one-element array, so it takes the same array loops
    # and gives the same bits as that frequency inside a band.
    return np.atleast_1d(np.asarray(omega, dtype=float))


def _shaped(x: np.ndarray, omega):
    """``x`` as a Python scalar for a scalar ``omega`` and scalar media, else as is.

    ``x`` already has the shape ``omega`` broadcasts to against the media.
    """
    return x.item() if np.ndim(omega) == 0 and x.shape == (1,) else x


def _by_polarization(pol: Polarization, e1, u1, e2, u2) -> tuple:
    """(a1, a2, b1, b2): the (eps, mu) pairs for TM, (mu, eps) for TE."""
    return (e1, e2, u1, u2) if pol is Polarization.TM else (u1, u2, e1, e2)


def _interface(m1: HalfSpaceMaterial, m2: HalfSpaceMaterial, w: np.ndarray, pol: Polarization):
    """(a1, a2, b1, b2), a2**2 - a1**2 and the radicand at the frequencies ``w``.

    A degenerate denominator at any frequency raises :class:`NumericError`.
    """
    r1, r2 = eval_material(m1, w), eval_material(m2, w)
    a1, a2, b1, b2 = _by_polarization(pol, r1.epsilon, r1.mu, r2.epsilon, r2.mu)
    denom = a2 * a2 - a1 * a1
    degenerate = np.abs(denom) < _DEGENERATE_TOL * np.abs(a1) ** 2
    if np.any(degenerate):
        raise NumericError(
            f"degenerate interface for {pol.value}: |a2^2 - a1^2| = "
            f"{np.extract(degenerate, np.abs(denom))[0]:.3e} "
            f"at omega = {np.extract(degenerate, np.broadcast_to(w, degenerate.shape))[0]:.6e}"
        )
    return (a1, a2, b1, b2), denom, a1 * a2 * (a2 * b1 - a1 * b2) / denom


def _solve(m1: HalfSpaceMaterial, m2: HalfSpaceMaterial, w: np.ndarray, pol: Polarization):
    """The :func:`_interface` triple, k and the :class:`DispersionPoint` arrays at ``w``."""
    interface = _interface(m1, m2, w, pol)
    (a1, a2, b1, b2), _, radicand = interface
    w_c = w / C
    k = w_c * _principal_sqrt(radicand)

    # a1*b1 = eps1*mu1 and a2*b2 = eps2*mu2 for either polarization.
    k1 = _principal_sqrt(k * k - w_c * w_c * a1 * b1)
    k2 = _principal_sqrt(k * k - w_c * w_c * a2 * b2)

    num = np.abs(k1 * a2 + k2 * a1)
    residual = num / np.maximum(np.maximum(np.abs(k1 * a2), np.abs(k2 * a1)), 1e-300)
    bound = (k1.real > 0) & (k2.real > 0) & (residual < _BC_RESIDUAL_TOL)

    fields = dict(omega=w, k_par=k.real, kappa=k.imag, k1=k1, k2=k2, bound=bound,
                  bc_residual=residual)
    return interface, k, fields


def sp_wavevector(
    m1: HalfSpaceMaterial,
    m2: HalfSpaceMaterial,
    omega,
    pol: Polarization = Polarization.TM,
) -> DispersionPoint:
    """Solve the interface dispersion at one frequency or an array of them.

    Returns a :class:`DispersionPoint` whose fields are Python scalars for a
    scalar ``omega`` and arrays of its shape otherwise; an unbound solution is
    flagged ``bound=False`` rather than raising.  A batch of media (``(n, 1)``
    loss rates, see :class:`~polariton_lab.materials.DrudeParams`) gives
    mode fields of the broadcast shape, ``(n, m)`` for ``m`` frequencies, row
    ``i`` bit-equal to a call with the medium of row ``i``.  A degenerate
    denominator (a2**2 == a1**2 for the active polarization) at any requested
    point raises :class:`NumericError`.
    """
    _, _, fields = _solve(m1, m2, _frequencies(omega), pol)
    return DispersionPoint(polarization=pol, **{n: _shaped(v, omega) for n, v in fields.items()})


def polarization_support(
    m1: HalfSpaceMaterial, m2: HalfSpaceMaterial, omega: float
) -> set[Polarization]:
    """Subset of {TM, TE} that is bound at ``omega``.

    A polarization whose dispersion formula is degenerate at this interface
    (e.g. TE with equal constant permeabilities) is simply not supported.
    """
    supported = set()
    for pol in Polarization:
        try:
            if sp_wavevector(m1, m2, omega, pol).bound:
                supported.add(pol)
        except NumericError:
            continue
    return supported


def group_velocity(
    m1: HalfSpaceMaterial,
    m2: HalfSpaceMaterial,
    omega,
    pol: Polarization = Polarization.TM,
):
    """Group velocity dw/dk_par = 1/Re(dk/dw) of the bare surface mode at ``omega``.

    Closed form: the radicand R(a1, a2, b1, b2) of k = (w/c)*sqrt(R) is
    homogeneous of degree 2, so (c*k)**2 = R(w*a1, w*a2, w*b1, w*b2) and

        2*c**2 * k * dk/dw = w * sum_j dR/da_j * d(w*a_j)/dw,

    with the analytic d(w*a_j)/dw of the material models.  A scalar
    ``omega`` gives a float, an array gives an array; :class:`ValueError` is
    raised when any requested point is unbound.
    """
    w = _frequencies(omega)
    ((a1, a2, b1, b2), denom, radicand), k, fields = _solve(m1, m2, w, pol)
    if not np.all(fields["bound"]):
        raise ValueError(f"no bound {pol.value} mode at omega = {omega!r}")
    da1, da2, db1, db2 = _by_polarization(pol, *d_omega_material(m1, w), *d_omega_material(m2, w))
    # R = N / denom with N = a1*a2**2*b1 - a1**2*a2*b2.
    d_radicand = (
        (a2 * a2 * b1 - 2.0 * a1 * a2 * b2 + 2.0 * radicand * a1) * da1
        + (2.0 * a1 * a2 * b1 - a1 * a1 * b2 - 2.0 * radicand * a2) * da2
        + a1 * a2 * a2 * db1
        - a1 * a1 * a2 * db2
    ) / denom
    dk_domega = w * d_radicand / (2.0 * C * C * k)
    return _shaped(1.0 / dk_domega.real, omega)


def loss_cancellation_residual(
    m1: HalfSpaceMaterial,
    m2: HalfSpaceMaterial,
    omega: float,
    pol: Polarization = Polarization.TM,
) -> float:
    """Mismatch of the electric/magnetic loss-interference condition of ``pol``.

    With (a, b) = (eps, mu) for TM and (mu, eps) for TE, a lossless medium 1
    and a2 = a' + i*a'', b2 = b' + i*b'', the minimum of |kappa| is a genuine
    cancellation point when, to first order in the losses,

        b''*a'*(a'**2 - a1**2) = a''*(b'*(a'**2 + a1**2) - 2*a1*a'*b1).

    Returned as a symmetric cross-multiplied relative mismatch in [0, 1]:
    ~0 at a cancellation point, ~1 when one side vanishes (e.g. a metal with
    lossless unit permeability, for which the TM condition has no solution).
    A scalar ``omega`` with scalar media gives a float; an array ``omega``
    or a batch of media gives an array of their broadcast shape.
    """
    r1 = eval_material(m1, omega)
    r2 = eval_material(m2, omega)
    a1, a2, b1, b2 = _by_polarization(pol, r1.epsilon, r1.mu, r2.epsilon, r2.mu)
    a1, b1 = a1.real, b1.real
    ar, ai = a2.real, a2.imag
    br, bi = b2.real, b2.imag
    lhs = bi * ar * (ar * ar - a1 * a1)
    rhs = ai * (br * (ar * ar + a1 * a1) - 2.0 * ar * a1 * b1)
    scale = abs(lhs) + abs(rhs)  # zero only where lhs = rhs = 0, a mismatch of 0
    mismatch = abs(lhs - rhs) / np.where(scale == 0.0, 1.0, scale)
    return float(mismatch) if np.ndim(mismatch) == 0 else mismatch


def find_abyss(
    m1: HalfSpaceMaterial,
    m2: HalfSpaceMaterial,
    search_band: tuple[float, float],
    pol: Polarization = Polarization.TM,
    n_grid: int = 512,
) -> AbyssResult:
    """Locate the minimum of |kappa(w)| inside ``search_band``.

    A coarse scan of ``n_grid >= 3`` points, solved as one array, brackets
    the minimum; each refinement step solves 33 points across the bracket as
    one array and narrows it to the neighbours of their minimum, down to a
    relative width of 1e-9.  Where kappa changes sign there (a genuine
    cancellation), a linear step lands on the root, and the floor
    ``kappa_at_omega0`` is zero to rounding.  A coarse minimum on a band
    edge means no interior minimum: :class:`AbyssNotFoundError`.  The
    loss-interference residual at the minimizer is a diagnostic;
    ``is_cancellation`` is False when it exceeds 0.05 (a minimum exists but
    losses do not cancel there).

    A batch of media (``(n, 1)`` loss rates, see
    :class:`~polariton_lab.materials.DrudeParams`) is searched row by row in
    lockstep: the coarse scan is one ``(n, n_grid)`` solve, each refinement
    step one solve over the rows still wider than 1e-9 (a row that is narrow
    enough stops, so it takes exactly the steps it takes alone), and the root
    step one solve over the rows where kappa changes sign.  The result holds
    arrays, each row bit-equal to a search with the medium of that row, and
    NaN in the rows with no interior minimum; nothing is raised for them.
    """
    lo, hi = search_band
    if not (0 < lo < hi):
        raise ValueError(f"invalid search band {search_band!r}")
    if n_grid < 3:
        raise ValueError(f"n_grid must be at least 3 to bracket a minimum, got {n_grid!r}")
    batch = _batch_rows(m1, m2)

    grid = np.linspace(lo, hi, n_grid)
    kappa = sp_wavevector(m1, m2, grid, pol).kappa.reshape(-1, n_grid)
    i = np.argmin(np.abs(kappa), axis=1)
    found = np.flatnonzero((i > 0) & (i < n_grid - 1))
    if batch is None and not found.size:
        raise AbyssNotFoundError(
            f"no interior |kappa| minimum in [{lo:.6e}, {hi:.6e}] "
            f"(edge value {abs(kappa[0, i[0]]):.6e} 1/m)"
        )

    # Row r of win_w, win_k: the minimum of found row r's latest scan
    # (column 1) between its two neighbours, NaN past an end of the scan.
    win_w, win_k = _window(np.broadcast_to(grid, kappa.shape)[found], kappa[found], i[found])
    narrowing = np.arange(found.size)
    while True:
        # The bracket: the neighbours, or the minimum itself past an end (the
        # scans ascend, and fmin and fmax pass over NaN).
        a, c = np.fmin(win_w[:, 0], win_w[:, 1]), np.fmax(win_w[:, 1], win_w[:, 2])
        narrowing = narrowing[c[narrowing] - a[narrowing] > _ABYSS_XTOL * win_w[narrowing, 1]]
        if not narrowing.size:
            break
        zoom = np.linspace(a[narrowing], c[narrowing], _ZOOM_POINTS, axis=-1)
        rows = found[narrowing]
        k = sp_wavevector(_take(m1, rows), _take(m2, rows), zoom, pol).kappa
        win_w[narrowing], win_k[narrowing] = _window(zoom, k, np.argmin(np.abs(k), axis=1))

    omega0, kappa0 = win_w[:, 1], win_k[:, 1]
    # A sign change of kappa next to the minimum: step to its root.
    left = win_k[:, 0] * kappa0 < 0
    crossing = np.flatnonzero(left | (win_k[:, 2] * kappa0 < 0))
    if crossing.size:
        side = np.where(left[crossing], 0, 2)
        w_i, k_i = omega0[crossing], kappa0[crossing]
        w_j, k_j = win_w[crossing, side], win_k[crossing, side]
        omega0[crossing] = w_i - k_i * (w_j - w_i) / (k_j - k_i)
        rows = found[crossing]
        root = sp_wavevector(_take(m1, rows), _take(m2, rows), omega0[crossing, None], pol)
        kappa0[crossing] = root.kappa[:, 0]
    media = _take(m1, found), _take(m2, found)
    residual = loss_cancellation_residual(*media, omega0[:, None], pol)[:, 0]
    if batch is None:
        return AbyssResult(float(omega0[0]), float(kappa0[0]), float(residual[0]))
    table = np.full((3, batch), np.nan)
    table[:, found] = omega0, kappa0, residual
    return AbyssResult(*table)


def _batch_rows(*media: HalfSpaceMaterial) -> int | None:
    """Row count of a batch of media, or None when every parameter is a scalar."""
    shapes = {
        np.shape(model.loss_rate)
        for m in media
        for model in (m.epsilon_model, m.mu_model)
        if isinstance(model, DrudeParams) and np.ndim(model.loss_rate)
    }
    if len(shapes) > 1 or any(len(s) != 2 or s[1] != 1 for s in shapes):
        raise ValueError(f"a batch of media needs loss rates of one shape (n, 1), got {shapes}")
    return shapes.pop()[0] if shapes else None


def _take(m: HalfSpaceMaterial, rows: np.ndarray) -> HalfSpaceMaterial:
    """Rows ``rows`` of a batch of media; scalar media as they are."""

    def cut(model):
        if isinstance(model, DrudeParams) and np.ndim(model.loss_rate):
            return replace(model, loss_rate=model.loss_rate[rows])
        return model

    return replace(m, epsilon_model=cut(m.epsilon_model), mu_model=cut(m.mu_model))


def _window(w: np.ndarray, k: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns j - 1, j and j + 1 of each row of the scan (w, k); NaN past an end."""
    cols = j[:, None] + np.arange(-1, 2)
    inside = (cols >= 0) & (cols < w.shape[1])
    cols = np.clip(cols, 0, w.shape[1] - 1)
    w, k = (np.where(inside, np.take_along_axis(x, cols, axis=1), np.nan) for x in (w, k))
    return w, k


def swap_eps_mu(m: HalfSpaceMaterial) -> HalfSpaceMaterial:
    """Material with electric and magnetic responses interchanged."""
    return HalfSpaceMaterial(
        epsilon_model=m.mu_model, mu_model=m.epsilon_model, label=f"{m.label}-dual"
    )
