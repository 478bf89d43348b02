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
residual check rejects them.  Where the denominator a2**2 - a1**2 vanishes
(TE at a non-magnetic metal, or two equal media) the relation has no
solution: the mode fields are NaN and the point is unbound, as an element of
whatever array it sits in, so one array pass covers every frequency.

Sign note: kappa is reported as computed from the chosen branch.  At a
dielectric/negative-index interface the TM mode changes the sign of kappa
through the loss-cancellation frequency (and the TE mode carries kappa < 0
over most of its band); these are backward-wave regions where energy flows
against the phase, so the attenuation along the energy flow is |kappa|.
Loss-minimum searches therefore operate on |kappa|.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AbyssNotFoundError
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

    Where the denominator a2**2 - a1**2 vanishes (to ``_DEGENERATE_TOL``) the
    dispersion relation has no solution: the radicand is NaN there, without a
    warning, so the point comes out unbound.
    """
    r1, r2 = eval_material(m1, w), eval_material(m2, w)
    a1, a2, b1, b2 = _by_polarization(pol, r1.epsilon, r1.mu, r2.epsilon, r2.mu)
    denom = a2 * a2 - a1 * a1
    degenerate = np.abs(denom) < _DEGENERATE_TOL * np.abs(a1) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        radicand = np.where(degenerate, np.nan, a1 * a2 * (a2 * b1 - a1 * b2) / denom)
    return (a1, a2, b1, b2), denom, radicand


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
    ``i`` bit-equal to a call with the medium of row ``i``.  Where the
    denominator is degenerate (a2**2 == a1**2 for the active polarization)
    there is no mode: that element has NaN mode fields and ``bound=False``,
    and the other elements are solved as usual.
    """
    _, _, fields = _solve(m1, m2, _frequencies(omega), pol)
    return DispersionPoint(polarization=pol, **{n: _shaped(v, omega) for n, v in fields.items()})


def polarization_support(
    m1: HalfSpaceMaterial, m2: HalfSpaceMaterial, omega: float
) -> set[Polarization]:
    """Subset of {TM, TE} that is bound at ``omega``.

    A polarization whose dispersion formula is degenerate at this interface
    (e.g. TE with equal constant permeabilities) has no mode, so it is not
    in the set.
    """
    return {pol for pol in Polarization if sp_wavevector(m1, m2, omega, pol).bound}


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
    unbound = ~fields["bound"]
    if unbound.any():
        first = np.broadcast_to(w, unbound.shape)[unbound][0]
        raise ValueError(f"no bound {pol.value} mode at omega = {first:.3g} "
                         f"({np.count_nonzero(unbound)} of {unbound.size} points unbound)")
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
    relative width of 1e-9.  A NaN kappa (a degenerate, unbound frequency,
    see :func:`sp_wavevector`) is never the minimum.  Where kappa changes
    sign there (a genuine cancellation), a linear step lands on the root,
    and the floor ``kappa_at_omega0`` is zero to rounding.  A coarse minimum
    on a band edge means no interior minimum: :class:`AbyssNotFoundError`.
    The loss-interference residual at the minimizer is a diagnostic;
    ``is_cancellation`` is False when it exceeds 0.05 (a minimum exists but
    losses do not cancel there).

    A batch of media (``(n, 1)`` loss rates, see
    :class:`~polariton_lab.materials.DrudeParams`) is searched row by row in
    lockstep: the coarse scan is one ``(n, n_grid)`` solve, each refinement
    step one ``(n, 33)`` solve of which only the rows with an interior
    minimum that are still wider than 1e-9 take the new bracket (a row that
    is narrow enough stops, so it takes exactly the steps it takes alone),
    and the root step one solve whose value only the rows where kappa
    changes sign take.  The result holds arrays, each row bit-equal to a
    search with the medium of that row, and NaN in the rows with no interior
    minimum; nothing is raised for them.
    """
    lo, hi = search_band
    if not (0 < lo < hi):
        raise ValueError(f"invalid search band {search_band!r}")
    if n_grid < 3:
        raise ValueError(f"n_grid must be at least 3 to bracket a minimum, got {n_grid!r}")
    batch = _batch_rows(m1, m2)

    grid = np.linspace(lo, hi, n_grid)
    kappa = sp_wavevector(m1, m2, grid, pol).kappa.reshape(-1, n_grid)
    i = np.argmin(np.fmin(np.abs(kappa), np.inf), axis=1)  # NaN is never the minimum
    found = (i > 0) & (i < n_grid - 1)
    if batch is None and not found[0]:
        raise AbyssNotFoundError(
            f"no interior |kappa| minimum in [{lo:.6e}, {hi:.6e}] "
            f"(edge value {abs(kappa[0, i[0]]):.6e} 1/m)"
        )

    # Row r of win_w, win_k: the minimum of row r's latest scan (column 1)
    # between its two neighbours, which are the bracket; at an end of the
    # scan the neighbour is the minimum itself.
    win_w, win_k = _window(np.broadcast_to(grid, kappa.shape), kappa, i)
    while True:
        a, c = win_w[:, 0], win_w[:, 2]
        narrowing = found & (c - a > _ABYSS_XTOL * win_w[:, 1])
        if not narrowing.any():
            break
        zoom = np.linspace(a, c, _ZOOM_POINTS, axis=-1)
        k = sp_wavevector(m1, m2, zoom, pol).kappa
        new_w, new_k = _window(zoom, k, np.argmin(np.fmin(np.abs(k), np.inf), axis=1))
        win_w[narrowing], win_k[narrowing] = new_w[narrowing], new_k[narrowing]

    omega0, kappa0 = win_w[:, 1], win_k[:, 1]
    # A sign change of kappa next to the minimum: step to its root.  (A
    # neighbour clipped at a scan end is the minimum, and k * k < 0 is False.)
    left = win_k[:, 0] * kappa0 < 0
    crossing = found & (left | (win_k[:, 2] * kappa0 < 0))
    if crossing.any():
        w_j = np.where(left, win_w[:, 0], win_w[:, 2])
        k_j = np.where(left, win_k[:, 0], win_k[:, 2])
        step = np.divide(kappa0 * (w_j - omega0), k_j - kappa0, out=np.zeros_like(omega0),
                         where=crossing)
        omega0 = omega0 - step
        root = sp_wavevector(m1, m2, omega0[:, None], pol).kappa[:, 0]
        kappa0 = np.where(crossing, root, kappa0)
    residual = loss_cancellation_residual(m1, m2, omega0[:, None], pol)[:, 0]
    table = np.where(found, (omega0, kappa0, residual), np.nan)
    if batch is None:
        return AbyssResult(*(float(v[0]) for v in table))
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


def _window(w: np.ndarray, k: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Columns j - 1, j and j + 1 of each row of the scan (w, k), clipped at its ends."""
    cols = np.clip(j[:, None] + np.arange(-1, 2), 0, w.shape[1] - 1)
    return np.take_along_axis(w, cols, axis=1), np.take_along_axis(k, cols, axis=1)


def swap_eps_mu(m: HalfSpaceMaterial) -> HalfSpaceMaterial:
    """Material with electric and magnetic responses interchanged."""
    return HalfSpaceMaterial(
        epsilon_model=m.mu_model, mu_model=m.epsilon_model, label=f"{m.label}-dual"
    )
