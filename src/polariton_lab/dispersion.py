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
_SCAN_POINTS = 512


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


def _dk_domega(m1, m2, w: np.ndarray, pol: Polarization, interface, k: np.ndarray) -> np.ndarray:
    """Closed-form dk/dw at ``w`` from its :func:`_interface` triple and its k.

    The radicand R(a1, a2, b1, b2) of k = (w/c)*sqrt(R) is homogeneous of
    degree 2, so (c*k)**2 = R(w*a1, w*a2, w*b1, w*b2) and

        2*c**2 * k * dk/dw = w * sum_j dR/da_j * d(w*a_j)/dw,

    with the analytic d(w*a_j)/dw of the material models.
    """
    (a1, a2, b1, b2), denom, radicand = interface
    da1, da2, db1, db2 = _by_polarization(pol, *d_omega_material(m1, w), *d_omega_material(m2, w))
    # R = N / denom with N = a1*a2**2*b1 - a1**2*a2*b2.
    d_radicand = (
        (a2 * a2 * b1 - 2.0 * a1 * a2 * b2 + 2.0 * radicand * a1) * da1
        + (2.0 * a1 * a2 * b1 - a1 * a1 * b2 - 2.0 * radicand * a2) * da2
        + a1 * a2 * a2 * db1
        - a1 * a1 * a2 * db2
    ) / denom
    return w * d_radicand / (2.0 * C * C * k)


def group_velocity(
    m1: HalfSpaceMaterial,
    m2: HalfSpaceMaterial,
    omega,
    pol: Polarization = Polarization.TM,
):
    """Group velocity dw/dk_par = 1/Re(dk/dw) of the bare surface mode at ``omega``.

    dk/dw is the closed form of :func:`_dk_domega`.  A scalar ``omega``
    gives a float, an array gives an array; :class:`ValueError` is raised
    when any requested point is unbound.
    """
    w = _frequencies(omega)
    interface, k, fields = _solve(m1, m2, w, pol)
    unbound = ~fields["bound"]
    if unbound.any():
        first = np.broadcast_to(w, unbound.shape)[unbound][0]
        raise ValueError(f"no bound {pol.value} mode at omega = {first:.3g} "
                         f"({np.count_nonzero(unbound)} of {unbound.size} points unbound)")
    return _shaped(1.0 / _dk_domega(m1, m2, w, pol, interface, k).real, omega)


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
) -> AbyssResult:
    """Locate the minimum of |kappa(w)| inside ``search_band``.

    Every minimum is a root of h = kappa * dkappa/dw, half of d(kappa**2)/dw,
    with dkappa/dw = Im(dk/dw) in closed form (:func:`_dk_domega`): kappa
    changes sign at a genuine cancellation, and dkappa/dw vanishes at a
    smooth minimum (the TE mode).  A 512-point scan, solved as one array,
    brackets it by the neighbours of its smallest |kappa| (never a NaN, a
    degenerate point, see :func:`sp_wavevector`).  The minimum is found when
    that point is interior and h goes from < 0 to > 0 across the bracket;
    otherwise there is no interior minimum: :class:`AbyssNotFoundError`.
    Illinois steps on h (regula falsi that halves the stale end's h) shrink
    the bracket until h = 0 or it is a few ulp wide, and ``omega0`` is the
    end with the smaller |kappa|.  The loss-interference residual there is
    a diagnostic; ``is_cancellation`` is False when it exceeds 0.05 (a
    minimum exists but losses do not cancel there).

    A batch of media (``(n, 1)`` loss rates, see
    :class:`~polariton_lab.materials.DrudeParams`) is searched in lockstep:
    one ``(n, 512)`` scan, one ``(n, 2)`` solve of the brackets and one
    ``(n, 1)`` solve per step, whose values only the rows still searching
    take, so each row takes exactly the steps it takes alone.  The result
    holds arrays, each row bit-equal to a search with the medium of that
    row, and NaN in the rows with no interior minimum; nothing is raised.
    """
    lo, hi = search_band
    if not (0 < lo < hi):
        raise ValueError(f"invalid search band {search_band!r}")
    batch = _batch_rows(m1, m2)

    grid = np.linspace(lo, hi, _SCAN_POINTS)
    kappa = sp_wavevector(m1, m2, grid, pol).kappa.reshape(-1, _SCAN_POINTS)
    i = np.argmin(np.fmin(np.abs(kappa), np.inf), axis=1)  # NaN is never the minimum
    # Each row's bracket: its ends (columns a, b), with kappa and h there.
    ends = grid[np.clip(i[:, None] + (-1, 1), 0, _SCAN_POINTS - 1)]
    kap, h = _kappa_slope(m1, m2, ends, pol)
    found = (i > 0) & (i < _SCAN_POINTS - 1) & (h[:, 0] < 0) & (h[:, 1] > 0)
    if batch is None and not found[0]:
        raise AbyssNotFoundError(
            f"no interior |kappa| minimum in [{lo:.6e}, {hi:.6e}] (scan minimum "
            f"{abs(kappa[0, i[0]]):.6e} 1/m at {grid[i[0]]:.6e} rad/s)"
        )

    # Each step moves an end of every searching row to a point strictly
    # inside its bracket (the midpoint where regula falsi lands on or past an
    # end), or both ends to the root where h = 0, so the bracket holds fewer
    # floats after every step: each row stops, and then never changes again.
    moved = np.zeros_like(ends, dtype=bool)
    while (searching := found & (ends[:, 1] - ends[:, 0] > 4 * np.spacing(ends[:, 1]))).any():
        (a, b), (ha, hb) = ends.T, h.T
        with np.errstate(divide="ignore", invalid="ignore"):  # rows that stopped
            c = b - hb * (b - a) / (hb - ha)
        c = np.where(searching & (a < c) & (c < b), c, 0.5 * (a + b))[:, None]
        kc, hc = _kappa_slope(m1, m2, c, pol)
        now = searching[:, None] & np.hstack([hc <= 0, ~(hc < 0)])  # h = 0 moves both
        # Illinois: an end left behind twice in a row has its h halved.
        h = np.where(now, hc, np.where((now & moved)[:, ::-1], 0.5 * h, h))
        ends, kap, moved = np.where(now, c, ends), np.where(now, kc, kap), now

    nearer_b = np.abs(kap[:, 1]) < np.abs(kap[:, 0])
    omega0, kappa0 = np.where(nearer_b, (ends[:, 1], kap[:, 1]), (ends[:, 0], kap[:, 0]))
    residual = loss_cancellation_residual(m1, m2, omega0[:, None], pol)[:, 0]
    table = np.where(found, (omega0, kappa0, residual), np.nan)
    if batch is None:
        return AbyssResult(*(float(v[0]) for v in table))
    return AbyssResult(*table)


def _kappa_slope(m1, m2, w: np.ndarray, pol: Polarization) -> tuple[np.ndarray, np.ndarray]:
    """kappa and h = kappa * dkappa/dw at ``w``, NaN h at a degenerate point."""
    interface = _interface(m1, m2, w, pol)
    k = (w / C) * _principal_sqrt(interface[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        return k.imag, k.imag * _dk_domega(m1, m2, w, pol, interface, k).imag


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


def swap_eps_mu(m: HalfSpaceMaterial) -> HalfSpaceMaterial:
    """Material with electric and magnetic responses interchanged."""
    return HalfSpaceMaterial(
        epsilon_model=m.mu_model, mu_model=m.epsilon_model, label=f"{m.label}-dual"
    )
