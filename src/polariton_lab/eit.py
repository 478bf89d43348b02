"""Spectral absorption of the surface probe inside a three-level control layer.

A uniform layer of Lambda emitters (density ``n``, thickness ``z0``) sits on
the dielectric side of the interface.  The probe decays as exp(-2*k1s*z) and
the control intensity as exp(-2*k1c*z), so the layer response at detuning
``nu`` from the probe resonance is the transverse integral

    alpha(nu) = 2*pi * (|g|^2/v0) * n * Ly * (gamma21 - i*nu)
                * Int_0^z0 exp(-2*k1s*z)
                  / (|Omega|^2 exp(-2*k1c*z) - (nu+i*gamma21)(nu+i*Gamma31)) dz.

The integral has the closed form alpha = alpha0 * G with

    G = i*Gamma31/(nu + i*Gamma31)
        * [ F(1/beta) - exp(-2*k1s*z0) * F(exp(-2*k1c*z0)/beta) ],

    F(z) = 2F1(1, b; b+1; z),    b = k1s/k1c,
    beta = (nu + i*gamma21)(nu + i*Gamma31) / |Omega|^2,

and the control-off resonant value is alpha0 = pi*n*Ly*|g|^2/(k1s*v0*Gamma31).
Both routes are implemented: the closed form (`alpha_closed`) and direct
adaptive quadrature of the layer integral (`alpha_quadrature`), which serves
as an independent cross-check of the hypergeometric kernel.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BranchCutError, NumericError

_SERIES_RADIUS = 0.8
_CONNECTION_RADIUS = 1.25
_SERIES_TOL = 1e-16
_QUAD_EPS = 1e-12
# pi/sin(pi*e) - 1/e = sum_k c_k e^(2k-1) with c_k = 2*(1 - 2^(1-2k))*zeta(2k),
# k = 8 down to 1; eight terms reach rounding level for |e| < 0.05.
_CSC_ODD = [1.9999695284298122, 1.9998783406919596, 1.9995153702877164, 1.9980790151965429,
            1.992466003705296, 1.9711021825948705, 1.8940656589944918, 1.6449340668482264]
# The 24-point Gauss-Legendre rule on [-1, 1], numpy's leggauss(24) to the
# bit (nodes odd, weights even), written out so that numpy.polynomial is not
# imported.
_HALF_NODES = np.array([
    0.06405689286260563, 0.19111886747361631, 0.3150426796961634, 0.43379350762604513,
    0.54542147138883956, 0.64809365193697555, 0.74012419157855436, 0.82000198597390295,
    0.88641552700440107, 0.9382745520027328, 0.97472855597130947, 0.99518721999702131])
_HALF_WEIGHTS = np.array([
    0.12793819534675202, 0.12583745634682825, 0.12167047292780329, 0.11550566805372552,
    0.10744427011596556, 0.097618652104113926, 0.086190161531953205, 0.073346481411080161,
    0.05929858491543636, 0.044277438817419412, 0.028531388628933559, 0.01234122979998869])
_RING_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
_RING_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])


@dataclass(frozen=True)
class LambdaMediumParams:
    """Geometry and rates of the Lambda layer riding on the surface mode.

    Defaults correspond to a rare-earth-doped layer (Pr:YSO-like rates) on
    the dielectric side of the low-loss operating point: density 1e24 m^-3,
    linewidth Gamma31 = 1e9 rad/s, ground coherence decay 1e3 s^-1, probe and
    control confinement 1/um, transverse width 2.5 um.  The 10 nm layer
    thickness pins the slow-light delay of the reference pulse scenarios
    (delay scales with n * z0 at fixed alpha0, and only the product is
    constrained by the headline numbers).

    ``Omega`` is a float or an ndarray of control amplitudes that broadcasts
    against the detunings given to :func:`alpha_closed`, which then
    evaluates every (Omega, nu) pair at once; each element must be
    non-negative (NaN fails every check).  :func:`alpha_quadrature` takes a
    scalar ``Omega`` only, and only a scalar ``Omega`` supports ``==`` and
    hashing.
    """

    n: float = 1e24
    z0: float = 1e-8
    gamma21: float = 1e3
    Gamma31: float = 1e9
    Omega: float | np.ndarray = 1e9
    k1s: float = 1e6
    k1c: float = 1e6
    Ly: float = 2.5e-6

    def __post_init__(self) -> None:
        if not self.n >= 0:
            raise ValueError("density n must be non-negative")
        if not self.z0 > 0:
            raise ValueError("layer thickness z0 must be positive")
        if not self.gamma21 >= 0:
            raise ValueError("gamma21 must be non-negative")
        if not self.Gamma31 > 0:
            raise ValueError("Gamma31 must be positive")
        if not np.all(np.asarray(self.Omega) >= 0):
            raise ValueError("Omega must be non-negative")
        if not (self.k1s > 0 and self.k1c > 0):
            raise ValueError("k1s and k1c must be positive")
        if not self.Ly > 0:
            raise ValueError("Ly must be positive")
        if self.gamma21 >= 0.1 * self.Gamma31:
            warnings.warn(
                f"gamma21 = {self.gamma21:.3e} is not small against "
                f"Gamma31 = {self.Gamma31:.3e}",
                stacklevel=3,
            )


@dataclass(frozen=True)
class EitResponse:
    """Complex absorption alpha = alpha0 * G at one detuning or over an array of them."""

    nu: float | np.ndarray
    alpha: complex | np.ndarray
    beta: complex | np.ndarray
    G: complex | np.ndarray


def hyp2f1_special(b: complex, z: complex | np.ndarray) -> complex | np.ndarray:
    """Gauss hypergeometric 2F1(1, b; b+1; z) for Re(b) > 0, z off [1, inf).

    ``z`` is a scalar (the result is a complex) or an ndarray (the result has
    its shape); each element is evaluated in one of three regions:

    * ``|z| <= 0.8``: the power series b*sum z^n/(b+n);
    * ``|z| > 1.25``: the 1/z connection formula (:func:`_connection`);
    * the ring between: continuation of the series along the ray through
      ``z`` by a fixed Gauss-Legendre rule (:func:`_ring`).

    Every region is one array pass, so an element's value does not depend on
    the other elements or on the size of the call.  (A complex product whose
    right operand is a fresh temporary is written with both operands named:
    numpy reuses a temporary of 256 KiB or more in place, so ``a * f(x)``
    runs as ``f(x) * a``, and the complex multiply does not always round
    ``a*b`` as ``b*a``.)  An element on the cut raises
    :class:`BranchCutError` for the whole call.
    """
    b = complex(b)
    if not b.real > 0:
        raise ValueError(f"need Re(b) > 0, got b = {b!r}")
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).reshape(-1)
    cut = (z.imag == 0.0) & (z.real >= 1.0)
    if cut.any():
        raise BranchCutError(f"z = {complex(z[cut][0])!r} lies on the branch cut [1, inf)")

    r = np.abs(z)
    outer = r > _CONNECTION_RADIUS
    ring = (r > _SERIES_RADIUS) & ~outer
    w = z.copy()
    w[ring] = _SERIES_RADIUS * (z[ring] / r[ring])  # where the ring leaves the series disc
    F = np.empty(z.shape, dtype=complex)
    F[~outer] = _power_series(w[~outer], b)
    F[outer] = _connection(b, z[outer])
    F[ring] = _ring(b, z[ring], F[ring])
    F = b * F  # not in place: F *= b would round as F * b
    return complex(F[0]) if shape == () else F.reshape(shape)


def _power_series(w: np.ndarray, shift: complex, skip: int = -1) -> np.ndarray:
    """sum_{n >= 0, n != skip} w^n/(n + shift) for |w| <= 0.8.

    Each element stops at its own first negligible term, so an element's
    value does not depend on the other elements of the array.  Once at least
    half of the working elements have stopped, their totals are stored and
    the working arrays shrink to the live ones: elements near |w| = 0.8 need
    about 165 terms, most others far fewer.  (Shrinking on every term costs
    more in copies than it saves.)
    """
    out = np.empty(w.shape, dtype=complex)
    index = np.arange(w.size)
    total = np.zeros(w.shape, dtype=complex)
    power = np.ones(w.shape, dtype=complex)
    active = np.ones(w.shape, dtype=bool)
    for n in range(400):
        if n != skip:
            term = power / (n + shift)
            total = np.where(active, total + term, total)
            active &= np.abs(term) > _SERIES_TOL * np.maximum(np.abs(total), 1e-300)
            n_live = np.count_nonzero(active)
            if 2 * n_live <= index.size:
                out[index[~active]] = total[~active]
                if n_live == 0:
                    return out
                index, w, power, total = index[active], w[active], power[active], total[active]
                active = np.ones(n_live, dtype=bool)
        power = power * w
    raise NumericError(f"2F1 series with shift {shift!r} did not converge")


def _csc_minus_pole(eps: complex) -> complex:
    """pi/sin(pi*eps) - 1/eps, which is 0 at eps = 0."""
    if abs(eps) >= 0.05:
        return math.pi / cmath.sin(math.pi * eps) - 1.0 / eps
    return eps * complex(np.polyval(_CSC_ODD, eps * eps))


def _connection(b: complex, z: np.ndarray) -> np.ndarray:
    """2F1(1, b; b+1; z)/b for |z| > 1.25 from the 1/z connection formula.

    DLMF 15.8.2 gives F/b = pi*(-z)^(-b)/sin(pi*b) + sum_{n>=0} z^(-n-1)/(n+1-b).
    With m = round(Re b), eps = b - m and L = log(-z), the sine term and the
    n = m-1 term of the sum have cancelling poles at eps = 0; together they are

        z^(-m) * [e^(-eps*L)*(pi/sin(pi*eps) - 1/eps) + expm1(-eps*L)/eps],

    whose limit at eps = 0 is -L*z^(-m).  So integer, near-integer and
    complex b take the same formula.  For m = 0 (Re b <= 1/2) the sum has no
    pole to pair, and the sine term is used as it stands.
    """
    m = round(b.real)
    eps = b - m
    L = np.log(-z)
    if m == 0:
        pair = np.exp(-b * L) * (math.pi / cmath.sin(math.pi * b))
    else:
        x = -eps * L  # expm1(x)/eps = -L * expm1(x)/x, and expm1(x)/x = 1 + x/2 + O(x^2)
        small = np.abs(x) < 1e-8
        tail = -L * np.where(small, 1.0 + x / 2, np.expm1(x) / np.where(small, 1.0, x))
        pair = np.exp(x) * _csc_minus_pole(eps) + tail
    w = 1.0 / z
    series = _power_series(w, 1.0 - b, skip=m - 1)  # named: see hyp2f1_special
    return w**m * pair + w * series


def _ring(b: complex, z: np.ndarray, phi0: np.ndarray) -> np.ndarray:
    """2F1(1, b; b+1; z)/b for 0.8 < |z| <= 1.25 by continuation from |z| = 0.8.

    Phi = F/b = sum z^n/(n+b) obeys d/dr [r^b Phi(r*zh)] = r^(b-1)/(1 - r*zh)
    on the ray zh = z/|z| (DLMF 15.6.1), so with r0 = 0.8 and g(r) = (r/|z|)^b/r

        Phi(z) = (r0/|z|)^b * Phi(r0*zh) + Int_{r0}^{|z|} g(r)/(1 - r*zh) dr,

    with Phi(r0*zh) = ``phi0`` from the caller's series pass and the integral
    on 24 Gauss-Legendre nodes (g is singular only at r = 0, 0.8 from the
    path).  Within 45 degrees of the cut the pole at r* = 1/zh is
    subtracted, leaving a regular remainder, and added back as
    -g(r*)*[log(1-z) - log(1-r0*zh)]/zh, so z may lie as close to the cut as
    it likes.  Farther out g(r*), up to e^(pi*|Im b|) in size, would only
    cancel digits.
    """
    r = np.abs(z)
    zh = z / r
    start = _SERIES_RADIUS * zh
    half = 0.5 * (r - _SERIES_RADIUS)
    nodes = _SERIES_RADIUS + half[:, None] * (_RING_NODES + 1.0)
    pole = 1.0 / zh
    near = np.abs(np.angle(z)) < math.pi / 4
    log_pole = np.log(pole / r)  # named operands: see hyp2f1_special
    c = np.where(near, np.exp(b * log_pole) / pole, 0.0)
    g = np.exp(b * np.log(nodes / r[:, None])) / nodes
    rest = half * np.sum(_RING_WEIGHTS * (g - c[:, None]) / (1.0 - nodes * zh[:, None]), axis=1)
    log_step = np.log(1.0 - z) - np.log(1.0 - start)
    return np.exp(b * np.log(_SERIES_RADIUS / r)) * phi0 + rest - c * log_step / zh


def _pair_product(p: LambdaMediumParams, nu: float | np.ndarray) -> complex | np.ndarray:
    return (nu + 1j * p.gamma21) * (nu + 1j * p.Gamma31)


def alpha_closed(p: LambdaMediumParams, alpha0: float, nu: float | np.ndarray) -> EitResponse:
    """Closed-form layer absorption alpha0 * G(nu) at a scalar or an ndarray ``nu``.

    ``p.Omega`` may be an ndarray too; it is broadcast against ``nu``, and
    the whole grid takes one :func:`hyp2f1_special` call for both of its 2F1
    arguments.  An element is the same, bit for bit, as a call with that
    Omega and that nu alone.  The response is made of Python scalars when
    ``nu`` and ``p.Omega`` are both scalars, and of arrays of the broadcast
    shape otherwise.

    An Omega = 0 element (or one whose square is subnormal) is served
    through the analytic control-off limit (both 2F1 factors -> 1).  An exact
    two-photon resonance with no ground decoherence (w = 0) is transparent,
    and so is a beta too small for 1/beta to be finite (the beta -> 0 limit,
    G -> 0).  A detuning whose 1/beta lands on the 2F1 branch cut raises
    BranchCutError; with validated rates that happens only where
    nu*(gamma21 + Gamma31) underflows.
    """
    scalar = np.ndim(nu) == 0 and np.ndim(p.Omega) == 0
    # float_power rounds as Python's float ** does (the C library's pow);
    # numpy's ** squares by one multiply, which rounds differently now and then.
    om_sq = np.float_power(p.Omega, 2)
    nu = np.array(nu, dtype=float, ndmin=1)
    nu, om_sq = np.broadcast_arrays(nu, om_sq)
    # k1s, k1c > 0, so a semi-infinite layer (z0 = inf) gives exp(-inf) = 0.
    decay_s = math.exp(-2.0 * p.k1s * p.z0)
    decay_c = math.exp(-2.0 * p.k1c * p.z0)

    off = om_sq < np.finfo(float).tiny
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        beta = _pair_product(p, nu) / om_sq
        live = ~off & np.isfinite(1.0 / beta)
    beta[off] = math.inf
    z = np.concatenate([1.0 / beta[live], decay_c / beta[live]])
    F1, F2 = np.split(hyp2f1_special(p.k1s / p.k1c, z), 2)
    G = np.zeros(nu.shape, dtype=complex)
    G[off] = 1j * p.Gamma31 / (nu[off] + 1j * p.Gamma31) * (1.0 - decay_s)
    G[live] = 1j * p.Gamma31 / (nu[live] + 1j * p.Gamma31) * (F1 - decay_s * F2)

    alpha = alpha0 * G
    if scalar:
        return EitResponse(nu=nu.item(), alpha=alpha.item(), beta=beta.item(), G=G.item())
    return EitResponse(nu=nu, alpha=alpha, beta=beta, G=G)


def alpha_quadrature(p: LambdaMediumParams, gsq_over_v0: float, nu: float) -> complex:
    """Layer absorption by direct adaptive quadrature of the z integral.

    ``gsq_over_v0`` is |g|^2/v0; the uniform-density y integral contributes
    the factor Ly.  This is the independent oracle for :func:`alpha_closed`;
    it needs scipy (a ``test`` extra, not a runtime dependency), imported
    here so that the closed form and the CLI load numpy alone.
    """
    if np.ndim(p.Omega) != 0:
        raise ValueError("alpha_quadrature takes a scalar Omega")
    try:
        from scipy.integrate import IntegrationWarning, quad
    except ImportError as exc:
        raise ImportError(
            "alpha_quadrature needs scipy: pip install polariton-lab[test]"
        ) from exc

    if p.n == 0.0 or gsq_over_v0 == 0.0:
        return 0j
    w = _pair_product(p, nu)
    if w == 0 and p.Omega == 0.0:
        raise NumericError("layer integrand is singular: Omega = 0 with nu = gamma21 = 0")
    if w == 0:
        return 0j  # numerator (gamma21 - i*nu) vanishes identically

    om_sq = p.Omega**2

    def integrand(z: float) -> complex:
        return np.exp(-2.0 * p.k1s * z) / (om_sq * np.exp(-2.0 * p.k1c * z) - w)

    # Breakpoints where the control envelope crosses the |w| scale: the
    # denominator reaches its closest approach to zero there.
    points = []
    z_peak = None
    if p.Omega > 0:
        ratio = om_sq / abs(w)
        if ratio > 1.0:
            z_peak = math.log(ratio) / (2.0 * p.k1c)
    z_hi = p.z0
    if not math.isfinite(z_hi):
        # Probe weight e^(-2*k1s*z) truncates the layer integral.
        z_hi = 25.0 / p.k1s
        if z_peak is not None:
            z_hi = max(z_hi, 2.0 * z_peak)
    if z_peak is not None and 0.0 < z_peak < z_hi:
        points.append(z_peak)
    scale = max(abs(integrand(0.0)), abs(integrand(z_hi)), 1e-300) * min(
        z_hi, 1.0 / (2.0 * p.k1s)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        re, re_err = quad(
            lambda z: integrand(z).real, 0.0, z_hi,
            epsabs=1e-14 * scale, epsrel=_QUAD_EPS, limit=500, points=points or None,
        )
        im, im_err = quad(
            lambda z: integrand(z).imag, 0.0, z_hi,
            epsabs=1e-14 * scale, epsrel=_QUAD_EPS, limit=500, points=points or None,
        )
    integral = complex(re, im)
    err = re_err + im_err
    if err > 1e-8 * (scale + abs(integral)):
        raise NumericError(
            f"layer quadrature did not converge at nu = {nu:.6e} (err {err:.3e})"
        )
    return 2.0 * math.pi * gsq_over_v0 * p.n * p.Ly * (p.gamma21 - 1j * nu) * integral


def alpha_resonant(p: LambdaMediumParams, gsq: float, v0: float) -> float:
    """Control-off resonant absorption alpha0 = pi*n*Ly*|g|^2/(k1s*v0*Gamma31)."""
    if not v0 > 0:
        raise ValueError("v0 must be positive")
    if gsq < 0:
        raise ValueError("gsq must be non-negative")
    return math.pi * p.n * p.Ly * gsq / (p.k1s * v0 * p.Gamma31)
