"""Zero-temperature pair-breaking conductivity at complex frequency.

Everything here is in reduced units: frequencies ``nu`` and loss rates
``kappa`` are measured in units of the half-gap (Delta/hbar), so the
pair-breaking edge sits at ``nu = 2``; conductivities are normalized to the
normal-state conductivity.

Two independent evaluation routes are provided and kept deliberately
separate:

* :func:`sigma_oracle` integrates the literal three-interval spectral kernel
  by adaptive contour quadrature.  It is slow, transparent, and is the
  arbiter for every sign and branch convention used here.
* :func:`sigma_tilde` evaluates the closed form obtained by reducing the
  kernel to complete and incomplete elliptic integrals.  The branch
  constants in the assembly were fixed once against :func:`sigma_oracle`
  (they are not free parameters; see the tests, which re-derive them).

On the real axis the closed form collapses to the classic dissipative /
reactive pair of elliptic-integral expressions familiar from tunneling
spectroscopy, which :func:`sigma_real_axis` exposes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    ContourSegment,
    _complete_ke,
    _complete_pair,
    _incomplete_fe,
    contour_quadrature,
    endpoint_regularized,
)
from .errors import DomainError, GapSingularity

__all__ = [
    "ComplexFreq",
    "EllipticModuli",
    "moduli",
    "sigma_oracle",
    "sigma_tilde",
    "sigma_real_axis",
]


@dataclass(frozen=True)
class ComplexFreq:
    """Reduced complex frequency ``nu + i*kappa`` (units of Delta/hbar).

    ``nu`` must be positive and ``kappa`` non-negative: the upper half plane
    of the retarded response.
    """

    nu: float
    kappa: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.nu) and math.isfinite(self.kappa)):
            raise DomainError("frequency components must be finite")
        if self.nu <= 0.0:
            raise DomainError(f"nu must be positive, got {self.nu}")
        if self.kappa < 0.0:
            raise DomainError(f"kappa must be non-negative, got {self.kappa}")

    @property
    def as_complex(self) -> complex:
        return complex(self.nu, self.kappa)


@dataclass(frozen=True)
class EllipticModuli:
    """Moduli and amplitudes entering the elliptic-integral closed form.

    ``phase_theta`` and ``phase_phi`` are the unit-modulus amplitudes of the
    incomplete integrals generated by the two interval endpoints that map to
    the unit circle; in this parametrization the two coincide.  They tend to
    1 (not i) as ``kappa -> 0``.
    """

    k: complex
    k_prime: complex
    k1: complex
    phase_theta: complex
    phase_phi: complex


def moduli(freq: ComplexFreq, gap_window: float = 1e-6) -> EllipticModuli:
    """Elliptic moduli for the closed-form conductivity at ``freq``.

    Raises :class:`GapSingularity` when the frequency sits within
    ``gap_window`` of the pair-breaking edge with negligible imaginary part;
    the moduli degenerate there (k -> 0, k1 -> inf).
    """
    nu, kap = freq.nu, freq.kappa
    if abs(nu - 2.0) < gap_window and kap < gap_window:
        raise GapSingularity(
            f"frequency {nu} + {kap}i within {gap_window} of the gap edge"
        )
    w = nu - 1j * kap
    wb = nu + 1j * kap
    k = (w - 2.0) / (w + 2.0)
    k_prime = np.sqrt(1.0 - k * k)
    k1 = (wb + 2.0) / (w - 2.0)
    phase = (wb - 2.0) / (w - 2.0)
    return EllipticModuli(
        k=complex(k),
        k_prime=complex(k_prime),
        k1=complex(k1),
        phase_theta=complex(phase),
        phase_phi=complex(phase),
    )


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------


def _kernel(nu: float, kap: float):
    """Integrand of the three-interval spectral representation.

    Principal-branch square roots evaluated pointwise; the interval
    splitting in :func:`sigma_oracle` keeps each factor on a single branch.
    """

    def h(E):
        E = np.asarray(E, dtype=complex)
        num = (E + nu) * (E + 1j * kap) + 1.0
        den = np.sqrt((E + nu) ** 2 - 1.0) * np.sqrt((E + 1j * kap) ** 2 - 1.0)
        return num / den

    return h


def _tail_integral(nu: float, kap: float, tol: float) -> complex:
    """Difference of the two semi-infinite kernels above the integration box.

    The two integrands agree identically at ``kappa = 0`` (the correction
    vanishes) and their difference decays like 1/E^2.  Near E = 1 the
    substitution E = 1 + u^2 is used with the singular factor written as
    E^2 - 1 = u^2 (2 + u^2) to avoid catastrophic cancellation against the
    1/sqrt(E-1) edge of the subtracted kernel.
    """
    if kap == 0.0:
        return 0.0 + 0.0j
    w = nu - 1j * kap

    def diff_raw(E):
        E = np.asarray(E, dtype=complex)
        h = ((E + nu) * (E + 1j * kap) + 1.0) / (
            np.sqrt((E + nu) ** 2 - 1.0) * np.sqrt((E + 1j * kap) ** 2 - 1.0)
        )
        g = (E * E + E * w + 1.0) / (
            np.sqrt(E * E - 1.0) * np.sqrt((E + w) ** 2 - 1.0)
        )
        return h - g

    e_split = 6.0

    def near_u(u):
        u = np.asarray(u, dtype=complex)
        uu = u * u
        E = 1.0 + uu
        e2m1 = uu * (2.0 + uu)
        h = ((E + nu) * (E + 1j * kap) + 1.0) / (
            np.sqrt((E + nu) ** 2 - 1.0)
            * np.sqrt(e2m1 + 2j * kap * E - kap * kap)
        )
        g = (E * E + E * w + 1.0) / (
            u * np.sqrt(2.0 + uu) * np.sqrt((E + w) ** 2 - 1.0)
        )
        return (h - g) * 2.0 * u

    seg1 = ContourSegment(1e-300, math.sqrt(e_split - 1.0), tol=tol)
    near, _ = contour_quadrature(near_u, seg1)

    def far(t):
        t = np.asarray(t, dtype=complex)
        E = 1.0 / t
        return diff_raw(E) / (t * t)

    seg2 = ContourSegment(1e-10, 1.0 / e_split, tol=tol)
    tail, _ = contour_quadrature(far, seg2)
    return near + tail


def sigma_oracle(
    freq: ComplexFreq, tol: float = 1e-9, include_tail: bool = False
) -> complex:
    """Adaptive-quadrature evaluation of the pair-breaking conductivity.

    Valid above the gap (``nu > 2``).  Integrates the literal kernel over
    the three intervals (1-nu, -1), (-1, 0), (0, 1) after a sine
    substitution that absorbs the inverse-square-root endpoint
    singularities.  ``include_tail`` restores the semi-infinite
    kernel-difference correction that the closed form discards.
    """
    nu, kap = freq.nu, freq.kappa
    if nu <= 2.0:
        raise DomainError(
            f"oracle kernel requires nu > 2 (pair breaking open), got nu={nu}"
        )
    w = nu - 1j * kap
    h = _kernel(nu, kap)
    seg = ContourSegment(-math.pi / 2.0, math.pi / 2.0, tol=tol)
    parts = []
    for a, b in ((1.0 - nu, -1.0), (-1.0, 0.0), (0.0, 1.0)):
        val, _ = contour_quadrature(endpoint_regularized(h, a, b), seg)
        parts.append(val)
    sigma = (-parts[0] - parts[1] + parts[2]) / w
    if include_tail:
        sigma += _tail_integral(nu, kap, tol) / w
    return sigma


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------


def sigma_tilde(freq: ComplexFreq, gap_window: float = 1e-6) -> complex:
    """Closed-form conductivity ``sigma1 - i*sigma2`` at complex frequency.

    Above the gap the kernel reduces to

        sigma = (1 + 2/w) E(k) - (4/w) K(k)
                - (i/2) (1 + 2/w) [E(k') - E(z2; k')]
                + (i/2) (1 - 2/w) [K(k') - F(z2; k')]

    with w = nu - i*kappa, the moduli of :func:`moduli`, and
    z2 = sqrt(1 - k1^2 k^2)/k'.  The incomplete corrections vanish
    quadratically as kappa -> 0, leaving the classic real-axis pair.  Each
    sign here was fixed against :func:`sigma_oracle`; do not "simplify"
    them.  On the real axis (``kappa == 0``, either side of the gap) it
    returns :func:`sigma_real_axis`.  Below the gap with ``kappa > 0`` it
    continues the reactive branch by direct quadrature of the kernel along
    the tilted interval (1-w, 1).  K and E at each modulus, and the
    incomplete F and E at (z2, k'), share one R_F per pair.
    """
    nu, kap = freq.nu, freq.kappa
    if nu <= 2.0:
        if abs(nu - 2.0) < gap_window and kap < gap_window:
            raise GapSingularity(
                f"frequency {nu} + {kap}i within {gap_window} of the gap edge"
            )
        if kap == 0.0:
            return sigma_real_axis(nu)
        return -1j * _sigma2_continued(nu - 1j * kap)
    if kap == 0.0:
        return sigma_real_axis(nu)
    m = moduli(freq, gap_window=gap_window)
    w = nu - 1j * kap
    k, kp = m.k, m.k_prime
    k1k = m.k1 * m.k  # unit modulus: conj(w+2)/(w+2)
    z2 = np.sqrt(1.0 - k1k * k1k) / kp
    K, E = _complete_ke(k)
    Kp, Ep = _complete_ke(kp)
    f_z2, e_z2 = _incomplete_fe(z2, kp)
    f_z2 = -f_z2  # Legendre-form incomplete first kind
    return complex(
        (1.0 + 2.0 / w) * E
        - (4.0 / w) * K
        - 0.5j * (1.0 + 2.0 / w) * (Ep - e_z2)
        + 0.5j * (1.0 - 2.0 / w) * (Kp - f_z2)
    )


def _below_gap_kernel(w: complex):
    def f(E):
        E = np.asarray(E, dtype=complex)
        num = (E + w) * E + 1.0
        den = np.sqrt(1.0 - E * E) * np.sqrt((E + w) ** 2 - 1.0)
        return num / den

    return f


def _sigma2_continued(w: complex, tol: float = 1e-11) -> complex:
    """Reactive kernel integral continued to complex w, |w| < 2 regime.

    On the real axis this is the textbook below-gap integral over
    (1-nu, 1); for complex w the path tilts with the endpoint 1-w.  Both
    endpoint singularities are absorbed by the sine substitution.
    """
    f = _below_gap_kernel(w)
    seg = ContourSegment(-math.pi / 2.0, math.pi / 2.0, tol=tol)
    val, _ = contour_quadrature(endpoint_regularized(f, 1.0 - w, 1.0), seg)
    return val / w


def sigma_real_axis(nu: float) -> complex:
    """Conductivity on the real axis: ``sigma1(nu) - i*sigma2(nu)``.

    Both parts are the kappa -> 0 limit of the closed form, the classic
    complete-integral expressions with modulus k0 = |nu-2|/(nu+2):

        sigma1 = (1 + 2/nu) E(k0) - (4/nu) K(k0)      (nu > 2)
        sigma2 = (1/2) [(1 + 2/nu) E(k0') - (1 - 2/nu) K(k0')]

    For ``nu < 2`` the dissipative part is identically zero (no pair
    breaking) and the same sigma2 expression continues the reactive part
    below the gap; it equals the below-gap kernel integral of
    :func:`_sigma2_continued`, which remains its oracle.  The complementary
    integrals are evaluated from the parameter p = k0^2 = 1 - k0'^2 itself,
    K(k0') = R_F(0, p, 1) and E(k0') = R_F(0, p, 1) - ((1-p)/3) R_D(0, p, 1),
    so no accuracy is lost to forming 1 - k0'^2 near the gap edge.  At the
    edge itself (``nu == 2``, where K(k0') diverges against a vanishing
    coefficient) the exact limit sigma = -i is returned.
    """
    if not math.isfinite(nu) or nu <= 0.0:
        raise DomainError(f"nu must be positive and finite, got {nu}")
    if nu == 2.0:
        return complex(0.0, -1.0)
    k0 = (nu - 2.0) / (nu + 2.0)
    p = k0 * k0
    kp, ep = _complete_pair(p, 1.0 - p)
    sig2 = 0.5 * ((1.0 + 2.0 / nu) * ep.real - (1.0 - 2.0 / nu) * kp.real)
    if nu < 2.0:
        return complex(0.0, -sig2)
    K, E = _complete_ke(k0)
    sig1 = (1.0 + 2.0 / nu) * E.real - (4.0 / nu) * K.real
    return complex(sig1, -sig2)
