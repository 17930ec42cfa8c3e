"""Elliptic integrals on complex paths.

Provides the numerical core used by the conductivity closed forms:

* adaptive Gauss-Kronrod (G7,K15) quadrature along straight contours in the
  complex plane, with an explicit error contract,
* Carlson symmetric integrals R_F and R_D for complex arguments via the
  duplication theorem (B. C. Carlson, Numer. Math. 33, 1 (1979); Numerical
  Algorithms 10, 13 (1995)); both also take float64 arrays of non-negative
  arguments and return, element by element, the bits of the scalar call,
* complete integrals K(k), E(k) in the modulus convention, plus an
  independent AGM evaluation of K used for cross-checking,
* incomplete integrals in the convention of the conductivity derivation,
  defined by quadrature of the literal integrands.  The default method
  evaluates the Carlson forms instead and fixes their branch by a closed
  rule: the first-kind form is right up to the sign
  sgn Im(z^2) * sgn Im(k^2 z^2), and where no sign can be read (a real z^2
  or k^2 z^2, which includes every end point on a cut) the literal
  integrand is integrated by quadrature.

All square roots are principal-branch and evaluated pointwise: `numpy.sqrt`
on complex arrays in the integrands, `cmath.sqrt` on scalars in the Carlson
duplication steps.  Both follow C99 csqrt, including the side of the cut
selected by the sign of a zero imaginary part; this fixes the meaning of
every integrand below.
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import (
    BranchPointOnPath,
    DomainError,
    NonConvergence,
    SingularInterior,
)

__all__ = [
    "ContourSegment",
    "contour_quadrature",
    "carlson_rf",
    "carlson_rd",
    "ellip_complete_k",
    "ellip_complete_e",
    "complete_k_agm",
    "ellip_incomplete_f",
    "ellip_incomplete_e",
    "endpoint_regularized",
]

# 15-point Kronrod extension of 7-point Gauss (QUADPACK dqk15 abscissae).
_XGK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.000000000000000,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])  # 15 nodes, ascending
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


@dataclass(frozen=True)
class ContourSegment:
    """Straight line from ``start`` to ``end`` in the complex plane."""

    start: complex
    end: complex
    tol: float = 1e-10
    max_panels: int = 4096

    def __post_init__(self):
        if self.start == self.end:
            raise DomainError("contour segment has zero length")
        if not (0.0 < self.tol <= 1e-2):
            raise DomainError(f"tolerance {self.tol} outside (0, 1e-2]")
        if self.max_panels < 1:
            raise DomainError("panel budget must be positive")


def _gk15_panel(f: Callable, a: complex, b: complex) -> Tuple[complex, float]:
    """One (G7,K15) evaluation on the sub-segment [a, b].

    Returns the Kronrod estimate and |K15 - G7| as the error indicator.  The
    rule is open at the panel endpoints, so integrable endpoint singularities
    are never evaluated directly.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    z = center + half * _XGK
    fv = np.asarray(f(z), dtype=complex)
    if fv.shape != z.shape:
        raise TypeError("integrand must map an ndarray of points to an ndarray")
    if not np.all(np.isfinite(fv)):
        bad = z[~np.isfinite(fv)][0]
        raise SingularInterior(f"integrand not finite at interior node {bad}")
    k15 = half * np.sum(_WGK * fv)
    g7 = half * np.sum(_WG * fv)
    return k15, abs(k15 - g7)


def contour_quadrature(
    integrand: Callable, segment: ContourSegment
) -> Tuple[complex, float]:
    """Adaptively integrate ``integrand`` along a straight complex segment.

    The integrand must accept a complex ndarray and return an ndarray of the
    same shape.  Panels with the largest error indicator are bisected until

        sum(panel errors) <= tol * max(1, |integral|)

    or the panel budget is exhausted, in which case :class:`NonConvergence`
    is raised carrying the best estimate and the achieved error bound.
    Integrable endpoint singularities are admissible (the nested rule never
    samples panel endpoints); non-finite values at interior nodes raise
    :class:`SingularInterior`.
    """
    a, b = complex(segment.start), complex(segment.end)
    val, err = _gk15_panel(integrand, a, b)
    # heap of (-error, tiebreak, a, b, value, error)
    counter = 0
    heap = [(-err, counter, a, b, val, err)]
    total = val
    total_err = err
    panels = 1
    while total_err > segment.tol * max(1.0, abs(total)):
        if panels >= segment.max_panels:
            raise NonConvergence(
                f"panel budget {segment.max_panels} exhausted "
                f"(error {total_err:.3e}, target "
                f"{segment.tol * max(1.0, abs(total)):.3e})",
                best_estimate=total,
                error_estimate=total_err,
            )
        neg_e, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        lval, lerr = _gk15_panel(integrand, pa, mid)
        rval, rerr = _gk15_panel(integrand, mid, pb)
        total += lval + rval - pval
        total_err += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, pa, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, pb, rval, rerr))
        panels += 1
    return total, total_err


def endpoint_regularized(
    integrand: Callable, a: complex, b: complex
) -> Callable:
    """Absorb inverse-square-root endpoint singularities of ``integrand``.

    Maps x = m + h*sin(theta) with m, h the midpoint and half-width of
    (a, b); the Jacobian h*cos(theta) vanishes linearly at theta = +-pi/2
    and cancels a 1/sqrt singularity at either endpoint.  The returned
    callable should be integrated over theta in [-pi/2, pi/2].
    """
    m = 0.5 * (a + b)
    h = 0.5 * (b - a)

    def regularized(theta):
        s = np.sin(theta)
        return integrand(m + h * s) * h * np.cos(theta)

    return regularized


# ---------------------------------------------------------------------------
# Carlson symmetric integrals
# ---------------------------------------------------------------------------

_CARLSON_MAX_ITER = 120


def _real_arrays(fn: str, *args):
    """The arguments as broadcast float64 arrays, if any of them is an ndarray.

    Returns None when every argument is a scalar (the ``cmath`` path).  Array
    arguments must be real, finite and non-negative: there the duplication
    steps stay in real arithmetic and equal the real parts of the scalar path.
    """
    if not any(isinstance(t, np.ndarray) for t in args):
        return None
    arrays = [np.asarray(t) for t in args]
    if any(a.dtype.kind not in "biuf" for a in arrays):
        raise DomainError(f"{fn}: array arguments must be real")
    arrays = [np.array(a, dtype=np.float64) for a in np.broadcast_arrays(*arrays)]
    if not all(np.all(np.isfinite(a) & (a >= 0.0)) for a in arrays):
        raise DomainError(f"{fn}: array arguments must be finite and non-negative")
    return arrays


def _rf_series(X, Y):
    """Carlson's degree-7 R_F tail in the deviations X, Y (Z = -X - Y).

    Serves complex scalars and float64 arrays alike.  Cubes are written as
    products, e2 * (e2 * e2), which is how ``complex ** 3`` is computed, so
    the array path rounds every step as the scalar path does.
    """
    Z = -X - Y
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    return (
        1.0
        - e2 / 10.0
        + e3 / 14.0
        + e2 * e2 / 24.0
        - 3.0 * e2 * e3 / 44.0
        - 5.0 * (e2 * (e2 * e2)) / 208.0
        + 3.0 * e3 * e3 / 104.0
        + e2 * e2 * e3 / 16.0
    )


def _rd_series(X, Y):
    """Carlson's R_D tail in the deviations X, Y (Z = -(X + Y)/3); as :func:`_rf_series`."""
    Z = -(X + Y) / 3.0
    e2 = X * Y - 6.0 * Z * Z
    e3 = (3.0 * X * Y - 8.0 * Z * Z) * Z
    e4 = 3.0 * (X * Y - Z * Z) * Z * Z
    e5 = X * Y * (Z * (Z * Z))
    return (
        1.0
        - 3.0 * e2 / 14.0
        + e3 / 6.0
        + 9.0 * e2 * e2 / 88.0
        - 3.0 * e4 / 22.0
        - 9.0 * e2 * e3 / 52.0
        + 3.0 * e5 / 26.0
    )


def _duplicate_arrays(x, y, z, a, q, rd: bool):
    """Masked duplication steps on float64 arrays.

    Each element takes the steps its scalar twin would take: it stops once
    ``q <= |A|``.  Returns the final (x, y, a) and, for R_D, the per-element
    factor 4^-m and the accumulated sum.
    """
    fac = np.ones_like(a)
    acc = np.zeros_like(a)
    for _ in range(_CARLSON_MAX_ITER):
        active = ~(q <= np.abs(a))
        if not active.any():
            break
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        if rd:
            acc = np.where(active, acc + fac / (sz * (z + lam)), acc)
            fac = np.where(active, fac * 0.25, fac)
        x = np.where(active, 0.25 * (x + lam), x)
        y = np.where(active, 0.25 * (y + lam), y)
        z = np.where(active, 0.25 * (z + lam), z)
        a = np.where(active, 0.25 * (a + lam), a)
        q = np.where(active, q * 0.25, q)
    return x, y, a, fac, acc


def carlson_rf(x, y, z, rtol: float = 1e-16):
    """Carlson R_F(x, y, z) for complex arguments off (-inf, 0).

    Duplication-theorem iteration with the degree-7 series tail of Carlson
    (1995).  Arguments exactly on the negative real axis are taken as limits
    from the side their signed zero imaginary part names: +0.0 (the default
    of ``complex(x)``) is the upper half plane, -0.0 the lower, as for the
    principal ``cmath.sqrt``.
    At most one argument may vanish.

    If any argument is an ndarray, all are broadcast to real float64 arrays,
    which must be finite and non-negative, and a float64 array is returned;
    each element equals the real part of the scalar call on it, bit for bit.
    """
    arrays = _real_arrays("carlson_rf", x, y, z)
    if arrays is not None:
        x, y, z = arrays
        if np.any((x == 0) & (y == 0) | (y == 0) & (z == 0) | (z == 0) & (x == 0)):
            raise DomainError("carlson_rf: at least two arguments vanish")
        a = (x + y + z) / 3.0
        q = (3.0 * rtol) ** (-1.0 / 8.0) * np.maximum(
            np.maximum(np.abs(a - x), np.abs(a - y)), np.abs(a - z)
        )
        x, y, a, _, _ = _duplicate_arrays(x, y, z, a, q, rd=False)
        return _rf_series((a - x) / a, (a - y) / a) / np.sqrt(a)
    x, y, z = complex(x), complex(y), complex(z)
    if sum(1 for t in (x, y, z) if t == 0) >= 2:
        raise DomainError("carlson_rf: at least two arguments vanish")
    a = (x + y + z) / 3.0
    a0 = a
    q = (3.0 * rtol) ** (-1.0 / 8.0) * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    for _ in range(_CARLSON_MAX_ITER):
        if q <= abs(a):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        a = 0.25 * (a + lam)
        q *= 0.25
    # With A_m = (x_m + y_m + z_m)/3 preserved by the recurrence, Carlson's
    # normalized deviations (A0 - x0)/(4^m A_m) equal (A_m - x_m)/A_m.
    return _rf_series((a - x) / a, (a - y) / a) / cmath.sqrt(a)


def carlson_rd(x, y, z, rtol: float = 1e-16):
    """Carlson R_D(x, y, z) = R_J(x, y, z, z) for complex arguments.

    Same duplication scheme as :func:`carlson_rf`; ``z`` must be nonzero and
    at most one of ``x``, ``y`` may vanish.  Array arguments are handled as
    in :func:`carlson_rf`.
    """
    arrays = _real_arrays("carlson_rd", x, y, z)
    if arrays is not None:
        x, y, z = arrays
        if np.any(z == 0):
            raise DomainError("carlson_rd: third argument must be nonzero")
        if np.any((x == 0) & (y == 0)):
            raise DomainError("carlson_rd: x and y both vanish")
        a = (x + y + 3.0 * z) / 5.0
        q = (0.25 * rtol) ** (-1.0 / 8.0) * np.maximum(
            np.maximum(np.abs(a - x), np.abs(a - y)), np.abs(a - z)
        )
        x, y, a, fac, acc = _duplicate_arrays(x, y, z, a, q, rd=True)
        series = _rd_series((a - x) / a, (a - y) / a)
        return fac * series / (a * np.sqrt(a)) + 3.0 * acc
    x, y, z = complex(x), complex(y), complex(z)
    if z == 0:
        raise DomainError("carlson_rd: third argument must be nonzero")
    if x == 0 and y == 0:
        raise DomainError("carlson_rd: x and y both vanish")
    a = (x + y + 3.0 * z) / 5.0
    a0 = a
    q = (0.25 * rtol) ** (-1.0 / 8.0) * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    acc = 0.0 + 0.0j
    fac = 1.0
    for _ in range(_CARLSON_MAX_ITER):
        if q <= abs(a):
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        acc += fac / (sz * (z + lam))
        fac *= 0.25
        x = 0.25 * (x + lam)
        y = 0.25 * (y + lam)
        z = 0.25 * (z + lam)
        a = 0.25 * (a + lam)
        q *= 0.25
    # For R_D the mean A_m = (x_m + y_m + 3 z_m)/5 is preserved as well, so
    # (A0 - x0)/(4^m A_m) = (A_m - x_m)/A_m exactly.
    return fac * _rd_series((a - x) / a, (a - y) / a) / (a * cmath.sqrt(a)) + 3.0 * acc


# ---------------------------------------------------------------------------
# Complete integrals (modulus convention)
# ---------------------------------------------------------------------------


def _check_modulus(k: complex) -> complex:
    k = complex(k)
    k2 = k * k
    if k2.imag == 0.0 and k2.real >= 1.0:
        raise DomainError(f"modulus k={k} lies on the branch cut k^2 in [1, inf)")
    return k


def ellip_complete_k(k: complex) -> complex:
    """Complete elliptic integral K(k), modulus convention, via Carlson R_F."""
    k = _check_modulus(k)
    return carlson_rf(0.0, 1.0 - k * k, 1.0)


def ellip_complete_e(k: complex) -> complex:
    """Complete elliptic integral E(k), modulus convention, via R_F and R_D."""
    k = complex(k)
    if k * k == 1.0:
        # endpoint of the k^2 branch cut; E (unlike K) stays finite: E(1) = 1
        return complex(1.0)
    return _complete_ke(k)[1]


def _complete_pair(kc2: complex, k2: complex) -> Tuple[complex, complex]:
    """(K, E) from the parameter k2 = k^2 and its complement kc2 = 1 - k^2.

    One R_F serves both integrals.  Passing the complement directly keeps
    full relative accuracy when it is small (k near 1), which forming
    1 - k^2 from k would not.
    """
    rf = carlson_rf(0.0, kc2, 1.0)
    return rf, rf - (k2 / 3.0) * carlson_rd(0.0, kc2, 1.0)


def _complete_ke(k: complex) -> Tuple[complex, complex]:
    """(K(k), E(k)) with one shared R_F; equal to the two public functions.

    Raises :class:`DomainError` on the whole cut k^2 in [1, inf), like
    :func:`ellip_complete_k`.
    """
    k = _check_modulus(k)
    kc2 = 1.0 - k * k
    if k == 0:
        return carlson_rf(0.0, kc2, 1.0), complex(math.pi / 2.0)
    return _complete_pair(kc2, k * k)


def complete_k_agm(k: complex, maxiter: int = 64) -> complex:
    """K(k) by the arithmetic-geometric mean; independent of the Carlson route.

    The square-root branch in the AGM recursion is chosen so that
    |a - b| <= |a + b| at every step ("optimal" AGM), which reproduces the
    principal value for all moduli off the cut k^2 in [1, inf).
    """
    k = _check_modulus(k)
    a = 1.0 + 0.0j
    b = np.sqrt(complex(1.0 - k * k))
    for _ in range(maxiter):
        if abs(a - b) <= 1e-17 * abs(a):
            break
        a_next = 0.5 * (a + b)
        b_next = np.sqrt(a * b)
        if abs(a_next - b_next) > abs(a_next + b_next):
            b_next = -b_next
        a, b = a_next, b_next
    return math.pi / (2.0 * a)


# ---------------------------------------------------------------------------
# Incomplete integrals in the conductivity-derivation convention
# ---------------------------------------------------------------------------


def _branch_points(k: complex):
    k = complex(k)
    bps = [1.0 + 0.0j, -1.0 + 0.0j]
    if k != 0:
        bps += [1.0 / k, -1.0 / k]
    return bps


def _segment_distance(p: complex, a: complex, b: complex) -> float:
    """Distance from point p to the closed segment [a, b]."""
    d = b - a
    t = ((p - a) * d.conjugate()).real / abs(d) / abs(d)  # |d|**2 underflows for tiny d
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * d))


def _guard_path(z: complex, k: complex) -> complex | None:
    """Validate the straight path 0 -> z against the branch points.

    Returns the branch point coinciding with the terminal point (an
    admissible, integrably singular endpoint) or None; raises
    :class:`BranchPointOnPath` if a branch point sits on the open path.
    """
    z = complex(z)
    tol = 1e-9 * max(1.0, abs(z))
    terminal = None
    for bp in _branch_points(k):
        if abs(bp - z) <= tol:
            terminal = bp
            continue
        if _segment_distance(bp, 0.0, z) <= tol:
            raise BranchPointOnPath(
                f"path 0 -> {z} passes through branch point {bp} (modulus k={k})"
            )
    return terminal


def _defining_f_integrand(k: complex) -> Callable:
    if k == 0:
        # The second factor degenerates to sqrt(-1) exactly; pin it to the
        # principal value +i rather than letting a signed zero from the
        # complex product (0j * x * x) pick a side of the cut per point.
        def f0(x):
            x = np.asarray(x, dtype=complex)
            return 1.0 / (np.sqrt(x * x - 1.0) * 1j)

        return f0

    def f(x):
        x = np.asarray(x, dtype=complex)
        return 1.0 / (np.sqrt(x * x - 1.0) * np.sqrt(k * k * x * x - 1.0))

    return f


def _defining_e_integrand(k: complex) -> Callable:
    def f(x):
        x = np.asarray(x, dtype=complex)
        return np.sqrt(1.0 - k * k * x * x) / np.sqrt(1.0 - x * x)

    return f


def _incomplete_quadrature(
    integrand: Callable, z: complex, terminal_singular: bool, tol: float
) -> complex:
    if terminal_singular:
        # x = z*sin(theta): the Jacobian z*cos(theta) cancels the terminal
        # 1/sqrt singularity; the start x=0 is regular.
        def g(theta):
            s = np.sin(theta)
            return integrand(z * s) * z * np.cos(theta)

        seg = ContourSegment(0.0, math.pi / 2.0, tol=tol)
        val, _ = contour_quadrature(g, seg)
        return val
    seg = ContourSegment(0.0, z, tol=tol)
    val, _ = contour_quadrature(integrand, seg)
    return val


def _branch_sign(z: complex, k: complex) -> int:
    """The sign s with F(z; k) = s * (-z R_F(1 - z^2, 1 - k^2 z^2, 1)), or 0.

    On the path x = t z (0 < t <= 1) the principal roots satisfy
    sqrt(x^2 - 1) = i sgn(Im x^2) sqrt(1 - x^2), and Im x^2 = t^2 Im z^2
    keeps one sign along the whole path; likewise for k^2 x^2.  With k = 0
    the second factor is the pinned +i.  So the literal first-kind integrand
    is -s / (sqrt(1 - x^2) sqrt(1 - k^2 x^2)) with s = sgn Im z^2 *
    sgn Im k^2 z^2, and the Carlson form of the principal integral holds
    because each argument 1 - t^2 w runs on a straight segment from 1 and
    so meets the cut (-inf, 0] only if its end point lies on it (Carlson,
    Numer. Algorithms 10 (1995) 13; DLMF 19.25(i)).

    Returns 0 where no sign can be read (Im z^2 = 0, or Im k^2 z^2 = 0 with
    k != 0).  That covers every end point on the cut, since an argument on
    (-inf, 0] is real; the caller then integrates by quadrature.
    """
    zz = z * z
    if zz.imag == 0.0:
        return 0
    s = 1 if zz.imag > 0.0 else -1
    if k != 0:
        kzz = k * k * zz
        if kzz.imag == 0.0:
            return 0
        if kzz.imag < 0.0:
            s = -s
    return s


def _incomplete_carlson(
    z: complex, k: complex, second_kind: bool
) -> Tuple[complex, complex | None]:
    """Carlson forms (F, E) at (z, k) sharing one R_F; E only if asked.

    F is -z R_F(1 - z^2, 1 - k^2 z^2, 1), which equals the literal integral
    only up to the sign of :func:`_branch_sign`; E equals it as it stands.
    """
    zz = z * z
    args = (1.0 - zz, 1.0 - k * k * zz, 1.0)
    rf = carlson_rf(*args)
    if not second_kind:
        return -z * rf, None
    e = z * rf
    if k != 0:
        e -= (k * k * z * zz / 3.0) * carlson_rd(*args)
    return -z * rf, e


def _incomplete(z: complex, k: complex, method: str, second_kind: bool) -> complex:
    z, k = complex(z), complex(k)
    if z == 0:
        return 0.0 + 0.0j
    terminal = _guard_path(z, k) is not None
    if method not in ("auto", "carlson", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    s = _branch_sign(z, k) if method == "auto" else 1
    if method == "quadrature" or s == 0:
        integrand = (_defining_e_integrand if second_kind else _defining_f_integrand)(k)
        return _incomplete_quadrature(integrand, z, terminal, 1e-12)
    f, e = _incomplete_carlson(z, k, second_kind)
    if second_kind:
        return e
    return f if s > 0 else -f


def ellip_incomplete_f(z: complex, k: complex, method: str = "auto") -> complex:
    """Incomplete first-kind integral int_0^z dx / (sqrt(x^2-1) sqrt(k^2 x^2 - 1)).

    The defining evaluation (``method="quadrature"``) is adaptive quadrature
    of the literal integrand with pointwise principal square roots along the
    straight path 0 -> z.  ``method="carlson"`` returns the Carlson form
    -z*R_F(1-z^2, 1-k^2 z^2, 1), which equals the defining value up to the
    sign sgn Im(z^2) * sgn Im(k^2 z^2) (the second factor +1 when k = 0).
    ``"auto"`` (default) returns the Carlson form times that sign, and
    integrates by quadrature where no sign can be read: Im(z^2) = 0, or
    Im(k^2 z^2) = 0 with k != 0, which includes every path that ends on a
    cut of the Carlson arguments.

    Raises :class:`BranchPointOnPath` if the open path hits +-1 or +-1/k;
    a terminal point *at* a branch point is admissible (integrable).
    """
    return _incomplete(z, k, method, second_kind=False)


def ellip_incomplete_e(z: complex, k: complex, method: str = "auto") -> complex:
    """Incomplete second-kind integral int_0^z sqrt(1-k^2 x^2)/sqrt(1-x^2) dx.

    Same methods and error contract as :func:`ellip_incomplete_f`.  The
    Carlson form z*R_F - (k^2 z^3/3)*R_D on the same arguments needs no
    sign; ``"auto"`` uses it wherever the first-kind rule reads a sign and
    quadrature elsewhere.
    """
    return _incomplete(z, k, method, second_kind=True)


def _incomplete_fe(z: complex, k: complex) -> Tuple[complex, complex]:
    """(F, E) at (z, k) with one shared R_F.

    Equal to the two public functions with ``method="auto"``.
    """
    z, k = complex(z), complex(k)
    if z == 0:
        return 0.0 + 0.0j, 0.0 + 0.0j
    terminal = _guard_path(z, k) is not None
    s = _branch_sign(z, k)
    if s == 0:
        return (
            _incomplete_quadrature(_defining_f_integrand(k), z, terminal, 1e-12),
            _incomplete_quadrature(_defining_e_integrand(k), z, terminal, 1e-12),
        )
    f, e = _incomplete_carlson(z, k, second_kind=True)
    return (f if s > 0 else -f), e
