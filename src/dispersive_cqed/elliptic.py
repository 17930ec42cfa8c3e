"""Elliptic integrals on complex paths.

Provides the numerical core used by the conductivity closed forms:

* adaptive Gauss-Kronrod (G7,K15) quadrature along straight contours in the
  complex plane, with an explicit error contract,
* Carlson symmetric integrals R_F and R_D for complex arguments via the
  duplication theorem (B. C. Carlson, Numer. Math. 33, 1 (1979); Numerical
  Algorithms 10, 13 (1995)), a pair from one loop; also on float64 arrays
  of non-negative arguments, element by element the bits of the scalar call,
* complete integrals K(k), E(k) in the modulus convention, plus an
  independent AGM evaluation of K used for cross-checking,
* incomplete integrals in the convention of the conductivity derivation,
  defined by quadrature of the literal integrands (``method="quadrature"``,
  the oracle).  The default ``method="auto"`` evaluates the Carlson forms
  instead and fixes their branch by a closed rule: the first-kind form is
  right up to the sign sgn Im(z^2) * sgn Im(k^2 z^2), and where no sign can
  be read (a real z^2 or k^2 z^2, which includes every end point on a cut)
  the literal integrand is integrated by quadrature.  Both methods take one
  path, :func:`_incomplete`, which returns F, E or both.

All square roots are principal-branch and evaluated pointwise: `numpy.sqrt`
on complex arrays in the integrands, `cmath.sqrt` on scalars in the Carlson
duplication steps (and, on float64 arrays, `_sqrt_as_cmath`, rounded as
`cmath.sqrt` rounds).  Both follow C99 csqrt, including the side of the cut
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
    BranchCut,
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
_DBL_MIN = float(np.finfo(np.float64).tiny)  # smallest normal float64
# Carlson's stopping factors for a relative error of 1e-16: a loop stops once
# |A_m| >= q_m, where q_0 is the factor times the largest |A_0 - x_0| and
# each duplication step divides q_m by 4.
_RF_STOP = (3.0 * 1e-16) ** (-1.0 / 8.0)
_RD_STOP = (0.25 * 1e-16) ** (-1.0 / 8.0)


def _real_arrays(fn: str, x, y, z):
    """The arguments as broadcast float64 arrays, if any of them is an ndarray.

    Returns None when every argument is a scalar (the ``cmath`` path).  Array
    arguments must be real, finite and non-negative: there the duplication
    steps stay in real arithmetic and equal the real parts of the scalar path.
    """
    if not (isinstance(x, np.ndarray) or isinstance(y, np.ndarray) or isinstance(z, np.ndarray)):
        return None
    arrays = [np.asarray(t) for t in (x, y, z)]
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


def _carlson(x, y, z, rf: bool, rd: bool):
    """(R_F, R_D) at one argument triple; a result not asked for is None.

    Both integrals duplicate the same (x, y, z) sequence (Carlson, Numer.
    Algorithms 10 (1995) 13; DLMF 19.36(i)), so one loop drives the pair.
    Each keeps its own mean A_m and stopping rule ``q <= |A_m|``, and its
    state is frozen where that rule fires, which is where a loop of its own
    would stop.  Scalars run the ``cmath`` loop of :func:`_duplicate`,
    ndarrays the masked steps of :func:`_duplicate_arrays`; the input type is
    checked once per pair.  Arguments so small that a step or the tail
    divides by an underflowed zero raise DomainError on both paths.
    """
    name = "carlson_rf" if rf else "carlson_rd"
    arrays = _real_arrays(name, x, y, z)
    x, y, z = arrays or (complex(x), complex(y), complex(z))
    some = bool if arrays is None else np.any
    vx, vy, vz = x == 0, y == 0, z == 0
    if rf and some(vx & vy | vy & vz | vz & vx):
        raise DomainError("carlson_rf: at least two arguments vanish")
    if rd and some(vz):
        raise DomainError("carlson_rd: third argument must be nonzero")
    if rd and some(vx & vy):
        raise DomainError("carlson_rd: x and y both vanish")
    try:
        if arrays is None:
            return _duplicate(x, y, z, rf, rd)
        with np.errstate(divide="raise", invalid="raise"):
            return _duplicate_arrays(x, y, z, rf, rd)
    except (ZeroDivisionError, FloatingPointError):
        raise DomainError(f"{name}: arguments so small that the steps underflow") from None


def _duplicate(x: complex, y: complex, z: complex, rf: bool, rd: bool):
    """:func:`_carlson` on complex scalars: one ``cmath`` duplication loop."""
    af = (x + y + z) / 3.0
    ad = (x + y + 3.0 * z) / 5.0
    # A rule that is not asked for holds from the start: -inf <= |A|.
    qf = _RF_STOP * max(abs(af - x), abs(af - y), abs(af - z)) if rf else -math.inf
    qd = _RD_STOP * max(abs(ad - x), abs(ad - y), abs(ad - z)) if rd else -math.inf
    f = d = None  # (x_m, y_m, A_m) where each rule fired
    acc, fac = 0.0 + 0.0j, 1.0
    for _ in range(_CARLSON_MAX_ITER):
        if f is None and qf <= abs(af):
            f = (x, y, af)
        if d is None and qd <= abs(ad):
            d = (x, y, ad)
        if f is not None and d is not None:
            break
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        if d is None:
            acc += fac / (sz * (z + lam))
            fac *= 0.25
            ad = 0.25 * (ad + lam)
            qd *= 0.25
        if f is None:
            af = 0.25 * (af + lam)
            qf *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    else:
        f = f or (x, y, af)
        d = d or (x, y, ad)
    return _tails(cmath.sqrt, f if rf else None, d if rd else None, fac, acc)


def _duplicate_arrays(x, y, z, rf: bool, rd: bool):
    """:func:`_carlson` on float64 arrays, by masked duplication steps.

    Each element takes the steps its scalar twin takes, and each of its two
    results is frozen where its own rule fires.
    """
    af = (x + y + z) / 3.0
    ad = (x + y + 3.0 * z) / 5.0
    qf = _RF_STOP * np.abs([af - x, af - y, af - z]).max(0) if rf else -np.inf
    qd = _RD_STOP * np.abs([ad - x, ad - y, ad - z]).max(0) if rd else -np.inf
    fx, fy, dx, dy = x, y, x, y
    fac, acc = np.ones_like(x), np.zeros_like(x)
    for _ in range(_CARLSON_MAX_ITER):
        active_f = ~(qf <= np.abs(af))
        active_d = ~(qd <= np.abs(ad))
        if not (active_f.any() or active_d.any()):
            break
        sx, sy, sz = _sqrt_as_cmath(x), _sqrt_as_cmath(y), _sqrt_as_cmath(z)
        lam = sx * sy + sy * sz + sz * sx
        if rd:
            acc = np.where(active_d, acc + fac / (sz * (z + lam)), acc)
            fac = np.where(active_d, fac * 0.25, fac)
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        if rf:
            fx, fy = np.where(active_f, x, fx), np.where(active_f, y, fy)
            af, qf = np.where(active_f, 0.25 * (af + lam), af), np.where(active_f, qf * 0.25, qf)
        if rd:
            dx, dy = np.where(active_d, x, dx), np.where(active_d, y, dy)
            ad, qd = np.where(active_d, 0.25 * (ad + lam), ad), np.where(active_d, qd * 0.25, qd)
    f, d = (fx, fy, af) if rf else None, (dx, dy, ad) if rd else None
    return _tails(_sqrt_as_cmath, f, d, fac, acc)


def _sqrt_as_cmath(x):
    """``np.sqrt`` of a float64 array x >= 0, rounded as ``cmath.sqrt(complex(x)).real``.

    ``cmath.sqrt`` divides by 8 before the root on [DBL_MIN, 8 DBL_MIN), where
    the quotient is subnormal and loses bits; elsewhere both roots are
    correctly rounded.
    """
    root = np.sqrt(x)
    if x.min(initial=np.inf) < 8.0 * _DBL_MIN:
        band = (x >= _DBL_MIN) & (x < 8.0 * _DBL_MIN)
        root = np.where(band, 2.0 * np.sqrt(2.0 * (x / 8.0)), root)
    return root


def _tails(sqrt, f, d, fac, acc):
    """R_F and R_D from their frozen (x_m, y_m, A_m); R_D also from 4^-m and its sum.

    With A_m preserved by the recurrence, Carlson's normalized deviations
    (A_0 - x_0)/(4^m A_m) equal (A_m - x_m)/A_m exactly, for either mean.
    """
    rf = rd = None
    if f is not None:
        x, y, a = f
        rf = _rf_series((a - x) / a, (a - y) / a) / sqrt(a)
    if d is not None:
        x, y, a = d
        rd = fac * _rd_series((a - x) / a, (a - y) / a) / (a * sqrt(a)) + 3.0 * acc
    return rf, rd


def carlson_rf(x, y, z):
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
    return _carlson(x, y, z, True, False)[0]


def carlson_rd(x, y, z):
    """Carlson R_D(x, y, z) = R_J(x, y, z, z) for complex arguments.

    Same duplication scheme as :func:`carlson_rf`; ``z`` must be nonzero and
    at most one of ``x``, ``y`` may vanish.  Array arguments are handled as
    in :func:`carlson_rf`.
    """
    return _carlson(x, y, z, False, True)[1]


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
    return _complete_ke(k)[0]


def ellip_complete_e(k: complex) -> complex:
    """Complete elliptic integral E(k), modulus convention, via R_F and R_D."""
    k = complex(k)
    if k * k == 1.0:
        # endpoint of the k^2 branch cut; E (unlike K) stays finite: E(1) = 1
        return complex(1.0)
    return _complete_ke(k)[1]


def _complete_pair(kc2: complex, k2: complex) -> Tuple[complex, complex]:
    """(K, E) from the parameter k2 = k^2 and its complement kc2 = 1 - k^2.

    One duplication loop gives R_F and R_D, and the R_F serves both
    integrals.  Passing the complement directly keeps full relative accuracy
    when it is small (k near 1), which forming 1 - k^2 from k would not.
    """
    rf, rd = _carlson(0.0, kc2, 1.0, True, True)
    return rf, rf - (k2 / 3.0) * rd


def _complete_ke(k: complex) -> Tuple[complex, complex]:
    """(K(k), E(k)) with one shared R_F; both public functions return its parts.

    Raises :class:`DomainError` on the whole cut k^2 in [1, inf).  The pair
    loop freezes R_F where its own stopping rule fires, so K equals the
    R_F-only value bit for bit.
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


def _incomplete(z: complex, k: complex, method: str, f: bool, e: bool):
    """(F, E) at (z, k) by ``method``; a value not asked for is None.

    ``"quadrature"`` integrates the literal integrands.  ``"auto"`` takes the
    Carlson forms from one (R_F, R_D) loop, with R_D only if E is asked for:
    F = -s z R_F(1 - z^2, 1 - k^2 z^2, 1) with the sign s of
    :func:`_branch_sign`, and E = z R_F - (k^2 z^3/3) R_D, which needs no
    sign.  Where no sign can be read it integrates by quadrature too.  Only
    a quadrature needs the path, so only it runs :func:`_guard_path`.  F with
    k != 0, Im z^2 != 0 and Im k^2 z^2 = 0 raises BranchCut before any panel.
    """
    if method not in ("auto", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    z, k = complex(z), complex(k)
    if z == 0:
        return (0.0j if f else None), (0.0j if e else None)
    zz = z * z
    s = _branch_sign(z, k) if method == "auto" else 0
    if s == 0:
        terminal = _guard_path(z, k)
        if f and k != 0 and zz.imag != 0.0 and (k * k * zz).imag == 0.0:
            raise BranchCut(f"first-kind integrand lies on its branch cut along 0 -> {z} (k={k})")
        if terminal not in (None, z):
            raise BranchPointOnPath(f"path 0 -> {z} ends next to branch point {terminal} (k={k})")
        singular = terminal == z
        return (
            _incomplete_quadrature(_defining_f_integrand(k), z, singular, 1e-12) if f else None,
            _incomplete_quadrature(_defining_e_integrand(k), z, singular, 1e-12) if e else None,
        )
    rf, rd = _carlson(1.0 - zz, 1.0 - k * k * zz, 1.0, True, e and k != 0)
    f_val = e_val = None
    if f:
        f_val = -z * rf
        f_val = f_val if s > 0 else -f_val
    if e:
        e_val = z * rf if rd is None else z * rf - (k * k * z * zz / 3.0) * rd
    return f_val, e_val


def ellip_incomplete_f(z: complex, k: complex, method: str = "auto") -> complex:
    """Incomplete first-kind integral int_0^z dx / (sqrt(x^2-1) sqrt(k^2 x^2 - 1)).

    The defining evaluation (``method="quadrature"``) is adaptive quadrature
    of the literal integrand with pointwise principal square roots along the
    straight path 0 -> z.  The Carlson form -z*R_F(1-z^2, 1-k^2 z^2, 1)
    equals the defining value up to the sign sgn Im(z^2) * sgn Im(k^2 z^2)
    (the second factor +1 when k = 0).  ``"auto"`` (default) returns the
    Carlson form times that sign, and integrates by quadrature where
    Im(z^2) = 0.  Where only Im(k^2 z^2) = 0 with k != 0 (so every other path
    that ends on a cut of the Carlson arguments), the literal integrand lies
    on its cut along the whole path, and both methods raise :class:`BranchCut`.

    Where it integrates, it raises :class:`BranchPointOnPath` if the open
    path comes within 1e-9 of +-1 or +-1/k; a terminal point *at* a branch
    point is admissible (integrable), but quadrature refuses one that is
    only within 1e-9 of it.  The Carlson form needs no path, so ``"auto"``
    answers there wherever it reads a sign.
    """
    return _incomplete(z, k, method, True, False)[0]


def ellip_incomplete_e(z: complex, k: complex, method: str = "auto") -> complex:
    """Incomplete second-kind integral int_0^z sqrt(1-k^2 x^2)/sqrt(1-x^2) dx.

    Same methods and error contract as :func:`ellip_incomplete_f`.  The
    Carlson form z*R_F - (k^2 z^3/3)*R_D on the same arguments needs no
    sign; ``"auto"`` uses it wherever the first-kind rule reads a sign and
    quadrature elsewhere.
    """
    return _incomplete(z, k, method, False, True)[1]

