"""Resonator eigenmodes with capacitive qubit loading and a lossy line impedance.

The resonator is a transmission line of length L with open (Neumann) ends,
magnetic inductance per unit length ``ell_m`` and capacitance per unit length
``c(x) = c + sum_j C_sj delta(x - x_j)``: each qubit contributes a lumped
series capacitance at its position.  The spatial eigenproblem is material
independent: wave numbers ``k_n`` solve a secular equation fixed entirely by
the boundary conditions and the delta jumps, and the mode functions are
piecewise combinations of cos(kx), sin(kx) normalized with the delta-weighted
inner product ``int ell_m c(x) Psi^2 dx = 1``.  One builder, ``_bare_stack``,
makes the bare modes of a line as arrays over all wave numbers at once, and
every mode list (``resonator_modes``, ``dispersive_modes``, a report's) is
made from those arrays.

The material enters through the dispersion relation: the complex mode
frequency is the fixed point of

    omega^2 = omega_n^2(omega) = (k_n^2 + i g omega c Z_s(omega)) / (ell_m c),

whose right-hand side is assembled in one place, ``_omega_n_sq``, for the
fixed point, the Green's function and the Green's-identity residual.  It is
solved by Picard iteration under-relaxed with weight 1/2.  Each step
evaluates the right-hand side (one surface-impedance call) once, and that
value serves both the convergence residual and the Picard target.  With the
e^{+i omega t} Fourier convention a decaying mode has omega = nu + i kappa,
kappa > 0; the solver picks the Re omega > 0 branch and reports kappa with
this sign.

In the Green's function ``G = sum_n Psi_n(x) Psi_n(x') / (omega^2 -
omega_n^2(omega))`` the denominator is evaluated at the probe frequency.
Because the anti-hermitian part of the operator is spatially constant, left
and right eigenfunctions share spatial profiles and the numerator reduces to
``Psi_n(x) Psi_n(x')``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketingFailure,
    DomainError,
    GapStraddle,
    NoConvergence,
    PoleProximity,
)
from .impedance import _TWO_PI_GHZ, Material, _hash_once, surface_impedance
from .mattis_bardeen import ComplexFreq


@dataclass(frozen=True)
class QubitLoad:
    """One capacitive load: position (m) and series capacitance (F)."""

    position: float
    c_series: float


@_hash_once
@dataclass(frozen=True)
class ResonatorGeometry:
    length: float  # L, meters
    ell_m: float  # magnetic inductance per unit length, H/m
    c_per_len: float  # capacitance per unit length, F/m
    g_geom: float  # geometric factor multiplying Z_s, 1/m
    qubits: tuple[QubitLoad, ...] = ()

    def __post_init__(self) -> None:
        for name in ("length", "ell_m", "c_per_len"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be positive, got {v}")
        if not (self.g_geom >= 0.0 and math.isfinite(self.g_geom)):
            raise DomainError(f"g_geom must be >= 0, got {self.g_geom}")
        object.__setattr__(self, "qubits", tuple(self.qubits))
        last = -math.inf
        for q in self.qubits:
            if not (0.0 <= q.position <= self.length):
                raise DomainError(f"qubit position {q.position} outside [0, {self.length}]")
            if not (q.c_series > 0.0 and math.isfinite(q.c_series)):
                raise DomainError(f"qubit series capacitance must be positive, got {q.c_series}")
            if q.position <= last:
                raise DomainError("qubit positions must be strictly increasing")
            last = q.position

    @property
    def bare_velocity(self) -> float:
        """Propagation speed 1/sqrt(ell_m c) of the unloaded line, m/s."""
        return 1.0 / math.sqrt(self.ell_m * self.c_per_len)

    def bare_frequency_ghz(self, k):
        """Lossless mode frequency k v / (2 pi) in GHz; scalar or ndarray ``k``."""
        return k * self.bare_velocity / _TWO_PI_GHZ


def derive_line_constants(
    f0_ghz: float, z0_ohm: float = 50.0, length: float = 0.01
) -> tuple[float, float]:
    """(ell_m, c) of a line whose unloaded fundamental is f0 at impedance Z0.

    Reconstruction helper: published data sheets usually quote (f0, Z0, L)
    rather than per-unit-length constants.  From v = 2 L f0 and
    Z0 = sqrt(ell_m / c):  ell_m = Z0 / v,  c = 1 / (Z0 v).
    """
    if f0_ghz <= 0.0 or z0_ohm <= 0.0 or length <= 0.0:
        raise DomainError("f0, Z0 and length must all be positive")
    v = 2.0 * length * f0_ghz * 1e9
    return z0_ohm / v, 1.0 / (z0_ohm * v)


@dataclass(frozen=True)
class Mode:
    """One resonator mode.

    ``omega_n`` holds the complex eigenfrequency in GHz (ordinary frequency):
    nu component = oscillation frequency, kappa component = decay rate.  For a
    lossless construction kappa is exactly 0.  ``segment_amplitudes`` holds
    (P_i, Q_i) with Psi(x) = norm * (P_i cos(k x) + Q_i sin(k x)) on the i-th
    inter-qubit segment.  ``k_n``, ``norm`` and the amplitudes are Python
    floats, read from the arrays of ``_bare_stack``.
    """

    n: int
    k_n: float
    omega_n: ComplexFreq
    norm: float
    segment_amplitudes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"mode index must be >= 1, got {self.n}")


def _segment_breaks(geometry: ResonatorGeometry) -> np.ndarray:
    interior = [q.position for q in geometry.qubits if 0.0 < q.position < geometry.length]
    return np.array([0.0] + interior + [geometry.length])


def secular_value(k, geometry: ResonatorGeometry):
    """Pole-free secular function whose positive zeros are the wave numbers.

    It is the slope entry of the 2x2 transfer matrix that propagates
    (Psi, Psi'/k) from the x=0 Neumann condition through every capacitive
    jump to x=L, for any number of loads; for a single load it equals
    ``sin(kL) + k (C_s/c) cos(k x_q) cos(k (L - x_q))`` up to roundoff.
    Accepts scalar or ndarray ``k``.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k <= 0.0):
        raise DomainError("secular_value requires k > 0")
    L = geometry.length
    c = geometry.c_per_len
    u = np.ones_like(k)
    v = np.zeros_like(k)
    x_prev = 0.0
    for q in geometry.qubits:
        theta = k * (q.position - x_prev)
        u, v = u * np.cos(theta) + v * np.sin(theta), -u * np.sin(theta) + v * np.cos(theta)
        v = v - k * (q.c_series / c) * u
        x_prev = q.position
    theta = k * (L - x_prev)
    v_end = -u * np.sin(theta) + v * np.cos(theta)
    out = -v_end
    return out if out.ndim else float(out)


def secular_roots(geometry: ResonatorGeometry, n_max: int) -> np.ndarray:
    """First ``n_max`` positive wave numbers, bisected to |dk| L <= 1e-12.

    Brackets come from consecutive sign changes on a grid of resolution
    pi/(8L); if fewer than ``n_max`` brackets appear below the expected
    spectral extent, the grid is refined by successive factors up to x16
    before giving up with BracketingFailure (pathological loading).
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    L = geometry.length
    base = math.pi / L
    for refine in (1, 2, 4, 8, 16):
        step = base / (8 * refine)
        k_grid = np.arange(step, (n_max + 2) * base + step, step)
        vals = np.asarray(secular_value(k_grid, geometry))
        sign = np.sign(vals)
        exact = np.flatnonzero(vals == 0.0)
        flips = np.flatnonzero((sign[:-1] * sign[1:]) < 0.0)
        roots = list(k_grid[exact])
        lo, hi = k_grid[flips], k_grid[flips + 1]
        if lo.size:
            f_lo = vals[flips]
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                f_mid = np.asarray(secular_value(mid, geometry))
                take_low = (f_lo * f_mid) <= 0.0
                hi = np.where(take_low, mid, hi)
                lo = np.where(take_low, lo, mid)
                f_lo = np.where(take_low, f_lo, f_mid)
                if np.max(hi - lo) * L <= 1e-12:
                    break
            roots.extend(0.5 * (lo + hi))
        roots = np.sort(np.array(roots))
        if roots.size >= n_max:
            return roots[:n_max]
    raise BracketingFailure(
        f"found only {roots.size} of {n_max} secular roots at x16 grid refinement; "
        "the loading is pathological"
    )


def _bare_stack(geometry: ResonatorGeometry, n_max: int):
    """(k, norm, amplitudes) of the lossless modes 1..n_max, as ``_eval_segments`` takes them.

    One array step over the secular roots: the un-normalized (P, Q) of each
    segment follow from continuity and the derivative jump at each load, and
    ``norm`` makes ell_m (c int Psi^2 dx + sum_j C_sj Psi(x_j)^2) = 1, with the
    square integral of each segment exact.
    """
    k = secular_roots(geometry, n_max)
    c = geometry.c_per_len
    p, q = np.ones_like(k), np.zeros_like(k)
    segments = []
    for load in geometry.qubits:
        xq, ctilde = load.position, load.c_series / c
        if xq == 0.0:
            # Load at the Neumann end: the jump acts before any propagation.
            q = q - k * ctilde * p
            continue
        if xq == geometry.length:
            # Load at the far end only modifies the secular condition; the
            # interior amplitudes are unaffected.
            continue
        segments.append((p, q))
        cos, sin = np.cos(k * xq), np.sin(k * xq)
        psi = p * cos + q * sin
        # Psi'(x+) = Psi'(x-) - k^2 (C_s/c) Psi(x); in (P, Q) form the slope
        # coefficient is Psi'/k = -P sin + Q cos, so Q jumps in the
        # cos-projection: dQ = -k Ctilde Psi * cos, dP = +k Ctilde Psi * sin.
        p = p + k * ctilde * psi * sin
        q = q - k * ctilde * psi * cos
    segments.append((p, q))
    breaks = _segment_breaks(geometry)
    total = np.zeros_like(k)
    for (p, q), a, b in zip(segments, breaks[:-1], breaks[1:]):
        # Exact integral of (P cos kx + Q sin kx)^2 over [a, b].
        s = (p * p + q * q) * 0.5 * (b - a)
        s += (p * p - q * q) * (np.sin(2 * k * b) - np.sin(2 * k * a)) / (4 * k)
        s += p * q * (np.cos(2 * k * a) - np.cos(2 * k * b)) / (2 * k)
        total += c * s
    amplitudes = np.stack([np.stack(pq, axis=-1) for pq in segments], axis=1)
    positions = np.array([load.position for load in geometry.qubits])
    at_loads = _eval_segments(positions, k, np.ones_like(k), amplitudes, geometry)
    for load, psi in zip(geometry.qubits, at_loads.T):
        total += load.c_series * psi * psi
    total *= geometry.ell_m
    return k, 1.0 / np.sqrt(total), amplitudes


def _eval_segments(
    x: np.ndarray, k: np.ndarray, norm: np.ndarray, amplitudes: np.ndarray,
    geometry: ResonatorGeometry,
) -> np.ndarray:
    """Psi of a stack of modes at the points ``x`` (1-d), shape (k.size, x.size).

    ``k`` and ``norm`` hold one entry per mode and ``amplitudes`` each mode's
    (P, Q) per segment, shape (modes, segments, 2); the segment breaks are
    the geometry's, shared by every mode.
    """
    if ((x < 0.0) | (x > geometry.length)).any():
        raise DomainError("x outside the resonator")
    breaks = _segment_breaks(geometry)
    idx = np.searchsorted(breaks, x, side="right") - 1
    idx = np.minimum(np.maximum(idx, 0), amplitudes.shape[1] - 1)  # np.clip is slower
    kx = k[:, None] * x
    return norm[:, None] * (amplitudes[:, idx, 0] * np.cos(kx) + amplitudes[:, idx, 1] * np.sin(kx))


def _stack(modes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, norm, amplitudes) of a mode list, as ``_eval_segments`` takes them."""
    return (
        np.array([m.k_n for m in modes]),
        np.array([m.norm for m in modes]),
        np.array([m.segment_amplitudes for m in modes], dtype=float),
    )


def _modes(stack, frequencies) -> list[Mode]:
    """Modes 1..N from a :func:`_bare_stack` and one ComplexFreq per mode."""
    k, norm, amplitudes = (a.tolist() for a in stack)
    return [Mode(n, k_n, omega_n, norm_n, tuple(map(tuple, segments)))
            for n, (k_n, omega_n, norm_n, segments)
            in enumerate(zip(k, frequencies, norm, amplitudes), start=1)]


def resonator_modes(geometry: ResonatorGeometry, n_max: int) -> list[Mode]:
    """Lossless modes 1..n_max (kappa = 0) from the secular roots."""
    stack = _bare_stack(geometry, n_max)
    nu = geometry.bare_frequency_ghz(stack[0]).tolist()
    return _modes(stack, [ComplexFreq(f, 0.0) for f in nu])


def mode_function(mode: Mode, geometry: ResonatorGeometry, x) -> np.ndarray | float:
    """Normalized mode amplitude Psi_n(x); scalar or ndarray ``x`` in [0, L]."""
    x_arr = np.asarray(x, dtype=float)
    out = _mode_matrix([mode], geometry, x_arr.ravel())[0]
    return out.reshape(x_arr.shape) if x_arr.ndim else float(out[0])


@_hash_once
@dataclass(frozen=True)
class FixedPointOptions:
    """Settings of :func:`fixed_point_eigenfrequency`, checked on construction.

    tol: relative residual to reach (finite, > 0); max_iter: iteration budget
    (>= 1).
    """

    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be finite and positive, got {self.tol}")
        if not self.max_iter >= 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter}")


# Relative offset from the gap edge of the seed a gap-edge restart starts from.
_GAP_RESTART_OFFSET = 1e-3


def _warn_gap_straddles(restarted) -> None:
    """Warn GapStraddle per restarted k_n: the one emitter, for a solve and a memo hit alike.

    Attributed to this line and kept in this module's registry, so the
    default filters print a restart once, solved or repeated.
    """
    for k_n in restarted:
        warnings.warn(f"fixed-point iterate crossed the gap edge at k={k_n:.6g}; "
                      "restarting from the across-gap side", GapStraddle)


def _omega_n_sq(k, omega, z_s, geometry: ResonatorGeometry):
    """omega_n^2 = (k^2 + i g omega c Z_s) / (ell_m c) in (rad/s)^2.

    ``omega`` is in rad/s and ``z_s`` is Z_s(omega) in Ohms; ``k`` is one wave
    number or an array of them.
    """
    num = k * k + 1j * geometry.g_geom * omega * geometry.c_per_len * z_s
    return num / (geometry.ell_m * geometry.c_per_len)


def fixed_point_eigenfrequency(
    k_n: float,
    material: Material,
    geometry: ResonatorGeometry,
    options: FixedPointOptions = FixedPointOptions(),
    seed_ghz: complex | None = None,
) -> ComplexFreq:
    """Complex eigenfrequency (GHz) solving omega^2 = rhs(omega) for one mode.

    Picard iteration omega <- omega/2 + sqrt(rhs(omega))/2 (principal branch,
    Re > 0).  rhs varies slowly with omega, so the map's derivative
    (1 + d sqrt(rhs)/d omega)/2 is close to 1/2 and each step about halves
    the residual.  Each iteration makes one rhs evaluation (one
    ``surface_impedance`` call), shared by the residual omega^2 - rhs and the
    Picard target, so a solve without a gap restart costs as many impedance
    calls as its residual history has entries.  Below-gap solutions stay
    exactly real: the surface impedance is purely imaginary there, making rhs
    real and positive.
    ``seed_ghz`` overrides the default starting point (the bare frequency
    k_n v); the fixed point must not depend on it.

    Warns GapStraddle (from this module, not the caller's line) and restarts
    from just across the gap if an iterate changes side by
    ``Material.above_gap``; a second change raises NoConvergence.
    So does an iterate the impedance refuses (DomainError), as where rhs < 0
    below the gap sends the next one off the real axis; its residual history
    keeps the residuals from before a restart too.  A refused starting point
    raises the DomainError itself.
    """
    gap_rad = material.gap_frequency * _TWO_PI_GHZ  # reduced nu = 2 in rad/s, for restart seeds
    if seed_ghz is None:
        omega = complex(k_n * geometry.bare_velocity)
    else:
        omega = complex(seed_ghz) * _TWO_PI_GHZ
        if omega.real <= 0.0:
            raise DomainError(f"seed must have a positive real part, got {seed_ghz}")
    residuals: list[float] = []
    before_restart: list[float] = []
    restarted = False
    side0 = material.above_gap(omega / _TWO_PI_GHZ)  # the value the impedance is handed
    for step in range(options.max_iter):
        try:
            z_s = (0.0j if material.impedance_prefactor == 0.0
                   else surface_impedance(material, omega / _TWO_PI_GHZ))
            rhs = _omega_n_sq(k_n, omega, z_s, geometry)
        except DomainError as exc:
            if step == 0:  # the starting point, not an iterate of the solver
                raise
            raise NoConvergence(
                f"fixed-point iterate left the domain: {exc}",
                residual_history=before_restart + residuals,
            ) from exc
        rel = abs(omega * omega - rhs) / max(abs(omega) ** 2, 1e-300)
        residuals.append(rel)
        if rel <= options.tol:
            nu_ghz = omega.real / _TWO_PI_GHZ
            kap_ghz = omega.imag / _TWO_PI_GHZ
            if abs(kap_ghz) < 1e-14 * max(1.0, abs(nu_ghz)):
                kap_ghz = 0.0
            return ComplexFreq(nu_ghz, kap_ghz)
        target = np.sqrt(complex(rhs))
        if target.real < 0.0:
            target = -target
        omega_new = 0.5 * omega + 0.5 * target
        if material.above_gap(omega_new / _TWO_PI_GHZ) != side0:
            if restarted:
                raise NoConvergence(
                    "fixed-point iterate re-crossed the gap edge", residual_history=residuals
                )
            _warn_gap_straddles((k_n,))
            restarted = True
            side0 = not side0
            if side0:
                omega_new = complex(gap_rad * (1.0 + _GAP_RESTART_OFFSET), max(omega_new.imag, 0.0))
            else:
                omega_new = complex(gap_rad * (1.0 - _GAP_RESTART_OFFSET))
            before_restart, residuals = residuals, []
        omega = omega_new
    raise NoConvergence(
        f"dispersion fixed point did not reach tol={options.tol} in "
        f"{options.max_iter} iterations",
        residual_history=residuals,
    )


def dispersive_modes(
    geometry: ResonatorGeometry,
    material: Material,
    n_max: int,
    options: FixedPointOptions = FixedPointOptions(),
) -> list[Mode]:
    """Modes 1..n_max with complex eigenfrequencies from the dispersion fixed point."""
    stack = _bare_stack(geometry, n_max)
    return _modes(stack, [fixed_point_eigenfrequency(k, material, geometry, options)
                          for k in stack[0]])


def _mode_matrix(modes, geometry: ResonatorGeometry, x: np.ndarray) -> np.ndarray:
    """Psi_n(x) at the points ``x`` (1-d) as shape (n_modes, x.size)."""
    return _eval_segments(x, *_stack(modes), geometry)


def greens_function(
    x,
    x_prime,
    omega_ghz: complex,
    modes,
    material: Material,
    geometry: ResonatorGeometry,
) -> complex:
    """Truncated bi-orthogonal Green's function at probe frequency omega (GHz).

    G(x, x'; omega) = sum_n Psi_n(x) Psi_n(x') / (omega^2 - omega_n^2(omega)),
    with omega_n^2(omega) from ``_omega_n_sq`` evaluated at the probe
    frequency.  Frequencies in rad/s internally; the result carries the SI
    normalization of the modes.

    Probes with a negative real part are evaluated through the reality
    reflection of the impedance, Z_s(-conj(omega)) = conj(Z_s(omega)), which
    gives the response function its conjugation symmetry
    G(x, x'; -conj(omega)) = conj(G(x, x'; omega)).
    """
    if material.impedance_prefactor == 0.0:
        z_s = 0.0j
    elif complex(omega_ghz).real < 0.0:
        z_s = np.conj(surface_impedance(material, -complex(omega_ghz).conjugate()))
    else:
        z_s = surface_impedance(material, complex(omega_ghz))
    return _greens(x, x_prime, omega_ghz, modes, geometry, z_s)


def _greens(x, x_prime, omega_ghz: complex, modes, geometry: ResonatorGeometry, z_s) -> complex:
    """:func:`greens_function` from the Z_s (Ohms) at the probe that the caller holds."""
    omega = complex(omega_ghz) * _TWO_PI_GHZ
    ks = np.array([m.k_n for m in modes])
    omega_n_sq = _omega_n_sq(ks, omega, z_s, geometry)
    roots = np.sqrt(omega_n_sq.astype(complex))
    if np.any(np.abs(omega - roots) <= 1e-9 * np.abs(roots)):
        raise PoleProximity(f"probe frequency {omega_ghz} GHz within 1e-9 of a pole")
    den = omega * omega - omega_n_sq
    psi = _mode_matrix(modes, geometry, np.array([x, x_prime], dtype=float))
    return complex(np.sum(psi[:, 0] * psi[:, 1] / den))


def _simpson(y: np.ndarray, x: np.ndarray) -> float | complex:
    """Composite Simpson rule for samples ``y`` on a uniform grid ``x`` of odd length.

    Both callers build such a grid with ``linspace``; an even length is not
    supported.
    """
    h = (x[-1] - x[0]) / (x.size - 1)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]))


def _weighted_inner(
    geometry: ResonatorGeometry, x_grid: np.ndarray, f_vals: np.ndarray, g_vals: np.ndarray,
    f_at_loads: np.ndarray, g_at_loads: np.ndarray,
) -> float | complex:
    """<f, g> with weight ell_m c(x), delta terms included; Simpson in x."""
    bulk = _simpson(f_vals * g_vals, x_grid) * geometry.c_per_len
    point = sum(
        load.c_series * fa * ga
        for load, fa, ga in zip(geometry.qubits, f_at_loads, g_at_loads)
    )
    return geometry.ell_m * (bulk + point)


def zero_mode_amplitude(geometry: ResonatorGeometry) -> float:
    """Amplitude of the uniform zero-frequency mode of the open line.

    An open (Neumann) line always carries a k = 0 solution, Psi = const, with
    eigenfrequency exactly zero even in the presence of capacitive loads (the
    derivative jump -k^2 (C_s/c) Psi vanishes with k).  It is not part of the
    dynamical mode list, which starts at n = 1, but it does belong to the
    basis the completeness relation sums over; its normalized amplitude under
    the delta-weighted inner product is 1/sqrt(ell_m (c L + sum C_s)).
    """
    total_c = geometry.c_per_len * geometry.length + sum(q.c_series for q in geometry.qubits)
    return 1.0 / math.sqrt(geometry.ell_m * total_c)


def completeness_residual(geometry: ResonatorGeometry, modes, test_function) -> float:
    """Relative L^2 defect of expanding ``test_function`` in the first modes.

    Coefficients use the delta-weighted inner product the modes are
    orthonormal under; the residual norm uses the same weight.  The uniform
    zero mode (see :func:`zero_mode_amplitude`) is included in the expansion
    automatically: it carries the mean of the test function, which no k > 0
    mode can represent.
    """
    n_grid = max(4097, 16 * len(modes) + 1)
    x = np.linspace(0.0, geometry.length, n_grid)
    x_loads = np.array([q.position for q in geometry.qubits])
    f = np.asarray([test_function(xi) for xi in x], dtype=float)
    f_loads = np.asarray([test_function(xi) for xi in x_loads], dtype=float)
    psi = _mode_matrix(modes, geometry, x)
    psi_loads = _mode_matrix(modes, geometry, x_loads)
    psi0 = zero_mode_amplitude(geometry)
    coeffs = np.array(
        [
            _weighted_inner(
                geometry, x, np.full_like(x, psi0), f, np.full_like(x_loads, psi0), f_loads
            )
        ]
        + [
            _weighted_inner(geometry, x, psi[i], f, psi_loads[i], f_loads)
            for i in range(len(modes))
        ]
    )
    recon = coeffs[0] * psi0 + coeffs[1:] @ psi
    recon_loads = coeffs[0] * psi0 + coeffs[1:] @ psi_loads
    defect = f - recon
    defect_loads = f_loads - recon_loads
    num = _weighted_inner(geometry, x, defect, defect, defect_loads, defect_loads)
    den = _weighted_inner(geometry, x, f, f, f_loads, f_loads)
    return math.sqrt(max(num, 0.0) / den)


def greens_identity_residual(
    x1: float,
    x: float,
    omega_ghz: float,
    geometry: ResonatorGeometry,
    material: Material,
    modes,
    n_max: int | None = None,
) -> float:
    """Residual of the lossy-resonator Green's identity at a real above-gap probe.

    Checks  g omega R_s int c(x') G*(x1,x') G(x,x') dx'  =
    i (G*(x1,x) - G(x,x1)) / 2,  with the left side integrated over x' using
    every supplied mode and the right side truncated at ``n_max`` modes.  The
    identity is exact term by term, so with ``n_max = len(modes)`` the
    residual is pure roundoff; a smaller ``n_max`` isolates the truncation
    tail of the right side, which is how convergence in mode count is probed.
    """
    if not material.above_gap(omega_ghz):
        raise DomainError(f"probe must lie above the gap, got {omega_ghz} GHz")
    if n_max is None:
        n_max = len(modes)
    if not (1 <= n_max <= len(modes)):
        raise DomainError(f"n_max must be in [1, {len(modes)}], got {n_max}")
    omega = omega_ghz * _TWO_PI_GHZ
    z_s = surface_impedance(material, omega_ghz)
    r_s = z_s.real

    n_grid = max(4097, 12 * len(modes) + 1)
    xg = np.linspace(0.0, geometry.length, n_grid)
    ks = np.array([m.k_n for m in modes])
    den = omega * omega - _omega_n_sq(ks, omega, z_s, geometry)
    psi = _mode_matrix(modes, geometry, xg)
    psi1 = _mode_matrix(modes, geometry, np.array([x1]))[:, 0]
    psix = _mode_matrix(modes, geometry, np.array([x]))[:, 0]
    g1 = (psi1 / den) @ psi  # G(x1, x') on the grid
    gx = (psix / den) @ psi
    psi_l = _mode_matrix(modes, geometry, np.array([q.position for q in geometry.qubits]))
    g1_l = (psi1 / den) @ psi_l
    gx_l = (psix / den) @ psi_l
    bulk = _simpson(np.conj(g1) * gx, xg) * geometry.c_per_len
    point = sum(
        load.c_series * np.conj(a) * b for load, a, b in zip(geometry.qubits, g1_l, gx_l)
    )
    lhs = geometry.g_geom * omega * r_s * (bulk + point)

    den_t, psi1_t, psix_t = den[:n_max], psi1[:n_max], psix[:n_max]
    g_x1_x = np.sum(psi1_t * psix_t / den_t)
    g_x_x1 = np.sum(psix_t * psi1_t / den_t)
    rhs = 0.5j * (np.conj(g_x1_x) - g_x_x1)

    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return float(abs(lhs - rhs) / scale)
