"""Qubit-facing quantities: mode couplings, spectral density, Lamb shift.

Conventions used throughout this module
---------------------------------------
* Mode amplitudes enter every formula through the dimensionless combination
  ``psi = Psi_n(x_q) * sqrt(ell_m * c * L)``; for an unloaded resonator
  ``psi(0) = sqrt(2)``.  The remaining overall scale (dipole moment times
  vacuum-field prefactor) is not recoverable from the line constants alone and
  is carried by ``QubitParams.dipole_prefactor``; :func:`rescaled` pins it
  a posteriori by matching the no-dispersion total to a reference value.
* Frequencies are ordinary frequencies in GHz at every interface.  Per-mode
  shift terms and totals are quoted in MHz times the (arbitrary) dipole scale.
* The total shift is assembled from the poles of the retarded response: each
  mode contributes a conjugate pair ``omega_p = nu_n + i kappa_n`` and
  ``-conj(omega_p)``, and closing the principal-value integral of
  J(omega)/(Omega_q - omega) over the odd-extended spectral density picks up

      T_n = i d^2 psi^2 [ omega_p b / (Omega_q - omega_p)
                          + conj(omega_p) conj(b) / (Omega_q + conj(omega_p)) ],
      b   = -i |eps(omega_p)|^2 - Re(eps) Im(eps),

  whose kappa -> 0, eps -> 1 limit is exactly the textbook second-order sum
  ``d^2 omega_n psi^2 (1/(Omega_q - omega_n) - 1/(Omega_q + omega_n))``.  The
  physically reported per-mode contribution is Re(T_n); for a lossless mode
  the pair sum is real by construction.
"""

from __future__ import annotations

import math
import operator
import threading
from bisect import bisect_left
from dataclasses import astuple, dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import AboveGapMode, DomainError, QubitOnResonance
from .impedance import _TWO_PI_GHZ, Material, _epsilon, epsilon, surface_impedance
from .modes import (
    FixedPointOptions,
    Mode,
    ResonatorGeometry,
    _eval_segments,
    _greens,
    _stack,
    _warn_gap_straddles,
    dispersive_modes,
    mode_function,
)

_RESONANCE_REL_TOL = 1e-6
_SPECTRUM_MEMO_SIZE = 16  # modal spectra kept for reuse by later reports
_MODELS = ("dispersion", "below_bandgap", "no_dispersion")


@dataclass(frozen=True)
class QubitParams:
    """Two-level system probing the resonator.

    omega_q: transition frequency in GHz; x_q: position along the line in
    meters; dipole_prefactor: dimensionless overall scale of every coupling
    (defaults to 1, see module docstring).
    """

    omega_q: float
    x_q: float
    dipole_prefactor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("omega_q", "x_q", "dipole_prefactor"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega_q <= 0.0:
            raise DomainError(f"omega_q must be positive, got {self.omega_q}")
        if self.x_q < 0.0:
            raise DomainError(f"x_q must be non-negative, got {self.x_q}")


@dataclass(frozen=True)
class LambShiftTotals:
    """Totals in MHz (times the arbitrary dipole scale) for the three models."""

    dispersion: float
    below_bandgap: float
    no_dispersion: float


@dataclass
class LambShiftReport:
    """The three-model Lamb-shift comparison, as built by :func:`lamb_shift_report`.

    ``modes`` are the dispersive modes behind the complex ``per_mode_terms``
    (MHz); ``comparator_terms`` holds each mode's dispersionless term at its
    bare frequency (MHz) and ``below_gap`` flags the modes whose bare
    frequency lies below the gap.  ``normalized_curve[M-1]`` is Re(sum of
    first M terms) / Re(total); ``convergence_index_70pct`` is the smallest M
    with normalized >= 0.70; ``restarted`` holds the k_n of the gap-restarted modes.
    """

    per_mode_terms: np.ndarray
    partial_sums: np.ndarray
    normalized_curve: np.ndarray
    totals: LambShiftTotals
    convergence_index_70pct: int
    modes: list[Mode]
    comparator_terms: np.ndarray
    below_gap: np.ndarray
    restarted: tuple[float, ...]

    def convergence_curve(self, model: str) -> np.ndarray:
        """Normalized convergence curve of one model, named like the totals.

        Computed on demand: raises DomainError if the model's total vanishes,
        as below_bandgap does when every mode lies above the gap.
        """
        if model == "dispersion":
            return self.normalized_curve
        terms = self.comparator_terms
        if model == "below_bandgap":
            terms = np.where(self.below_gap, terms, 0.0)
        return normalized_convergence(terms)


def _check_position(qubit: QubitParams, geometry: ResonatorGeometry) -> None:
    if qubit.x_q > geometry.length:
        raise DomainError(
            f"qubit position {qubit.x_q} lies beyond the line length {geometry.length}"
        )


def _amplitude_scale(geometry: ResonatorGeometry) -> float:
    return math.sqrt(geometry.ell_m * geometry.c_per_len * geometry.length)


def _dimensionless_amplitude(mode: Mode, geometry: ResonatorGeometry, x: float) -> float:
    return float(mode_function(mode, geometry, x)) * _amplitude_scale(geometry)


def _check_resonance(omega_q: float, nu: np.ndarray) -> None:
    """Refuse a qubit on any of the mode frequencies ``nu``; the message names the first."""
    on = np.abs(omega_q - nu) < _RESONANCE_REL_TOL * omega_q
    if on.any():
        raise QubitOnResonance(
            f"qubit at {omega_q} GHz is degenerate with a mode at {float(nu[on.argmax()])} GHz"
        )


def coupling_strength(
    mode: Mode,
    qubit: QubitParams,
    material: Material,
    geometry: ResonatorGeometry,
):
    """Coupling g_n = d * sqrt(omega_n) * sqrt(eps(omega_n)) * psi_n(x_q).

    Only defined for modes below the pair-breaking gap, where the mode is a
    true discrete excitation; above the gap the mode is a resonance inside a
    continuum and callers must use :func:`spectral_density` instead.
    Returns a float: below the gap eps is exactly real and above 1.
    """
    _check_position(qubit, geometry)
    nu_ghz = mode.omega_n.nu
    if material.above_gap(nu_ghz):
        raise AboveGapMode(
            f"mode at {nu_ghz} GHz is above the gap ({material.gap_frequency} GHz); "
            "use spectral_density for the continuum response"
        )
    eps = epsilon(material, geometry.g_geom, geometry.ell_m, nu_ghz)
    psi = _dimensionless_amplitude(mode, geometry, qubit.x_q)
    return qubit.dipole_prefactor * math.sqrt(nu_ghz) * math.sqrt(eps.real) * psi


def spectral_density(
    omega_ghz: float,
    qubit: QubitParams,
    modes,
    material: Material,
    geometry: ResonatorGeometry,
) -> float:
    """Effective spectral density J(omega) above the gap (dimensionless scale).

    J = d^2 omega^2 [ (g R_s / (omega ell_m)) Re(eps) Re(G) + |eps|^2 Im(G) ]
    evaluated at (x_q, x_q), with G the truncated mode expansion of the lossy
    Green's function.  The first factor equals -Im(eps), so everything is
    assembled from the refractive index alone.  Below the gap R_s = 0 and G is
    real away from poles, so J would vanish identically; the routine therefore
    refuses probe frequencies at or below the gap edge.
    """
    _check_position(qubit, geometry)
    if not material.above_gap(omega_ghz):
        raise DomainError(
            f"spectral density is defined above the gap ({material.gap_frequency} GHz); "
            f"got {omega_ghz} GHz"
        )
    z_s = surface_impedance(material, omega_ghz)
    eps = _epsilon(material, geometry.g_geom, geometry.ell_m, omega_ghz, z_s)
    green = _greens(qubit.x_q, qubit.x_q, omega_ghz, modes, geometry, z_s)
    # Dimensionless mode amplitudes and an omega^2 in (rad/s)^2 cancel the
    # SI units of the Green's function.
    scale = geometry.ell_m * geometry.c_per_len * geometry.length
    omega_sq = (omega_ghz * _TWO_PI_GHZ) ** 2
    bracket = eps.real * (-eps.imag) * green.real + abs(eps) ** 2 * green.imag
    return qubit.dipole_prefactor**2 * omega_sq * scale * bracket


def lamb_shift_term_branches(
    mode: Mode,
    qubit: QubitParams,
    material: Material,
    geometry: ResonatorGeometry,
) -> tuple[complex, complex]:
    """The two mirror branches (pole at +omega_p and at -conj(omega_p)) in MHz.

    Their sum is the per-mode shift term; for a lossless mode (kappa_n = 0)
    the sum is exactly real.  Exposed separately so the mirror-pair realness
    can be checked branch by branch.
    """
    _check_position(qubit, geometry)
    _check_resonance(qubit.omega_q, _frequencies([mode]))
    poles = [_pole_constants(mode, material, geometry)]
    psi = [_dimensionless_amplitude(mode, geometry, qubit.x_q)]
    ((n_plus, n_minus),) = _numerators(poles, psi, qubit.dipole_prefactor)
    ((p, _, pc, _),) = poles
    w = qubit.omega_q
    return n_plus / (w - p), n_minus / (w + pc)


def _pole_constants(mode: Mode, material: Material, geometry: ResonatorGeometry):
    """The qubit-independent half of T_n: (omega_p, b, conj(omega_p), conj(b))."""
    omega_p = complex(mode.omega_n.nu, mode.omega_n.kappa)
    eps = epsilon(material, geometry.g_geom, geometry.ell_m, omega_p)
    b = -1j * abs(eps) ** 2 - eps.real * eps.imag
    return omega_p, b, omega_p.conjugate(), b.conjugate()


def _numerators(poles, psi, dipole_prefactor: float):
    """Per mode (N+, N-): T_n's branches are N+/(W - omega_p) and
    N-/(W + conj(omega_p)) at qubit frequency W, in MHz.

    ``poles`` are :func:`_pole_constants`, ``psi`` the amplitudes at the qubit
    (floats).  N+ = (pref omega_p) b with pref = i d^2 psi^2 1e3 (GHz -> MHz),
    associated as the written formula pref * omega_p * b / (W - omega_p).
    """
    scale = 1j * dipole_prefactor**2
    numerators = []
    for (omega_p, b, omega_pc, bc), amp in zip(poles, psi):
        pref = scale * amp**2 * 1e3
        numerators.append((pref * omega_p * b, pref * omega_pc * bc))
    return tuple(numerators)


def _term_constants(poles, psi, dipole_prefactor: float):
    """The omega_q-independent constants of the terms T_n, as :func:`_terms` takes them.

    ``(nu, a, b, lossy)``: the leading modes whose pole and numerators are
    real, with nonzero real numerators, as float64 arrays of their poles nu
    and numerators a = N+, b = N-; then (N+, N-, omega_p, conj(omega_p)) of
    every later mode.  Dividing a real nonzero numerator by a complex
    denominator with zero imaginary part, CPython's complex division reduces
    exactly to the real division (its ratio Im/Re is a signed zero), so the
    arrays give the real parts of those terms to the bit.
    """
    numerators = _numerators(poles, psi, dipole_prefactor)
    n_real = 0
    for (n_plus, n_minus), (p, _, _, _) in zip(numerators, poles):
        if p.imag or n_plus.imag or n_minus.imag or not (n_plus.real and n_minus.real):
            break
        n_real += 1
    real = numerators[:n_real]
    lossy = tuple((n_plus, n_minus, p, pc) for (n_plus, n_minus), (p, _, pc, _)
                  in zip(numerators[n_real:], poles[n_real:]))
    return (np.array([p.real for p, _, _, _ in poles[:n_real]]),
            np.array([n_plus.real for n_plus, _ in real]),
            np.array([n_minus.real for _, n_minus in real]),
            lossy)


def _terms(w: float, constants) -> np.ndarray:
    """Complex per-mode terms T_n (MHz) at qubit frequency w from :func:`_term_constants`.

    Each T_n is N+/(w - omega_p) + N-/(w + conj(omega_p)); the leading real
    modes are evaluated as one float64 expression, with imaginary part +0.
    """
    nu, a, b, lossy = constants
    real = a / (w - nu) + b / (w + nu)
    if not lossy:
        return real.astype(complex)
    return np.concatenate((real, [n_plus / (w - p) + n_minus / (w + pc)
                                  for n_plus, n_minus, p, pc in lossy]))


def _frequencies(modes) -> np.ndarray:
    return np.array([m.omega_n.nu for m in modes])


def cc_comparator_term(
    mode: Mode,
    qubit: QubitParams,
    geometry: ResonatorGeometry,
) -> float:
    """Dispersionless single-mode shift d^2 w_n psi^2 (1/(W-w_n) - 1/(W+w_n)), MHz.

    Uses the frequency stored on the mode, so callers control whether that is
    the bare (lossless) or the shifted value; the standard comparator passes
    modes straight from :func:`resonator_modes`.
    """
    _check_position(qubit, geometry)
    _check_resonance(qubit.omega_q, _frequencies([mode]))
    nu = mode.omega_n.nu
    psi = _dimensionless_amplitude(mode, geometry, qubit.x_q)
    return _comparator(nu * psi**2, nu, qubit)


def _comparator(weight, omega_n, qubit: QubitParams):
    """Dispersionless terms (MHz) at frequencies omega_n with weights omega_n psi^2
    (floats or arrays)."""
    omega_q = qubit.omega_q
    term = weight * (1.0 / (omega_q - omega_n) - 1.0 / (omega_q + omega_n))
    return qubit.dipole_prefactor**2 * term * 1e3


def normalized_convergence(per_mode_terms) -> np.ndarray:
    """Cumulative Re(partial)/Re(total) for any per-mode term sequence."""
    return _normalized(np.cumsum(np.asarray(per_mode_terms)))


def _normalized(partial: np.ndarray) -> np.ndarray:
    """Re(partial)/Re(total) from the partial sums (real or complex) of a term sequence."""
    partial = partial.real
    total = float(partial[-1])
    if total == 0.0:
        raise DomainError("total shift vanishes; normalized curve undefined")
    return partial / total


@dataclass(frozen=True)
class _ModalSpectrum:
    """The qubit-independent half of a report, fixed by the device alone.

    ``stack`` holds the modes' arrays (k, norm, amplitudes) once, built by
    ``modes._stack`` from ``dispersive`` as ``modes._eval_segments`` takes them.
    ``dispersive`` are the modes carrying their dispersion fixed points,
    ``poles`` the :func:`_pole_constants` of each, ``nu`` and ``nu_bare`` the
    dispersive and bare frequencies, and ``below_gap`` flags the bare
    frequencies below the gap.  The bare frequencies increase with n, so the
    flagged modes are the first ``n_below``.  ``resonances`` lists every
    dispersive and bare frequency in increasing order, for
    :func:`_check_resonances`.  ``restarted`` holds the k_n of each mode whose
    solve made a gap-edge restart: a solve restarts at most once, so exactly
    those whose bare and dispersive frequencies lie on opposite sides of the
    gap by ``Material.above_gap``, the rule the solver and the impedance use.

    ``position`` is the spectrum's one slot for :func:`_position_constants`:
    a one-element list holding ((x_q, dipole_prefactor), constants) of the
    latest report, replaced whole on a miss.
    """

    dispersive: tuple[Mode, ...]
    poles: tuple[tuple[complex, complex, complex, complex], ...]
    nu: np.ndarray
    nu_bare: np.ndarray
    below_gap: np.ndarray
    n_below: int
    resonances: list[float]
    stack: tuple[np.ndarray, np.ndarray, np.ndarray]
    restarted: tuple[float, ...]
    position: list


def _solve_spectrum(
    material: Material, geometry: ResonatorGeometry, n_max: int, options: FixedPointOptions
) -> _ModalSpectrum:
    dispersive = tuple(dispersive_modes(geometry, material, n_max, options))
    stack = _stack(dispersive)
    poles = tuple(_pole_constants(m, material, geometry) for m in dispersive)
    nu, nu_bare = _frequencies(dispersive), geometry.bare_frequency_ghz(stack[0])
    nus, bares = nu.tolist(), nu_bare.tolist()
    below_gap = np.array([not material.above_gap(f_bare) for f_bare in bares])
    restarted = tuple(m.k_n for m, f, f_bare in zip(dispersive, nus, bares)
                      if material.above_gap(f) != material.above_gap(f_bare))
    return _ModalSpectrum(dispersive, poles, nu, nu_bare, below_gap, int(below_gap.sum()),
                          sorted(nus + bares), stack, restarted, [(None, None)])


def _check_resonances(omega_q: float, spectrum: _ModalSpectrum) -> None:
    """:func:`_check_resonance` on the dispersive, then the bare frequencies.

    Float subtraction is monotone, so no frequency lies closer to omega_q
    than its two neighbours in ``spectrum.resonances``: only when one of
    them is on resonance are the two arrays scanned, for the error message.
    """
    nus = spectrum.resonances
    i = bisect_left(nus, omega_q)
    tol = _RESONANCE_REL_TOL * omega_q
    if (i > 0 and abs(omega_q - nus[i - 1]) < tol) or (
            i < len(nus) and abs(omega_q - nus[i]) < tol):
        _check_resonance(omega_q, spectrum.nu)
        _check_resonance(omega_q, spectrum.nu_bare)


class _Solves(threading.local):
    count = 0  # spectra this thread has solved, to tell a memo hit from a miss


_solves = _Solves()


@lru_cache(maxsize=_SPECTRUM_MEMO_SIZE)
def _memoised_spectrum(
    material: Material, geometry: ResonatorGeometry, n_max: int, options: FixedPointOptions
) -> _ModalSpectrum:
    """:func:`_solve_spectrum`, kept for the latest devices; a failed solve stores nothing."""
    spectrum = _solve_spectrum(material, geometry, n_max, options)
    _solves.count += 1
    return spectrum


def _modal_spectrum(
    material: Material, geometry: ResonatorGeometry, n_max: int, options: FixedPointOptions
) -> _ModalSpectrum:
    """The device's modal spectrum, solved on the first request and then reused.

    A hit issues again the GapStraddle warnings of its solve, one per
    ``restarted`` mode.  Solves run outside any lock; concurrent solvers of
    one device keep the first spectrum stored.
    """
    solved = _solves.count
    spectrum = _memoised_spectrum(material, geometry, operator.index(n_max), options)
    if _solves.count == solved:
        _warn_gap_straddles(spectrum.restarted)
    return spectrum


def _position_constants(spectrum: _ModalSpectrum, geometry: ResonatorGeometry,
                        qubit: QubitParams):
    """(term constants, comparator weights) of a report at the qubit's position and scale.

    The :func:`_term_constants` of the poles and the weights nu_bare psi^2 of
    the comparator, with psi from one ``_eval_segments`` call.  They do not
    depend on omega_q, so a memoised spectrum keeps those of its latest
    (x_q, dipole_prefactor): a scan of omega_q at one position reuses them.
    """
    key = (qubit.x_q, qubit.dipole_prefactor)
    last_key, constants = spectrum.position[0]  # one read of a pair that is replaced whole
    if last_key == key:
        return constants
    at_qubit = _eval_segments(np.array([qubit.x_q]), *spectrum.stack, geometry)[:, 0]
    psi = at_qubit * _amplitude_scale(geometry)
    constants = (_term_constants(spectrum.poles, psi.tolist(), qubit.dipole_prefactor),
                 spectrum.nu_bare * psi**2)
    spectrum.position[0] = key, constants  # one store of a pair built whole
    return constants


def lamb_shift_report(
    qubit: QubitParams,
    material: Material,
    geometry: ResonatorGeometry,
    n_max: int,
    options: FixedPointOptions = FixedPointOptions(),
) -> LambShiftReport:
    """Assemble per-mode terms, convergence diagnostics and the three totals.

    totals.dispersion sums the complex-pole terms over all n_max modes;
    totals.no_dispersion is the comparator sum over the same modes with their
    bare frequencies and eps = 1; totals.below_bandgap truncates that
    comparator at the gap edge.  The report keeps the modes, the comparator
    terms and the below-gap mask, so callers need not rebuild them.

    The modes, their fixed points and eps at each pole do not depend on the
    qubit: they are solved once per (material, geometry, n_max, options) and
    reused by later reports on the same device.  The pole numerators and
    comparator weights depend on the qubit only through (x_q,
    dipole_prefactor) and the spectrum keeps those of its latest position, so
    a report at the same position pays only for omega_q.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    _check_position(qubit, geometry)
    spectrum = _modal_spectrum(material, geometry, n_max, options)
    _check_resonances(qubit.omega_q, spectrum)
    term_constants, cc_weights = _position_constants(spectrum, geometry, qubit)
    terms = _terms(qubit.omega_q, term_constants)
    partial = terms.cumsum()  # array methods, not the numpy wrappers: a hit is call-bound
    normalized = _normalized(partial)
    cc_terms = _comparator(cc_weights, spectrum.nu_bare, qubit)
    no_dispersion = float(cc_terms.sum())
    n_below = spectrum.n_below
    return LambShiftReport(
        per_mode_terms=terms,
        partial_sums=partial,
        normalized_curve=normalized,
        totals=LambShiftTotals(
            dispersion=float(partial[-1].real),
            below_bandgap=(no_dispersion if n_below == len(cc_terms)
                           else float(cc_terms[:n_below].sum())),
            no_dispersion=no_dispersion,
        ),
        convergence_index_70pct=int((normalized >= 0.70).argmax()) + 1,
        modes=list(spectrum.dispersive),
        comparator_terms=cc_terms,
        below_gap=spectrum.below_gap.copy(),
        restarted=spectrum.restarted,
    )


def rescaled(report: LambShiftReport, no_dispersion_target_mhz: float) -> LambShiftReport:
    """Copy of ``report`` with all shift values scaled so that
    totals.no_dispersion equals the target (e.g. a published reference total).

    The terms, partial sums, comparator terms and totals scale; the modes,
    the below-gap mask, the normalized curve and the 70% index are
    scale-invariant and unchanged.
    """
    if report.totals.no_dispersion == 0.0:
        raise DomainError("cannot rescale: no-dispersion total is zero")
    factor = no_dispersion_target_mhz / report.totals.no_dispersion
    return replace(
        report,
        per_mode_terms=report.per_mode_terms * factor,
        partial_sums=report.partial_sums * factor,
        normalized_curve=report.normalized_curve.copy(),
        totals=LambShiftTotals(*(total * factor for total in astuple(report.totals))),
        comparator_terms=report.comparator_terms * factor,
    )


def naive_cutoff(c_series: float, z0_ohm: float = 50.0) -> float:
    """Impedance-matching cutoff estimate omega = 1/(Z0 C_s), in rad/s.

    The frequency at which the series coupling capacitor's reactance drops to
    the line impedance: the scale beyond which a lumped coupler stops
    isolating the qubit.  For C_s = 1e-14 F and Z0 = 50 Ohm this is 2e12
    rad/s, i.e. O(10^3) GHz.
    """
    if c_series <= 0.0 or z0_ohm <= 0.0:
        raise DomainError("C_s and Z0 must be positive")
    return 1.0 / (z0_ohm * c_series)
