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
import sys
import threading
import warnings
from collections import OrderedDict
from dataclasses import astuple, dataclass, replace

import numpy as np

from .errors import AboveGapMode, DomainError, GapStraddle, QubitOnResonance
from .impedance import _TWO_PI_GHZ, Material, epsilon
from .modes import (
    FixedPointOptions,
    Mode,
    ResonatorGeometry,
    _eval_segments,
    _mode_matrix,
    _stack,
    _with_eigenfrequencies,
    greens_function,
    mode_function,
    resonator_modes,
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
    with normalized >= 0.70.
    """

    per_mode_terms: np.ndarray
    partial_sums: np.ndarray
    normalized_curve: np.ndarray
    totals: LambShiftTotals
    convergence_index_70pct: int
    modes: list[Mode]
    comparator_terms: np.ndarray
    below_gap: np.ndarray

    def convergence_curves(self) -> dict[str, np.ndarray]:
        """Normalized convergence curves of the three models, keyed like the totals.

        Computed on demand: raises DomainError if a model's total vanishes,
        as below_bandgap does when every mode lies above the gap.
        """
        return {model: self.convergence_curve(model) for model in _MODELS}

    def convergence_curve(self, model: str) -> np.ndarray:
        """Normalized convergence curve of one model; see :meth:`convergence_curves`."""
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
    Returns a real number below the gap (eps is real there).
    """
    _check_position(qubit, geometry)
    nu_ghz = mode.omega_n.nu
    if material.reduced(nu_ghz) >= 2.0:
        raise AboveGapMode(
            f"mode at {nu_ghz} GHz is above the gap ({material.gap_frequency} GHz); "
            "use spectral_density for the continuum response"
        )
    eps = epsilon(material, geometry.g_geom, geometry.ell_m, nu_ghz)
    psi = _dimensionless_amplitude(mode, geometry, qubit.x_q)
    value = qubit.dipole_prefactor * math.sqrt(nu_ghz) * np.sqrt(complex(eps)) * psi
    return value.real if value.imag == 0.0 else complex(value)


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
    if omega_ghz <= material.gap_frequency:
        raise DomainError(
            f"spectral density is defined above the gap ({material.gap_frequency} GHz); "
            f"got {omega_ghz} GHz"
        )
    eps = epsilon(material, geometry.g_geom, geometry.ell_m, omega_ghz)
    green = greens_function(qubit.x_q, qubit.x_q, omega_ghz, modes, material, geometry)
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
    return _mode_branches([mode], qubit, material, geometry)[0]


def _pole_constants(mode: Mode, material: Material, geometry: ResonatorGeometry):
    """The qubit-independent half of T_n: (omega_p, b, conj(omega_p), conj(b))."""
    omega_p = complex(mode.omega_n.nu, mode.omega_n.kappa)
    eps = epsilon(material, geometry.g_geom, geometry.ell_m, omega_p)
    b = -1j * abs(eps) ** 2 - eps.real * eps.imag
    return omega_p, b, omega_p.conjugate(), b.conjugate()


def _pole_branches(poles, psi, qubit: QubitParams):
    """Mirror branches (plus, minus) of T_n in MHz, per pole constants and amplitude psi."""
    omega_q = qubit.omega_q
    scale = 1j * qubit.dipole_prefactor**2
    for (omega_p, b, omega_pc, bc), amp in zip(poles, psi):
        pref = scale * amp**2 * 1e3  # GHz -> MHz
        yield pref * omega_p * b / (omega_q - omega_p), pref * omega_pc * bc / (omega_q + omega_pc)


def _mode_branches(modes, qubit, material, geometry) -> list[tuple[complex, complex]]:
    """Mirror branches of each mode's T_n (MHz), with Psi_n(x_q) from one kernel call."""
    _check_position(qubit, geometry)
    if not modes:
        return []
    _check_resonance(qubit.omega_q, _frequencies(modes))
    poles = [_pole_constants(m, material, geometry) for m in modes]
    at_qubit = _mode_matrix(modes, geometry, np.array([qubit.x_q]))[:, 0]
    return list(_pole_branches(poles, (at_qubit * _amplitude_scale(geometry)).tolist(), qubit))


def _frequencies(modes) -> np.ndarray:
    return np.array([m.omega_n.nu for m in modes])


def lamb_shift_terms(
    modes,
    qubit: QubitParams,
    material: Material,
    geometry: ResonatorGeometry,
) -> np.ndarray:
    """Complex per-mode shift terms (MHz) for modes carrying complex frequencies.

    The reported physical contribution of mode n is the real part; below-gap
    modes (kappa_n = 0) produce exactly real terms through the same formula.
    """
    branches = _mode_branches(modes, qubit, material, geometry)
    return np.array([plus + minus for plus, minus in branches], dtype=complex)


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
    return _comparator(mode.omega_n.nu, _dimensionless_amplitude(mode, geometry, qubit.x_q), qubit)


def _comparator(omega_n, psi, qubit: QubitParams):
    """Dispersionless terms (MHz) at frequencies omega_n, amplitudes psi (floats or arrays)."""
    omega_q = qubit.omega_q
    term = omega_n * psi**2 * (1.0 / (omega_q - omega_n) - 1.0 / (omega_q + omega_n))
    return qubit.dipole_prefactor**2 * term * 1e3


def normalized_convergence(per_mode_terms) -> np.ndarray:
    """Cumulative Re(partial)/Re(total) for any per-mode term sequence."""
    partial = np.cumsum(np.asarray(per_mode_terms))
    total = partial[-1].real if np.iscomplexobj(partial) else partial[-1]
    if total == 0.0:
        raise DomainError("total shift vanishes; normalized curve undefined")
    return (partial.real if np.iscomplexobj(partial) else partial) / total


@dataclass(frozen=True)
class _ModalSpectrum:
    """The qubit-independent half of a report, fixed by the device alone.

    ``lossless`` are the bare modes, ``dispersive`` the same modes carrying
    their dispersion fixed points, ``poles`` the :func:`_pole_constants` of
    each, ``nu`` and ``nu_bare`` the dispersive and bare frequencies, and
    ``below_gap`` flags the bare frequencies below the gap.  ``stack``
    holds the spatial data of the modes as ``modes._eval_segments`` takes it.
    """

    lossless: tuple[Mode, ...]
    dispersive: tuple[Mode, ...]
    poles: tuple[tuple[complex, complex, complex, complex], ...]
    nu: np.ndarray
    nu_bare: np.ndarray
    below_gap: np.ndarray
    stack: tuple[np.ndarray, np.ndarray, np.ndarray]


# (material, geometry, n_max, options) -> _ModalSpectrum, least recently used first.
# The lock also keeps the warning capture of a solve to one thread at a time.
_spectra: OrderedDict = OrderedDict()
_spectra_lock = threading.Lock()


def _solve_spectrum(
    material: Material, geometry: ResonatorGeometry, n_max: int, options: FixedPointOptions
) -> _ModalSpectrum:
    lossless = tuple(resonator_modes(geometry, n_max))
    dispersive = tuple(_with_eigenfrequencies(lossless, material, geometry, options))
    poles = tuple(_pole_constants(m, material, geometry) for m in dispersive)
    below_gap = np.array([material.reduced(m.omega_n.nu) < 2.0 for m in lossless])
    return _ModalSpectrum(lossless, dispersive, poles, _frequencies(dispersive),
                          _frequencies(lossless), below_gap, _stack(lossless))


def _reissue(caught) -> None:
    """Issue recorded warnings again, attributed to the module that raised them,
    so that filters naming a module still apply."""
    modules = {getattr(m, "__file__", None): name for name, m in list(sys.modules.items())}
    for w in caught:
        warnings.warn_explicit(
            w.message, w.category, w.filename, w.lineno, module=modules.get(w.filename)
        )


def _modal_spectrum(
    material: Material, geometry: ResonatorGeometry, n_max: int, options: FixedPointOptions
) -> _ModalSpectrum:
    """The device's modal spectrum, solved on the first request and then reused.

    A solve that warned (a GapStraddle restart) is not kept, so its warnings
    are issued again on every call: they are recorded during the solve and
    re-issued after it.
    """
    key = (material, geometry, operator.index(n_max), options)
    with _spectra_lock:
        spectrum = _spectra.get(key)
        if spectrum is not None:
            _spectra.move_to_end(key)
            return spectrum
        caught = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", GapStraddle)
                spectrum = _solve_spectrum(material, geometry, n_max, options)
        finally:
            _reissue(caught)
        if not caught:
            _spectra[key] = spectrum
            if len(_spectra) > _SPECTRUM_MEMO_SIZE:
                _spectra.popitem(last=False)
        return spectrum


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
    reused by later reports on the same device.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    _check_position(qubit, geometry)
    spectrum = _modal_spectrum(material, geometry, n_max, options)
    _check_resonance(qubit.omega_q, spectrum.nu)
    _check_resonance(qubit.omega_q, spectrum.nu_bare)
    at_qubit = _eval_segments(np.array([qubit.x_q]), *spectrum.stack, geometry)[:, 0]
    psi = at_qubit * _amplitude_scale(geometry)
    branches = _pole_branches(spectrum.poles, psi.tolist(), qubit)
    terms = np.array([plus + minus for plus, minus in branches])
    normalized = normalized_convergence(terms)
    partial = np.cumsum(terms)
    cc_terms = _comparator(spectrum.nu_bare, psi, qubit)
    below_gap = spectrum.below_gap.copy()
    return LambShiftReport(
        per_mode_terms=terms,
        partial_sums=partial,
        normalized_curve=normalized,
        totals=LambShiftTotals(
            dispersion=float(partial[-1].real),
            below_bandgap=float(cc_terms[below_gap].sum()),
            no_dispersion=float(cc_terms.sum()),
        ),
        convergence_index_70pct=int(np.argmax(normalized >= 0.70)) + 1,
        modes=list(spectrum.dispersive),
        comparator_terms=cc_terms,
        below_gap=below_gap,
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
