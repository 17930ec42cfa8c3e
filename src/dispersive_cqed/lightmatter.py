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
from dataclasses import dataclass, replace

import numpy as np

from .errors import AboveGapMode, DomainError, QubitOnResonance
from .impedance import Material, epsilon
from .modes import (
    _TWO_PI_GHZ,
    FixedPointOptions,
    Mode,
    ResonatorGeometry,
    fixed_point_eigenfrequency,
    greens_function,
    mode_function,
    resonator_modes,
)

_RESONANCE_REL_TOL = 1e-6


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
    """Per-mode shift terms with convergence diagnostics.

    ``normalized_curve[M-1]`` is Re(sum of first M terms) / Re(total);
    ``convergence_index_70pct`` is the smallest M with normalized >= 0.70.
    """

    per_mode_terms: np.ndarray
    partial_sums: np.ndarray
    normalized_curve: np.ndarray
    totals: LambShiftTotals
    convergence_index_70pct: int


def _check_position(qubit: QubitParams, geometry: ResonatorGeometry) -> None:
    if qubit.x_q > geometry.length:
        raise DomainError(
            f"qubit position {qubit.x_q} lies beyond the line length {geometry.length}"
        )


def _dimensionless_amplitude(mode: Mode, geometry: ResonatorGeometry, x: float) -> float:
    scale = math.sqrt(geometry.ell_m * geometry.c_per_len * geometry.length)
    return float(mode_function(mode, geometry, x)) * scale


def _check_resonance(omega_q: float, nu_n: float) -> None:
    if abs(omega_q - nu_n) < _RESONANCE_REL_TOL * omega_q:
        raise QubitOnResonance(
            f"qubit at {omega_q} GHz is degenerate with a mode at {nu_n} GHz"
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
    eps = epsilon(material, geometry.g_geom, geometry.ell_m, nu_ghz).value
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
    eps = epsilon(material, geometry.g_geom, geometry.ell_m, omega_ghz).value
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
    _check_position(qubit, geometry)
    omega_q = qubit.omega_q
    nu = mode.omega_n.nu
    _check_resonance(omega_q, nu)
    omega_p = complex(nu, mode.omega_n.kappa)
    eps = epsilon(material, geometry.g_geom, geometry.ell_m, omega_p).value
    b = -1j * abs(eps) ** 2 - eps.real * eps.imag
    psi_sq = _dimensionless_amplitude(mode, geometry, qubit.x_q) ** 2
    pref = 1j * qubit.dipole_prefactor**2 * psi_sq * 1e3  # GHz -> MHz
    plus = pref * omega_p * b / (omega_q - omega_p)
    minus = pref * omega_p.conjugate() * b.conjugate() / (omega_q + omega_p.conjugate())
    return plus, minus


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
    out = np.empty(len(modes), dtype=complex)
    for i, mode in enumerate(modes):
        plus, minus = lamb_shift_term_branches(mode, qubit, material, geometry)
        out[i] = plus + minus
    return out


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
    omega_q = qubit.omega_q
    omega_n = mode.omega_n.nu
    _check_resonance(omega_q, omega_n)
    psi_sq = _dimensionless_amplitude(mode, geometry, qubit.x_q) ** 2
    term = omega_n * psi_sq * (1.0 / (omega_q - omega_n) - 1.0 / (omega_q + omega_n))
    return qubit.dipole_prefactor**2 * term * 1e3


def normalized_convergence(per_mode_terms) -> np.ndarray:
    """Cumulative Re(partial)/Re(total) for any per-mode term sequence."""
    partial = np.cumsum(np.asarray(per_mode_terms))
    total = partial[-1].real if np.iscomplexobj(partial) else partial[-1]
    if total == 0.0:
        raise DomainError("total shift vanishes; normalized curve undefined")
    return (partial.real if np.iscomplexobj(partial) else partial) / total


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
    comparator at the gap edge.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    _check_position(qubit, geometry)
    lossless = resonator_modes(geometry, n_max)
    dispersive = [
        replace(m, omega_n=fixed_point_eigenfrequency(m.k_n, material, geometry, options))
        for m in lossless
    ]
    terms = lamb_shift_terms(dispersive, qubit, material, geometry)
    partial = np.cumsum(terms)
    total = partial[-1]
    if total.real == 0.0:
        raise DomainError("total shift vanishes; normalized curve undefined")
    normalized = partial.real / total.real
    index_70 = int(np.argmax(normalized >= 0.70)) + 1

    cc_terms = np.array([cc_comparator_term(m, qubit, geometry) for m in lossless])
    below_mask = np.array([material.reduced(m.omega_n.nu) < 2.0 for m in lossless])
    totals = LambShiftTotals(
        dispersion=float(total.real),
        below_bandgap=float(cc_terms[below_mask].sum()),
        no_dispersion=float(cc_terms.sum()),
    )
    return LambShiftReport(
        per_mode_terms=terms,
        partial_sums=partial,
        normalized_curve=normalized,
        totals=totals,
        convergence_index_70pct=index_70,
    )


def rescaled(report: LambShiftReport, no_dispersion_target_mhz: float) -> LambShiftReport:
    """Copy of ``report`` with all shift values scaled so that
    totals.no_dispersion equals the target (e.g. a published reference total).

    The normalized curve and the 70% index are scale-invariant and unchanged.
    """
    if report.totals.no_dispersion == 0.0:
        raise DomainError("cannot rescale: no-dispersion total is zero")
    factor = no_dispersion_target_mhz / report.totals.no_dispersion
    totals = LambShiftTotals(
        dispersion=report.totals.dispersion * factor,
        below_bandgap=report.totals.below_bandgap * factor,
        no_dispersion=report.totals.no_dispersion * factor,
    )
    return LambShiftReport(
        per_mode_terms=report.per_mode_terms * factor,
        partial_sums=report.partial_sums * factor,
        normalized_curve=report.normalized_curve.copy(),
        totals=totals,
        convergence_index_70pct=report.convergence_index_70pct,
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
