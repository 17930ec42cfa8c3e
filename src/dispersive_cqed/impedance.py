"""Surface impedance of a thick superconducting film and the refractive index it induces.

Two closed-form limiting regimes are supported, both driven by the complex
Mattis-Bardeen conductivity ``sigma = sigma1 - i*sigma2``:

* extreme anomalous limit (coherence length >> penetration depth),
  ``Z_s ~ omega * (omega*sigma/sigma_n)**(-1/3)``,
* dirty (local) limit (penetration depth >> coherence length),
  ``Z_s ~ omega * (omega*sigma/sigma_n)**(-1/2)``.

The overall scale of ``Z_s`` is an input (``impedance_prefactor``, in Ohms,
with frequencies in reduced gap units), because it depends on normal-state
material constants that are not part of this model.  ``calibrate_prefactor``
pins it to a chosen kinetic-inductance red-shift of a resonator fundamental.

Phase convention: we evaluate ``Z_s = A * (i*nu) * (i*nu*sigma/sigma_n)**(-1/q)``
with principal fractional powers.  Below the gap ``i*nu*sigma = nu*sigma2`` is
real and positive, so Z_s comes out *exactly* purely imaginary (a lossless
kinetic reactance), and above the gap Re Z_s > 0.  The constant phase factor
relative to writing the prefactor as a plain ``omega`` is absorbed into A; it
is fixed by requiring a lossless superconductor below the gap rather than by
the (undetermined) normal-state proportionality constant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import BranchCut, DomainError, GridTooCoarse
from .mattis_bardeen import ComplexFreq, _check_real_below_gap, _sigma_real_axis_grid
from .mattis_bardeen import sigma_real_axis, sigma_tilde

_TWO_PI_GHZ = 2.0 * math.pi * 1e9  # rad/s per GHz


class LimitRegime(enum.Enum):
    """Thick-film limiting regime selecting the fractional power in Z_s."""

    EXTREME_ANOMALOUS = "extreme_anomalous"
    DIRTY = "dirty"

    @property
    def power(self) -> int:
        return 3 if self is LimitRegime.EXTREME_ANOMALOUS else 2


def _hash_once(cls):
    """Make a frozen dataclass hash its fields once per object.

    Applied above ``@dataclass(frozen=True)`` to the configs that key the
    spectrum memo, so a memo hit does not hash every field again.  The value
    is kept in the instance ``__dict__`` under ``_hash``, which is not a
    field: ``fields``, ``repr``, ``==`` and ``asdict`` do not see it.  It is
    left out of the pickled state, because str hashes are salted per process
    and a hash carried into another process would break dict lookups there.
    """
    names = tuple(f.name for f in fields(cls))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple(getattr(self, name) for name in names))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_hash_once
@dataclass(frozen=True)
class Material:
    """Superconductor description.

    gap_frequency is the pair-breaking edge 2*Delta/h in GHz (ordinary
    frequency), so a photon of frequency f has reduced frequency
    nu = 2 f / gap_frequency and the gap edge sits at nu = 2.
    """

    gap_frequency: float
    limit_regime: LimitRegime
    impedance_prefactor: float
    name: str = "custom"
    from_defaults: bool = False

    def __post_init__(self) -> None:
        if not (self.gap_frequency > 0.0 and math.isfinite(self.gap_frequency)):
            raise DomainError(f"gap_frequency must be positive, got {self.gap_frequency}")
        if not (self.impedance_prefactor >= 0.0 and math.isfinite(self.impedance_prefactor)):
            raise DomainError(
                f"impedance_prefactor must be >= 0, got {self.impedance_prefactor}"
            )
        if not isinstance(self.limit_regime, LimitRegime):
            raise DomainError(f"limit_regime must be a LimitRegime, got {self.limit_regime!r}")

    def reduced(self, frequency_ghz: complex) -> complex:
        """Reduced frequency 2 f / f_gap; complex frequencies map component-wise."""
        return 2.0 * frequency_ghz / self.gap_frequency

    def above_gap(self, frequency_ghz: complex) -> bool:
        """Whether f (GHz) lies above the gap: 2 Re f / f_gap > 2, so the edge is below."""
        return 2.0 * float(frequency_ghz.real) / self.gap_frequency > 2.0


# Literature-default gap frequencies (2*Delta/h).  These are *defaults*: any
# serious comparison should override them with measured film values, and the
# CLI flags materials built from these presets in its output metadata.
_AL_GAP_GHZ = 87.0
_NB_GAP_GHZ = 725.0


def aluminum(impedance_prefactor: float = 1.0, gap_frequency: float = _AL_GAP_GHZ) -> Material:
    """Aluminum preset: extreme anomalous limit, 2*Delta/h ~ 87 GHz."""
    return Material(
        gap_frequency=gap_frequency,
        limit_regime=LimitRegime.EXTREME_ANOMALOUS,
        impedance_prefactor=impedance_prefactor,
        name="aluminum",
        from_defaults=True,
    )


def niobium(impedance_prefactor: float = 1.0, gap_frequency: float = _NB_GAP_GHZ) -> Material:
    """Niobium preset: dirty limit, 2*Delta/h ~ 725 GHz."""
    return Material(
        gap_frequency=gap_frequency,
        limit_regime=LimitRegime.DIRTY,
        impedance_prefactor=impedance_prefactor,
        name="niobium",
        from_defaults=True,
    )


_IMAG_TOL = 1e-12
# Decades beyond the grid end over which kk_parts integrates its fitted tail.
_TAIL_DECADES = 3.0


def _split_frequency(material: Material, frequency_ghz: complex) -> ComplexFreq:
    """Map a (possibly complex) frequency in GHz to a reduced-unit ComplexFreq.

    The decaying-mode convention puts poles at nu + i*kappa with kappa >= 0;
    a tiny negative imaginary part (roundoff from upstream solvers) is snapped
    to zero rather than rejected.
    """
    nu = 2.0 * float(frequency_ghz.real) / material.gap_frequency
    kap = 2.0 * float(frequency_ghz.imag) / material.gap_frequency
    if abs(kap) <= _IMAG_TOL * max(1.0, abs(nu)):
        kap = 0.0
    if kap < 0.0:
        raise DomainError(
            f"frequency must lie in the decaying (Im f >= 0) half plane, got {frequency_ghz}"
        )
    if nu <= 0.0:
        raise DomainError(f"frequency must have a positive real part, got {frequency_ghz}")
    _check_real_below_gap(nu, kap)
    return ComplexFreq(nu, kap)


def surface_impedance(material: Material, frequency_ghz: complex) -> complex:
    """Z_s at a real or complex frequency (GHz), in Ohms.

    Below the gap the result is purely imaginary (Re Z_s = 0 exactly in
    floating point): the below-gap branch is evaluated in real arithmetic.
    Above the gap, complex frequencies in the decaying half plane are allowed
    and both the conductivity and the frequency prefactor are continued.
    """
    freq = _split_frequency(material, frequency_ghz)
    a_ohm = material.impedance_prefactor
    q = material.limit_regime.power
    if freq.nu <= 2.0:
        # Lossless branch: sigma = -i sigma2, so i*nu*sigma = nu*sigma2 > 0.
        sigma2 = -sigma_real_axis(freq.nu).imag
        arg = freq.nu * sigma2
        if arg <= 0.0:
            raise BranchCut(f"fractional-power argument {arg} not positive below gap")
        return 1j * (a_ohm * freq.nu * arg ** (-1.0 / q))
    sigma = sigma_tilde(freq)
    nu_c = freq.nu + 1j * freq.kappa
    arg = 1j * nu_c * sigma
    if arg.imag == 0.0 and arg.real <= 0.0:
        raise BranchCut(f"fractional-power argument {arg} lies on the negative real axis")
    return a_ohm * (1j * nu_c) * arg ** (-1.0 / q)


def epsilon(
    material: Material,
    g_geom: float,
    ell_m: float,
    frequency_ghz: complex,
) -> complex:
    """Refractive index epsilon = 1 + g Z_s / (i omega l_m), a complex number.

    g_geom is the geometric factor (1/m) and ell_m the magnetic inductance per
    unit length (H/m); omega is the angular frequency 2*pi*f corresponding to
    frequency_ghz.  Below the gap the result is exactly real (epsilon > 1, a
    kinetic-inductance slow-down); above the gap Im epsilon < 0 encodes loss.
    """
    if g_geom < 0.0 or ell_m <= 0.0:
        raise DomainError(f"need g_geom >= 0 and ell_m > 0, got {g_geom}, {ell_m}")
    if material.impedance_prefactor == 0.0:
        return 1.0 + 0.0j
    return _epsilon(material, g_geom, ell_m, frequency_ghz,
                    surface_impedance(material, frequency_ghz))


def _epsilon(material: Material, g_geom: float, ell_m: float, frequency_ghz: complex,
             z_s: complex) -> complex:
    """:func:`epsilon` from the Z_s (Ohms) at ``frequency_ghz`` that the caller holds."""
    omega = _TWO_PI_GHZ * frequency_ghz
    if frequency_ghz.imag == 0.0 and z_s.real == 0.0:
        # 1 + g X_s / (omega l_m), kept in real arithmetic.
        value = complex(1.0 + g_geom * z_s.imag / (float(omega.real) * ell_m), 0.0)
    else:
        value = 1.0 + g_geom * z_s / (1j * omega * ell_m)
        if value.imag > 0.0 and frequency_ghz.imag == 0.0 and material.above_gap(frequency_ghz):
            raise DomainError(
                f"above-gap epsilon acquired a gain-like sign: {value} at {frequency_ghz} GHz"
            )
    return value


def _real_part_on_grid(material: Material, nu_grid: np.ndarray) -> np.ndarray:
    """Re Z_s / A on a real reduced-frequency grid; zero at and below the gap.

    The conductivity comes from one array evaluation over the above-gap
    points.  The fractional power stays a per-point scalar power: the array
    ufuncs (complex power, ``hypot``, ``arctan2``) differ from the scalar
    ones in the last bit at some points, which would move the KK sums.
    """
    out = np.zeros_like(nu_grid)
    q = material.limit_regime.power
    above = np.flatnonzero(nu_grid > 2.0)
    sig1, sig2 = _sigma_real_axis_grid(nu_grid[above])
    for i, nu, s1, s2 in zip(above, nu_grid[above], sig1.tolist(), sig2.tolist()):
        arg = 1j * nu * complex(s1, -s2)
        out[i] = (1j * nu * arg ** (-1.0 / q)).real
    return out


def kk_parts(
    material: Material,
    probe_frequency_ghz: float,
    *,
    f_max_ghz: float | None = None,
    n_grid: int = 4001,
) -> tuple[float, float]:
    """Both sides of the dispersion (Kramers-Kronig) relation at one probe.

    Returns (lhs, rhs) with
    lhs = P int_0^inf Re Z_s(w) / (w^2 - w'^2) dw  and
    rhs = (pi/2) Im Z_s(w') / w',
    both divided by the impedance prefactor (the relation is homogeneous in
    it, so the residual is scale invariant; a lossless material returns
    (0, 0)), using trapezoid quadrature on a uniform grid with a symmetric
    excision around the probe (evaluated by the odd-part quadrature of the
    principal value) plus an analytic power-law tail Re Z_s ~ C w^(1-1/q)
    fitted over the last decade of the grid, integrated over three decades
    beyond it and to leading order in 1/w after that.  Without the tail the
    truncation error decays only like f_max^(-1/q); with it, doubling f_max
    roughly halves the residual.

    The relation is scale invariant, so everything is computed in reduced
    units.  The grid is ``n_grid`` (at least 16) uniformly spaced frequencies
    spanning [0, f_max_ghz] GHz; f_max_ghz defaults to 50x the gap frequency,
    the least extent accepted.
    """
    if probe_frequency_ghz <= 0.0:
        raise DomainError(f"probe frequency must be positive, got {probe_frequency_ghz}")
    if f_max_ghz is None:
        f_max_ghz = 50.0 * material.gap_frequency
    if not math.isfinite(f_max_ghz) or n_grid < 16:
        raise DomainError(f"need a finite f_max_ghz and n_grid >= 16, got {f_max_ghz}, {n_grid}")
    grid = np.linspace(0.0, f_max_ghz, n_grid)
    h = grid[1] - grid[0]
    if grid[-1] < 50.0 * material.gap_frequency * (1.0 - 1e-9):
        raise GridTooCoarse("grid must extend to at least 50x the gap frequency")

    nu_probe = material.reduced(probe_frequency_ghz)
    nu_grid = material.reduced(grid)
    h_nu = material.reduced(h)
    q = material.limit_regime.power

    if material.impedance_prefactor == 0.0:
        return 0.0, 0.0

    r_grid = _real_part_on_grid(material, nu_grid)

    above_gap_probe = nu_probe > 2.0
    if above_gap_probe:
        if probe_frequency_ghz > grid[-1] - 2.0 * h:
            raise GridTooCoarse(
                "probe too close to the grid edge for a symmetric two-cell excision"
            )
        # The excision window is always one cell on each side of the probe; a
        # grid too coarse to keep that window clear of the gap edge (where
        # Re Z_s has a kink) cannot resolve the principal value.
        if nu_probe - h_nu <= 2.0 < nu_probe + h_nu or (nu_probe - 2.0) < 2.0 * h_nu:
            raise GridTooCoarse(
                f"excision window of width 2x{h} GHz around the probe spans the gap edge; "
                "refine the grid"
            )

    def _integrand(nu: np.ndarray, r: np.ndarray) -> np.ndarray:
        # A below-gap probe may land exactly on a grid node; Re Z_s vanishes
        # identically in that whole region, so the 0/0 there is genuinely 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            out = r / (nu**2 - nu_probe**2)
        return np.where(r == 0.0, 0.0, out)

    if not above_gap_probe:
        lhs = float(np.trapezoid(_integrand(nu_grid, r_grid), nu_grid))
    else:
        lo, hi = nu_probe - h_nu, nu_probe + h_nu
        vals = _integrand(nu_grid, r_grid)
        # Trapezoid cells: full ones outside the window, none inside it, and
        # the two cells cut by the window edges truncated exactly there
        # (linear interpolation of Re Z_s, consistent with the trapezoid rule).
        a, b = nu_grid[:-1], nu_grid[1:]
        cells = np.where((b <= lo) | (a >= hi), 0.5 * (vals[:-1] + vals[1:]) * (b - a), 0.0)
        cut_lo = (a < lo) & (lo < b)
        cut_hi = (a < hi) & (hi < b) & ~cut_lo
        f_lo, f_hi = _integrand(np.array([lo, hi]), np.interp([lo, hi], nu_grid, r_grid))
        cells[cut_lo] = 0.5 * (vals[:-1][cut_lo] + f_lo) * (lo - a[cut_lo])
        cells[cut_hi] = 0.5 * (f_hi + vals[1:][cut_hi]) * (b[cut_hi] - hi)
        # cumsum adds in grid order, as a running sum would; np.sum pairs terms.
        lhs = np.cumsum(cells)[-1]
        # Principal value over the symmetric window [probe-h, probe+h]:
        # substituting w = probe + t and keeping the odd-in-t combination
        # leaves a regular even integrand on (0, h].
        def _window_odd(t: np.ndarray) -> np.ndarray:
            rp = np.interp(nu_probe + t, nu_grid, r_grid)
            rm = np.interp(nu_probe - t, nu_grid, r_grid)
            fp = rp / (t * (2.0 * nu_probe + t))
            fm = rm / (t * (2.0 * nu_probe - t))
            return fp - fm

        # 8-point Gauss-Legendre on (0, h); the integrand is smooth there.
        x_gl, w_gl = np.polynomial.legendre.leggauss(8)
        t_nodes = 0.5 * h_nu * (x_gl + 1.0)
        lhs += float(0.5 * h_nu * np.sum(w_gl * _window_odd(t_nodes)))

    # Analytic tail: fit Re Z_s ~ C nu^(1-1/q) over the last decade of the
    # grid and integrate the fitted law from the grid end outward.
    alpha = 1.0 - 1.0 / q
    last_decade = nu_grid >= nu_grid[-1] / 10.0
    c_fit = float(np.mean(r_grid[last_decade] * nu_grid[last_decade] ** (-alpha)))
    nu_far = np.geomspace(nu_grid[-1], nu_grid[-1] * 10.0**_TAIL_DECADES, 400)
    tail = float(np.trapezoid(c_fit * nu_far**alpha / (nu_far**2 - nu_probe**2), nu_far))
    # Remainder beyond the far cutoff, to leading order in 1/nu.
    tail += c_fit * nu_far[-1] ** (alpha - 1.0) / (1.0 - alpha)
    lhs += tail

    z_probe = surface_impedance(material, probe_frequency_ghz)
    rhs = 0.5 * math.pi * (z_probe.imag / material.impedance_prefactor) / nu_probe
    return lhs, rhs


def _relative_residual(lhs: float, rhs: float) -> float:
    """|lhs - rhs| / |rhs|; 0 if both sides vanish, +inf if only rhs does."""
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return abs(lhs - rhs) / abs(rhs)


def kk_residual(
    material: Material,
    probe_frequency_ghz: float,
    *,
    f_max_ghz: float | None = None,
    n_grid: int = 4001,
) -> float:
    """Relative residual |lhs - rhs| / |rhs| of the relation in :func:`kk_parts`.

    Returns 0 for a lossless material (both sides identically zero) and +inf
    if only the direct side vanishes.
    """
    return _relative_residual(
        *kk_parts(material, probe_frequency_ghz, f_max_ghz=f_max_ghz, n_grid=n_grid)
    )


def calibrate_prefactor(
    material: Material,
    g_geom: float,
    ell_m: float,
    f0_bare_ghz: float,
    red_shift: float = 0.02,
) -> Material:
    """Return a copy of ``material`` with the impedance prefactor fixed so the
    kinetic reactance red-shifts a bare resonator fundamental by ``red_shift``.

    Uses the scalar dispersion relation for a below-gap mode,
    f = f_bare / sqrt(epsilon(f)): the target f = (1 - red_shift) * f_bare
    determines epsilon and hence A in closed form (epsilon - 1 scales linearly
    with A at fixed frequency).  This pins only the overall impedance scale;
    the frequency dependence is the Mattis-Bardeen form.
    """
    if not (0.0 < red_shift < 0.5):
        raise DomainError(f"red_shift must be in (0, 0.5), got {red_shift}")
    f_target = (1.0 - red_shift) * f0_bare_ghz
    if material.above_gap(f_target):
        raise DomainError("calibration target frequency must sit below the gap")
    eps_target = 1.0 / (1.0 - red_shift) ** 2
    probe = replace(material, impedance_prefactor=1.0)
    slope = epsilon(probe, g_geom, ell_m, f_target).real - 1.0
    return replace(material, impedance_prefactor=(eps_target - 1.0) / slope)
