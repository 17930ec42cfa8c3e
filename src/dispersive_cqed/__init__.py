"""Dispersive circuit-QED: lossy superconducting resonators and multimode Lamb shifts.

Submodules
----------
elliptic        complex elliptic integrals + adaptive contour quadrature
mattis_bardeen  zero-temperature complex conductivity, on and off the real axis
impedance       thick-film surface impedance and the refractive index it induces
modes           resonator eigenmodes, dispersive fixed points, Green's function
lightmatter     couplings, spectral density, Lamb-shift totals and convergence
cli             configuration-driven command line front end
"""

from .errors import (
    AboveGapMode,
    BracketingFailure,
    BranchCut,
    BranchPointOnPath,
    ConfigError,
    DomainError,
    GapSingularity,
    GapStraddle,
    GridTooCoarse,
    NoConvergence,
    NonConvergence,
    PoleProximity,
    QubitOnResonance,
    SingularInterior,
)
from .impedance import (
    LimitRegime,
    Material,
    aluminum,
    calibrate_prefactor,
    epsilon,
    kk_parts,
    kk_residual,
    niobium,
    surface_impedance,
)
from .lightmatter import (
    LambShiftReport,
    LambShiftTotals,
    QubitParams,
    cc_comparator_term,
    coupling_strength,
    lamb_shift_report,
    lamb_shift_terms,
    naive_cutoff,
    normalized_convergence,
    rescaled,
    spectral_density,
)
from .mattis_bardeen import ComplexFreq, sigma_oracle, sigma_real_axis, sigma_tilde
from .modes import (
    FixedPointOptions,
    Mode,
    QubitLoad,
    ResonatorGeometry,
    completeness_residual,
    derive_line_constants,
    dispersive_modes,
    fixed_point_eigenfrequency,
    greens_function,
    greens_identity_residual,
    mode_function,
    resonator_modes,
    secular_roots,
    zero_mode_amplitude,
)

__all__ = [
    "AboveGapMode",
    "BracketingFailure",
    "BranchCut",
    "BranchPointOnPath",
    "ComplexFreq",
    "ConfigError",
    "DomainError",
    "FixedPointOptions",
    "GapSingularity",
    "GapStraddle",
    "GridTooCoarse",
    "LambShiftReport",
    "LambShiftTotals",
    "LimitRegime",
    "Material",
    "Mode",
    "NoConvergence",
    "NonConvergence",
    "PoleProximity",
    "QubitLoad",
    "QubitOnResonance",
    "QubitParams",
    "ResonatorGeometry",
    "SingularInterior",
    "aluminum",
    "calibrate_prefactor",
    "cc_comparator_term",
    "completeness_residual",
    "coupling_strength",
    "derive_line_constants",
    "dispersive_modes",
    "epsilon",
    "fixed_point_eigenfrequency",
    "greens_function",
    "greens_identity_residual",
    "kk_parts",
    "kk_residual",
    "lamb_shift_report",
    "lamb_shift_terms",
    "mode_function",
    "naive_cutoff",
    "niobium",
    "normalized_convergence",
    "rescaled",
    "resonator_modes",
    "secular_roots",
    "zero_mode_amplitude",
    "sigma_oracle",
    "sigma_real_axis",
    "sigma_tilde",
    "spectral_density",
    "surface_impedance",
]

__version__ = "0.1.0"
