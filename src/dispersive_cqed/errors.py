"""Exception types shared across the package.

Everything numerical raises a subclass of :class:`DispersiveCqedError` so that
callers (in particular the command line driver) can distinguish "the model or
the numerics refused" from genuine programming errors.
"""

from __future__ import annotations


class DispersiveCqedError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(DispersiveCqedError, ValueError):
    """Input lies outside the mathematical domain of the routine."""


class NonConvergence(DispersiveCqedError, RuntimeError):
    """Adaptive quadrature exhausted its panel budget.

    Carries the best estimate obtained so far and the achieved error bound so
    callers can decide whether the partial result is still useful.
    """

    def __init__(self, message: str, best_estimate: complex, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class SingularInterior(DispersiveCqedError, ValueError):
    """The integrand evaluated to a non-finite value inside the contour."""


class BranchPointOnPath(DispersiveCqedError, ValueError):
    """An integration path passes (essentially) through a branch point."""


class GapSingularity(DispersiveCqedError, ValueError):
    """Modulus computation attempted exactly at the spectral-gap edge."""


class BranchCut(DispersiveCqedError, ValueError):
    """A fractional power was asked to evaluate across its branch cut."""


class GridTooCoarse(DispersiveCqedError, ValueError):
    """Principal-value grid cannot resolve the requested excision window."""


class BracketingFailure(DispersiveCqedError, RuntimeError):
    """Root scan failed to bracket the expected number of secular roots."""


class NoConvergence(DispersiveCqedError, RuntimeError):
    """Fixed-point iteration for a complex eigenfrequency did not settle.

    ``residual_history`` holds the relative residuals |omega^2 - rhs| / |omega|^2
    of the iterations since the last gap-edge restart (of all of them when an
    iterate left the domain), so the failure mode (oscillation vs.
    divergence) can be inspected.
    """

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class GapStraddle(UserWarning):
    """A mode trajectory crossed the superconducting gap during iteration.

    Used as a warning category: the solver restarts from a seed just across
    the gap edge, on the side the iterate crossed to, and only gives up
    (``NoConvergence``) if the restart recrosses.
    """


class PoleProximity(DispersiveCqedError, ValueError):
    """Green's function probe frequency is numerically on top of a pole."""


class AboveGapMode(DispersiveCqedError, ValueError):
    """A coupling constant was requested for a mode above the gap."""


class QubitOnResonance(DispersiveCqedError, ValueError):
    """Qubit frequency coincides with a mode frequency; shift is undefined."""


class ConfigError(DispersiveCqedError, ValueError):
    """Run configuration file is malformed or contains unknown keys."""
