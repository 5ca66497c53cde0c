"""Exception types shared across the package.

Every precondition violation raises one of these rather than a bare
ValueError. Each class carries the CLI exit code it maps onto: 2 for a bad
argument or config, 3 for a set that is not uniformly discrete, 4 for a
window or dimension error.
"""


class ApkitError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class WindowError(ApkitError):
    """An analysis needs more of the window, or another dimension, than it has."""

    exit_code = 4


class InvalidArgument(ApkitError, ValueError):
    """An argument lies outside its documented range or is not finite."""


class DimensionMismatch(WindowError):
    """Operands live in different ambient dimensions."""


class RegionOutsideWindow(WindowError):
    """A query region is not contained in the faithful window."""


class TranslationExceedsWindow(WindowError):
    """Translation vector longer than the window radius."""


class WindowTooSmall(WindowError):
    """The window cannot support the requested evaluation scale."""


class RadiusExceedsWindow(WindowError):
    """A schedule radius reaches outside the window."""


class EmptyCandidateSet(ApkitError):
    """An operation that needs at least one candidate got none."""


class OutsideWindow(WindowError):
    """An evaluation point (plus support margin) leaves the window."""


class SupportTooLarge(WindowError):
    """Test-function support exceeds the allowed fraction of the hardcore radius."""


class PsiNotNormalized(ApkitError):
    """Weight function must be nonnegative with unit integral."""


class NoAtomAtZero(ApkitError):
    """The measure has no atom at the origin, so gamma(0) is undefined."""


class NotUniformlyDiscrete(ApkitError):
    """Generated or loaded points violate the declared hardcore radius."""

    exit_code = 3


class SingularBasis(ApkitError):
    """Lattice basis is singular or numerically degenerate."""


class ConfigError(ApkitError):
    """Malformed or schema-violating configuration document."""
