"""Exception types shared across the package.

Every precondition violation raises one of these rather than a bare
ValueError, so the CLI can map failures onto its exit-code contract.
"""


class ApkitError(Exception):
    """Base class for all package errors."""


class InvalidArgument(ApkitError, ValueError):
    """An argument lies outside its documented range or is not finite."""


class DimensionMismatch(ApkitError):
    """Operands live in different ambient dimensions."""


class RegionOutsideWindow(ApkitError):
    """A query region is not contained in the faithful window."""


class TranslationExceedsWindow(ApkitError):
    """Translation vector longer than the window radius."""


class WindowTooSmall(ApkitError):
    """The window cannot support the requested evaluation scale."""


class RadiusExceedsWindow(ApkitError):
    """A schedule radius reaches outside the window."""


class EmptyCandidateSet(ApkitError):
    """An operation that needs at least one candidate got none."""


class OutsideWindow(ApkitError):
    """An evaluation point (plus support margin) leaves the window."""


class SupportTooLarge(ApkitError):
    """Test-function support exceeds the allowed fraction of the hardcore radius."""


class PsiNotNormalized(ApkitError):
    """Weight function must be nonnegative with unit integral."""


class NoAtomAtZero(ApkitError):
    """The measure has no atom at the origin, so gamma(0) is undefined."""


class NotUniformlyDiscrete(ApkitError):
    """Generated or loaded points violate the declared hardcore radius."""


class SingularBasis(ApkitError):
    """Lattice basis is singular or numerically degenerate."""


class ConfigError(ApkitError):
    """Malformed or schema-violating configuration document."""
