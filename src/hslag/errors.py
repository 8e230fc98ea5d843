"""Exception types shared across the package."""


class HslagError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(HslagError):
    """Two objects built on different grids were combined."""


class QuotientError(HslagError):
    """A field or operation violates the Z2 quotient structure of its grid."""


class ImmersionError(HslagError):
    """An immersion failed a structural gate (rank or Lagrangian check)."""


class ChartDomainError(HslagError):
    """A point or one-form left the validity region of a chart."""


class SpectralGapError(HslagError):
    """No clean gap between near-kernel and bulk eigenvalues."""


class NonContractionError(HslagError):
    """The projected iteration failed to contract."""


class RankDeficiencyError(HslagError):
    """A pairing matrix lost rank beyond the expected group degeneracy."""


class ExactnessError(HslagError):
    """A one-form expected to be exact failed the potential-recovery check."""


class ConfigError(HslagError):
    """Malformed experiment configuration."""


class UnsupportedModelError(HslagError):
    """A model parameter combination outside the implemented range."""
