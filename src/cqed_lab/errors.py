"""Exception types shared across the package."""


class CqedError(Exception):
    """Base class for all cqed-lab errors."""


class GridError(CqedError):
    """Invalid, mismatched, or under-resolved sampling grid."""


class TruncationError(CqedError):
    """Dynamics that never decay, so their time integrals or horizon diverge."""


class DeconvolutionError(CqedError):
    """Ill-posed deconvolution (IRF transform vanishes inside the passband)."""


class FitError(CqedError):
    """A fit failed to converge or produced an unusable result."""


class PeakError(CqedError):
    """Peak extraction found the wrong number of qualifying maxima."""


class ConfigError(CqedError):
    """Experiment configuration failed validation."""
