"""Exception types shared across the package."""


class SuperintError(Exception):
    """Base class for all library errors."""


class DomainError(SuperintError):
    """Evaluation requested at a singular or out-of-chart point."""


class ChartBoundary(DomainError):
    """A chart boundary (equator image or ideal boundary) was reached."""


class DimensionMismatch(SuperintError):
    """Inputs whose lengths or dimensions are inconsistent."""


class RangeError(SuperintError):
    """An index or subsystem size outside its admissible range."""


class ConfigError(SuperintError):
    """Invalid configuration: bad schema, bad values, or an extra integral
    requested where its validity condition fails."""


class SamplingError(SuperintError):
    """A sample with no points: a sampler asked for none, or an empty sample
    given to a gradient tensor."""


class NonConvergence(SuperintError):
    """The implicit-stage fixed-point iteration failed to converge or overflowed."""


class SingularApproach(SuperintError):
    """Integration halted near a guarded singularity.

    Attributes carry the last safe time and state so callers can report or
    resume with different data.
    """

    def __init__(self, message, time=None, state=None):
        super().__init__(message)
        self.time = time
        self.state = state


class InsufficientData(SuperintError):
    """A trajectory too short (or degenerate) for the requested analysis."""
