"""Exception hierarchy for parareach."""


class ParareachError(Exception):
    """Base class for all parareach errors."""


class DimensionMismatch(ParareachError):
    """Array shapes are inconsistent with the declared system dimensions."""


class AsymmetricMatrix(ParareachError):
    """A matrix required to be symmetric deviates beyond tolerance."""


class NotNegativeDefinite(ParareachError):
    """The disturbance block of the energy-rate matrix is not negative definite."""


class NonPositiveScale(ParareachError):
    """Scaling factors for paraboloids must be strictly positive."""


class SingularMw(ParareachError):
    """The disturbance block cannot be factorized (singular or ill-conditioned)."""


class StepSizeUnderflow(ParareachError):
    """A surface ride drifted off its paraboloid (the value function exceeded
    the touch tolerance at a node), or a back-trace left the finite range."""


class OutOfDomain(ParareachError):
    """A query time lies outside the interval of definition."""


class NotOnBoundary(ParareachError):
    """The initial state is not on the seed paraboloid surface."""


class UnboundedSlab(ParareachError):
    """The boundary slab of the seed is unbounded (quadratic coefficient not
    positive definite), so the scaling bound cannot be sampled automatically."""


class RejectionStarvation(ParareachError):
    """Admissible-trajectory sampling accepts too small a fraction of draws."""


class ConfigError(ParareachError):
    """Invalid run configuration (bad file, flag, or parameter)."""
