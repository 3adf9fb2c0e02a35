"""Exception types shared across the package."""


class DMFieldError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DMFieldError):
    pass


class InvalidInput(DMFieldError, ValueError):
    """Input out of its documented range, or malformed; a ValueError too."""


class DegenerateGeometry(DMFieldError):
    """A curve segment overlaps a region boundary edge, or an interior
    vertex lies exactly on the boundary, making crossing classification
    ambiguous. Callers are expected to perturb their inputs."""


class Disconnected(DMFieldError):
    """Two points cannot be joined through the open domain."""


class LRCViolation(DMFieldError):
    """A routed curve failed the declared length bound (grid too coarse,
    or the declared convexity constants do not hold)."""


class InfeasibleDelta(DMFieldError):
    """No grid node has enough clearance for the requested net radius."""


class TopologyViolation(DMFieldError):
    """The domain boundary does not separate two sides everywhere
    (e.g. slit domains)."""


class NonzeroNetFlux(DMFieldError):
    """A divergence-free global extension was requested but the boundary
    trace carries nonzero net mass."""


class MissingConstants(DMFieldError):
    """The domain carries no declared or estimated convexity constants."""


class SupportTooLarge(DMFieldError):
    """The brute-force norm oracle only accepts small supports."""


class AtomOffBoundary(DMFieldError):
    """A lift was requested for an element with atoms off the boundary."""


class NormBoundViolation(DMFieldError):
    """A constructed lift exceeded its certified mass bound."""


class LeftGrid(DMFieldError):
    """An ODE trajectory left the sampled grid."""


class MalformedLift(DMFieldError):
    """A 3-d curve does not follow the vertical/flat/vertical pattern."""
