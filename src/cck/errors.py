"""Exception hierarchy shared by all cck modules."""


class CckError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularAngle(CckError):
    """A rotation time a with sin(2a) = 0 was passed to an operation
    that needs the generating function in (q1, q2) coordinates."""


class NonStationary(CckError):
    """The stationarity system of an inf-convolution is singular."""


class OutsideDomain(CckError):
    """The endpoint pair admits no rotation trajectory on the energy sphere
    (negative discriminant, or cosine roots outside [-1, 1])."""


class NoConvergence(CckError):
    """The iterative eigensolver exhausted its sweep limit."""


class NonFreeAction(CckError):
    """A cyclic sphere action with a non-unit weight is not free."""


class InvalidInput(CckError):
    """A computed cohomology profile does not match the dichotomy preconditions."""


class InvalidCapacities(CckError):
    """Capacities must be positive rationals with c_r <= c_R."""


class CapacityTooSmall(CckError):
    """The inner capacity is below 1, outside the certified regime."""


class NoWitnessBelowLimit(CckError):
    """No witness prime was found below the configured search limit."""
