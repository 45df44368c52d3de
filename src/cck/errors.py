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
    """The Jacobi eigensolver failed on a size x size matrix.

    Either its sweeps ran out, with the off-diagonal Frobenius norm
    ``off_norm`` still above ``bound`` after ``sweeps`` sweeps, or an
    eigenpair ``residual`` exceeded ``bound``.  The attributes of the
    other case are None.
    """

    def __init__(self, size, bound, *, sweeps=None, off_norm=None, residual=None):
        self.size = size
        self.bound = bound
        self.sweeps = sweeps
        self.off_norm = off_norm
        self.residual = residual
        if residual is None:
            message = (
                f"Jacobi sweeps exhausted on a {size} x {size} matrix: after {sweeps} sweeps "
                f"the off-diagonal norm {off_norm:.3e} is {off_norm / bound:.3g} x the bound {bound:.3e}"
            )
        else:
            message = f"eigenpair residual {residual:.3e} above {bound:.3e} on a {size} x {size} matrix"
        super().__init__(message)


class OverBudget(CckError):
    """The input needs more work or memory than the stated budget allows."""


class NonFreeAction(CckError):
    """A cyclic sphere action with a non-unit weight is not free."""


class InvalidCapacities(CckError):
    """Capacities must be positive rationals with c_r <= c_R."""


class CapacityTooSmall(CckError):
    """The inner capacity is below 1, outside the certified regime."""


class NoWitnessBelowLimit(CckError):
    """No witness prime was found below the configured search limit."""
