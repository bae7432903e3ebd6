"""Exception types shared across the package."""


class EntboundError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(EntboundError):
    """Operands have incompatible shapes or subsystem dimensions."""


class NotHermitianError(EntboundError):
    """Input matrix is too far from Hermitian to symmetrize safely."""


class SpectralError(EntboundError):
    """Eigendecomposition failed to converge."""


class NotPSDError(EntboundError):
    """A positive-semidefinite matrix was required."""


class NotAStateError(EntboundError):
    """A unit-trace positive-semidefinite matrix was required."""


class DomainViolationError(EntboundError):
    """An eigenvalue lies outside the scalar function's domain."""


class SupportViolationError(EntboundError):
    """A matrix has weight outside the support it must live on."""


class NonInvertibleKernelError(EntboundError):
    """The divided-difference kernel has no elementwise inverse."""


class PreconditionError(EntboundError):
    """A documented operation precondition does not hold."""


class ConvergenceError(EntboundError):
    """An iterative method stopped at its iteration cap without meeting its tolerance."""
