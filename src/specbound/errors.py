"""Exception types shared across the package."""


class SpecboundError(Exception):
    """Base class for every error raised by this package."""


class OutOfDisk(SpecboundError):
    """Evaluation point lies on or outside the disk of convergence."""


class NoConvergence(SpecboundError):
    """The certified truncation order exceeds the configured term cap.

    Signals an evaluation point too close to the boundary of the disk,
    not a bug; retry with a larger cap or a smaller argument.
    """


class EigenFailure(SpecboundError):
    """The dense eigenvalue / singular value solver did not converge."""


class DimMismatch(SpecboundError):
    """Operands have incompatible dimensions."""


class NormOverflow(SpecboundError):
    """A matrix power or product left floating-point range; normalize first."""


class UnknownFamily(SpecboundError):
    """Instance family name is not recognized."""


class GenerationFailure(SpecboundError):
    """A generated random instance is not valid for its family."""
