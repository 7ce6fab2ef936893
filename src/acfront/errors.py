"""Error types shared across the package.

Every failure mode that callers are expected to catch is a named subclass of
:class:`AcFrontError`.  Errors that indicate a numerical breakdown (as opposed
to a failed verdict or bad usage) additionally derive from
:class:`NumericalError`; the command line maps these to exit code 3.
"""


class AcFrontError(Exception):
    """Base class for all package errors."""


class NumericalError(AcFrontError):
    """A solver or evolution broke down numerically."""


class PinningDetected(NumericalError):
    """Newton converged to a wave with |c| below the pinning threshold."""


class NewtonDiverged(NumericalError):
    """Damped Newton failed to reduce the residual to tolerance."""


class DegenerateKernel(NumericalError):
    """Adjoint kernel is not simple and transverse to Phi', or its element
    fails the kernel residual or the positivity check."""


class SolveFailed(NumericalError):
    """A linear solve did not reach its residual target."""


class OutOfRange(AcFrontError):
    """Argument outside the representable range of a profile or table."""


class NonFinite(NumericalError):
    """A field stopped being finite during time stepping."""


class OverflowGuard(NumericalError):
    """Exponential change of variables would overflow binary64."""


class VerificationFailed(AcFrontError):
    """A super/sub-solution inequality was violated.

    Carries the measured margin or residual that failed.
    """

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class H0Violated(AcFrontError):
    """Initial data does not straddle the unstable equilibrium at the edges."""


class PreAsymptotic(AcFrontError):
    """Phase never became defined on every row before the horizon."""


class FlatnessViolated(AcFrontError):
    """A phase sequence exceeded the flatness bound required by a reduction."""


class NoDefinedRows(AcFrontError):
    """Phase extraction produced no usable rows."""


class UndefinedRows(AcFrontError):
    """An operation required the phase on every row."""
