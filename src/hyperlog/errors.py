"""Exception types shared across the package."""


class HyperlogError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HyperlogError):
    """Mixed quaternion/octonion arithmetic is rejected rather than promoted."""


class RealInput(HyperlogError):
    """The imaginary-direction of a real number is undefined."""


class NegativeRealOrZero(HyperlogError):
    """The principal logarithm is undefined on the closed negative real axis."""


class NotOnManifold(HyperlogError):
    """A (q, p) pair that does not satisfy q = |q| exp(p)."""


class OutOfDomain(HyperlogError):
    """Evaluation parameter outside the declared domain of a path."""


class EndpointMismatch(HyperlogError):
    """Path pieces that are supposed to join do not."""


class ZeroOnPath(HyperlogError):
    """A path value hit zero; none of the constructions survive that."""


class RefinementBudgetExceeded(HyperlogError):
    """Adaptive sampling gave up before resolving the path.

    Carries the partially refined sample set and the brackets that could
    not be resolved.  Only callers of sample_adaptive read them:
    sample_path falls back to uniform sampling from the same refinement
    without building either.
    """

    def __init__(self, message, sampled=None, unresolved=()):
        super().__init__(message)
        self.sampled = sampled
        self.unresolved = list(unresolved)


class NotLiftable(HyperlogError):
    """No continuous logarithm exists through the named obstruction."""

    def __init__(self, t, kind, message=None):
        super().__init__(message or f"path is not liftable at t={t} ({kind})")
        self.t = t
        self.kind = kind


class MissingInitialUnit(HyperlogError):
    """A lift from a real starting value with nonzero argument needs a seed unit."""


class InitialMismatch(HyperlogError):
    """The requested initial unit is not compatible with the path."""


class SliceMismatch(HyperlogError):
    """Canonical-form reconstruction failed its residual check."""


class TwistedLoop(HyperlogError):
    """Winding numbers are undefined for twisted loops."""


class StepTooLarge(HyperlogError):
    """Consecutive samples rotate too much for a safe argument unwrap."""


class NotApplicable(HyperlogError):
    """The requested comparison is outside the scope of the theory."""


class AllRealLoop(HyperlogError):
    """A loop contained in the real axis has no meaningful twistedness."""


class HypothesisViolated(HyperlogError):
    """Input violates the hypotheses of the construction being applied."""


class UnknownDemo(HyperlogError):
    """No demo case registered under the requested name."""
