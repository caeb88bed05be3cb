"""Exception hierarchy shared across the package."""


class LoopSpaceError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatch(LoopSpaceError):
    """Operands belong to different coefficient rings."""


class NotAUnit(LoopSpaceError):
    """Coefficient is not invertible in its ring."""


class NotInvertible(LoopSpaceError):
    """Series is not invertible (or not directly invertible; see normal_form)."""


class InsufficientPrecision(LoopSpaceError):
    """The requested quantity is not certified by the stored precision."""


class ZeroSeries(LoopSpaceError):
    """Operation undefined on (the reduction of) the zero series."""


class NotMonic(LoopSpaceError):
    """Hyperelliptic polynomial must be monic."""


class NotSquarefree(LoopSpaceError):
    """Hyperelliptic polynomial must be squarefree."""


class DegreeTooSmall(LoopSpaceError):
    """Hyperelliptic polynomial must have degree at least 3."""


class InconsistentPoleData(LoopSpaceError):
    """Coordinate valuations do not match any puncture chart."""


class NoRationalSquareRoot(LoopSpaceError):
    """Leading coefficient is not the square of a rational number."""


class OddValuation(LoopSpaceError):
    """Series square root needs an even valuation."""


class FormSingularAlongLoop(LoopSpaceError):
    """Denominator of a 1-form vanishes identically along the loop."""


class UnsupportedPointPair(LoopSpaceError):
    """Point configuration outside the implemented third-kind families."""


class VerificationFailed(LoopSpaceError):
    """A self-verifying construction produced inconsistent output."""


class SizeMismatch(LoopSpaceError):
    """Permutations act on sets of different sizes."""


class TooLarge(LoopSpaceError):
    """Input past a size the package computes or prints."""


class ParseError(LoopSpaceError):
    """Input text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position
