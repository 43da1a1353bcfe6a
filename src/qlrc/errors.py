"""Exception hierarchy.

Three coarse families matter for the CLI exit codes: parameter/validation
errors (exit 2), resource caps (exit 3), and decode-contract violations
(exit 4). Everything else is a bug.
"""

from __future__ import annotations


class QlrcError(Exception):
    """Base class for all package errors."""


class ValidationError(QlrcError, ValueError):
    """A precondition on user-supplied parameters or data failed."""


class CapExceeded(QlrcError):
    """A computation would exceed its configured work or memory cap."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class DecodeContractViolation(QlrcError):
    """A decoder returned an output violating its contract within radius.

    This must never happen; it indicates an implementation bug, and the CLI
    maps it to a distinct exit code so harnesses can flag it loudly.
    """


# -- field construction ------------------------------------------------------

class NonPrimeCharacteristic(ValidationError):
    pass


class Overflow(ValidationError):
    pass


class NotADivisor(ValidationError):
    pass


class ZeroElement(ValidationError):
    pass


# -- polynomial spaces and supports -----------------------------------------

class BadLocality(ValidationError):
    pass


class BadDegree(ValidationError):
    pass


class DegreeTooSmall(ValidationError):
    pass


class DegreeOverflow(ValidationError):
    pass


class FoldMismatch(ValidationError):
    pass


class ZeroShift(ValidationError):
    pass


# -- classical codes ---------------------------------------------------------

class NotASubcode(ValidationError):
    pass


class AmbiguousErasure(QlrcError):
    """Erasure pattern is consistent with more than one codeword."""


class InconsistentErasure(QlrcError):
    """No codeword agrees with the unerased positions."""


class CheckNotInDual(ValidationError):
    pass


class ZeroPivot(ValidationError):
    pass


# -- CSS codes ----------------------------------------------------------------

class OrthogonalityViolation(ValidationError):
    """The two classical codes fail the CSS condition; carries a witness."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class NoCoveringCheck(QlrcError):
    """No pair of low-weight dual checks covers the requested position."""


class DecodingFailed(QlrcError):
    """The decoder produced no candidate meeting its output contract.

    Raised only when the input violated the decoder's promised radius; inside
    the radius the algorithms are proven to succeed.
    """


# -- list decoding ------------------------------------------------------------

class RadiusTooLarge(ValidationError):
    pass


# -- folding -------------------------------------------------------------------

class FoldNotDividing(ValidationError):
    pass


class SiblingErased(ValidationError):
    pass


# -- ensembles ------------------------------------------------------------------

class SamplingExhausted(QlrcError):
    pass


class SamplingFailedAfterRetries(QlrcError):
    pass


class AlphabetMismatch(ValidationError):
    pass


class FoldingMismatch(ValidationError):
    pass


# -- bounds ----------------------------------------------------------------------

class HypothesisViolated(ValidationError):
    """A bound was requested outside the hypotheses of its theorem."""


class UncertaintyUnverified(ValidationError):
    pass


class ViolationFound(QlrcError):
    """A verified inequality failed on its grid (transcription bug)."""


class DomainError(ValidationError):
    pass
