"""Exception types shared by all quatpoly modules."""


class QuatpolyError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInput(QuatpolyError):
    pass


class NotSquarefree(QuatpolyError):
    pass


class DivisionByZero(QuatpolyError):
    pass


class AlgebraMismatch(QuatpolyError):
    pass


class SplitAlgebra(QuatpolyError):
    pass


class PreconditionViolation(QuatpolyError):
    pass


class InvalidCertificate(QuatpolyError):
    pass


class SearchExhausted(QuatpolyError):
    """A bounded search spent its budget without an answer.

    Either the zero-divisor search ran all of its max_height trials
    (central_factor then names the factor that needs a certificate), or
    quaternary_isotropic passed its height cap.  Callers may retry with
    more trials or supply an externally computed certificate.
    """

    def __init__(self, message, central_factor=None):
        super().__init__(message)
        self.central_factor = central_factor


class InternalInvariantViolation(QuatpolyError):
    pass


class PolyParseError(QuatpolyError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position
