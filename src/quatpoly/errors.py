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


class EmbeddingObstructed(QuatpolyError):
    pass


class PreconditionViolation(QuatpolyError):
    pass


class InvalidCertificate(QuatpolyError):
    pass


class SearchExhausted(QuatpolyError):
    """Bounded zero-divisor search hit its height limit.

    Callers may retry with a larger bound or supply an externally
    computed certificate.
    """

    def __init__(self, message, central_factor=None):
        super().__init__(message)
        self.central_factor = central_factor


class ZeroDivisorEncountered(QuatpolyError):
    """Inversion met a nonzero element of zero norm (only possible in a
    split algebra, made with QuaternionAlgebra.unchecked).

    The offending element is kept as the witness attribute.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalInvariantViolation(QuatpolyError):
    pass


class PolyParseError(QuatpolyError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position
