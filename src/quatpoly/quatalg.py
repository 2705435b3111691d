"""The quaternion algebra (alpha, beta / Q): element arithmetic,
conjugation, norm, trace, inversion, display and conjugacy tests.

Elements are immutable coordinate 4-tuples over Fraction; the basis
satisfies i^2 = alpha, j^2 = beta and ij = k = -ji, as in coordpoly.
"""

from fractions import Fraction

from . import dense
from .coordpoly import coord_mul, coord_norm, kernel_ints
from .errors import (AlgebraMismatch, DegenerateInput, DivisionByZero,
                     PreconditionViolation, SplitAlgebra)
from .numberfield import is_division

Fr = Fraction


class QuaternionAlgebra:
    """(alpha, beta / Q), always a division algebra: the constructor
    raises DegenerateInput for a zero parameter (from is_division) and
    SplitAlgebra for a matrix algebra, so every nonzero element has a
    nonzero norm and an inverse.  alpha and beta are held as the
    coordinate kernel multiplies by them (kernel_ints): an int when
    integral and a Fraction otherwise."""

    def __init__(self, alpha, beta):
        self.alpha, self.beta = kernel_ints((Fr(alpha), Fr(beta)))
        if not is_division(self.alpha, self.beta):
            try:
                name = "(%s / Q)" % self._ab_text()
            except PreconditionViolation:  # past the int-to-text limit
                name = "the algebra"
            raise SplitAlgebra(
                name + " is a matrix algebra, not a division algebra")

    def _ab_text(self):
        return "%s, %s" % tuple([dense.rational_text(c.numerator,
                                                     c.denominator)
                                 for c in (self.alpha, self.beta)])

    def element(self, coords):
        return Quaternion(self, coords)

    def scalar(self, c):
        return Quaternion(self, (c, 0, 0, 0))

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    @property
    def i(self):
        return Quaternion(self, (0, 1, 0, 0))

    @property
    def j(self):
        return Quaternion(self, (0, 0, 1, 0))

    @property
    def k(self):
        return Quaternion(self, (0, 0, 0, 1))

    def __eq__(self, other):
        return (isinstance(other, QuaternionAlgebra)
                and self.alpha == other.alpha and self.beta == other.beta)

    def __hash__(self):
        return hash(("QuaternionAlgebra", self.alpha, self.beta))

    def __repr__(self):
        return "QuaternionAlgebra(%s)" % self._ab_text()


class Quaternion(dense.RingElement):
    """t + x i + y j + z k with rational coordinates.  -, the reflected
    operands, /, == and hash come from dense.RingElement, and so do the
    powers, where a negative one is a power of q_inv(self)."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        coords = tuple(coords)
        if len(coords) != 4:
            raise DegenerateInput("quaternion needs four coordinates")
        coords = tuple([Fr(c) for c in coords])
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *args):
        raise AttributeError("Quaternion is immutable")

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self):
        return not any(self.coords)

    @property
    def is_central(self):
        return not any(self.coords[1:])

    def _check(self, other):
        if self.parent != other.parent:
            raise AlgebraMismatch("operands live in different algebras")

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Quaternion(self.parent, (other, 0, 0, 0))
        return None

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return make_quaternion(self.parent, tuple(
            [a + b for a, b in zip(self.coords, other.coords)]))

    def __neg__(self):
        return make_quaternion(self.parent, tuple(-c for c in self.coords))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        A = self.parent
        return make_quaternion(A, coord_mul(A.alpha, A.beta, self.coords,
                                            other.coords))

    def __pow__(self, n):
        return q_inv(self) ** -n if n < 0 else super().__pow__(n)

    def inv(self):
        return q_inv(self)

    def _key(self):
        """coords; a central element's is its rational value."""
        return self.coords[0] if self.is_central else self.coords

    # -- involution, norm, trace ------------------------------------------
    def conj(self):
        t, x, y, z = self.coords
        return make_quaternion(self.parent, (t, -x, -y, -z))

    def norm(self):
        return coord_norm(self.parent.alpha, self.parent.beta, self.coords)

    def trace(self):
        return self.coords[0] + self.coords[0]

    # -- display -----------------------------------------------------------
    def __repr__(self):
        return str(self)

    def __str__(self):
        return coord_text(self.coords)


def make_quaternion(parent, coords):
    """A Quaternion from a 4-tuple that arithmetic on Quaternion coordinates
    produced, so every entry is already a Fraction; skips
    the constructor's checks and conversions."""
    q = object.__new__(Quaternion)
    object.__setattr__(q, "parent", parent)
    object.__setattr__(q, "coords", coords)
    return q


def q_inv(a):
    """The multiplicative inverse conj(a) / N(a)."""
    if a.is_zero:
        raise DivisionByZero("inverse of zero quaternion")
    ninv = 1 / a.norm()
    return make_quaternion(a.parent,
                           tuple(c * ninv for c in a.conj().coords))


def coord_text(a, den=1):
    """The quaternion a / den as text, for a 4-tuple a of ints or
    Fractions and an int den > 0: each coordinate as dense.rational_text
    shows it, +-1 dropped before i, j and k."""
    out = ""
    for c, name in zip(a, ("", "i", "j", "k")):
        if c:
            s = dense.rational_text(c.numerator, c.denominator * den)
            s = s[:-1] + name if name and s in ("1", "-1") else s + name
            out += s if not out or s[0] == "-" else "+" + s
    return out or "0"


def is_conjugate(a, b):
    """Dickson: non-central elements are conjugate iff their characteristic
    polynomials x^2 - Tr x + N agree, that is their traces and norms;
    central elements are alone in their class."""
    a._check(b)
    if a.is_central or b.is_central:
        return a == b
    return a.trace() == b.trace() and a.norm() == b.norm()

