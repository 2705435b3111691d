"""The quaternion algebra (alpha, beta / Q) and its scalar extension to a
number field L: element arithmetic, conjugation, norm, trace, inversion,
characteristic polynomials, conjugacy tests, and quadratic-field embedding.

Elements are immutable coordinate 4-tuples over Fraction (or NFElement for
the extended algebra); the basis satisfies i^2 = alpha, j^2 = beta and
ij = k = -ji.
"""

from fractions import Fraction

from .errors import (AlgebraMismatch, DegenerateInput, DivisionByZero,
                     EmbeddingObstructed, SplitAlgebra, ZeroDivisorEncountered)
from .numberfield import NFElement
from .quadform import is_division, is_local_square, ramified_places, represent_pure
from .ratpoly import RatPoly

Fr = Fraction


def _is_scalar_zero(c):
    if isinstance(c, NFElement):
        return c.is_zero
    return c == 0


class QuaternionAlgebra:
    """(alpha, beta / Q).  The checked constructor insists on a division
    algebra; `unchecked` exists so error paths can name a split algebra."""

    def __init__(self, alpha, beta, _checked=True):
        self.alpha = Fr(alpha)
        self.beta = Fr(beta)
        if self.alpha == 0 or self.beta == 0:
            raise DegenerateInput("algebra parameters must be nonzero")
        if _checked and not is_division(self.alpha, self.beta):
            raise SplitAlgebra(
                "(%s, %s / Q) is a matrix algebra, not a division algebra"
                % (self.alpha, self.beta))

    @classmethod
    def unchecked(cls, alpha, beta):
        return cls(alpha, beta, _checked=False)

    @property
    def ramified(self):
        return ramified_places(self.alpha, self.beta)

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
        return "QuaternionAlgebra(%s, %s)" % (self.alpha, self.beta)


class Quaternion:
    """t + x i + y j + z k with coordinates in Q or in a number field."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        coords = tuple(coords)
        if len(coords) != 4:
            raise DegenerateInput("quaternion needs four coordinates")
        coords = tuple(c if isinstance(c, NFElement) else Fr(c)
                       for c in coords)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *args):
        raise AttributeError("Quaternion is immutable")

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self):
        return all(_is_scalar_zero(c) for c in self.coords)

    @property
    def is_central(self):
        return all(_is_scalar_zero(c) for c in self.coords[1:])

    def _check(self, other):
        if self.parent != other.parent:
            raise AlgebraMismatch("operands live in different algebras")

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction, NFElement)):
            return Quaternion(self.parent, (other, 0, 0, 0))
        return None

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return make_quaternion(self.parent, tuple(
            [a + b for a, b in zip(self.coords, other.coords)]))

    __radd__ = __add__

    def __neg__(self):
        return make_quaternion(self.parent, tuple(-c for c in self.coords))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        A = self.parent
        return make_quaternion(A, coord_mul(A.alpha, A.beta, self.coords,
                                            other.coords))

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        if n < 0:
            return q_inv(self) ** (-n)
        out = self.parent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * q_inv(other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, NFElement)):
            other = Quaternion(self.parent, (other, 0, 0, 0))
        return (isinstance(other, Quaternion)
                and self.parent == other.parent
                and all(_is_scalar_zero(a - b)
                        for a, b in zip(self.coords, other.coords)))

    def __hash__(self):
        return hash((self.parent, self.coords))

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
        parts = []
        for c, name in zip(self.coords, ("", "i", "j", "k")):
            if _is_scalar_zero(c):
                continue
            if isinstance(c, NFElement):
                s = "(%s)%s" % (c.as_ratpoly(), name)
            elif name == "":
                s = str(c)
            elif c == 1:
                s = name
            elif c == -1:
                s = "-" + name
            else:
                s = "%s%s" % (c, name)
            parts.append(s)
        if not parts:
            return "0"
        out = parts[0]
        for s in parts[1:]:
            out += "+" + s if not s.startswith("-") else s
        return out


def make_quaternion(parent, coords):
    """A Quaternion from a 4-tuple that arithmetic on Quaternion coordinates
    produced, so every entry is already a Fraction or an NFElement; skips
    the constructor's checks and conversions."""
    q = object.__new__(Quaternion)
    object.__setattr__(q, "parent", parent)
    object.__setattr__(q, "coords", coords)
    return q


def coord_mul(al, be, a, b):
    """The product a*b of coordinate 4-tuples in (al, be / F); entries may
    be ints, Fractions or NFElements."""
    t1, x1, y1, z1 = a
    t2, x2, y2, z2 = b
    return (t1 * t2 + al * (x1 * x2) + be * (y1 * y2 - al * (z1 * z2)),
            t1 * x2 + x1 * t2 + be * (z1 * y2 - y1 * z2),
            t1 * y2 + y1 * t2 + al * (x1 * z2 - z1 * x2),
            t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2)


def coord_norm(al, be, a):
    """The reduced norm of a coordinate 4-tuple."""
    t, x, y, z = a
    return t * t - al * (x * x) - be * (y * y - al * (z * z))


def q_inv(a):
    """The multiplicative inverse conj(a) / N(a)."""
    if a.is_zero:
        raise DivisionByZero("inverse of zero quaternion")
    n = a.norm()
    if _is_scalar_zero(n):
        raise ZeroDivisorEncountered("nonzero element with zero norm",
                                     witness=a)
    if isinstance(n, NFElement):
        ninv = n.inv()
    else:
        ninv = 1 / n
    return make_quaternion(a.parent,
                           tuple(c * ninv for c in a.conj().coords))


class CharPoly:
    """x^2 - Tr(a) x + N(a); for non-central a its minimal polynomial."""

    def __init__(self, trace, norm):
        self.trace = trace
        self.norm = norm

    def as_ratpoly(self):
        return RatPoly([self.norm, -self.trace, Fr(1)])

    def __eq__(self, other):
        return (isinstance(other, CharPoly) and self.trace == other.trace
                and self.norm == other.norm)

    def __hash__(self):
        return hash((self.trace, self.norm))

    def __repr__(self):
        return "CharPoly(%s)" % (self.as_ratpoly(),)


def charpoly(a):
    return CharPoly(a.trace(), a.norm())


def is_conjugate(a, b):
    """Dickson: non-central elements are conjugate iff their characteristic
    polynomials agree; central elements are alone in their class."""
    a._check(b)
    if a.is_central or b.is_central:
        return a == b
    return a.trace() == b.trace() and a.norm() == b.norm()


def embed_quadratic(A, d):
    """A pure quaternion with square d, realizing Q(sqrt d) inside A."""
    d = Fr(d)
    if d == 0:
        raise DegenerateInput("d must be nonzero")
    for v in A.ramified.places():
        if is_local_square(d, v):
            raise EmbeddingObstructed(
                "Q(sqrt %s) does not embed: place %s splits in it" % (d, v))
    rep = represent_pure(A.alpha, A.beta, d)
    if rep is None:
        raise EmbeddingObstructed(
            "no pure quaternion of square %s exists" % (d,))
    x, y, z = rep
    a = Quaternion(A, (0, x, y, z))
    if a * a != A.scalar(d):
        raise EmbeddingObstructed("representation did not square to d")
    return a
