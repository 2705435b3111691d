"""Arithmetic in L = Q[x]/(p) and the number-theoretic tests built on it.

Covers field arithmetic, square testing and Trager factorization over L,
quadratic-subfield enumeration, the places above a rational prime as
(e, f) pairs from maxorder, and the tensor-splitting criterion for a
quaternion algebra extended to L.
"""

import math
from fractions import Fraction

from . import dense, maxorder
from .dense import QQ
from .errors import (DegenerateInput, DivisionByZero, InternalInvariantViolation,
                     PreconditionViolation, SplitAlgebra)
from .intarith import factorint, is_prime, legendre
from .ratpoly import (RatPoly, resultant, rp_factor, rp_gcd, rp_is_irreducible,
                      rp_real_root_count)

Fr = Fraction

INFINITE_PLACE = "oo"


def check_place(place):
    """Raise PreconditionViolation unless place is a prime or INFINITE_PLACE."""
    if place != INFINITE_PLACE and not (isinstance(place, int)
                                        and is_prime(place)):
        raise PreconditionViolation(
            "place must be a prime or INFINITE_PLACE, got %r" % (place,))


class NumberField:
    """L = Q[x]/(minpoly), minpoly monic irreducible.  The checked
    constructor tests irreducibility; `unchecked` is for a minimal
    polynomial already proven irreducible (a factor from rp_factor)."""

    def __init__(self, minpoly, _checked=True):
        if not minpoly.is_monic or minpoly.degree < 1:
            raise DegenerateInput("minimal polynomial must be monic nonconstant")
        if (_checked and minpoly.degree > 1
                and not rp_is_irreducible(minpoly)):
            raise DegenerateInput("minimal polynomial must be irreducible")
        self.minpoly = minpoly
        self.degree = minpoly.degree
        # (p, simple roots of minpoly mod p) for the local square test,
        # computed by _local_nonsquare on first use
        self.local_roots = None
        # the field object of dense.py for polynomials over L
        self.field = dense.Field(self.zero(), self.one(), dense.same,
                                 NFElement.inv)

    @classmethod
    def unchecked(cls, minpoly):
        return cls(minpoly, _checked=False)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return "NumberField(%s)" % (self.minpoly,)

    def element(self, coords):
        coords = dense.trim([Fr(c) for c in coords])
        if len(coords) > self.degree:
            coords = dense.divmod(coords, self.minpoly.coeffs, QQ)[1]
        return _element(self, coords)

    def from_rational(self, c):
        return self.element([Fr(c)])

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        return self.element([0, 1] if self.degree > 1
                            else [-self.minpoly[0]])

    def integral_model(self):
        """The monic integral minimal polynomial of c * theta, as a list
        of ints, for c the lcm of the denominators of the minpoly."""
        c = self.minpoly.denominator_lcm()
        n = self.degree
        return [int(self.minpoly[i] * c ** (n - i)) for i in range(n)] + [1]


def _element(L, coords):
    """The element of L with Fraction coordinates coords (at most
    L.degree of them), padded with zeros, without conversion."""
    out = object.__new__(NFElement)
    out.parent = L
    out.coords = tuple(coords + [Fr(0)] * (L.degree - len(coords)))
    return out


class NFElement:
    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        self.parent = parent
        self.coords = tuple([Fr(c) for c in coords])

    def as_ratpoly(self):
        return RatPoly(self.coords)

    def _poly(self):
        """The coordinates as a dense.py polynomial over Q."""
        return dense.trim(list(self.coords))

    @property
    def is_zero(self):
        return not any(self.coords)

    def __bool__(self):
        return any(self.coords)

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def rational_value(self):
        if not self.is_rational:
            raise DegenerateInput("element is not rational")
        return self.coords[0]

    def _coerce(self, other):
        if isinstance(other, NFElement):
            if other.parent != self.parent:
                raise DegenerateInput("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.parent.from_rational(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.parent.minpoly.coeffs, self.coords))

    def __neg__(self):
        return _element(self.parent, [-c for c in self.coords])

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _element(self.parent,
                        [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _element(self.parent,
                        [a - b for a, b in zip(self.coords, other.coords)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _element(self.parent, [c * other for c in self.coords])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        L = self.parent
        prod = dense.mul(self._poly(), other._poly(), QQ)
        return _element(L, dense.divmod(prod, L.minpoly.coeffs, QQ)[1])

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero in number field")
        L = self.parent
        g, u, _ = dense.xgcd(self._poly(), L.minpoly.coeffs, QQ)
        if len(g) != 1:
            raise InternalInvariantViolation("minpoly not irreducible?")
        # deg u < deg minpoly - deg g, so u is already reduced
        return _element(L, u)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n):
        return dense.power(self, n, self.parent.one())

    def __repr__(self):
        return "NF(%s)" % (self.as_ratpoly(),)


def nf_poly_norm(f, L):
    """Norm from L[y] to Q[y]: product of f over all embeddings of L.

    Computed as Res_theta(minpoly, f) by evaluation and interpolation.
    """
    n = L.degree
    degf = len(f) - 1
    gj = [RatPoly([f[i].coords[j] for i in range(len(f))]) for j in range(n)]
    dtheta = max((j for j in range(n) if not gj[j].is_zero), default=0)
    if dtheta == 0:
        return gj[0] ** n
    dbound = n * degf
    points, values = [], []
    t = 0
    while len(points) <= dbound:
        tv = Fr(t)
        if gj[dtheta](tv) != 0:
            theta_poly = RatPoly([gj[j](tv) for j in range(dtheta + 1)])
            values.append(resultant(L.minpoly, theta_poly))
            points.append(tv)
        t = -t if t > 0 else -t + 1
    # Newton-form interpolation
    poly = RatPoly([values[0]])
    base = RatPoly.const(1)
    for k in range(1, len(points)):
        base = base * RatPoly([-points[k - 1], 1])
        num = values[k] - poly(points[k])
        den = base(points[k])
        poly = poly + base * (num / den)
    return poly


def nf_factor_squarefree(f, L):
    """Monic irreducible factors over L of a monic squarefree f in L[y]."""
    if len(f) - 1 == 1:
        return [f]
    F = L.field
    theta = L.gen()
    k = 0
    while True:
        shift = [theta * (-k), L.one()]  # y - k*theta
        fs = dense.compose(f, shift, F)
        norm = nf_poly_norm(fs, L)
        if rp_gcd(norm, norm.derivative()).degree == 0:
            break
        k += 1
    fac = rp_factor(norm)
    if len(fac.factors) == 1 and fac.factors[0][1] == 1:
        return [f]
    out = []
    back = [theta * k, L.one()]  # y + k*theta
    for ni, _mult in fac.factors:
        ni_l = dense.compose([L.from_rational(c) for c in ni.coeffs], back, F)
        h = dense.gcd(f, ni_l, F)
        if len(h) - 1 >= 1:
            out.append(h)
    total = [L.one()]
    for h in out:
        total = dense.mul(total, h, F)
    if dense.sub(total, f, F):
        raise InternalInvariantViolation("Trager factors do not multiply back")
    return out


def nf_factor(f, L):
    """Factor any nonconstant monic f in L[y]: list of (factor, mult)."""
    F = L.field
    sqf = dense.gcd(f, dense.derivative(f, F), F)
    radical = dense.divmod(f, sqf, F)[0]
    parts = nf_factor_squarefree(radical, L)
    out = []
    for h in parts:
        mult = 0
        rest = f
        while True:
            q, r = dense.divmod(rest, h, F)
            if r:
                break
            rest = q
            mult += 1
        out.append((h, mult))
    return out


# the odd primes below 50, where nf_sqrt looks for a local non-square
_LOCAL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _mod_p(coeffs, p):
    """Fraction coefficients reduced mod p, or None when p divides a
    denominator."""
    if any(c.denominator % p == 0 for c in coeffs):
        return None
    return [c.numerator * pow(c.denominator, -1, p) % p for c in coeffs]


def _local_roots(minpoly):
    """(p, simple roots of minpoly mod p) for each p of _LOCAL_PRIMES
    dividing no denominator of minpoly and giving at least one root."""
    out = []
    for p in _LOCAL_PRIMES:
        m = _mod_p(minpoly.coeffs, p)
        if m is None:
            continue
        F = dense.GF(p)
        dm = dense.derivative(m, F)
        roots = [r for r in range(p) if dense.evaluate(m, r, F) == 0
                 and dense.evaluate(dm, r, F) != 0]
        if roots:
            out.append((p, roots))
    return out


def _local_nonsquare(el):
    """True when el is a non-square at a place of L above some prime of
    _LOCAL_PRIMES that divides no denominator of el or of the minimal
    polynomial.  Integers mod p only; the simple roots of the minimal
    polynomial mod each prime are found once per field (_local_roots).

    A simple root r of the minimal polynomial m mod p lifts to a root of
    m in Z_p (Hensel), that is to an embedding of L into Q_p, under which
    el is a p-adic integer congruent to el(r).  When el(r) is a quadratic
    non-residue that integer is a unit but no square, so el is no square
    in L.  A multiple root of m mod p need not lift (0 mod 3 for
    x^2 - 45, where 5 is a square), so it is skipped.
    """
    L = el.parent
    if L.local_roots is None:
        L.local_roots = _local_roots(L.minpoly)
    for p, roots in L.local_roots:
        e, F = _mod_p(el.coords, p), dense.GF(p)
        if e is not None and any(legendre(dense.evaluate(e, r, F), p) == -1
                                 for r in roots):
            return True
    return False


def nf_sqrt(d, L):
    """A square root of d in L, or None.

    d may be a rational number or an NFElement of L.  Before the Trager
    factorization of y^2 - d, a local test settles most non-squares with
    integers alone: d is no square when, at a simple root r of the
    minimal polynomial mod a small odd prime p, d(r) is a quadratic
    non-residue mod p (see _local_nonsquare).  Those roots are found once
    per field and reused by every later call.  The test only rejects
    non-squares, so every answer is the one Trager gives.
    """
    if isinstance(d, NFElement):
        el = d
    else:
        el = L.from_rational(d)
    if el.is_zero:
        return L.zero()
    if _local_nonsquare(el):
        return None
    f = [-el, L.zero(), L.one()]  # y^2 - d, squarefree since d != 0
    for h in nf_factor_squarefree(f, L):
        if len(h) == 2:
            root = -h[0]
            if root * root == el:
                return root
    return None


def nf_quadratic_candidates(L):
    """Squarefree integers d != 1 that may give a subfield Q(sqrt(d)) of L:
    the signed squarefree divisors of 4 disc, none for odd degree, less
    those the local test of nf_sqrt proves to be no square in L.

    Q(sqrt(d)) lies in L exactly when d is a square in L, and the local
    test (see _local_nonsquare) rejects only non-squares, so every d it
    drops gives no subfield.  Sorted by increasing |d|, positive sign
    first.
    """
    if L.degree % 2 == 1:
        return []
    disc = maxorder.disc_of_int_poly(L.integral_model())
    divisors = [1]
    for p in sorted(factorint(4 * abs(disc))):
        divisors += [d * p for d in divisors]
    candidates = [s for d in divisors for s in (d, -d) if s != 1]
    candidates.sort(key=lambda s: (abs(s), s < 0))
    return [d for d in candidates
            if not _local_nonsquare(L.from_rational(d))]


def nf_quadratic_subfields(L):
    """Squarefree integers d with Q(sqrt(d)) contained in L, in the order
    of nf_quadratic_candidates."""
    return [d for d in nf_quadratic_candidates(L)
            if nf_sqrt(Fr(d), L) is not None]


def nf_local_splitting(L, place):
    """Sorted (e, f) pairs of the places of L above a finite prime, or at
    INFINITE_PLACE (1, 1) per real and (1, 2) per complex place."""
    check_place(place)
    if place == INFINITE_PLACE:
        r = rp_real_root_count(L.minpoly)
        return [(1, 1)] * r + [(1, 2)] * ((L.degree - r) // 2)
    return maxorder.splitting_type(L.integral_model(), place)


def nf_factor_over_quadratic(p, d):
    """Factor p (monic, irreducible over Q) over Q(sqrt(d)).

    Returns (L2, factors): L2 = Q[x]/(x^2 - d) and the monic irreducible
    factors of p over L2 as NFElement coefficient lists, one factor when
    Q(sqrt(d)) is not a subfield of Q[x]/(p).
    """
    sq = math.isqrt(abs(d))
    if d >= 0 and sq * sq == d:
        raise DegenerateInput("d must not be a square")
    if not p.is_monic:
        raise PreconditionViolation("input polynomial must be monic")
    L2 = NumberField.unchecked(RatPoly([-d, 0, 1]))  # d is no square
    f = [L2.from_rational(c) for c in p.coeffs]
    return L2, nf_factor_squarefree(f, L2)


def nf_splits_quaternion(alpha, beta, L):
    """True iff (alpha, beta / Q) tensored with L is a matrix algebra,
    that is iff every place of L above a ramified place of Q has even
    local degree e*f.

    The infinite place, a Sturm count, is checked before the ramified
    primes, each of which needs a p-maximal order; the first place of odd
    local degree decides.
    """
    from .quadform import ramified_places
    places = ramified_places(alpha, beta)
    if not places:
        raise SplitAlgebra("(%s, %s / Q) is split" % (alpha, beta))
    first = [INFINITE_PLACE] if places.infinite else []
    for place in first + list(places.finite_primes):
        if any((e * f) % 2 for e, f in nf_local_splitting(L, place)):
            return False
    return True
