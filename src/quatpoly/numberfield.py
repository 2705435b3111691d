"""Arithmetic in L = Q[x]/(p) and the number-theoretic tests built on it.

First the places of Q: Hilbert symbols, local squares and the ramified
places of a quaternion algebra (alpha, beta / Q), read off valuations
and unit classes.  Then L: an element of L is a RatPoly in theta of
degree below deg p, so its arithmetic is RatPoly's, on integers over
one denominator, reduced by p; polynomials over L are dense.py lists
over the field object L.field.  Covers field arithmetic, square
testing and Trager factorization over L (quadform takes the halves of
a central factor from it over L = Q(sqrt d)), the quadratic subfields
of L (of a quartic from the rational roots of its resolvent cubic;
from degree 6 the divisors of 4 disc that pass a local screen, each
then tested as a square in L), the places above a rational prime as
(e, f) pairs from maxorder, and the tensor-splitting criterion for a
quaternion algebra extended to L.
"""

import functools
from fractions import Fraction

from . import dense, maxorder
from .errors import (DegenerateInput, DivisionByZero, InternalInvariantViolation,
                     PreconditionViolation, SplitAlgebra)
from .intarith import (factorint, is_prime, legendre, square_class,
                       squarefree_kernel)
from .ratpoly import (RatPoly, resultant, rp_factor, rp_gcd, rp_is_irreducible,
                      rp_real_root_count)


INFINITE_PLACE = "oo"


def check_place(place):
    """Raise PreconditionViolation unless place is a prime or INFINITE_PLACE."""
    if place != INFINITE_PLACE and not (isinstance(place, int)
                                        and is_prime(place)):
        raise PreconditionViolation(
            "place must be a prime or INFINITE_PLACE, got %r" % (place,))


# ---------------------------------------------------------------------------
# the places of Q: Hilbert symbols, local squares and ramification

def _val_unit(n, p):
    """(v, u) with n = p^v u for a nonzero integer n, u prime to p."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _local_class(q, p):
    """(v, u): the valuation v_p(q) of a nonzero rational q and an integer
    u prime to p in the square class of q / p^v, read off the numerator
    and the denominator (q = p^v un/ud and un ud = (un/ud) ud^2)."""
    v, un = _val_unit(q.numerator, p)
    w, ud = _val_unit(q.denominator, p)
    return v - w, un * ud


def hilbert_symbol(a, b, place):
    """(a, b)_v for nonzero rationals: +1 iff z^2 = a x^2 + b y^2 has a
    nontrivial solution over the completion at the place.  At a prime p
    only v_p and the unit class (mod p, mod 8 at 2) of a and b enter, so
    nothing is factored."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise DegenerateInput("Hilbert symbol needs nonzero entries")
    check_place(place)
    if place == INFINITE_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    al, u = _local_class(a, p)
    be, v = _local_class(b, p)
    if p == 2:
        u, v = u % 8, v % 8
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        om_u = ((u * u - 1) // 8) % 2
        om_v = ((v * v - 1) // 8) % 2
        e = eps_u * eps_v + al * om_v + be * om_u
        return -1 if e % 2 else 1
    eps = ((p - 1) // 2) % 2
    sym = 1
    if (al * be * eps) % 2:
        sym = -sym
    if be % 2:
        sym *= legendre(u, p)
    if al % 2:
        sym *= legendre(v, p)
    return sym


def is_local_square(d, place):
    """True iff the nonzero rational d is a square in the completion: at a
    prime p, v_p(d) is even and the unit part is a square mod p (mod 8 at
    2)."""
    d = Fraction(d)
    if d == 0:
        raise DegenerateInput("zero is degenerate here")
    check_place(place)
    if place == INFINITE_PLACE:
        return d > 0
    p = place
    v, u = _local_class(d, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre(u, p) == 1


class PlaceSet:
    """A finite set of places of Q (finite primes plus optionally infinity).
    Immutable: ramified_places hands one instance to every caller."""

    __slots__ = ("finite_primes", "infinite")

    def __init__(self, finite_primes, infinite):
        object.__setattr__(self, "finite_primes",
                           tuple(sorted(set(finite_primes))))
        object.__setattr__(self, "infinite", bool(infinite))

    def __setattr__(self, *args):
        raise AttributeError("PlaceSet is immutable")

    def __len__(self):
        return len(self.finite_primes) + (1 if self.infinite else 0)

    def places(self):
        yield from self.finite_primes
        if self.infinite:
            yield INFINITE_PLACE

    def __eq__(self, other):
        return (isinstance(other, PlaceSet)
                and self.finite_primes == other.finite_primes
                and self.infinite == other.infinite)

    def __repr__(self):
        tail = " oo" if self.infinite else ""
        return "PlaceSet{%s%s}" % (", ".join(map(str, self.finite_primes)), tail)


@functools.lru_cache(maxsize=64)
def ramified_places(alpha, beta):
    """All places where (alpha, beta / Q) is not split.  Remembered for
    the last 64 pairs: every central factor asks again for its algebra."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha == 0 or beta == 0:
        raise DegenerateInput("algebra parameters must be nonzero")
    return ramified_among(alpha, beta,
                          square_class(alpha)[2] + square_class(beta)[2])


def ramified_among(alpha, beta, primes):
    """The places where (alpha, beta / Q) is not split, for nonzero
    rationals and primes holding every odd prime at which alpha or beta
    has odd valuation: only those, 2 and infinity can ramify."""
    finite = [p for p in {2, *primes} if hilbert_symbol(alpha, beta, p) == -1]
    inf = hilbert_symbol(alpha, beta, INFINITE_PLACE) == -1
    return PlaceSet(finite, inf)


def is_division(alpha, beta):
    return len(ramified_places(alpha, beta)) > 0


# ---------------------------------------------------------------------------
# the number field L = Q[x]/(p)

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

    @classmethod
    def unchecked(cls, minpoly):
        return cls(minpoly, _checked=False)

    @property
    def field(self):
        """The field object of dense.py for polynomials over L, built on
        each access: kept on L, its zero and one would point back at L, and
        every field would be a reference cycle, freed only by the cyclic
        garbage collector."""
        return dense.Field(self.zero(), self.one(), dense.same, NFElement.inv)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return "NumberField(%s)" % (self.minpoly,)

    def element(self, coords):
        return NFElement(self, coords)

    def from_rational(self, c):
        return _element(self, RatPoly.const(c))

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        return self.element([0, 1])

    def integral_model(self):
        """The monic integral minimal polynomial of c * theta, as a list
        of ints, for c = minpoly.den, the lcm of its denominators."""
        c, num, n = self.minpoly.den, self.minpoly.num, self.degree
        return [num[i] * c ** (n - 1 - i) for i in range(n)] + [1]


def _element(L, poly):
    """The element of L given by a RatPoly of degree below L.degree,
    without reduction."""
    out = object.__new__(NFElement)
    out.parent = L
    out.poly = poly
    return out


class NFElement(dense.RingElement):
    """An element of L: a RatPoly poly in theta of degree below L.degree;
    coords builds its padded Fraction coordinates on access.  -, the
    reflected operands, **, /, == and hash come from dense.RingElement."""

    __slots__ = ("parent", "poly")

    def __init__(self, parent, coords):
        self.parent = parent
        self.poly = RatPoly(coords) % parent.minpoly

    @property
    def coords(self):
        return tuple([self.poly[i] for i in range(self.parent.degree)])

    @property
    def is_zero(self):
        return self.poly.is_zero

    def __bool__(self):
        return bool(self.poly)

    @property
    def is_rational(self):
        return self.poly.degree < 1

    def _coerce(self, other):
        if isinstance(other, NFElement):
            if other.parent != self.parent:
                raise DegenerateInput("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.parent.from_rational(other)
        return None

    def _key(self):
        return self.poly._key()

    def __neg__(self):
        return _element(self.parent, -self.poly)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _element(self.parent, self.poly + other.poly)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        L = self.parent
        return _element(L, self.poly * other.poly % L.minpoly)

    def inv(self):
        """Euclid on the minimal polynomial and poly ends in a constant g
        and the cofactor s0 with s0 poly = g mod the minimal polynomial;
        s0 / g is the inverse, reduced since deg s0 < L.degree."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero in number field")
        L = self.parent
        r0, r1, s0, s1 = L.minpoly, self.poly, RatPoly(), RatPoly.const(1)
        while r1:
            q, r = divmod(r0, r1)
            r0, r1, s0, s1 = r1, r, s1, s0 - q * s1
        if r0.degree != 0:
            raise InternalInvariantViolation("minpoly not irreducible?")
        return _element(L, s0 * (1 / r0[0]))

    def __repr__(self):
        return "NF(%s)" % (self.poly,)


def nf_poly_norm(f, L):
    """Norm from L[y] to Q[y]: product of f over all embeddings of L, the
    Newton interpolant of the norms Res_theta(minpoly, f(t)) at
    n deg f + 1 integers t = 0, 1, -1, 2, ...
    """
    n, F = L.degree, L.field
    poly, base = RatPoly(), RatPoly.const(1)
    for k in range(n * (len(f) - 1) + 1):
        t = (k + 1) // 2 if k % 2 else -(k // 2)
        value = resultant(L.minpoly, dense.evaluate(f, t, F).poly)
        poly = poly + base * ((value - poly(t)) / base(t))
        base = base * RatPoly([-t, 1])
    return poly


def nf_factor_squarefree(f, L):
    """Monic irreducible factors over L of a monic squarefree f in L[y].

    The shift k starts at 1 for f over Q and L of degree n > 1: the
    norm of the unshifted f is then f^n, never squarefree."""
    if len(f) - 1 == 1:
        return [f]
    F = L.field
    theta = L.gen()
    k = int(L.degree > 1 and all(c.is_rational for c in f))
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


def _mod_p(r, p):
    """The coefficients of the RatPoly r reduced mod p, or None when p
    divides its denominator."""
    if r.den % p == 0:
        return None
    inv = pow(r.den, -1, p)
    return [c * inv % p for c in r.num]


def _local_roots(minpoly):
    """(p, simple roots of minpoly mod p) for each p of _LOCAL_PRIMES
    not dividing the den of minpoly and giving at least one root."""
    out = []
    for p in _LOCAL_PRIMES:
        m = _mod_p(minpoly, p)
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
        e, F = _mod_p(el.poly, p), dense.GF(p)
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
    el = d if isinstance(d, NFElement) else L.from_rational(d)
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


def _subfield_order(d):
    """The order in which the subfields Q(sqrt(d)) are listed and tried:
    increasing |d|, positive sign first."""
    return abs(d), d < 0


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
    candidates.sort(key=_subfield_order)
    return [d for d in candidates
            if not _local_nonsquare(L.from_rational(d))]


def nf_quadratic_subfields(L):
    """Squarefree integers d with Q(sqrt(d)) contained in L, in the order
    of nf_quadratic_candidates."""
    return [d for d in nf_quadratic_candidates(L)
            if nf_sqrt(d, L) is not None]


def nf_quartic_subfields(L):
    """Squarefree integers d with Q(sqrt(d)) contained in the quartic
    field L, read off the rational roots of one resolvent cubic (Kappe
    and Warren, Amer. Math. Monthly 96, 1989); no discriminant is formed
    and nothing but that cubic is factored.

    For p = x^4 + a x^3 + b x^2 + c x + e and a rational root r of
    R(y) = y^3 - b y^2 + (ac - 4e) y - (a^2 e - 4be + c^2), Ferrari's
    identity p = (x^2 + (a/2) x + r/2)^2 - (s x + t)^2 holds with
    s^2 = a^2/4 - b + r and t^2 = r^2/4 - e, so p splits over Q(sqrt d)
    for d the squarefree kernel of s^2, or of t^2 when s = 0; p being
    irreducible, d is no square and Q(sqrt d) lies in L.  The roots of R
    are distinct and each gives its own subfield, and every quadratic
    subfield arises so.  Sorted as nf_quadratic_candidates sorts.
    Raises PreconditionViolation unless L has degree 4.
    """
    if L.degree != 4:
        raise PreconditionViolation("the field must have degree 4")
    e, c, b, a = [L.minpoly[i] for i in range(4)]
    cubic = RatPoly([4 * b * e - a * a * e - c * c, a * c - 4 * e, -b, 1])
    out = []
    for g, _mult in rp_factor(cubic).factors:
        if g.degree == 1:
            r = -g[0]
            s2 = a * a / 4 - b + r
            out.append(squarefree_kernel(s2 if s2 else r * r / 4 - e))
    return sorted(out, key=_subfield_order)


def nf_local_splitting(L, place):
    """Sorted (e, f) pairs of the places of L above a finite prime, or at
    INFINITE_PLACE (1, 1) per real and (1, 2) per complex place."""
    check_place(place)
    if place == INFINITE_PLACE:
        r = rp_real_root_count(L.minpoly)
        return [(1, 1)] * r + [(1, 2)] * ((L.degree - r) // 2)
    return maxorder.splitting_type(L.integral_model(), place)


def nf_splits_quaternion(alpha, beta, L):
    """True iff (alpha, beta / Q) tensored with L is a matrix algebra,
    that is iff every place of L above a ramified place of Q has even
    local degree e*f.

    The infinite place, a Sturm count, is checked before the ramified
    primes, each of which needs a p-maximal order; the first place of odd
    local degree decides.
    """
    places = ramified_places(alpha, beta)
    if not places:
        raise SplitAlgebra("(%s, %s / Q) is split" % (alpha, beta))
    first = [INFINITE_PLACE] if places.infinite else []
    for place in first + list(places.finite_primes):
        if any((e * f) % 2 for e, f in nf_local_splitting(L, place)):
            return False
    return True
