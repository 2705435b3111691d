"""Arithmetic in L = Q[x]/(p) and the number-theoretic tests built on it.

Covers field arithmetic, square testing and Trager factorization over L,
quadratic-subfield enumeration, splitting types of rational primes, and
the tensor-splitting criterion for a quaternion algebra extended to L.
"""

import math
from fractions import Fraction

from . import maxorder
from .errors import (DegenerateInput, DivisionByZero, InternalInvariantViolation,
                     PreconditionViolation)
from .intarith import factorint
from .ratpoly import (RatPoly, from_int_list, resultant, rp_factor, rp_gcd,
                      rp_is_irreducible, rp_real_root_count, rp_xgcd)

Fr = Fraction

INFINITE_PLACE = "oo"


class SplittingType:
    """Local data of L at one place: list of (e, f) pairs.

    At the infinite place the pairs are (1, 1) per real embedding and
    (1, 2) per conjugate pair of complex embeddings.
    """

    def __init__(self, prime, local_factors):
        self.prime = prime
        self.local_factors = list(local_factors)

    def __repr__(self):
        return "SplittingType(%r, %r)" % (self.prime, self.local_factors)

    def __eq__(self, other):
        return (isinstance(other, SplittingType)
                and self.prime == other.prime
                and self.local_factors == other.local_factors)


class NumberField:
    """L = Q[x]/(minpoly), minpoly monic irreducible."""

    def __init__(self, minpoly):
        if not minpoly.is_monic or minpoly.degree < 1:
            raise DegenerateInput("minimal polynomial must be monic nonconstant")
        if minpoly.degree > 1 and not rp_is_irreducible(minpoly):
            raise DegenerateInput("minimal polynomial must be irreducible")
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._integral = None
        self._subfields = None
        self._splittings = {}

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return "NumberField(%s)" % (self.minpoly,)

    def element(self, coords):
        coords = [Fr(c) for c in coords]
        if len(coords) > self.degree:
            rp = RatPoly(coords) % self.minpoly
            coords = [rp[i] for i in range(self.degree)]
        else:
            coords += [Fr(0)] * (self.degree - len(coords))
        return NFElement(self, coords)

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
        """(c, m_int): m_int = monic integral minpoly of c * theta."""
        if self._integral is None:
            c = self.minpoly.denominator_lcm()
            n = self.degree
            coeffs = [int(self.minpoly[i] * c ** (n - i)) for i in range(n)] + [1]
            self._integral = (c, coeffs)
        return self._integral


class NFElement:
    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        self.parent = parent
        self.coords = tuple(Fr(c) for c in coords)

    def as_ratpoly(self):
        return RatPoly(self.coords)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

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
        return NFElement(self.parent, [-c for c in self.coords])

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElement(self.parent,
                         [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return NFElement(self.parent,
                         [a - b for a, b in zip(self.coords, other.coords)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElement(self.parent, [c * other for c in self.coords])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prod = (self.as_ratpoly() * other.as_ratpoly()) % self.parent.minpoly
        return NFElement(self.parent,
                         [prod[i] for i in range(self.parent.degree)])

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero in number field")
        g, u, _ = rp_xgcd(self.as_ratpoly(), self.parent.minpoly)
        if g.degree != 0:
            raise InternalInvariantViolation("minpoly not irreducible?")
        u = u * (1 / g[0])
        u = u % self.parent.minpoly
        return NFElement(self.parent, [u[i] for i in range(self.parent.degree)])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n):
        out = self.parent.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return "NF(%s)" % (self.as_ratpoly(),)


# ---------------------------------------------------------------------------
# dense polynomials with NFElement coefficients (lists, ascending)

def nfp_trim(f):
    while f and f[-1].is_zero:
        f.pop()
    return f


def nfp_mul(f, g):
    if not f or not g:
        return []
    L = f[0].parent
    out = [L.zero() for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        if not a.is_zero:
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
    return nfp_trim(out)


def nfp_sub(f, g):
    n = max(len(f), len(g))
    L = (f or g)[0].parent
    z = L.zero()
    out = [(f[i] if i < len(f) else z) - (g[i] if i < len(g) else z)
           for i in range(n)]
    return nfp_trim(out)


def nfp_divmod(f, g):
    if not g:
        raise DivisionByZero("polynomial division by zero")
    L = g[0].parent
    f = list(f)
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return [], nfp_trim(f)
    inv = g[-1].inv()
    quot = [L.zero() for _ in range(len(f) - dg)]
    for i in range(len(f) - 1, dg - 1, -1):
        if not f[i].is_zero:
            c = f[i] * inv
            quot[i - dg] = c
            for j, b in enumerate(g):
                f[i - dg + j] = f[i - dg + j] - c * b
    return nfp_trim(quot), nfp_trim(f[:dg])


def nfp_gcd(f, g):
    while g:
        f, g = g, nfp_divmod(f, g)[1]
    if not f:
        return f
    inv = f[-1].inv()
    return [c * inv for c in f]


def nfp_deriv(f):
    return nfp_trim([f[i] * i for i in range(1, len(f))])


def nfp_compose(f, g):
    """f(g(y)) for NFElement polynomials."""
    L = f[0].parent
    out = []
    for c in reversed(f):
        out = nfp_mul(out, g)
        if not out:
            out = []
        if not c.is_zero:
            if out:
                out[0] = out[0] + c
            else:
                out = [c]
        out = nfp_trim(out) if out else out
    return out


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
    theta = L.gen()
    k = 0
    while True:
        shift = [theta * (-k), L.one()]  # y - k*theta
        fs = nfp_compose(f, shift)
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
        ni_l = nfp_compose([L.from_rational(c) for c in ni.coeffs], back)
        h = nfp_gcd(f, ni_l)
        if len(h) - 1 >= 1:
            out.append(h)
    total = [L.one()]
    for h in out:
        total = nfp_mul(total, h)
    if nfp_sub(total, f):
        raise InternalInvariantViolation("Trager factors do not multiply back")
    return out


def nf_factor(f, L):
    """Factor any nonconstant monic f in L[y]: list of (factor, mult)."""
    sqf = nfp_gcd(f, nfp_deriv(f))
    radical = nfp_divmod(f, sqf)[0]
    parts = nf_factor_squarefree(radical, L)
    out = []
    for h in parts:
        mult = 0
        rest = f
        while True:
            q, r = nfp_divmod(rest, h)
            if r:
                break
            rest = q
            mult += 1
        out.append((h, mult))
    return out


def nf_sqrt(d, L):
    """A square root of d in L, or None.

    d may be a rational number or an NFElement of L.
    """
    if isinstance(d, NFElement):
        el = d
    else:
        el = L.from_rational(d)
    if el.is_zero:
        return L.zero()
    if L.degree == 1:
        q = el.rational_value()
        num, den = q.numerator, q.denominator
        if num < 0:
            return None
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn == num and rd * rd == den:
            return L.from_rational(Fr(rn, rd))
        return None
    f = [-el, L.zero(), L.one()]  # y^2 - d
    for h, _ in nf_factor(f, L):
        if len(h) == 2:
            root = -h[0]
            if root * root == el:
                return root
    return None


def nf_quadratic_subfields(L):
    """Squarefree integers d with Q(sqrt(d)) contained in L.

    Sorted by increasing |d|, positive sign first.
    """
    if L._subfields is not None:
        return list(L._subfields)
    if L.degree % 2 == 1 or L.degree < 2:
        L._subfields = []
        return []
    _, m_int = L.integral_model()
    disc = maxorder.disc_of_int_poly(m_int)
    primes = sorted(factorint(4 * abs(disc)))
    divisors = [1]
    for p in primes:
        divisors += [d * p for d in divisors]
    candidates = []
    for d in divisors:
        for s in (d, -d):
            if s != 1:
                candidates.append(s)
    candidates.sort(key=lambda s: (abs(s), s < 0))
    out = [d for d in candidates if nf_sqrt(Fr(d), L) is not None]
    L._subfields = out
    return list(out)


def nf_local_splitting(L, place):
    """Splitting data of L at a finite prime or at INFINITE_PLACE."""
    if place in L._splittings:
        return L._splittings[place]
    if place == INFINITE_PLACE:
        r = rp_real_root_count(L.minpoly)
        st = SplittingType(INFINITE_PLACE,
                           [(1, 1)] * r + [(1, 2)] * ((L.degree - r) // 2))
    else:
        _, m_int = L.integral_model()
        st = SplittingType(place, maxorder.splitting_type(m_int, place))
    L._splittings[place] = st
    return st


def nf_factor_over_quadratic(p, d):
    """Factor p (monic, irreducible over Q) over Q(sqrt(d)).

    Returns a list of (NumberField, factors) ... the factors are monic
    NFElement coefficient lists over L2 = Q[x]/(x^2 - d).
    """
    sq = math.isqrt(abs(d))
    if d >= 0 and sq * sq == d:
        raise DegenerateInput("d must not be a square")
    if not p.is_monic:
        raise PreconditionViolation("input polynomial must be monic")
    L2 = NumberField(RatPoly([-d, 0, 1]))
    f = [L2.from_rational(c) for c in p.coeffs]
    return L2, nf_factor_squarefree(f, L2)


def nf_splits_quaternion(alpha, beta, L):
    """True iff (alpha, beta / Q) tensored with L is a matrix algebra."""
    from . import quadform
    if not quadform.is_division(alpha, beta):
        from .errors import SplitAlgebra
        raise SplitAlgebra("(%s, %s / Q) is split" % (alpha, beta))
    places = quadform.ramified_places(alpha, beta)
    for p in places.finite_primes:
        for e, f in nf_local_splitting(L, p).local_factors:
            if (e * f) % 2 == 1:
                return False
    if places.infinite:
        for e, f in nf_local_splitting(L, INFINITE_PLACE).local_factors:
            if (e * f) % 2 == 1:
                return False
    return True
