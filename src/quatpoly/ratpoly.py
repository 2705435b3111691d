"""Dense polynomials over Q: gcd, resultants, Sturm counting, factoring.

Coefficients are fractions.Fraction, stored ascending (constant term
first) with no trailing zeros; the zero polynomial has an empty tuple.
Degrees in this package never exceed a few dozen, so everything is kept
dense.

The gcd (made monic over Q at the end) and Sturm counting run the same
primitive remainder sequence over Z.  Factoring (rp_factor) runs
entirely over Z on the primitive integer part of its input: Yun's
squarefree decomposition with primitive gcds and exact integer division,
then Zassenhaus' method on each squarefree part.  The prime p is the
smallest odd one with f squarefree of full degree mod p (a gcd over
GF(p), no resultant); distinct-degree and Cantor-Zassenhaus equal-degree
splitting mod p; quadratic Hensel lifting along a factor tree; and
recombination of subsets of the lifted factors by integer trial
division, which stops at the first non-integral quotient coefficient.
The lift first goes to a working precision p^k > 2^16 and keeps what
recombination finds when each factor is proved irreducible by its own
Mignotte bound; otherwise it goes again to p^k above twice the Mignotte
bound of the input.  Each irreducible factor is made monic over Q once,
at the end.  The factoring over GF(p), gfp_factor_squarefree, takes
squarefree input only; it also splits the minimal polynomials in the
idempotent split of maxorder.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from . import dense
from .dense import GF, QQ, ZZ
from .errors import (DegenerateInput, InternalInvariantViolation,
                     NotSquarefree)
from .intarith import is_prime

Fr = Fraction


def _wrap(coeffs):
    """The RatPoly of a core result (trimmed list of Fractions), without
    the constructor's conversion."""
    out = object.__new__(RatPoly)
    out.coeffs = tuple(coeffs)
    return out


class RatPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(dense.trim([Fr(c) for c in coeffs]))

    @classmethod
    def const(cls, c):
        return cls((Fr(c),))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise DegenerateInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fr(0)

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == RatPoly.const(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return _wrap([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return _wrap(dense.add(self.coeffs, other.coeffs, QQ))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return _wrap(dense.sub(self.coeffs, other.coeffs, QQ))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _wrap(dense.scale(self.coeffs, other, QQ))
        if not isinstance(other, RatPoly):
            return NotImplemented
        return _wrap(dense.mul(self.coeffs, other.coeffs, QQ))

    __rmul__ = __mul__

    def __pow__(self, n):
        return dense.power(self, n, RatPoly.const(1))

    def __divmod__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatPoly.const(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        if other.is_zero:
            raise DegenerateInput("division by zero polynomial")
        q, r = dense.divmod(self.coeffs, other.coeffs, QQ)
        return _wrap(q), _wrap(r)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DegenerateInput("inexact polynomial division")
        return q

    def monic(self):
        return _wrap(dense.monic(self.coeffs, QQ))

    def derivative(self):
        return _wrap(dense.derivative(self.coeffs, QQ))

    def __call__(self, v):
        out = Fr(0)
        for c in reversed(self.coeffs):
            out = out * v + c
        return out

    def compose(self, other):
        return _wrap(dense.compose(self.coeffs, other.coeffs, QQ))

    def denominator_lcm(self):
        return math.lcm(*[c.denominator for c in self.coeffs])

    def int_coeffs(self):
        """Integer coefficient list of d*self, d = lcm of denominators."""
        d = self.denominator_lcm()
        return [int(c * d) for c in self.coeffs]

    def primitive_int(self):
        """Primitive integer poly with positive lc in the same Q*-class."""
        return _primitive(self.int_coeffs())

    def __repr__(self):
        return "RatPoly(%s)" % (list(self.coeffs),)

    def __str__(self):
        return format_terms(self.coeffs)


def format_terms(coeffs):
    """Ascending coefficients, each a rational (shown without a factor of
    +-1) or a ready-made string, as terms in descending powers, no zeros."""
    out = ""
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        xs = "x" if i == 1 else "x^%d" % i
        if i == 0:
            term = str(c)
        elif c == 1:
            term = xs
        elif c == -1:
            term = "-" + xs
        else:
            term = "%s*%s" % (c, xs)
        if out:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        else:
            out = term
    return out or "0"


def from_int_list(ic, den=1):
    """The RatPoly of integer coefficients ic, each divided by den."""
    return _wrap(dense.trim([Fr(c, den) for c in ic]))


def _primitive(f):
    """f divided by its integer content, with positive lc; [] for f = []."""
    g = math.gcd(*f)
    if g == 0:
        return []
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def _pseudo_remainder(f, g):
    """A remainder of c*f on division by g in Z[x], for some integer c > 0:
    each step scales by |lc(g)| instead of dividing by lc(g)."""
    if g[-1] < 0:
        g = [-a for a in g]
    n = len(g) - 1
    lc = g[-1]
    r = list(f)
    while len(r) > n:
        c = r.pop()
        r = [lc * a for a in r]
        shift = len(r) - n
        for j in range(n):
            r[shift + j] -= c * g[j]
        dense.trim(r)
    return r


def _primitive_gcd(f, g):
    """The primitive gcd with positive lc of integer polys f, g, not both
    zero, by a primitive remainder sequence over Z (Collins 1967): each
    pseudo-remainder is divided by its integer content."""
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_pseudo_remainder(f, g))
    return f


def rp_gcd(a, b):
    """Monic gcd in Q[x], by a primitive remainder sequence over Z."""
    if a.is_zero and b.is_zero:
        raise DegenerateInput("gcd(0, 0) is undefined")
    f = _primitive_gcd(a.primitive_int(), b.primitive_int())
    return _wrap(dense.monic([Fr(c) for c in f], QQ))


def rp_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g, g monic."""
    g, u, v = dense.xgcd(a.coeffs, b.coeffs, QQ)
    return _wrap(g), _wrap(u), _wrap(v)


def resultant(f, g):
    """Res(f, g) over Q, computed by the Euclidean scheme."""
    if f.is_zero or g.is_zero:
        return Fr(0)
    if f.degree == 0:
        return f.coeffs[0] ** g.degree
    sign = 1
    a, b = f, g
    res = Fr(1)
    while b.degree > 0:
        if a.degree < b.degree:
            if (a.degree * b.degree) % 2 == 1:
                sign = -sign
            a, b = b, a
            continue
        r = a % b
        if r.is_zero:
            return Fr(0)
        if (a.degree * b.degree) % 2 == 1:
            sign = -sign
        res *= b.lc ** (a.degree - r.degree)
        a, b = b, r
    return sign * res * b.coeffs[0] ** a.degree


def rp_discriminant(p):
    """disc(p) = (-1)^(n(n-1)/2) * Res(p, p') / lc(p)."""
    n = p.degree
    if n < 1:
        raise DegenerateInput("discriminant needs degree >= 1")
    if n == 1:
        return Fr(1)
    r = resultant(p, p.derivative())
    s = -1 if (n * (n - 1) // 2) % 2 else 1
    return s * r / p.lc


def _variations(signs):
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def rp_real_root_count(p):
    """Number of distinct real roots of a squarefree polynomial: Sturm's
    theorem on the primitive remainder sequence over Z of f and f', each
    member -prem over its positive content; the last is gcd(f, f')."""
    if p.degree < 1:
        raise DegenerateInput("root counting needs a nonconstant polynomial")
    f = p.primitive_int()
    seq = [f, dense.derivative(f, ZZ)]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            raise NotSquarefree("input must be squarefree")
        g = math.gcd(*r)
        seq.append([-c // g for c in r])
    at_plus = [1 if q[-1] > 0 else -1 for q in seq]
    at_minus = [s if len(q) % 2 else -s for s, q in zip(at_plus, seq)]
    return _variations(at_minus) - _variations(at_plus)


def squarefree_decomposition(p):
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)."""
    if p.is_zero:
        raise DegenerateInput("cannot decompose the zero polynomial")
    return [(from_int_list(a).monic(), i)
            for a, i in _squarefree_int(p.primitive_int())]


# ---------------------------------------------------------------------------
# factoring in GF(p)[x]: polynomials as lists of ints in [0, p)

def _edf(f, d, p, rng):
    """Equal-degree splitting of monic squarefree f into factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    F = GF(p)
    while True:
        r = dense.trim([rng.randrange(p) for _ in range(n)])
        if len(r) < 2:
            continue
        if p == 2:
            s = []
            t = dense.divmod(r, f, F)[1]
            for _ in range(d):
                s = dense.add(s, t, F)
                t = dense.powmod(t, 2, f, F)
        else:
            s = dense.sub(dense.powmod(r, (p ** d - 1) // 2, f, F), [1], F)
        g = dense.gcd(s, f, F) if s else []
        if g and 0 < len(g) - 1 < n:
            return (_edf(g, d, p, rng)
                    + _edf(dense.divmod(f, g, F)[0], d, p, rng))


def gfp_factor_squarefree(f, p):
    """Irreducible factors of a monic squarefree poly over GF(p)."""
    rng = random.Random((0, tuple(f), p).__hash__())
    F = GF(p)
    out = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = dense.powmod(h, p, v, F)
        g = dense.gcd(dense.sub(h, [0, 1], F), v, F)
        if len(g) > 1:
            out.extend(_edf(g, d, p, rng))
            v = dense.divmod(v, g, F)[0]
            h = dense.divmod(h, v, F)[1]
    if len(v) > 1:
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# Zassenhaus factorization over Z / Q

def _good_prime(f):
    """Smallest prime p >= 3 with p not dividing lc(f) and f squarefree mod
    p: the smallest odd prime not dividing lc(f) * disc(f)."""
    df = dense.derivative(f, ZZ)
    p = 3
    while True:
        if f[-1] % p:
            F = GF(p)
            if dense.gcd(dense.trim([c % p for c in f]),
                         dense.trim([c % p for c in df]), F) == [1]:
                return p
        p += 2
        while not is_prime(p):
            p += 2


def _mignotte_bound(f_int):
    n = len(f_int) - 1
    norm2 = math.isqrt(sum(c * c for c in f_int)) + 1
    return 2 ** n * norm2 * abs(f_int[-1])


def _lift_quadratic(f, g, h, p, k):
    """Lift f = g*h (mod p) to (mod p^k); g stays monic.  f, g, h int lists.

    Quadratic Hensel steps (von zur Gathen & Gerhard, Modern Computer
    Algebra, Alg. 15.10), each from modulus m to min(m^2, p^k), with the
    Bezout pair s*g + t*h = 1 lifted alongside.  Z/m is GF(m) of dense.py,
    which is sound here because the only divisor, g, is monic.
    """
    _, s, t = dense.xgcd(g, h, GF(p))
    top = p ** k
    f = [c % top for c in f]
    m = p
    while m < top:
        m = min(m * m, top)
        R = GF(m)
        e = dense.sub([c % m for c in f], dense.mul(g, h, R), R)
        q, r = dense.divmod(dense.mul(t, e, R), g, R)
        g2 = dense.add(g, r, R)
        dh = dense.add(dense.mul(s, e, R), dense.mul(q, h, R), R)
        h2 = dense.add(h, dh, R)
        if m < top:
            b = dense.add(dense.mul(s, g2, R), dense.mul(t, h2, R), R)
            b = dense.sub(b, [1], R)
            c, d = dense.divmod(dense.mul(t, b, R), g2, R)
            t = dense.sub(t, d, R)
            ds = dense.add(dense.mul(s, b, R), dense.mul(c, h2, R), R)
            s = dense.sub(s, ds, R)
        g, h = g2, h2
    return g, h


def _lift_list(f, factors, p, k):
    """Given f = lc(f) * prod(factors) mod p (factors monic, coprime),
    return monic lifts mod p^k with f = lc * prod mod p^k.

    A factor tree (von zur Gathen & Gerhard, Alg. 15.17): the factors
    split into two runs of about equal total degree, the pair of run
    products is lifted, and each run recurses with its lifted product as
    f.  Monic lifts mod p^k are unique, so the lifts do not depend on the
    shape of the tree."""
    if len(factors) == 1:
        m = p ** k
        inv = pow(f[-1], -1, m)
        return [dense.trim([c * inv % m for c in f])]
    F = GF(p)
    total = sum(len(q) - 1 for q in factors)
    s, left = 0, 0
    while s < len(factors) - 1 and 2 * left < total:
        left += len(factors[s]) - 1
        s += 1
    g, h = [1], [f[-1] % p]
    for q in factors[:s]:
        g = dense.mul(g, q, F)
    for q in factors[s:]:
        h = dense.mul(h, q, F)
    g2, h2 = _lift_quadratic(f, g, h, p, k)
    return (_lift_list(g2, factors[:s], p, k)
            + _lift_list(h2, factors[s:], p, k))


def _symmetric(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _exact_quotient(f, g):
    """f / g in Z[x], or None as soon as a quotient coefficient is not an
    integer or the remainder is not zero.  For primitive g this accepts
    exactly the g that divide f in Q[x] (Gauss's lemma)."""
    if f and g[0] and f[0] % g[0]:
        return None
    n = len(g) - 1
    lc = g[-1]
    r = list(f)
    q = [0] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + n]
        if c:
            if c % lc:
                return None
            c //= lc
            q[k] = c
            for j in range(n):
                r[k + j] -= c * g[j]
    if any(r[:n]):
        return None
    return q


def _quo(f, g):
    """f / g in Z[x] for a primitive g that divides f in Q[x], which is
    exact by Gauss's lemma; InternalInvariantViolation if it is not."""
    q = _exact_quotient(f, g)
    if q is None:
        raise InternalInvariantViolation("division was not exact")
    return q


def primitive_gcd_cofactors(polys):
    """(g, [f / g for f in polys]) for integer polys, not all zero: g is
    their primitive gcd with positive lc, and each quotient is exact in
    Z[x]."""
    g = []
    for f in polys:
        g = _primitive_gcd(g, f)
    return g, [_quo(f, g) for f in polys]


def _squarefree_int(f):
    """Yun's squarefree decomposition over Z of a primitive f with lc > 0:
    the list of (primitive squarefree part of positive lc, multiplicity)
    whose product of powers is f.  The gcds are primitive, so each
    division is exact in Z[x] (Gauss's lemma)."""
    if len(f) < 2:
        return []
    df = dense.derivative(f, ZZ)
    g = _primitive_gcd(f, df)
    b, c = _quo(f, g), _quo(df, g)
    d = dense.sub(c, dense.derivative(b, ZZ), ZZ)
    out = []
    i = 1
    while len(b) > 1:
        a = _primitive_gcd(b, d) if d else b
        if len(a) > 1:
            out.append((a, i))
        b, c = _quo(b, a), _quo(d, a)
        d = dense.sub(c, dense.derivative(b, ZZ), ZZ)
        i += 1
    return out


# On the norms of the property benchmark workload (seeds 1-3, degrees
# 4-20), |lc f| times the largest coefficient of every factor found has at
# most 8 bits, while twice the Mignotte bound of f has 35-37 bits in the
# median.  So the first lift stops at p^k > 2^16.
_WORKING_PRECISION = 2 ** 16


def _recombine(f, lifted, m):
    """Recombine the monic lifts mod m of the modular factors of f.

    Subsets of the lifts, smallest first, are multiplied by the leading
    coefficient of the cofactor, reduced to symmetric residues mod m and
    kept when their primitive part divides the cofactor exactly over Z.
    Returns (piece, s) pairs whose product is f: each factor found with
    the number s of lifts it used, then the cofactor left over with the
    number of lifts left.  Every piece divides f; each is irreducible
    once m exceeds twice the Mignotte bound of f, and otherwise when
    _proves_irreducible says so."""
    out = []
    current = list(f)
    pool = list(lifted)
    size = 1
    while 2 * size <= len(pool):
        found = True
        while found:
            found = False
            for combo in combinations(range(len(pool)), size):
                cand = [current[-1] % m]
                for idx in combo:
                    cand = [c % m for c in dense.mul(cand, pool[idx], ZZ)]
                cand_pp = _primitive([_symmetric(c, m) for c in cand])
                if not cand_pp:
                    continue
                # current and cand_pp are primitive, so is the quotient
                q = _exact_quotient(current, cand_pp)
                if q is not None:
                    out.append((cand_pp, size))
                    current = q
                    pool = [g for i, g in enumerate(pool) if i not in combo]
                    found = True
                    break
            if 2 * size > len(pool):
                break
        size += 1
    # the pool is never empty here, so the cofactor is not constant
    return out + [(current, len(pool))]


def _proves_irreducible(g, lifts, lc, m):
    """Whether a piece g of _recombine(f, lifted, m), made of `lifts`
    lifted factors, is irreducible; lc is lc(f).

    One lift: g mod p is a unit times one irreducible modular factor, and
    p does not divide lc(g).  More lifts: take a proper factor h of g
    with positive lc, and when g is the cofactor the one of h and g/h
    that uses at most half of its lifts.  Then |h|_inf < 2^deg(g) |g|_2
    (Mignotte), and every cofactor a candidate was formed against has an
    lc dividing lc.  So when m > 2 |lc| 2^deg(g) |g|_2, the candidate of
    the lifts of h was exactly a multiple of h, tried at a smaller
    subset size than g was formed at, and h would have been split off."""
    if lifts == 1:
        return True
    # m > 2 |lc| 2^n |g|_2, squared to stay on the integers
    return m * m > 4 * lc * lc * 4 ** (len(g) - 1) * sum(c * c for c in g)


def _lift_and_recombine(f, modular, p, bound):
    """(m, pieces): the lifts of the modular factors of f to the smallest
    m = p^k > bound, recombined."""
    k, m = 1, p
    while m <= bound:
        k, m = k + 1, m * p
    return m, _recombine(f, _lift_list(f, modular, p, k), m)


def _factor_squarefree_int(f):
    """Irreducible integer factors of a primitive squarefree int poly, lc > 0.

    Early factor detection (Abbott, Shoup & Zimmermann, ISSAC 2000; von
    zur Gathen & Gerhard, Modern Computer Algebra, 15.6): the lift first
    goes to a working precision, and what recombination finds there is
    kept when that precision is already above twice the Mignotte bound
    of f or every piece is proved irreducible by its own bound.
    Otherwise the lift goes again from p to the full bound, where
    recombination is complete: at most two precisions per call."""
    if len(f) - 1 == 1:
        return [f]
    p = _good_prime(f)
    fbar = dense.monic([c % p for c in f], GF(p))
    modular = sorted(gfp_factor_squarefree(fbar, p), key=lambda g: (len(g), g))
    if len(modular) == 1:
        return [f]
    full = 2 * _mignotte_bound(f)
    m, pieces = _lift_and_recombine(f, modular, p,
                                    min(full, _WORKING_PRECISION))
    if m <= full and not all(_proves_irreducible(g, s, f[-1], m)
                             for g, s in pieces):
        _, pieces = _lift_and_recombine(f, modular, p, full)
    return [g for g, _ in pieces]


class RatFactorization:
    """content * prod(factor^mult) reconstructs the input exactly."""

    def __init__(self, content, factors):
        self.content = Fr(content)
        self.factors = list(factors)

    def expand(self):
        out = RatPoly.const(self.content)
        for f, m in self.factors:
            out = out * f ** m
        return out

    def __repr__(self):
        return "RatFactorization(%s, %s)" % (self.content, self.factors)

    def __eq__(self, other):
        return (isinstance(other, RatFactorization)
                and self.content == other.content
                and self.factors == other.factors)


def rp_factor(p):
    """Complete factorization over Q into monic irreducibles.

    Returns a RatFactorization; factors are sorted by (degree,
    coefficient sequence) and pairwise distinct.
    """
    if p.is_zero:
        raise DegenerateInput("cannot factor the zero polynomial")
    found = {}
    for sf, mult in _squarefree_int(p.primitive_int()):
        for g in _factor_squarefree_int(sf):
            gm = tuple(dense.monic([Fr(c) for c in g], QQ))
            found[gm] = found.get(gm, 0) + mult
    factors = sorted(((_wrap(c), m) for c, m in found.items()),
                     key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return RatFactorization(p.lc, factors)


def rp_is_irreducible(p):
    if p.degree < 1:
        return False
    fac = rp_factor(p)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1
