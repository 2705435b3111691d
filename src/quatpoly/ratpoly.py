"""Dense polynomials over Q: gcd, resultants, Sturm counting, factoring.

A RatPoly holds integer coefficients, ascending with no trailing zeros,
over one denominator; its arithmetic, division included, runs on them.
Degrees here never exceed a few dozen, so everything is kept dense.

Division and Sturm counting run on one integer pseudo-division loop,
which scales nothing when the divisor's lc is +-1.  The remainder-only
callers (%, which reduces every NFElement, the Sturm sequence and the
remainder sequence of the gcd) take its remainder alone; divmod
collects the quotient from the terms the same loop records.  The
gcd over Z (made monic over Q by rp_gcd) is the heuristic GCDHEU: the
integer gcd of the values of both inputs at one large point, read back
as a polynomial from its symmetric digits and kept only when it divides
both exactly, which proves it is the gcd; after _HEU_TRIES points it
falls back to the primitive remainder sequence on the pseudo-division.
Factoring (rp_factor) runs entirely over Z on the primitive integer part
of its input: Yun's squarefree decomposition with these gcds and exact
integer division, then Zassenhaus' method on each squarefree part.  The
prime p is the smallest odd one with f squarefree of full degree mod p (a
gcd over GF(p), no resultant); distinct-degree and equal-degree splitting
mod p, where the linear factors of a small p are found as the roots of f
by evaluation at every residue, and the other parts split for odd p by
the probes x + c, whose (p^d-1)/2 powers are (p-1)/2 powers of products
of the Frobenius powers distinct-degree splitting has computed, and by
Cantor-Zassenhaus random splitting when no probe splits; Hensel
lifting, where each root is lifted by scalar Newton steps and divided
out, and only the nonlinear factors go through one multifactor quadratic
lift, which lifts them all together with one inverse of f' mod f,
from an extended Euclid over GF(p) that keeps a single cofactor; and
recombination of subsets of the lifted factors by integer trial
division, which stops at the first non-integral quotient coefficient.
The lift first goes to a working precision p^k > 2^16 and keeps what
recombination finds when each factor is proved irreducible by its own
Mignotte bound; each piece left unproved is then factored alone, from
its own modular factors, at p^k above twice its own Mignotte bound.
Each irreducible factor is made monic over Q once, at the end.  The
factoring over GF(p), gfp_factor_squarefree, takes squarefree input
only; it also splits the minimal polynomials in the idempotent split of
maxorder.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from . import dense
from .dense import GF, ZZ
from .errors import (DegenerateInput, InternalInvariantViolation,
                     NotSquarefree)
from .intarith import is_prime

Fr = Fraction
# the one type from_int_list takes without clearing denominators: a bool
# or a Fraction entry takes the general path
_INT = {int}


def from_int_list(ic, den=1):
    """The RatPoly ic / den in lowest terms, for a list or tuple ic of
    ints or Fractions and a nonzero int or Fraction den: ic is trimmed,
    its Fractions and den's are cleared by one common multiple, and the
    gcd of den and every entry is divided out, with den > 0.  When den
    and every entry are ints, as on integer kernel output, there is
    nothing to clear and that pass is skipped.  The one reduction of
    RatPoly and QPoly."""
    n = len(ic)
    while n and not ic[n - 1]:
        n -= 1
    num = ic[:n]
    if type(den) is not int or not {*map(type, num)} <= _INT:
        m = math.lcm(den.denominator, *[c.denominator for c in num])
        den = den.numerator * (m // den.denominator)
        num = [c.numerator * (m // c.denominator) for c in num]
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        den, num = den // g, [c // g for c in num]
    out = object.__new__(RatPoly)
    out.den, out.num = den, tuple(num)
    return out


class RatPoly(dense.RingElement):
    """A polynomial over Q, ascending degree.  It holds an integer tuple
    num over one positive denominator den, with gcd(den, every entry) = 1
    and num trimmed, so equal polynomials have equal (den, num); the
    Fraction coefficients are built on access.  -, the reflected
    operands, **, == and hash come from dense.RingElement; it has no /."""

    __slots__ = ("den", "num")

    def __init__(self, coeffs=()):
        p = from_int_list(list(coeffs))
        self.den, self.num = p.den, p.num

    @classmethod
    def const(cls, c):
        return from_int_list([c])

    @property
    def coeffs(self):
        return tuple([Fr(c, self.den) for c in self.num])

    @property
    def degree(self):
        return len(self.num) - 1

    @property
    def is_zero(self):
        return not self.num

    @property
    def lc(self):
        if not self.num:
            raise DegenerateInput("zero polynomial has no leading coefficient")
        return Fr(self.num[-1], self.den)

    @property
    def is_monic(self):
        return bool(self.num) and self.num[-1] == self.den

    def __getitem__(self, i):
        return Fr(self.num[i], self.den) if 0 <= i < len(self.num) else Fr(0)

    def _coerce(self, other):
        """other as a RatPoly, for a RatPoly, an int or a Fraction; else
        None."""
        if isinstance(other, (int, Fraction)):
            return from_int_list([other])
        return other if isinstance(other, RatPoly) else None

    def _key(self):
        """(den, num); a constant's is its value, an int or Fraction."""
        num = self.num
        if len(num) > 1:
            return self.den, num
        return Fr(num[0], self.den) if num else 0

    def __bool__(self):
        return bool(self.num)

    def __neg__(self):
        return from_int_list([-c for c in self.num], self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return from_int_list(dense.add(dense.scale(self.num, other.den, ZZ),
                                       dense.scale(other.num, self.den, ZZ),
                                       ZZ), self.den * other.den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return from_int_list(dense.mul(self.num, other.num, ZZ),
                             self.den * other.den)

    def __divmod__(self, other):
        """On the integers: s*f = q*g + r for the numerators f, g of self
        and other, so self = (q*dg / (s*df)) * other + r / (s*df)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DegenerateInput("division by zero polynomial")
        s, q, r = _pseudo_divmod(self.num, other.num)
        d = s * self.den
        return (from_int_list(dense.scale(q, other.den, ZZ), d),
                from_int_list(r, d))

    def __mod__(self, other):
        """The r / (s*df) of __divmod__, from the remainder alone."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DegenerateInput("division by zero polynomial")
        s, r = _pseudo_rem(self.num, other.num)
        return from_int_list(r, s * self.den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise DegenerateInput("inexact polynomial division")
        return q

    def monic(self):
        return from_int_list(self.num, self.num[-1] if self.num else 1)

    def derivative(self):
        return from_int_list(dense.derivative(self.num, ZZ), self.den)

    def __call__(self, v):
        return dense.evaluate(self.num, v, ZZ) / Fr(self.den)

    def primitive_int(self):
        """Primitive integer poly with positive lc in the same Q*-class."""
        return _primitive(self.num)

    def __repr__(self):
        return "RatPoly([%s])" % ", ".join(
            [dense.rational_text(c, self.den) for c in self.num])

    def __str__(self):
        return dense.format_terms([dense.rational_text(c, self.den)
                                   for c in self.num])


def _content(f):
    """The integer content of f with the sign of its lc; 0 for f = []."""
    g = math.gcd(*f)
    return -g if f and f[-1] < 0 else g


def _primitive(f):
    """f divided by its integer content, with positive lc; [] for f = []."""
    g = _content(f)
    return [c // g for c in f] if g else []


def _pseudo_rem(f, g, steps=None):
    """(s, r) with s*f = q*g + r in Z[x] and deg r < deg g, for g != 0 and
    some q: each step scales by |lc(g)| instead of dividing by lc(g), so
    s > 0 is a power of |lc(g)|, and nothing is scaled when |lc(g)| = 1.
    When steps is a list, each step appends its (k, c), the term c*x^k of
    q as it stood when taken."""
    n, a, u = len(g) - 1, abs(g[-1]), 1 if g[-1] > 0 else -1
    s, r = 1, list(f)
    while len(r) > n:
        c = u * r.pop()
        k = len(r) - n
        if a != 1:
            s, r = a * s, [a * b for b in r]
        if steps is not None:
            steps.append((k, c))
        for j in range(n):
            r[k + j] -= c * g[j]
        dense.trim(r)
    return s, r


def _pseudo_divmod(f, g):
    """(s, q, r) with s*f = q*g + r, the s and r of _pseudo_rem: each term
    of q is scaled by |lc(g)| once for every later step."""
    steps = []
    s, r = _pseudo_rem(f, g, steps)
    a, e = abs(g[-1]), len(steps)
    q = [0] * max(len(f) - len(g) + 1, 0)
    for k, c in steps:
        e -= 1
        q[k] = c * a ** e
    return s, q, r


# GCDHEU tries this many evaluation points before the remainder sequence
_HEU_TRIES = 6


def _heu_gcd(f, g):
    """(h, f/h, g/h) for h the gcd of primitive nonconstant f, g with
    positive lc by the heuristic gcd GCDHEU (Char, Geddes & Gonnet,
    J. Symbolic Comput. 7, 1989), or None when no point of _HEU_TRIES
    gives it.

    At an integer xi >= 2 min(|f|_inf, |g|_inf) + 2 the symmetric xi-adic
    digits of gcd(f(xi), g(xi)) are a candidate h.  When the primitive
    part of h divides both f and g it is their gcd (ibid.), so the exact
    division is the proof.  Otherwise xi grows by 73794/27011, about
    1 + sqrt(3), which keeps the bound."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    for _ in range(_HEU_TRIES):
        gam = math.gcd(dense.evaluate(f, xi, ZZ), dense.evaluate(g, xi, ZZ))
        h = []
        while gam:
            c = _symmetric(gam, xi)
            h.append(c)
            gam = (gam - c) // xi
        h = _primitive(h)
        qf = _exact_quotient(f, h)
        qg = None if qf is None else _exact_quotient(g, h)
        if qg is not None:
            return h, qf, qg
        xi = xi * 73794 // 27011
    return None


def _primitive_gcd(f, g):
    """(h, pp(f)/h, pp(g)/h) for h the primitive gcd with positive lc of
    integer polys f, g, not both zero, and pp(f), pp(g) their primitive
    parts with positive lc: GCDHEU when both are nonconstant, and when it
    gives up a primitive remainder sequence over Z (Collins 1967), where
    each pseudo-remainder is divided by its integer content."""
    f, g = _primitive(f), _primitive(g)
    if len(f) > 1 and len(g) > 1:
        out = _heu_gcd(f, g)
        if out is not None:
            return out
    h, r = f, g
    while r:
        h, r = r, _primitive(_pseudo_rem(h, r)[1])
    return h, _quo(f, h), _quo(g, h)


def rp_gcd(a, b):
    """Monic gcd in Q[x], by a primitive remainder sequence over Z."""
    if a.is_zero and b.is_zero:
        raise DegenerateInput("gcd(0, 0) is undefined")
    f = _primitive_gcd(a.primitive_int(), b.primitive_int())[0]
    return from_int_list(f, f[-1])


def resultant(f, g):
    """Res(f, g) over Q, computed by the Euclidean scheme."""
    if f.is_zero or g.is_zero:
        return Fr(0)
    if f.degree == 0:
        return f[0] ** g.degree
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
    return sign * res * b[0] ** a.degree


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
        r = _pseudo_rem(seq[-2], seq[-1])[1]
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
    return [(from_int_list(a, a[-1]), i)
            for a, i in _squarefree_int(p.primitive_int())]


# ---------------------------------------------------------------------------
# factoring in GF(p)[x]: polynomials as lists of ints in [0, p)

# Below this prime the linear factors mod p are read off the roots, found
# by evaluation at every residue; from it on the probes x + c of
# _probe_split find them, with random splitting when no probe splits.
# Evaluation costs p Horner passes, each probe or random split a
# (p-1)/2 powmod.  The bound was timed against random splitting alone, on
# 2 to 8 roots mod p: evaluation is 2.4 to 20 times faster at every prime
# below 64; for two roots it breaks even between 191 and 383, for three or
# more it is still faster at 383.  The probes now come first from 64 on.
# Below 64 the probes alone were slower: on the 291 gfp_factor_squarefree
# calls of one seed-1 batch per bench/ workload (primes 3 to 19), 0.0352 s
# with evaluation against 0.0398 s with probes alone, 13% more, for the
# same factors; no prime of 64 or more was in that timing.  On the
# three workloads of bench/, every prime gfp_factor_squarefree is called
# with is at most 29.
_ROOT_SEARCH_BOUND = 64


def _probe_split(f, d, p, frob, start):
    """(g, c + 1) for the first probe x + c, start <= c < p, that splits f
    into g and f/g, or (None, p) when none does; p odd.

    frob holds x^(p^i) mod f for 0 < i < d.  Mod an irreducible factor q
    of f, t = prod_{i<d} (x^(p^i) + c) is the norm of x + c from GF(p^d)
    to GF(p), (-1)^d q(-c), so t^((p-1)/2) - 1 vanishes mod q exactly when
    that norm is a nonzero square: the (p^d-1)/2 power of x + c at the
    cost of d - 1 products and a (p-1)/2 power."""
    F = GF(p)
    n = len(f) - 1
    for c in range(start, p):
        t = [c, 1]
        for h in frob:
            t = dense.rem(dense.mul(t, dense.add(h, [c], F), F), f, F)
        s = dense.sub(dense.powmod(t, (p - 1) // 2, f, F), [1], F)
        g = dense.gcd(s, f, F)
        if 0 < len(g) - 1 < n:
            return g, c + 1
    return None, p


class _LazyRandom:
    """The random.Random of gfp_factor_squarefree(f, p), seeded from
    (f, p) on its first draw: the roots and probes split most inputs
    alone, and those then pay no seeding."""

    __slots__ = ("f", "p", "rng")

    def __init__(self, f, p):
        self.f, self.p, self.rng = f, p, None

    def randrange(self, n):
        if self.rng is None:
            self.rng = random.Random((0, tuple(self.f), self.p).__hash__())
        return self.rng.randrange(n)


def _random_split(f, d, p, rng):
    """A proper factor of f from one random r (Cantor & Zassenhaus), or
    None when r does not split f."""
    F = GF(p)
    n = len(f) - 1
    r = dense.trim([rng.randrange(p) for _ in range(n)])
    if len(r) < 2:
        return None
    if p == 2:
        s = []
        t = dense.rem(r, f, F)
        for _ in range(d):
            s = dense.add(s, t, F)
            t = dense.powmod(t, 2, f, F)
    else:
        s = dense.sub(dense.powmod(r, (p ** d - 1) // 2, f, F), [1], F)
    g = dense.gcd(s, f, F)
    return g if 0 < len(g) - 1 < n else None


def _edf(f, d, p, rng, frob, c=0):
    """Equal-degree splitting of monic squarefree f into factors of degree
    d.  frob holds x^(p^i) mod a multiple of f for 0 < i < d; for odd p
    the probes x + c, x + c + 1, ... of _probe_split come first, and
    random splitting runs only when none of them splits f."""
    n = len(f) - 1
    if n == d:
        return [f]
    F = GF(p)
    if d == 1 and p < _ROOT_SEARCH_BOUND:
        return [[-r % p, 1] for r in range(p) if not dense.evaluate(f, r, F)]
    g = None
    if p > 2 and c < p:
        frob = [dense.rem(h, f, F) for h in frob]
        g, c = _probe_split(f, d, p, frob, c)
    while g is None:
        g = _random_split(f, d, p, rng)
    return (_edf(g, d, p, rng, frob, c)
            + _edf(dense.divmod(f, g, F)[0], d, p, rng, frob, c))


def gfp_factor_squarefree(f, p):
    """Irreducible factors of a monic squarefree poly over GF(p).

    Distinct-degree factorization, then equal-degree splitting of each
    part with the Frobenius powers x^(p^i) that the first computed (von
    zur Gathen & Shoup, Comput. Complexity 2, 1992); for p <
    _ROOT_SEARCH_BOUND the linear factors are x - r for the roots r of
    the degree-1 part, by evaluation at every residue."""
    rng = _LazyRandom(f, p)
    F = GF(p)
    out = []
    frob = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = dense.powmod(h, p, v, F)
        g = dense.gcd(dense.sub(h, [0, 1], F), v, F)
        if len(g) > 1:
            out.extend(_edf(g, d, p, rng, frob))
            v = dense.divmod(v, g, F)[0]
            h = dense.rem(h, v, F)
        frob.append(h)
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


def _lift_list(f, factors, p, k):
    """Given f = lc(f) * prod(factors) mod p (factors monic, coprime),
    return monic lifts mod p^k with f = lc * prod mod p^k.

    Multifactor quadratic Hensel lifting (von zur Gathen & Gerhard,
    Modern Computer Algebra, 15.5): all factors at once, each step from
    modulus m to M = min(m^2, p^k).  With e = (f - lc * prod)/m mod M/m
    and u = 1/f' mod f, each factor g gains m * (g' u e mod g): f' is lc
    times g' times the other factors mod g, so g' u inverts lc times the
    other factors mod g.  u is lifted by Newton's step u(2 - u f').  f is
    squarefree mod p, so u exists; monic lifts mod p^k are unique.  Z/M
    is GF(M) of dense.py, which is sound here because every divisor, f or
    a monic g, has a unit lc."""
    top = p ** k
    if len(factors) == 1:
        inv = pow(f[-1], -1, top)
        return [dense.trim([c * inv % top for c in f])]
    df = dense.derivative(f, ZZ)
    u = dense.inverse(dense.trim([c % p for c in df]), [c % p for c in f],
                      GF(p))
    m = p
    while m < top:
        M = min(m * m, top)
        Q = M // m
        R, S = GF(Q), GF(M)
        fM = [c % M for c in f]
        prod = [fM[-1]]
        for g in factors:
            prod = dense.mul(prod, g, S)
        e = [c // m for c in dense.sub(fM, prod, S)]
        w = dense.rem(dense.mul(dense.trim([c % Q for c in u]), e, R),
                      [c % Q for c in f], R)
        lifted = []
        for g in factors:
            gQ = [c % Q for c in g]
            d = dense.rem(dense.mul(dense.derivative(gQ, R),
                                    dense.rem(w, gQ, R), R), gQ, R)
            lifted.append(dense.add(g, [m * c for c in d], ZZ))
        factors = lifted
        if M < top:
            t = dense.mul(u, dense.trim([c % M for c in df]), S)
            t = dense.sub([2], dense.rem(t, fM, S), S)
            u = dense.rem(dense.mul(u, t, S), fM, S)
        m = M
    return factors


def _lift_root(f, r, p, k):
    """The root mod p^k of f over the simple root r of f mod p.

    Newton steps r <- r - f(r)/f'(r), each from modulus m to min(m^2,
    p^k) (von zur Gathen & Gerhard, Modern Computer Algebra, 9.4); f'(r)
    is a unit mod p because r is a simple root."""
    df = dense.derivative(f, ZZ)
    top = p ** k
    m = p
    while m < top:
        m = min(m * m, top)
        F = GF(m)
        r = F.red(r - dense.evaluate(f, r, F)
                  * F.inv(dense.evaluate(df, r, F)))
    return r


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
    for f in filter(None, polys):
        g = _primitive_gcd(g, f)[0] if g else _primitive(f)
    return g, [_quo(f, g) for f in polys]


def _squarefree_int(f):
    """Yun's squarefree decomposition over Z of a primitive f with lc > 0:
    the list of (primitive squarefree part of positive lc, multiplicity)
    whose product of powers is f.  Each gcd comes with the quotients
    _primitive_gcd proved, of the primitive parts: b is primitive with
    lc > 0, and the content of f' or d is multiplied back."""
    if len(f) < 2:
        return []
    df = dense.derivative(f, ZZ)
    _, b, c = _primitive_gcd(f, df)
    d = dense.sub(dense.scale(c, _content(df), ZZ),
                  dense.derivative(b, ZZ), ZZ)
    out = []
    i = 1
    while len(b) > 1:
        a, b, c = _primitive_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        d = dense.sub(dense.scale(c, _content(d), ZZ),
                      dense.derivative(b, ZZ), ZZ)
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
    m = p^k > bound, recombined; modular is sorted by degree.

    Each linear factor x - r is a simple root r of f mod p: _lift_root
    lifts it, and f mod m is divided by each lifted x - r.  Only the
    nonlinear factors go to _lift_list's one multifactor lift, against
    what is left of f.  Monic lifts mod m are unique, so these are the
    lifts _lift_list would give for all of them, in the same order."""
    k, m = 1, p
    while m <= bound:
        k, m = k + 1, m * p
    lifted = []
    rest = [c % m for c in f]
    for q in modular:
        if len(q) == 2:
            lifted.append([-_lift_root(rest, -q[0] % p, p, k) % m, 1])
            rest = dense.divmod(rest, lifted[-1], GF(m))[0]
    nonlinear = modular[len(lifted):]
    if nonlinear:
        lifted += _lift_list(rest, nonlinear, p, k)
    return m, _recombine(f, lifted, m)


def _factor_squarefree_int(f):
    """Irreducible integer factors of a primitive squarefree int poly, lc > 0.

    Early factor detection (Abbott, Shoup & Zimmermann, ISSAC 2000; von
    zur Gathen & Gerhard, Modern Computer Algebra, 15.6): the lift first
    goes to a working precision, and what recombination finds there is
    kept when that precision is already above twice the Mignotte bound
    of f or the piece is proved irreducible by its own bound.  Each
    piece left unproved is lifted again from p, with the modular factors
    that divide it, to above twice its own Mignotte bound, where
    recombination is complete."""
    if len(f) - 1 == 1:
        return [f]
    p = _good_prime(f)
    F = GF(p)
    fbar = dense.monic([c % p for c in f], F)
    modular = sorted(gfp_factor_squarefree(fbar, p), key=lambda g: (len(g), g))
    if len(modular) == 1:
        return [f]
    full = 2 * _mignotte_bound(f)
    m, pieces = _lift_and_recombine(f, modular, p,
                                    min(full, _WORKING_PRECISION))
    out = []
    for g, s in pieces:
        if m > full or _proves_irreducible(g, s, f[-1], m):
            out.append(g)
            continue
        gbar = [c % p for c in g]
        own = [q for q in modular if not dense.rem(gbar, q, F)]
        _, split = _lift_and_recombine(g, own, p, 2 * _mignotte_bound(g))
        out += [h for h, _ in split]
    return out


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
        c = self.content
        return "RatFactorization(%s, %s)" % (
            dense.rational_text(c.numerator, c.denominator), self.factors)

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
            gm = from_int_list(g, g[-1])
            found[gm] = found.get(gm, 0) + mult
    # the coefficients over one common denominator order them as rationals
    d = math.lcm(*[g.den for g in found])
    factors = sorted(found.items(), key=lambda fm: (
        fm[0].degree, [c * (d // fm[0].den) for c in fm[0].num]))
    return RatFactorization(p.lc, factors)


def rp_is_irreducible(p):
    if p.degree < 1:
        return False
    fac = rp_factor(p)
    return len(fac.factors) == 1 and fac.factors[0][1] == 1
