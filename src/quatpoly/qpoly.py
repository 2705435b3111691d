"""Unilateral polynomials over a division quaternion algebra.

The indeterminate is central, coefficients multiply powers of x from the
left, and all Euclidean structure (division, GCRD, LCLM) acts on the
right.  On top of the arithmetic sit the main algorithms: Beck
decomposition, irreducibility, factorization of a central irreducible p,
given as its NumberField Q[x]/(p), via a zero-divisor certificate, the
complete factorization loop, and root enumeration up to conjugacy.
"""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import zip_longest

from . import dense
from .coordpoly import (ZERO, coord_mul, coord_norm, cp_add, cp_mul,
                        cp_pseudo_divmod, cp_pseudo_rem, cp_scale)
from .dense import ZZ
from .errors import (AlgebraMismatch, DegenerateInput, DivisionByZero,
                     InternalInvariantViolation, PreconditionViolation)
from .numberfield import NumberField, nf_splits_quaternion
from .quadform import (find_zero_divisor, search_zero_divisor,
                       subfield_zero_divisor)
from .quatalg import (Quaternion, coord_text, is_conjugate, make_quaternion,
                      q_inv)
from .ratpoly import (RatPoly, from_int_list, primitive_gcd_cofactors,
                      rp_factor, rp_is_irreducible)


def _make(A, den, P, out=None):
    """The QPoly over A equal to P / den, for kernel output P (a list of
    4-tuples, entries int or Fraction) and a nonzero rational den, in
    from_int_list's lowest terms: zero top tuples dropped, and den and
    every entry divided by their gcd, signed so that den > 0.  When den
    and every entry are ints, that is one gcd and a division tuple by
    tuple; Fraction or bool data take from_int_list's clearing pass on
    the flat list of coordinates, which is cut back into 4-tuples.  out,
    when given, is the QPoly being constructed."""
    flat = [c for a in P for c in a]
    if type(den) is int and {*map(type, flat)} <= {int}:
        g = math.gcd(den, *flat)
        if den < 0:
            g = -g
        n = len(P)
        while n and not any(P[n - 1]):
            n -= 1
        if g == 1:
            num = tuple(P[:n])
        else:
            den, num = den // g, tuple([(t // g, x // g, y // g, z // g)
                                        for t, x, y, z in P[:n]])
    else:
        r = from_int_list(flat, den)
        den, num = r.den, tuple(list(zip_longest(*[iter(r.num)] * 4,
                                                 fillvalue=0)))
    out = object.__new__(QPoly) if out is None else out
    object.__setattr__(out, "parent", A)
    object.__setattr__(out, "den", den)
    object.__setattr__(out, "num", num)
    return out


def _columns(P):
    """The four coordinate columns of the kernel tuples P, trimmed."""
    return [dense.trim([a[i] for a in P]) for i in range(4)]


def _quaternion(A, den, a):
    """The Quaternion a / den, for a coefficient a of a QPoly over den."""
    return make_quaternion(A, tuple([Fraction(c, den) for c in a]))


class QPoly(dense.RingElement):
    """Polynomial over a quaternion algebra, ascending degree.  It holds
    integer coordinate 4-tuples num over one positive denominator den,
    with gcd(den, every entry) = 1 and num trimmed, so equal polynomials
    have equal (den, num); the Quaternion coefficients are built on
    access.  -, the reflected operands, **, == and hash come from
    dense.RingElement; it has no /."""

    __slots__ = ("parent", "den", "num")

    def __init__(self, parent, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, Quaternion):
                raise DegenerateInput("coefficients must be quaternions")
            if c.parent != parent:
                raise AlgebraMismatch("coefficient from a different algebra")
        _make(parent, 1, [c.coords for c in coeffs], self)

    def __setattr__(self, *args):
        raise AttributeError("QPoly is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_kernel(cls, A, den, P):
        """The QPoly P / den, for kernel output P (a list of 4-tuples,
        entries int or Fraction) and a nonzero rational den, brought to
        lowest terms once."""
        return _make(A, den, P)

    @classmethod
    def from_ratpoly(cls, A, p):
        return _make(A, p.den, [(c, 0, 0, 0) for c in p.num])

    @classmethod
    def from_coordinates(cls, A, coords):
        den = math.lcm(*[c.den for c in coords])
        return _make(A, den, list(zip_longest(
            *[[a * (den // c.den) for a in c.num] for c in coords],
            fillvalue=0)))

    @classmethod
    def x(cls, A):
        return _make(A, 1, [ZERO, (1, 0, 0, 0)])

    # -- structure ---------------------------------------------------------
    @property
    def coeffs(self):
        return tuple([_quaternion(self.parent, self.den, a)
                      for a in self.num])

    @property
    def is_zero(self):
        return not self.num

    @property
    def degree(self):
        return len(self.num) - 1

    @property
    def lc(self):
        if not self.num:
            raise DegenerateInput("zero polynomial has no leading coefficient")
        return _quaternion(self.parent, self.den, self.num[-1])

    @property
    def is_monic(self):
        return bool(self.num) and self.num[-1] == (self.den, 0, 0, 0)

    def __getitem__(self, m):
        if 0 <= m < len(self.num):
            return _quaternion(self.parent, self.den, self.num[m])
        return self.parent.zero()

    def coordinates(self):
        """The four RatPoly coordinates with respect to 1, i, j, k."""
        return tuple([from_int_list(c, self.den) for c in _columns(self.num)])

    @property
    def is_central(self):
        return not any(a[1] or a[2] or a[3] for a in self.num)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QPoly):
            if other.parent != self.parent:
                raise AlgebraMismatch("polynomials over different algebras")
            return other
        if isinstance(other, Quaternion):
            return QPoly(self.parent, [other])
        if isinstance(other, (int, Fraction)):
            return _make(self.parent, 1, [(other, 0, 0, 0)])
        if isinstance(other, RatPoly):
            return QPoly.from_ratpoly(self.parent, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        dp, dq = self.den, other.den
        den = math.lcm(dp, dq)
        return _make(self.parent, den, cp_add(cp_scale(den // dp, self.num),
                                              cp_scale(den // dq, other.num)))

    def __neg__(self):
        return _make(self.parent, self.den,
                     [(-t, -x, -y, -z) for t, x, y, z in self.num])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        A = self.parent
        return _make(A, self.den * other.den,
                     cp_mul(A.alpha, A.beta, self.num, other.num))

    def _key(self):
        """(den, num); a central polynomial's is its RatPoly's, and a
        constant's its Quaternion's."""
        if self.is_central:
            return from_int_list([a[0] for a in self.num], self.den)._key()
        if len(self.num) == 1:
            return self.lc._key()
        return self.den, self.num

    def monic(self):
        """lc^-1 * self (left normalization): conj(lc) * self / N(lc) on
        the coordinates, in which den cancels."""
        if self.is_zero:
            raise DegenerateInput("zero polynomial cannot be made monic")
        al, be = self.parent.alpha, self.parent.beta
        t, x, y, z = lc = self.num[-1]
        return _make(self.parent, coord_norm(al, be, lc),
                     [coord_mul(al, be, (t, -x, -y, -z), a)
                      for a in self.num])

    def __str__(self):
        return format_qpoly(self)

    def __repr__(self):
        return "QPoly(%s)" % (self,)


def format_qpoly(p):
    """Canonical display: descending powers, coefficients parenthesized
    exactly when they are not rational scalars; read off (den, num)."""
    d = p.den
    return dense.format_terms([coord_text(a, d) if a[1:] == (0, 0, 0)
                               else "(%s)" % coord_text(a, d)
                               for a in p.num])


def qp_conj(p):
    """Coefficient-wise standard involution."""
    return _make(p.parent, p.den, [(t, -x, -y, -z) for t, x, y, z in p.num])


def qp_norm(p):
    """N(p) = p * conj(p), central, returned as a RatPoly: the formula
    c0^2 - al*c1^2 - be*c2^2 + al*be*c3^2 on the integer coordinates of
    den*p, checked against the kernel product den*p * conj(den*p)."""
    al, be = p.parent.alpha, p.parent.beta
    den, P = p.den, p.num
    c0, c1, c2, c3 = _columns(P)
    n = dense.mul(c0, c0, ZZ)
    for c, w in ((c1, -al), (c2, -be), (c3, al * be)):
        n = dense.add(n, dense.scale(dense.mul(c, c, ZZ), w, ZZ), ZZ)
    prod = cp_mul(al, be, P, [(t, -x, -y, -z) for t, x, y, z in P])
    if any(c[1] or c[2] or c[3] for c in prod) or \
            dense.trim([c[0] for c in prod]) != n:
        raise InternalInvariantViolation("norm is not central")
    return from_int_list(n, den * den)


def _divisor_ab(d):
    """alpha and beta of the algebra of d, for a right division by d; a
    zero d is a DivisionByZero."""
    if d.is_zero:
        raise DivisionByZero("right division by the zero polynomial")
    return d.parent.alpha, d.parent.beta


def qp_right_divmod(p, d):
    """(quot, rem) with p = quot*d + rem and deg rem < deg d."""
    s, Q, R = cp_pseudo_divmod(*_divisor_ab(d), p.num, d.num)
    # s*dp*p = (dd*Q)*d + R, with dp and dd the denominators of p and d
    return (_make(p.parent, s * p.den, cp_scale(d.den, Q)),
            _make(p.parent, s * p.den, R))


def _right_rem(p, d):
    """(den, R): the rem of qp_right_divmod(p, d) is R / den, for the
    kernel remainder R, with no quotient built."""
    s, R = cp_pseudo_rem(*_divisor_ab(d), p.num, d.num)
    return s * p.den, R


def qp_exact_right_div(p, d):
    q, r = qp_right_divmod(p, d)
    if not r.is_zero:
        raise InternalInvariantViolation("right division was not exact")
    return q


def _right_euclid(p, q):
    """(g, u, v, w): right Euclid on p, q ends with g = u*p + v*q, its
    last nonzero remainder, and w*p is their least common left multiple
    up to a unit."""
    A = p.parent
    one, zero = QPoly(A, [A.one()]), QPoly(A, [])
    r0, r1, u0, u1, v0, v1 = p, q, one, zero, zero, one
    while not r1.is_zero:
        quot, rem = qp_right_divmod(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, u0 - quot * u1
        v0, v1 = v1, v0 - quot * v1
    return r0, u0, v0, u1


def qp_gcrd_bezout(p, q):
    """(g, u, v) with u*p + v*q = g the monic GCRD."""
    if p.is_zero and q.is_zero:
        raise DegenerateInput("gcrd(0, 0) is undefined")
    g, u, v, _ = _right_euclid(p, q)
    c = QPoly(p.parent, [q_inv(g.lc)])
    return c * g, c * u, c * v


def qp_gcrd(p, q):
    """The monic GCRD, by the right Euclid of _right_euclid without its
    cofactors or quotients.  Each remainder is made primitive, divided by
    the gcd of its integer coordinates, a rational unit that leaves its
    right ideal as it is, so the coefficients do not grow step by step.
    Over an integral algebra the kernel remainder is made of ints, and
    one _make over that gcd gives it; over a rational one its Fractions
    are first cleared by a _make to lowest terms."""
    if p.is_zero and q.is_zero:
        raise DegenerateInput("gcrd(0, 0) is undefined")
    A = p.parent
    whole = {type(A.alpha), type(A.beta)} <= {int}
    while not q.is_zero:
        den, R = _right_rem(p, q)
        if not whole:
            R = _make(A, den, R).num
        p, q = q, _make(A, math.gcd(*[c for a in R for c in a]) or 1, R)
    return p.monic()


def qp_lclm(p, q):
    """The monic least common left multiple."""
    if p.is_zero or q.is_zero:
        raise DegenerateInput("lclm needs nonzero inputs")
    g, _, _, w = _right_euclid(p, q)
    m = (w * p).monic()
    if m.degree != p.degree + q.degree - g.degree:
        raise InternalInvariantViolation("lclm degree mismatch")
    return m


def qp_evaluate(p, a):
    """Sum c_m a^m: the remainder of right division by x - a, as x is
    central."""
    return _make(p.parent, *_right_rem(p, QPoly.x(p.parent) - a))[0]


# p = leading * central_free * central, uniquely
BeckDecomposition = namedtuple("BeckDecomposition",
                               "leading central_free central")


def _scalar_beck(p):
    """The Beck decomposition (lc, 1, p/lc) of a nonzero central p, read
    off its scalar column c over den, or None when p is not central.
    With p/lc = cen.num/cen.den, the check c[-1]*cen.num = cen.den*c is
    lc * 1 * (p/lc) = p on the coordinates, term by term."""
    if not p.is_central:
        return None
    c = [a[0] for a in p.num]
    cen = from_int_list(c, c[-1])
    if [c[-1] * t for t in cen.num] != [cen.den * t for t in c]:
        raise InternalInvariantViolation("Beck decomposition mismatch")
    return BeckDecomposition(p.lc, _make(p.parent, 1, [(1, 0, 0, 0)]), cen)


def beck_decompose(p):
    """p = lc(p) * q * cen, on the integer coordinates of the kernel.
    A central p is (lc, 1, p/lc), read off its scalar column by
    _scalar_beck.  Otherwise monic gives lc(p)^-1 * p as M/dm with
    integer tuples M; cen is the primitive gcd of M's coordinate columns
    and Q = M/cen column by column, exact by Gauss's lemma, so
    q = Q*lc(cen)/dm and the monic central part is cen/lc(cen).  With
    P = dp*p, the check P[-1]*(Q*cen) = dm*P is p = lc*q*cen on the
    coordinates."""
    if p.is_zero:
        raise DegenerateInput("cannot decompose the zero polynomial")
    b = _scalar_beck(p)
    if b is not None:
        return b
    A = p.parent
    al, be = A.alpha, A.beta
    m = p.monic()
    cen, cols = primitive_gcd_cofactors(_columns(m.num))
    Q = list(zip_longest(*cols, fillvalue=0))
    QC = cp_mul(al, be, Q, [(c, 0, 0, 0) for c in cen])
    if cp_mul(al, be, [p.num[-1]], QC) != cp_scale(m.den, p.num):
        raise InternalInvariantViolation("Beck decomposition mismatch")
    q = _make(A, m.den, cp_scale(cen[-1], Q))
    return BeckDecomposition(p.lc, q, from_int_list(cen, cen[-1]))


def _splits(L, A, cert=None):
    """Whether the central irreducible minimal polynomial p of L splits
    in A[x], that is, whether A (x) L is a split algebra: the one rule of
    factor_central_irreducible and is_irreducible, taken in this order.
    An odd degree never splits: at a prime where A ramifies, the local
    degrees e*f of the places of L above it sum to deg p, so one of them
    is odd and A (x) L stays a division algebra there.  A cert that
    matches A and p (ZeroDivisorCertificate.matches) proves a split, as
    its nonzero element of norm 0 has no inverse in A (x) L.  Otherwise
    nf_splits_quaternion decides."""
    al, be = A.alpha, A.beta
    if L.degree % 2 == 1:
        return False
    if cert is not None and cert.matches(al, be, L.minpoly):
        return True
    return nf_splits_quaternion(al, be, L)


def is_irreducible(p):
    """Irreducibility in A[x], by the trichotomy on the Beck decomposition."""
    if p.is_zero or p.degree < 1:
        raise DegenerateInput("irreducibility needs positive degree")
    b = beck_decompose(p)
    cen_deg = b.central.degree
    free_deg = b.central_free.degree
    if cen_deg >= 1 and free_deg >= 1:
        return False
    if free_deg == 0:
        # central polynomial: NumberField rejects it unless irreducible
        try:
            L = NumberField(b.central)
        except DegenerateInput:
            return False
        return not _splits(L, p.parent)
    # no central part: irreducible iff the norm is irreducible over Q
    return rp_is_irreducible(qp_norm(b.central_free))


class Factorization:
    """leading * factors[0] * ... * factors[-1] = the input, exactly."""

    def __init__(self, leading, factors):
        self.leading = leading
        self.factors = list(factors)

    def expand(self):
        """The product leading * factors[0] * ... * factors[-1]."""
        out = _make(self.leading.parent, 1, [self.leading.coords])
        for f in self.factors:
            out = out * f
        return out

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def _check_field(L):
    if not isinstance(L, NumberField):
        raise PreconditionViolation(
            "the central factor must come as its NumberField, got %r" % (L,))


def subfield_factor(L, A):
    """Split the minimal polynomial p of L = Q[x]/(p), of degree >= 2, as
    conj(q) * q over an embedded quadratic subfield, or None when no
    subfield works: conj(q) is the zero divisor of subfield_zero_divisor,
    cut by _halves."""
    _check_field(L)
    if L.degree < 2:
        raise PreconditionViolation("the field must have degree >= 2")
    zd = subfield_zero_divisor(A.alpha, A.beta, L)
    return None if zd is None else _halves(A, zd)[1]


def _halves(A, zd):
    """(z, (f, conj f)): the zero divisor of the certificate zd for
    A (x) Q[x]/(p), reduced mod p and read as a polynomial z, and the
    halves f conj(f) = P = p.  z is neither 0 nor a unit mod p, so
    z A[x] + p A[x] lies strictly between p A[x] and A[x]: its monic
    generator f, the greatest common left divisor of z and p, has norm p.
    As p is central and rational, f is conj(GCRD(conj z, p))."""
    p = zd.minpoly
    z = QPoly.from_coordinates(A, [qi % p for qi in zd.q])
    P = QPoly.from_ratpoly(A, p)
    fbar = qp_gcrd(qp_conj(z), P)
    f = qp_conj(fbar)
    # a divisor of the wrong degree has norm 1 or p^2, not p
    if f * fbar != P:
        raise InternalInvariantViolation("halves do not multiply back to p")
    return z, (f, fbar)


def factor_central_irreducible(L, A, cert=None, seed=0, max_height=20):
    """Algorithm for the central irreducible minimal polynomial p of
    L = Q[x]/(p): either p stays irreducible or it splits into a
    conjugate pair of half-degree factors.  L is NumberField(p), whose
    constructor tests p, or NumberField.unchecked(p) for a p already
    proved irreducible.  The zero divisor comes from a quadratic
    subfield, the certificate cert or the seeded search.

    Whether p splits at all is _splits(L, A, cert).  A cert that matches
    A and p stands in for the splitting test there; any other cert
    leaves the test in place, and when A (x) L splits and no quadratic
    subfield gives the halves, find_zero_divisor rejects it."""
    _check_field(L)
    p = L.minpoly
    if not _splits(L, A, cert):
        return Factorization(A.one(), [QPoly.from_ratpoly(A, p)])
    pair = subfield_factor(L, A)
    if pair is not None:
        return Factorization(A.one(), list(pair))
    # subfield_factor has ruled out find_zero_divisor's subfield layer
    if cert is not None:
        zd = find_zero_divisor(A.alpha, A.beta, L, cert=cert, seed=seed,
                               max_height=max_height)
    else:
        zd = search_zero_divisor(A.alpha, A.beta, L, seed=seed,
                                 max_height=max_height)
    z, pair = _halves(A, zd)
    out = Factorization(A.one(), list(pair))
    out.first_quotient = qp_norm(z).exact_div(p)
    return out


def factor(p, certs=None, seed=0, max_height=20):
    """Complete factorization into monic irreducibles with a leading
    coefficient.  certs maps a central irreducible RatPoly (hashable) to a
    ZeroDivisorCertificate for the hard search-free path.  The keys are
    looked up by the monic irreducible factors of rp_factor, so a
    certificate is found only under its monic minpoly."""
    if p.is_zero:
        raise DegenerateInput("cannot factor the zero polynomial")
    A = p.parent
    certs = certs or {}
    b = beck_decompose(p)
    out = []
    # rp_factor proves its factors irreducible: their fields need no test
    for r, e in rp_factor(b.central).factors:
        sub = factor_central_irreducible(
            NumberField.unchecked(r), A, cert=certs.get(r), seed=seed,
            max_height=max_height)
        for _ in range(e):
            out.extend(sub.factors)
    q = b.central_free
    if q.degree > 0:
        norm_factors = rp_factor(qp_norm(q)).factors
        head = []
        k = len(norm_factors) - 1
        eps = [e for _, e in norm_factors]
        while q.degree > 0:
            qk = norm_factors[k][0]
            r = qp_gcrd(q, QPoly.from_ratpoly(A, qk))
            if r.degree < 1:
                raise InternalInvariantViolation(
                    "norm factor yielded a trivial right divisor")
            head.insert(0, r)
            q = qp_exact_right_div(q, r)
            eps[k] -= 1
            if eps[k] == 0:
                k -= 1
        out = head + out
    result = Factorization(b.leading, out)
    if result.expand() != p:
        raise InternalInvariantViolation("factorization fails to multiply back")
    for f in result.factors:
        if not f.is_monic:
            raise InternalInvariantViolation("non-monic factor produced")
    return result


def roots(p):
    """A tuple of the roots of p, one per conjugacy class: rational roots
    of the central part, roots of its quadratic irreducible factors
    through an embedded subfield, and right roots extracted from the norm
    of the central-free part."""
    if p.is_zero:
        raise DegenerateInput("the zero polynomial has every root")
    A = p.parent
    b = beck_decompose(p)
    reps = []

    def push(a):
        for r in reps:
            if is_conjugate(r, a):
                return
        reps.append(a)

    # rp_factor sorts its factors by degree: the rational roots come first
    for r, _e in rp_factor(b.central).factors:
        if r.degree == 1:
            push(A.scalar(-r[0]))
        elif r.degree == 2:
            pair = subfield_factor(NumberField.unchecked(r), A)
            if pair is not None:
                if pair[0].degree != 1:
                    raise InternalInvariantViolation(
                        "quadratic split is not linear")
                push(-pair[0][0])
    q = b.central_free
    if q.degree > 0:
        for qj, _e in rp_factor(qp_norm(q)).factors:
            if qj.degree != 2:
                continue
            g = qp_gcrd(QPoly.from_ratpoly(A, qj), q)
            if g.degree != 1:
                raise InternalInvariantViolation(
                    "expected a linear common right divisor, got degree %d"
                    % g.degree)
            push(-g[0])
    for a in reps:
        if not qp_evaluate(p, a).is_zero:
            raise InternalInvariantViolation("representative is not a root")
    return tuple(reps)
