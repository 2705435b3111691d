"""Unilateral polynomials over a division quaternion algebra.

The indeterminate is central, coefficients multiply powers of x from the
left, and all Euclidean structure (division, GCRD, LCLM) acts on the
right.  On top of the arithmetic sit the main algorithms: Beck
decomposition, irreducibility, factorization of central irreducibles via
a zero-divisor certificate, the complete factorization loop, factor
reordering, and root enumeration up to conjugacy.
"""

from fractions import Fraction

from .coordpoly import (ZERO, cp_add, cp_mul, cp_primitive,
                        cp_pseudo_divmod, cp_scale, cp_scaled, cp_unscale)
from .errors import (AlgebraMismatch, DegenerateInput, DivisionByZero,
                     InternalInvariantViolation, PreconditionViolation,
                     SearchExhausted)
from .numberfield import (NumberField, nf_factor_over_quadratic,
                          nf_quadratic_subfields, nf_splits_quaternion,
                          nfp_mul)
from .quadform import find_zero_divisor, splits_in_quadratic
from .quatalg import (Quaternion, embed_quadratic, is_conjugate,
                      make_quaternion, q_inv)
from .ratpoly import RatPoly, rp_factor, rp_gcd, rp_is_irreducible, rp_xgcd

Fr = Fraction

_F0 = Fr(0)


def _tuples(p):
    return [c.coords for c in p.coeffs]


def _ab(A):
    """alpha and beta, as ints when integral so integer tuples stay ints."""
    return [c.numerator if c.denominator == 1 else c
            for c in (A.alpha, A.beta)]


def _wrap(A, P):
    """The QPoly over A of kernel output P (Fraction entries), trimmed,
    without the public constructor's checks."""
    while P and P[-1] == ZERO:
        P.pop()
    out = object.__new__(QPoly)
    object.__setattr__(out, "parent", A)
    object.__setattr__(out, "coeffs",
                       tuple([make_quaternion(A, c) for c in P]))
    return out


class QPoly:
    """Polynomial with Quaternion coefficients, ascending degree."""

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, Quaternion):
                raise DegenerateInput("coefficients must be quaternions")
            if c.parent != parent:
                raise AlgebraMismatch("coefficient from a different algebra")
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *args):
        raise AttributeError("QPoly is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_ratpoly(cls, A, p):
        return _wrap(A, [(c, _F0, _F0, _F0) for c in p.coeffs])

    @classmethod
    def from_coordinates(cls, A, coords):
        p0, p1, p2, p3 = coords
        n = max(len(p0.coeffs), len(p1.coeffs), len(p2.coeffs),
                len(p3.coeffs))
        return _wrap(A, [(p0[m], p1[m], p2[m], p3[m]) for m in range(n)])

    @classmethod
    def x(cls, A):
        return cls(A, [A.zero(), A.one()])

    # -- structure ---------------------------------------------------------
    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def lc(self):
        if not self.coeffs:
            raise DegenerateInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.lc.coords == (1, 0, 0, 0)

    def __getitem__(self, m):
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return self.parent.zero()

    def coordinates(self):
        """The four RatPoly coordinates with respect to 1, i, j, k."""
        out = []
        for pos in range(4):
            out.append(RatPoly([c.coords[pos] for c in self.coeffs]))
        return tuple(out)

    @property
    def is_central(self):
        return all(c.is_central for c in self.coeffs)

    # -- arithmetic --------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, QPoly):
            if other.parent != self.parent:
                raise AlgebraMismatch("polynomials over different algebras")
            return other
        if isinstance(other, Quaternion):
            return QPoly(self.parent, [other])
        if isinstance(other, (int, Fraction)):
            return QPoly(self.parent, [self.parent.scalar(other)])
        if isinstance(other, RatPoly):
            return QPoly.from_ratpoly(self.parent, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(self.parent, cp_add(_tuples(self), _tuples(other)))

    __radd__ = __add__

    def __neg__(self):
        return _wrap(self.parent,
                     [(-t, -x, -y, -z) for t, x, y, z in _tuples(self)])

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
        dp, P = cp_scaled(_tuples(self))
        dq, Q = cp_scaled(_tuples(other))
        return _wrap(A, cp_unscale(cp_mul(*_ab(A), P, Q), dp * dq))

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, n):
        out = QPoly(self.parent, [self.parent.one()])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (Quaternion, int, Fraction, RatPoly)):
            other = self._coerce(other)
        return (isinstance(other, QPoly) and self.parent == other.parent
                and _tuples(self) == _tuples(other))

    def __hash__(self):
        return hash((self.parent, self.coeffs))

    def monic(self):
        """lc^-1 * self (left normalization)."""
        if self.is_zero:
            raise DegenerateInput("zero polynomial cannot be made monic")
        return QPoly(self.parent, [q_inv(self.lc)]) * self

    def __str__(self):
        return format_qpoly(self)

    def __repr__(self):
        return "QPoly(%s)" % (self,)


def format_qpoly(p):
    """Canonical display: descending powers, coefficients parenthesized
    exactly when they are not rational scalars."""
    if p.is_zero:
        return "0"
    pieces = []
    for m in range(p.degree, -1, -1):
        c = p[m]
        if c.is_zero:
            continue
        if m == 0:
            xpart = None
        elif m == 1:
            xpart = "x"
        else:
            xpart = "x^%d" % m
        if c.is_central:
            s = c.coords[0]
            if xpart is None:
                body = str(s)
            elif s == 1:
                body = xpart
            elif s == -1:
                body = "-" + xpart
            else:
                body = "%s*%s" % (s, xpart)
        else:
            body = "(%s)" % c if xpart is None else "(%s)*%s" % (c, xpart)
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out


def qp_conj(p):
    """Coefficient-wise standard involution."""
    return _wrap(p.parent, [(t, -x, -y, -z) for t, x, y, z in _tuples(p)])


def qp_norm(p):
    """N(p) = p * conj(p), central, returned as a RatPoly."""
    al, be = p.parent.alpha, p.parent.beta
    p0, p1, p2, p3 = p.coordinates()
    n = p0 * p0 - al * (p1 * p1) - be * (p2 * p2) + al * be * (p3 * p3)
    if QPoly.from_ratpoly(p.parent, n) != p * qp_conj(p):
        raise InternalInvariantViolation("norm is not central")
    return n


def qp_right_divmod(p, d):
    """(quot, rem) with p = quot*d + rem and deg rem < deg d."""
    if d.is_zero:
        raise DivisionByZero("right division by the zero polynomial")
    A = p.parent
    (dp, P), (dd, D) = cp_scaled(_tuples(p)), cp_scaled(_tuples(d))
    s, Q, R = cp_pseudo_divmod(*_ab(A), P, D)
    # s*dp*p = (dd*Q)*d + R
    return (_wrap(A, cp_unscale(cp_scale(dd, Q), s * dp)),
            _wrap(A, cp_unscale(R, s * dp)))


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
    """The monic GCRD, by a primitive pseudo-remainder sequence over Z
    (Collins 1967): each pseudo-remainder is divided by the content of all
    its coordinates, which also clears denominators of alpha and beta."""
    if p.is_zero and q.is_zero:
        raise DegenerateInput("gcrd(0, 0) is undefined")
    al, be = _ab(p.parent)
    R, D = cp_primitive(_tuples(p)), cp_primitive(_tuples(q))
    while D:
        R, D = D, cp_primitive(cp_pseudo_divmod(al, be, R, D)[2])
    return _wrap(p.parent, cp_unscale(R, 1)).monic()


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
    """Sum c_m a^m; equals the remainder of right division by x - a."""
    out = p.parent.zero()
    pw = p.parent.one()
    for c in p.coeffs:
        out = out + c * pw
        pw = pw * a
    return out


class BeckDecomposition:
    """p = leading * central_free * central, uniquely."""

    def __init__(self, leading, central_free, central):
        self.leading = leading
        self.central_free = central_free
        self.central = central


def beck_decompose(p):
    if p.is_zero:
        raise DegenerateInput("cannot decompose the zero polynomial")
    A = p.parent
    c = p.lc
    m = QPoly(A, [q_inv(c)]) * p
    nonzero = [g for g in m.coordinates() if not g.is_zero]
    cen = nonzero[0]
    for g in nonzero[1:]:
        cen = rp_gcd(cen, g)
    q = qp_exact_right_div(m, QPoly.from_ratpoly(A, cen))
    if QPoly(A, [c]) * q * QPoly.from_ratpoly(A, cen) != p:
        raise InternalInvariantViolation("Beck decomposition mismatch")
    return BeckDecomposition(c, q, cen)


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
        # central polynomial
        if not rp_is_irreducible(b.central):
            return False
        if cen_deg == 1:
            return True
        if cen_deg % 2 == 1:
            # odd-degree quick exit: no quadratic subfield, never splits
            return True
        L = NumberField(b.central)
        return not nf_splits_quaternion(p.parent.alpha, p.parent.beta, L)
    # no central part: irreducible iff the norm is irreducible over Q
    return rp_is_irreducible(qp_norm(b.central_free))


class Factorization:
    """leading * factors[0] * ... * factors[-1] = the input, exactly."""

    def __init__(self, leading, factors):
        self.leading = leading
        self.factors = list(factors)

    def expand(self):
        out = QPoly(self.leading.parent, [self.leading])
        for f in self.factors:
            out = out * f
        return out

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def subfield_factor(p, A):
    """Split a central irreducible p as q * conj(q) over an embedded
    quadratic subfield, or None when no subfield works."""
    if not isinstance(p, RatPoly) or p.is_zero or not p.is_monic:
        raise PreconditionViolation("input must be monic in Q[x]")
    if p.degree < 2 or not rp_is_irreducible(p):
        raise PreconditionViolation(
            "input must be irreducible of degree >= 2")
    L = NumberField(p)
    for d in nf_quadratic_subfields(L):
        if not splits_in_quadratic(A.alpha, A.beta, Fr(d)):
            continue
        L2, parts = nf_factor_over_quadratic(p, d)
        if len(parts) == 1:
            continue
        g = parts[0]
        gbar = [L2.element((c.coords[0], -c.coords[1])) for c in g]
        prod = nfp_mul(g, gbar)
        if [c.coords for c in prod] != \
                [L2.from_rational(c).coords for c in p.coeffs]:
            raise InternalInvariantViolation(
                "conjugate halves fail to reconstruct the input")
        a = embed_quadratic(A, d)
        q = QPoly(A, [A.scalar(c.coords[0]) + c.coords[1] * a for c in g])
        qbar = qp_conj(q)
        if q * qbar != QPoly.from_ratpoly(A, p):
            raise InternalInvariantViolation("embedded halves mismatch")
        # the halves commute (coefficients lie in Q(a)), so either order
        # works; lead with the conjugate so x^2+1 comes out (x-i)(x+i)
        return qbar, q
    return None


def factor_central_irreducible(p, A, cert=None, seed=0, max_height=20):
    """Algorithm for a central irreducible p: either p stays irreducible
    or it splits into a conjugate pair of half-degree factors."""
    if not isinstance(p, RatPoly) or p.is_zero or not p.is_monic \
            or not rp_is_irreducible(p):
        raise PreconditionViolation("input must be monic irreducible in Q[x]")
    whole = Factorization(A.one(), [QPoly.from_ratpoly(A, p)])
    if p.degree % 2 == 1:
        return whole
    L = NumberField(p)
    if not nf_splits_quaternion(A.alpha, A.beta, L):
        return whole
    pair = subfield_factor(p, A)
    if pair is not None:
        return Factorization(A.one(), list(pair))
    zd = find_zero_divisor(A.alpha, A.beta, L, cert=cert, seed=seed,
                           max_height=max_height)
    q0, q1, q2, q3 = [qi % p for qi in zd.q]
    qp = QPoly.from_coordinates(A, (q0, q1, q2, q3))
    q = qp_norm(qp).exact_div(p)
    first_q = q
    while q.degree > 0:
        qc = QPoly.from_ratpoly(A, q)
        _, r = qp_right_divmod(qp, qc)
        qp = qp_exact_right_div(qp * qp_conj(r), qc)
        # rescale by the rational content to tame coefficient growth
        qp = _wrap(A, cp_unscale(cp_primitive(_tuples(qp)), 1))
        newq = qp_norm(qp).exact_div(p)
        if newq.degree >= q.degree:
            raise InternalInvariantViolation(
                "degree failed to drop in the reduction loop")
        q = newq
    c = qp.lc
    f = qp * QPoly(A, [q_inv(c)])
    fbar = QPoly(A, [q_inv(c.conj())]) * qp_conj(qp)
    if f * fbar != QPoly.from_ratpoly(A, p):
        raise InternalInvariantViolation("halves do not multiply back to p")
    out = Factorization(A.one(), [f, fbar])
    out.first_quotient = first_q
    return out


def swap_factors(p, q):
    """(q1, p1) with q1*p1 = p*q, swapping irreducible factors with
    coprime norms while preserving both norms (Lemma on semicommutativity)."""
    if not (p.is_monic and q.is_monic):
        raise PreconditionViolation("factors must be monic")
    np, nq = qp_norm(p), qp_norm(q)
    g = rp_gcd(np, nq)
    if g.degree > 0:
        raise PreconditionViolation("norms must be relatively prime")
    if p.is_central or q.is_central:
        # a central factor commutes past anything
        return q, p
    # Bezout: a*np + 1 = b*nq
    _, u, v = rp_xgcd(np, nq)
    # u*np + v*nq = 1, so (-u)*np + 1 = v*nq
    qstar = qp_conj(q) * QPoly.from_ratpoly(q.parent, v)
    p1 = qp_exact_right_div(qp_lclm(p, qstar), qstar).monic()
    q1 = qp_exact_right_div(p * q, p1)
    if q1 * p1 != p * q or qp_norm(p1) != np or qp_norm(q1) != nq:
        raise InternalInvariantViolation("factor swap failed verification")
    return q1, p1


def factor(p, certs=None, seed=0, max_height=20):
    """Complete factorization into monic irreducibles with a leading
    coefficient.  certs maps a central irreducible RatPoly (hashable) to a
    ZeroDivisorCertificate for the hard search-free path."""
    if p.is_zero:
        raise DegenerateInput("cannot factor the zero polynomial")
    A = p.parent
    certs = certs or {}
    b = beck_decompose(p)
    out = []
    for r, e in rp_factor(b.central).factors:
        sub = factor_central_irreducible(
            r, A, cert=certs.get(r), seed=seed, max_height=max_height)
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


class RootSet:
    """One representative per conjugacy class of roots."""

    def __init__(self, representatives):
        self.representatives = list(representatives)

    def __iter__(self):
        return iter(self.representatives)

    def __len__(self):
        return len(self.representatives)


def roots(p):
    """Roots of p up to conjugacy: rational roots of the central part,
    roots of its quadratic irreducible factors through an embedded
    subfield, and right roots extracted from the norm of the central-free
    part."""
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

    central_factors = rp_factor(b.central).factors if b.central.degree > 0 \
        else []
    for r, _e in central_factors:
        if r.degree == 1:
            push(A.scalar(-r[0]))
    for r, _e in central_factors:
        if r.degree != 2:
            continue
        pair = subfield_factor(r, A)
        if pair is None:
            continue
        lin = pair[0]
        if lin.degree != 1:
            raise InternalInvariantViolation("quadratic split is not linear")
        push(-lin[0])
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
    return RootSet(reps)
