"""Rational quadratic forms: Hilbert symbols, isotropic vectors, and the
zero-divisor machinery for a quaternion algebra extended to a number field.

Ternary isotropy runs the classical Lagrange descent (square roots modulo
squarefree numbers via Tonelli-Shanks and CRT); quaternary isotropy looks
for a value represented by both binary halves.  Everything is exact.
"""

import json
import math
import random
from fractions import Fraction

from .errors import (DegenerateInput, InternalInvariantViolation,
                     InvalidCertificate, PreconditionViolation,
                     SearchExhausted, SplitAlgebra)
from .intarith import (factorint, legendre, sqrt_mod_squarefree,
                       squarefree_kernel, squarefree_part)
from .numberfield import INFINITE_PLACE, nf_quadratic_subfields, nf_sqrt
from .ratpoly import RatPoly

Fr = Fraction


# ---------------------------------------------------------------------------
# Hilbert symbols and ramification

def _val_unit(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a, b, place):
    """(a, b)_v for nonzero rationals: +1 iff z^2 = a x^2 + b y^2 has a
    nontrivial solution over the completion at the place."""
    a = Fr(a)
    b = Fr(b)
    if a == 0 or b == 0:
        raise DegenerateInput("Hilbert symbol needs nonzero entries")
    if place == INFINITE_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    sa = squarefree_kernel(a)
    sb = squarefree_kernel(b)
    if p == 2:
        al, u = _val_unit(abs(sa), 2)
        be, v = _val_unit(abs(sb), 2)
        u = u if sa > 0 else -u
        v = v if sb > 0 else -v
        eps_u = ((u - 1) // 2) % 2
        eps_v = ((v - 1) // 2) % 2
        om_u = ((u * u - 1) // 8) % 2
        om_v = ((v * v - 1) // 8) % 2
        e = eps_u * eps_v + al * om_v + be * om_u
        return -1 if e % 2 else 1
    al, u = _val_unit(abs(sa), p)
    be, v = _val_unit(abs(sb), p)
    u = u if sa > 0 else -u
    v = v if sb > 0 else -v
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
    """True iff the nonzero rational d is a square in the completion."""
    d = Fr(d)
    if d == 0:
        raise DegenerateInput("zero is degenerate here")
    s = squarefree_kernel(d)
    if place == INFINITE_PLACE:
        return s > 0
    p = place
    if p == 2:
        return s % 8 == 1 if s % 2 else False
    if s % p == 0:
        return False
    return legendre(s, p) == 1


class PlaceSet:
    """A finite set of places of Q (finite primes plus optionally infinity)."""

    def __init__(self, finite_primes, infinite):
        self.finite_primes = tuple(sorted(set(finite_primes)))
        self.infinite = bool(infinite)

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


def ramified_places(alpha, beta):
    """All places where (alpha, beta / Q) is not split."""
    alpha = Fr(alpha)
    beta = Fr(beta)
    if alpha == 0 or beta == 0:
        raise DegenerateInput("algebra parameters must be nonzero")
    cands = {2}
    cands.update(factorint(abs(squarefree_kernel(alpha))))
    cands.update(factorint(abs(squarefree_kernel(beta))))
    finite = [p for p in cands if hilbert_symbol(alpha, beta, p) == -1]
    inf = hilbert_symbol(alpha, beta, INFINITE_PLACE) == -1
    return PlaceSet(finite, inf)


def is_division(alpha, beta):
    return len(ramified_places(alpha, beta)) > 0


# ---------------------------------------------------------------------------
# isotropic vectors

def _relevant_places(coeffs):
    places = {2, INFINITE_PLACE}
    for c in coeffs:
        places.update(factorint(abs(squarefree_kernel(c))))
    return places


def ternary_local_obstruction(coeffs):
    """A place where the ternary form is anisotropic, or None.

    Uses the classical criterion: isotropic over Q_v iff the Hasse
    invariant equals (-1, -det)_v.
    """
    a, b, c = [Fr(x) for x in coeffs]
    det = a * b * c
    for v in sorted(_relevant_places([a, b, c]), key=lambda x: (x == INFINITE_PLACE, x)):
        hasse = (hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
                 * hilbert_symbol(b, c, v))
        if hasse != hilbert_symbol(-1, -det, v):
            return v
    return None


def _descent(A, B):
    """Nontrivial (x, y, z) with z^2 = A x^2 + B y^2; A, B squarefree
    integers, the equation being globally solvable.

    Lagrange's reduction: with |A| <= |B|, a square root r of A modulo B
    gives B' = (r^2 - A)/B with |B'| < |B|, and a solution for (A, B')
    lifts to one for (A, B) by multiplying in Z[sqrt(A)].
    """
    if A == 1:
        return (1, 0, 1)
    if B == 1:
        return (0, 1, 1)
    if abs(A) > abs(B):
        x, y, z = _descent(B, A)
        return (y, x, z)
    # now |A| <= |B|; termination shrinks |B| so B = -1 forces A = -1
    if B == -1:
        raise InternalInvariantViolation("insolvable pair reached descent")
    nb = abs(B)
    r = sqrt_mod_squarefree(A % nb, nb)
    if r is None:
        raise InternalInvariantViolation("missing square root during descent")
    if r > nb // 2:
        r = nb - r
    t = (r * r - A) // B  # exact: r^2 = A mod B
    if (r * r - A) % B != 0:
        raise InternalInvariantViolation("descent congruence failed")
    if t == 0:
        # A = r^2, impossible for squarefree |A| >= 2
        raise InternalInvariantViolation("unexpected square during descent")
    Bp = squarefree_part(t)
    m2 = t // Bp
    m = math.isqrt(abs(m2))
    x1, y1, z1 = _descent(A, Bp)
    # compose: (r + sqrt A)(z1 + x1 sqrt A)
    z2 = r * z1 + A * x1
    x2 = r * x1 + z1
    y2 = Bp * m * y1
    g = math.gcd(math.gcd(abs(x2), abs(y2)), abs(z2))
    if g > 1:
        x2, y2, z2 = x2 // g, y2 // g, z2 // g
    if x2 == 0 and y2 == 0 and z2 == 0:
        raise InternalInvariantViolation("trivial vector from descent")
    return (x2, y2, z2)


def ternary_isotropic(coeffs):
    """Primitive integer solution of a1 x^2 + a2 y^2 + a3 z^2 = 0, or None.

    The decision (None = anisotropic) comes from Hilbert symbols; the
    vector from Lagrange descent, so answers are exact on both sides.
    """
    if len(coeffs) != 3:
        raise DegenerateInput("ternary form needs 3 coefficients")
    a = [Fr(c) for c in coeffs]
    if any(c == 0 for c in a):
        raise DegenerateInput("form coefficients must be nonzero")
    if ternary_local_obstruction(a) is not None:
        return None
    # scale to squarefree integers, tracking per-variable scalings
    scale = [Fr(1)] * 3
    ints = []
    for idx, c in enumerate(a):
        s = squarefree_kernel(c)
        # c = s * (t)^2 with t rational; x_idx -> x_idx / t
        t2 = c / s
        num = math.isqrt(t2.numerator)
        den = math.isqrt(t2.denominator)
        scale[idx] = Fr(den, num)  # multiply solution coordinate by this
        ints.append(s)
    # pairwise coprime reduction
    post = []  # undo operations, applied in reverse

    def reduce_pair(i, j, k):
        g = math.gcd(abs(ints[i]), abs(ints[j]))
        if g <= 1:
            return False
        ints[i] //= g
        ints[j] //= g
        ck = ints[k] * g
        sk = squarefree_part(ck)
        t = math.isqrt(ck // sk)
        ints[k] = sk
        post.append((k, g, t))
        return True

    changed = True
    while changed:
        changed = False
        for (i, j, k) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            if reduce_pair(i, j, k):
                changed = True
    A = -ints[2] * ints[0]
    B = -ints[2] * ints[1]
    sA = squarefree_part(A)
    tA = math.isqrt(A // sA)
    sB = squarefree_part(B)
    tB = math.isqrt(B // sB)
    X, Y, Z = _descent(sA, sB)
    # z'^2 = sA X^2 + sB Y^2 ; original reduced ternary solution:
    x = Fr(X * tA, 1)
    y = Fr(Y * tB, 1)
    z = Fr(Z, ints[2])
    # verify against the reduced pairwise-coprime form
    sol = [x, y, z]
    for (k, g, t) in reversed(post):
        # reduced solution (X, Y, Z_k) of new form -> old: coordinate k
        # gets multiplied by g and divided by the square scaling t
        sol = [c for c in sol]
        sol[k] = sol[k] * g / t
    sol = [sol[i] * scale[i] for i in range(3)]
    den = 1
    for c in sol:
        den = den * c.denominator // math.gcd(den, c.denominator)
    vec = [int(c * den) for c in sol]
    g = 0
    for c in vec:
        g = math.gcd(g, abs(c))
    vec = [c // g for c in vec]
    if sum(Fr(v) * Fr(v) * a[i] for i, v in enumerate(vec)) != 0:
        raise InternalInvariantViolation("descent produced a non-solution")
    return tuple(vec)


def _quaternary_local_obstruction(a):
    """A place where the quaternary diagonal form is anisotropic, or None."""
    det = a[0] * a[1] * a[2] * a[3]
    for v in sorted(_relevant_places(a), key=lambda x: (x == INFINITE_PLACE, x)):
        if v == INFINITE_PLACE:
            if all(c > 0 for c in a) or all(c < 0 for c in a):
                return v
            continue
        if not is_local_square(det, v):
            continue
        hasse = 1
        for i in range(4):
            for j in range(i + 1, 4):
                hasse *= hilbert_symbol(a[i], a[j], v)
        if hasse != hilbert_symbol(-1, -1, v):
            return v
    return None


def quaternary_isotropic(coeffs):
    """Primitive solution of sum a_i x_i^2 = 0 (4 variables), or None."""
    if len(coeffs) != 4:
        raise DegenerateInput("quaternary form needs 4 coefficients")
    a = [Fr(c) for c in coeffs]
    if any(c == 0 for c in a):
        raise DegenerateInput("form coefficients must be nonzero")
    if _quaternary_local_obstruction(a) is not None:
        return None
    # isotropic binary half?
    for (i, j) in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        q = -a[i] / a[j]
        if q > 0:
            num, den = q.numerator, q.denominator
            rn, rd = math.isqrt(num), math.isqrt(den)
            if rn * rn == num and rd * rd == den:
                # (x_i / x_j)^2 = -a_j / a_i = den / num
                vec = [0] * 4
                vec[i] = rd
                vec[j] = rn
                if a[i] * rd * rd + a[j] * rn * rn != 0:
                    raise InternalInvariantViolation("binary ratio mismatch")
                return tuple(vec)
    # search a value represented by both binary halves
    h = 1
    seen = set()
    while True:
        for u in range(0, h + 1):
            for v in range(0, h + 1):
                if max(u, v) != h and h > 1:
                    continue
                if u == 0 and v == 0:
                    continue
                t = a[0] * u * u + a[1] * v * v
                if t == 0:
                    return (u, v, 0, 0)
                key = squarefree_kernel(t)
                if key in seen:
                    continue
                seen.add(key)
                res = ternary_isotropic([a[2], a[3], t])
                if res is None:
                    continue
                X, Y, Z = res
                if Z == 0:
                    return (0, 0, X, Y)
                return (u * Z, v * Z, X, Y)
        h += 1
        if h > 4096:
            raise InternalInvariantViolation(
                "isotropic quaternary search ran away")


def represent_pure(alpha, beta, d):
    """(x, y, z) with alpha x^2 + beta y^2 - alpha beta z^2 = d, or None."""
    alpha, beta, d = Fr(alpha), Fr(beta), Fr(d)
    if alpha == 0 or beta == 0 or d == 0:
        raise DegenerateInput("parameters must be nonzero")
    sol = quaternary_isotropic([alpha, beta, -alpha * beta, -d])
    if sol is None:
        return None
    x, y, z, w = [Fr(c) for c in sol]
    if w == 0:
        # the ternary part of the norm form is isotropic: algebra is split
        raise SplitAlgebra("pure subform is isotropic; algebra is split")
    return (x / w, y / w, z / w)


# ---------------------------------------------------------------------------
# zero-divisor certificates

def _fr_str(q):
    q = Fr(q)
    return "%d/%d" % (q.numerator, q.denominator)


def _fr_parse(s):
    if "/" in s:
        n, d = s.split("/")
        return Fr(int(n), int(d))
    return Fr(int(s))


class ZeroDivisorCertificate:
    """Coordinates q0..q3 in Q[x] of an element of A (x) L with zero norm."""

    def __init__(self, alpha, beta, minpoly, q):
        self.alpha = Fr(alpha)
        self.beta = Fr(beta)
        self.minpoly = minpoly
        self.q = tuple(q)
        if len(self.q) != 4:
            raise DegenerateInput("certificate needs four polynomials")

    def norm_poly(self):
        q0, q1, q2, q3 = self.q
        return (q0 * q0 - self.alpha * q1 * q1 - self.beta * q2 * q2
                + self.alpha * self.beta * q3 * q3)

    def validate(self):
        reduced = [qi % self.minpoly for qi in self.q]
        if all(r.is_zero for r in reduced):
            raise InvalidCertificate("certificate element is zero mod minpoly")
        if not (self.norm_poly() % self.minpoly).is_zero:
            raise InvalidCertificate("certificate norm does not vanish")
        return self

    def to_dict(self):
        out = {
            "alpha": _fr_str(self.alpha),
            "beta": _fr_str(self.beta),
            "minpoly": [_fr_str(c) for c in self.minpoly.coeffs],
        }
        for i, qi in enumerate(self.q):
            out["q%d" % i] = [_fr_str(c) for c in qi.coeffs]
        return out

    @classmethod
    def from_dict(cls, data):
        try:
            alpha = _fr_parse(data["alpha"])
            beta = _fr_parse(data["beta"])
            minpoly = RatPoly([_fr_parse(s) for s in data["minpoly"]])
            q = [RatPoly([_fr_parse(s) for s in data["q%d" % i]])
                 for i in range(4)]
        except (KeyError, ValueError) as exc:
            raise InvalidCertificate("malformed certificate: %s" % exc)
        return cls(alpha, beta, minpoly, q)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def __eq__(self, other):
        return (isinstance(other, ZeroDivisorCertificate)
                and self.to_dict() == other.to_dict())


def splits_in_quadratic(alpha, beta, d):
    """True iff (alpha, beta / Q) tensor Q(sqrt d) is a matrix algebra."""
    for v in ramified_places(alpha, beta).places():
        if is_local_square(d, v):
            return False
    return True


def find_zero_divisor(alpha, beta, L, cert=None, seed=0, max_height=20):
    """A ZeroDivisorCertificate for (alpha, beta / Q) tensor L.

    Layered: (1) validate a supplied certificate, (2) go through a
    quadratic subfield when one splits the algebra, (3) seeded bounded
    search solving q0^2 = alpha q1^2 + beta q2^2 - alpha beta q3^2 in L:
    max_height random trials, trial t drawing coefficients of height
    1 + t//8.
    """
    from .numberfield import nf_splits_quaternion
    if max_height < 1:
        raise PreconditionViolation(
            "max_height counts search trials and must be at least 1, got %d"
            % max_height)
    alpha, beta = Fr(alpha), Fr(beta)
    if cert is not None:
        if (cert.alpha != alpha or cert.beta != beta
                or cert.minpoly != L.minpoly):
            raise InvalidCertificate("certificate is for different data")
        return cert.validate()
    if not nf_splits_quaternion(alpha, beta, L):
        raise DegenerateInput("algebra does not split over L")
    # layer 2: quadratic subfield
    for d in nf_quadratic_subfields(L):
        if not splits_in_quadratic(alpha, beta, d):
            continue
        s = nf_sqrt(Fr(d), L)
        if s is None:
            raise InternalInvariantViolation("subfield lost its square root")
        rep = represent_pure(alpha, beta, Fr(d))
        if rep is None:
            raise InternalInvariantViolation(
                "local embedding condition held but representation failed")
        x, y, z = rep
        cert = ZeroDivisorCertificate(
            alpha, beta, L.minpoly,
            (-s.as_ratpoly(), RatPoly.const(x), RatPoly.const(y),
             RatPoly.const(z)))
        return cert.validate()
    # layer 3: bounded search
    rng = random.Random(seed)
    n = L.degree
    for trial in range(max_height):
        h = 1 + trial // 8
        vecs = []
        for _ in range(3):
            vecs.append(L.element([rng.randint(-h, h) for _ in range(n)]))
        a1, a2, a3 = vecs
        t = alpha * a1 * a1 + beta * a2 * a2 - alpha * beta * a3 * a3
        if t.is_zero:
            if a1.is_zero and a2.is_zero and a3.is_zero:
                continue
            cert = ZeroDivisorCertificate(
                alpha, beta, L.minpoly,
                (RatPoly(), a1.as_ratpoly(), a2.as_ratpoly(),
                 a3.as_ratpoly()))
            return cert.validate()
        s = nf_sqrt(t, L)
        if s is not None:
            cert = ZeroDivisorCertificate(
                alpha, beta, L.minpoly,
                (s.as_ratpoly(), a1.as_ratpoly(), a2.as_ratpoly(),
                 a3.as_ratpoly()))
            return cert.validate()
    raise SearchExhausted(
        "no zero divisor found within height bound %d" % max_height,
        central_factor=L.minpoly)
