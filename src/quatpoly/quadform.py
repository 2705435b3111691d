"""Rational quadratic forms: isotropic vectors, and the zero-divisor
machinery for a quaternion algebra extended to a number field.  The
local theory they decide with (Hilbert symbols, local squares and the
ramified places of an algebra) lives in numberfield.

Ternary isotropy runs the classical Lagrange descent (square roots modulo
squarefree numbers via Tonelli-Shanks and CRT); quaternary isotropy looks
for a value represented by both binary halves.  Each rational is factored
once, by square_class, and its primes are handed down: the local
obstructions take the Hilbert symbols at them (ramified_among), and the
coprime reduction and the descent, which factors only its new value at
each level, work on them.  The quadratic-subfield decision (which
Q(sqrt d) splits the algebra and lies in the field, and the pure
quaternion with square d) is made here alone, in subfield_zero_divisor:
a quadratic field is its own subfield, a quartic one reads its
subfields off the resolvent cubic, and from degree 6 the locally
screened candidates are tried in turn.  Everything is exact.
"""

import json
import math
import random
import re
from fractions import Fraction

from . import dense
from .coordpoly import coord_norm, kernel_ints
from .dense import ZZ
from .errors import (DegenerateInput, InternalInvariantViolation,
                     InvalidCertificate, PreconditionViolation,
                     SearchExhausted, SplitAlgebra)
from .intarith import square_class, sqrt_mod_squarefree
from .numberfield import (NumberField, is_local_square, local_nonresidue,
                          nf_factor_squarefree, nf_quadratic_candidates,
                          nf_quartic_subfields, nf_splits_quaternion, nf_sqrt,
                          ramified_among, ramified_places)
from .ratpoly import RatPoly

Fr = Fraction


# ---------------------------------------------------------------------------
# isotropic vectors

def ternary_local_obstruction(coeffs):
    """A place where the ternary form is anisotropic, or None.

    a x^2 + b y^2 + c z^2 = 0 is w^2 = (-ac) x^2 + (-bc) y^2 with w = cz,
    so the form is anisotropic exactly where (-ac, -bc / Q) ramifies: the
    first such place, finite primes ascending, then infinity.
    """
    a, b, c = [Fr(x) for x in coeffs]
    A, B = -a * c, -b * c
    primes = square_class(A)[2] + square_class(B)[2]
    return next(iter(ramified_among(A, B, primes)), None)


def _descent(A, B, pA, pB):
    """Nontrivial (x, y, z) with z^2 = A x^2 + B y^2; A, B squarefree
    integers with the primes pA, pB dividing them, the equation being
    globally solvable.

    Lagrange's reduction: with |A| <= |B|, a square root r of A modulo B
    gives B' = (r^2 - A)/B with |B'| < |B|, and a solution for (A, B')
    lifts to one for (A, B) by multiplying in Z[sqrt(A)].  Only the new
    (r^2 - A)/B is factored at each level.
    """
    if A == 1:
        return (1, 0, 1)
    if B == 1:
        return (0, 1, 1)
    if abs(A) > abs(B):
        x, y, z = _descent(B, A, pB, pA)
        return (y, x, z)
    # now |A| <= |B|; termination shrinks |B| so B = -1 forces A = -1
    if B == -1:
        raise InternalInvariantViolation("insolvable pair reached descent")
    nb = abs(B)
    r = sqrt_mod_squarefree(A % nb, pB)
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
    Bp, m, pBp = square_class(t)
    x1, y1, z1 = _descent(A, Bp, pA, pBp)
    # compose: (r + sqrt A)(z1 + x1 sqrt A)
    z2 = r * z1 + A * x1
    x2 = r * x1 + z1
    y2 = Bp * m.numerator * y1
    g = math.gcd(x2, y2, z2)
    if g == 0:
        raise InternalInvariantViolation("trivial vector from descent")
    return (x2 // g, y2 // g, z2 // g)


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
    return _ternary(a, [square_class(c) for c in a])


def _ternary(a, classes):
    """ternary_isotropic for nonzero coefficients a with their square
    classes (s, r, primes), factoring nothing more but in the descent.

    With c = s r^2 the variable x becomes x / r, leaving the squarefree
    s; a common factor g of two of them is moved onto the third, so they
    become pairwise coprime and the pair (A, B) of the descent is
    squarefree with the primes of its two factors.  (A, B) is the
    original (-a1 a3, -a2 a3) up to squares, so it ramifies at the same
    places.
    """
    ints = [s for s, _, _ in classes]
    primes = {p for _, _, ps in classes for p in ps}
    post = []  # undo operations, applied in reverse
    # each step leaves i, j coprime to each other and to k, so one pass
    # leaves all three pairwise coprime
    for (i, j, k) in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        g = math.gcd(ints[i], ints[j])
        ints[i] //= g
        ints[j] //= g
        t = math.gcd(ints[k], g)  # ints[k] g = (ints[k] g / t^2) t^2
        ints[k] = ints[k] * g // (t * t)
        post.append((k, g, t))
    A = -ints[2] * ints[0]
    B = -ints[2] * ints[1]
    pA = [p for p in primes if A % p == 0]
    pB = [p for p in primes if B % p == 0]
    if ramified_among(A, B, pA + pB):
        return None
    X, Y, Z = _descent(A, B, pA, pB)
    # z'^2 = A X^2 + B Y^2 ; original reduced ternary solution:
    sol = [Fr(X), Fr(Y), Fr(Z, ints[2])]
    for (k, g, t) in reversed(post):
        # reduced solution (X, Y, Z_k) of new form -> old: coordinate k
        # gets multiplied by g and divided by the square scaling t
        sol[k] = sol[k] * g / t
    sol = [sol[i] / r for i, (_, r, _) in enumerate(classes)]
    den = math.lcm(*(c.denominator for c in sol))
    vec = [int(c * den) for c in sol]
    g = math.gcd(*vec)
    vec = [c // g for c in vec]
    if sum(Fr(v) * Fr(v) * a[i] for i, v in enumerate(vec)) != 0:
        raise InternalInvariantViolation("descent produced a non-solution")
    return tuple(vec)


def _quaternary_local_obstruction(a, primes):
    """A place where the quaternary diagonal form is anisotropic, or None;
    primes holds the primes at which some a_i has odd valuation.

    Where the determinant is a local square, a3 is a0 a1 a2 up to squares
    and the form is a0 times the norm form of (-a0 a1, -a0 a2 / Q), which
    is anisotropic exactly where that algebra ramifies; elsewhere a
    quaternary form is isotropic.
    """
    det = a[0] * a[1] * a[2] * a[3]
    places = ramified_among(-a[0] * a[1], -a[0] * a[2], primes)
    return next((v for v in places if is_local_square(det, v)), None)


# the largest height of (u, v) that quaternary_isotropic tries
_QUATERNARY_HEIGHT_CAP = 4096


def quaternary_isotropic(coeffs):
    """Primitive solution of sum a_i x_i^2 = 0 (4 variables), or None.

    Each coefficient is factored once, and each value t = a0 u^2 + a1 v^2
    of the search once.  Raises SearchExhausted when no solution turns up
    by height _QUATERNARY_HEIGHT_CAP, though the local conditions hold.
    """
    if len(coeffs) != 4:
        raise DegenerateInput("quaternary form needs 4 coefficients")
    a = [Fr(c) for c in coeffs]
    if any(c == 0 for c in a):
        raise DegenerateInput("form coefficients must be nonzero")
    return _quaternary(a, [square_class(c) for c in a])


def _quaternary(a, classes):
    """quaternary_isotropic for nonzero coefficients a with their square
    classes (s, r, primes), factoring nothing more but the values of its
    search."""
    primes = {p for _, _, ps in classes for p in ps}
    if _quaternary_local_obstruction(a, primes) is not None:
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
    # search a value represented by both binary halves; with no isotropic
    # binary half, t and the Z of _ternary below are never 0
    h = 1
    seen = set()
    while True:
        # the pairs of height max(u, v) = h, in the order of u, then v
        for u, v in ([(u, h) for u in range(h)]
                     + [(h, v) for v in range(h + 1)]):
            t = a[0] * u * u + a[1] * v * v
            ct = square_class(t)
            if ct[0] in seen:
                continue
            seen.add(ct[0])
            res = _ternary([a[2], a[3], t], [classes[2], classes[3], ct])
            if res is None:
                continue
            X, Y, Z = res
            return (u * Z, v * Z, X, Y)
        h += 1
        if h > _QUATERNARY_HEIGHT_CAP:
            raise SearchExhausted(
                "isotropic quaternary search passed its height cap of %d"
                % _QUATERNARY_HEIGHT_CAP)


def represent_pure(alpha, beta, d):
    """(x, y, z) with alpha x^2 + beta y^2 - alpha beta z^2 = d, or None.
    alpha, beta and d are factored once each; the square class of
    -alpha beta is read off those of alpha and beta."""
    alpha, beta, d = Fr(alpha), Fr(beta), Fr(d)
    if alpha == 0 or beta == 0 or d == 0:
        raise DegenerateInput("parameters must be nonzero")
    (sa, ra, pa), (sb, rb, pb) = square_class(alpha), square_class(beta)
    # alpha beta = sa sb (ra rb)^2 and sa sb = (sa/g)(sb/g) g^2
    g = math.gcd(sa, sb)
    ab = (-(sa // g) * (sb // g), ra * rb * g,
          tuple(sorted(set(pa).symmetric_difference(pb))))
    sol = _quaternary([alpha, beta, -alpha * beta, -d],
                      [(sa, ra, pa), (sb, rb, pb), ab, square_class(-d)])
    if sol is None:
        return None
    x, y, z, w = [Fr(c) for c in sol]
    if w == 0:
        # the ternary part of the norm form is isotropic: algebra is split
        raise SplitAlgebra("pure subform is isotropic; algebra is split")
    return (x / w, y / w, z / w)


# ---------------------------------------------------------------------------
# zero-divisor certificates

def fr_str(q, den=1):
    """The rational q/den as "numerator/denominator", for an int den > 0."""
    s = dense.rational_text(q.numerator, q.denominator * den)
    return s if "/" in s else s + "/1"


_FR_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def fr_parse(s):
    """The rational in the string s, as fr_str writes it: ASCII
    -?[0-9]+(/[0-9]+)? with a nonzero denominator.  The one reader of
    rationals in flags and certificates; ValueError for any other
    string."""
    m = _FR_TEXT.fullmatch(s)
    if m is None or m[2] is not None and not int(m[2]):
        raise ValueError("not a rational number: %r" % (s,))
    return Fr(int(m[1]), int(m[2] or 1))


class ZeroDivisorCertificate:
    """Coordinates q0..q3 in Q[x] of an element of A (x) L with zero norm,
    checked once, by the constructor, however the certificate is made."""

    def __init__(self, alpha, beta, minpoly, q):
        self.alpha = Fr(alpha)
        self.beta = Fr(beta)
        self.minpoly = minpoly
        self.q = tuple(q)
        if len(self.q) != 4:
            raise DegenerateInput("certificate needs four polynomials")
        self.validate()

    def norm_poly(self):
        return coord_norm(self.alpha, self.beta, self.q)

    def validate(self):
        # NumberField's rule: the certificate is keyed by the monic factor
        if not self.minpoly.is_monic or self.minpoly.degree < 1:
            raise InvalidCertificate(
                "certificate minpoly must be monic nonconstant")
        reduced = [qi % self.minpoly for qi in self.q]
        if all(r.is_zero for r in reduced):
            raise InvalidCertificate("certificate element is zero mod minpoly")
        if not (self.norm_poly() % self.minpoly).is_zero:
            raise InvalidCertificate("certificate norm does not vanish")
        return self

    def matches(self, alpha, beta, minpoly):
        """True iff the certificate is for (alpha, beta / Q) tensor
        Q[x]/(minpoly).  Its zero divisor then proves that algebra split:
        a nonzero element of norm 0 has no inverse."""
        return (self.alpha == alpha and self.beta == beta
                and self.minpoly == minpoly)

    def to_dict(self):
        out = {
            "alpha": fr_str(self.alpha),
            "beta": fr_str(self.beta),
            "minpoly": [fr_str(c) for c in self.minpoly.coeffs],
        }
        for i, qi in enumerate(self.q):
            out["q%d" % i] = [fr_str(c) for c in qi.coeffs]
        return out

    @classmethod
    def from_dict(cls, data):
        def poly(key):
            coeffs = data[key]
            if not isinstance(coeffs, list):
                raise TypeError("%s must be a list of coefficients" % key)
            return RatPoly([fr_parse(s) for s in coeffs])

        try:
            alpha = fr_parse(data["alpha"])
            beta = fr_parse(data["beta"])
            minpoly = poly("minpoly")
            q = [poly("q%d" % i) for i in range(4)]
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise InvalidCertificate("malformed certificate: %s" % exc)
        return cls(alpha, beta, minpoly, q)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        """The certificate in the file path: OSError when it cannot be
        read, InvalidCertificate when it is no UTF-8 JSON certificate."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
                raise InvalidCertificate("malformed certificate: %s" % exc)
        return cls.from_dict(data)

    def __eq__(self, other):
        return (isinstance(other, ZeroDivisorCertificate)
                and (self.alpha, self.beta, self.minpoly, self.q)
                == (other.alpha, other.beta, other.minpoly, other.q))


def splits_in_quadratic(alpha, beta, d):
    """True iff (alpha, beta / Q) tensor Q(sqrt d) is a matrix algebra."""
    for v in ramified_places(alpha, beta):
        if is_local_square(d, v):
            return False
    return True


def _quadratic_half(p, d, s):
    """The first factor g = x - (t/2 + u sqrt d) of p = x^2 - t x + n
    over its own field Q(sqrt d), t^2 - 4n = s^2 d and s > 0, with the
    sign the Trager factorization over Q(sqrt d) takes first: u = -s/2
    for d < 0 and +s/2 for d > 0."""
    n, t = p[0], -p[1]
    r0, u = t / 2, (s if d > 0 else -s) / 2
    # (x - r)(x - conj r) has the coefficients of p
    if (2 * r0, r0 * r0 - d * u * u) != (t, n):
        raise InternalInvariantViolation(
            "quadratic roots fail to reconstruct the input")
    return [(-r0, -u), (1, 0)]


def _trager_half(p, d):
    """The first factor of p over Q(sqrt d), or None when p stays
    irreducible there, that is when Q(sqrt d) is no subfield of Q[x]/(p).
    p is monic and d squarefree, no square."""
    L2 = NumberField.unchecked(RatPoly([-d, 0, 1]))
    parts = nf_factor_squarefree([L2.from_rational(c) for c in p.coeffs], L2)
    if len(parts) == 1:
        return None
    g = parts[0]
    gbar = [L2.element((c.coords[0], -c.coords[1])) for c in g]
    if dense.mul(g, gbar, L2.field) != [L2.from_rational(c)
                                        for c in p.coeffs]:
        raise InternalInvariantViolation(
            "conjugate halves fail to reconstruct the input")
    return [c.coords for c in g]


def subfield_zero_divisor(alpha, beta, L):
    """Layer 2 of find_zero_divisor alone: conj(g) for the first factor g
    of p = L.minpoly over the first quadratic subfield Q(sqrt d) of L
    that splits the algebra, or None.  The d are tried by increasing |d|,
    positive sign first: a quadratic p is its own subfield, a quartic
    takes nf_quartic_subfields, and from degree 6 the candidates of
    nf_quadratic_candidates are tried, a d over which p stays irreducible
    being no subfield.  With sqrt d read as the pure quaternion a of
    represent_pure, the coefficients of g lie in Q(a) and commute, so
    p = conj(g) g and conj(g) has norm 0 in A (x) L."""
    alpha, beta = Fr(alpha), Fr(beta)
    p = L.minpoly
    quadratic = p.degree == 2
    if quadratic:
        # p[1]^2 - 4 p[0] = d s^2
        d, s, _ = square_class(p[1] * p[1] - 4 * p[0])
        ds = [d]
    elif p.degree == 4:
        ds = nf_quartic_subfields(L)
    else:
        ds = nf_quadratic_candidates(L)
    for d in ds:
        if not splits_in_quadratic(alpha, beta, d):
            continue
        g = _quadratic_half(p, d, s) if quadratic else _trager_half(p, d)
        if g is None:
            continue
        rep = represent_pure(alpha, beta, d)
        if rep is None:
            raise InternalInvariantViolation(
                "local embedding condition held but representation failed")
        x, y, z = rep
        # a^2 = -N(a) for the pure a
        if coord_norm(alpha, beta, (0, x, y, z)) != -d:
            raise InternalInvariantViolation(
                "pure quaternion does not square to d")
        # conj(g) = sum (c0 - c1 a) x^m over the coefficients c0 + c1 sqrt d
        q0, c1 = map(RatPoly, zip(*g))
        return ZeroDivisorCertificate(alpha, beta, p,
                                      (q0, -x * c1, -y * c1, -z * c1))
    return None


def find_zero_divisor(alpha, beta, L, cert=None, seed=0, max_height=20):
    """A ZeroDivisorCertificate for (alpha, beta / Q) tensor L, in layers:
    (1) a supplied certificate (valid once built), which must match
    (ZeroDivisorCertificate.matches) or raises InvalidCertificate, and
    needs no splitting test, (2) subfield_zero_divisor after the
    splitting test, (3) the search of search_zero_divisor."""
    _check_trials(max_height)
    alpha, beta = Fr(alpha), Fr(beta)
    if cert is not None:
        if not cert.matches(alpha, beta, L.minpoly):
            raise InvalidCertificate("certificate is for different data")
        return cert
    if not nf_splits_quaternion(alpha, beta, L):
        raise DegenerateInput("algebra does not split over L")
    return (subfield_zero_divisor(alpha, beta, L)
            or search_zero_divisor(alpha, beta, L, seed=seed,
                                   max_height=max_height))


def _check_trials(max_height):
    if max_height < 1:
        raise PreconditionViolation(
            "max_height counts search trials and must be at least 1, got %d"
            % max_height)


def _trial_value(al, be, a1, a2, a3):
    """The coefficients of the polynomial al a1^2 + be a2^2 - al be a3^2,
    for coordinate lists a1, a2, a3 of one length n, as one list of
    length 2n - 1, unreduced.  Integer data stays integer."""
    t = [0] * (2 * len(a1) - 1)
    for w, a in ((al, a1), (be, a2), (-al * be, a3)):
        for k, c in enumerate(dense.mul(a, a, ZZ)):
            t[k] += w * c
    return t


def _trial_nonsquare(L, w, a1, a2, a3):
    """True when local_nonresidue proves the trial value
    al a1^2 + be a2^2 - al be a3^2 no square in L, from the integer
    coordinate lists a1, a2, a3 alone: w holds integers w1, w2, w3
    proportional to (al, be, -al be) by a nonzero rational square, and
    the image of the trial at a local root r is, up to that square,
    w1 a1(r)^2 + w2 a2(r)^2 + w3 a3(r)^2 mod p.  No polynomial is
    formed and nothing is reduced by the minimal polynomial."""
    w1, w2, w3 = w

    def residues(p, roots):
        F = dense.GF(p)
        return ((w1 * dense.evaluate(a1, r, F) ** 2
                 + w2 * dense.evaluate(a2, r, F) ** 2
                 + w3 * dense.evaluate(a3, r, F) ** 2) for r in roots)

    return local_nonresidue(L, residues)


def search_zero_divisor(alpha, beta, L, seed=0, max_height=20):
    """Layer 3 of find_zero_divisor alone: a seeded bounded search solving
    q0^2 = alpha q1^2 + beta q2^2 - alpha beta q3^2 in L, max_height random
    trials, trial t drawing coefficients of height 1 + t//8.  Each trial
    is screened first on its integer coordinates (_trial_nonsquare, the
    local test of nf_sqrt): a non-residue at a local root proves it no
    square, and it is dropped, as nf_sqrt would drop it.  A trial that
    passes is an integer polynomial in the coordinates of q1, q2, q3
    (_trial_value), reduced by the minimal polynomial in L.element; only
    its value goes to nf_sqrt.  Raises SearchExhausted when no trial
    succeeds."""
    _check_trials(max_height)
    alpha, beta = Fr(alpha), Fr(beta)
    al, be = kernel_ints((alpha, beta))
    # (al, be, -al be) times the square of alpha.den * beta.den
    d2 = (alpha.denominator * beta.denominator) ** 2
    w = [int(c * d2) for c in (alpha, beta, -alpha * beta)]
    rng = random.Random(seed)
    n = L.degree
    for trial in range(max_height):
        h = 1 + trial // 8
        a1, a2, a3 = [[rng.randint(-h, h) for _ in range(n)]
                      for _ in range(3)]
        if _trial_nonsquare(L, w, a1, a2, a3):
            continue
        t = L.element(_trial_value(al, be, a1, a2, a3))
        if t:
            s = nf_sqrt(t, L)
            if s is None:
                continue
            q0 = s.poly
        elif any(a1 + a2 + a3):
            q0 = RatPoly()
        else:
            continue
        return ZeroDivisorCertificate(
            alpha, beta, L.minpoly,
            (q0, RatPoly(a1), RatPoly(a2), RatPoly(a3)))
    raise SearchExhausted(
        "no zero divisor found in %d trials (largest height %d)"
        % (max_height, 1 + (max_height - 1) // 8),
        central_factor=L.minpoly)
