"""Each fold of a hand-written derivation into GCRD, ramified_places or
one subfield path, each move of a QPoly computation onto the integer
coordinate kernel, the early-stopping Zassenhaus lift, the one-pass
parser, the heuristic gcd, probe splitting and fused powmod of the
integer core, the quadratic subfields of a quartic read off its
resolvent cubic, the isotropic vectors of the quadratic-form layer
found with each number factored once, and the remainders taken without
a quotient, pinned against the code it replaced.  The reference
functions below are that code, kept verbatim in behaviour, and each
test compares its answers with the library's on a few hundred to a few
thousand inputs.  The factorisation over GF(p) that splitting_type once
read by Dedekind-Kummer is kept here too, as ref_gfp_factor; the tests
of test_numberfield and test_ratpoly pin against it.  So is xgcd, the
two-cofactor extended Euclid of dense that dense.inverse replaced in the
Hensel lift, with rp_xgcd, its form over Q that only the swap reference
uses, and so is the
Fraction RatPoly, as RefRatPoly, that the integer one replaced.  Three
functions the library no longer calls live here under their own names,
for the tests that still use them: swap_factors, the factor swap of the
semicommutativity lemma, nf_factor_over_quadratic, the Trager
factorisation over Q(sqrt d) that quadform now runs itself, and
nf_poly_norm with its f^n branch for f over Q, as ref_trager_norm."""

import collections
import math
import random
import re
import sys
from fractions import Fraction as Fr
from itertools import zip_longest
from types import SimpleNamespace

import pytest

from quatpoly import dense, numberfield, qpoly, quadform, ratpoly
from quatpoly.coordpoly import (ZERO, coord_mul, coord_norm, cp_add, cp_mul,
                                cp_pseudo_divmod, cp_pseudo_rem, cp_scale,
                                cp_trim, kernel_ints)
from quatpoly.dense import GF, ZZ
from quatpoly.errors import (DegenerateInput, DivisionByZero,
                             InternalInvariantViolation, PolyParseError,
                             PreconditionViolation, QuatpolyError,
                             SearchExhausted)
from quatpoly.intarith import (crt, factorint, legendre, square_class,
                               sqrt_mod_prime, squarefree_kernel)
from quatpoly.numberfield import (INFINITE_PLACE, NFElement, NumberField,
                                  hilbert_symbol, is_local_square,
                                  nf_factor_squarefree, nf_poly_norm,
                                  nf_quadratic_candidates,
                                  nf_quartic_subfields, nf_splits_quaternion,
                                  nf_sqrt)
from quatpoly.parser import parse_poly
from quatpoly.qpoly import (BeckDecomposition, Factorization, QPoly,
                            beck_decompose, factor_central_irreducible,
                            qp_conj, qp_evaluate, qp_exact_right_div, qp_gcrd,
                            qp_lclm, qp_norm, qp_right_divmod,
                            subfield_factor)
from quatpoly.quadform import (ZeroDivisorCertificate, quaternary_isotropic,
                               represent_pure, search_zero_divisor,
                               splits_in_quadratic, subfield_zero_divisor,
                               ternary_isotropic, ternary_local_obstruction)
from quatpoly.quatalg import Quaternion, QuaternionAlgebra, q_inv
from quatpoly.ratpoly import (RatPoly, from_int_list, rp_gcd,
                              rp_is_irreducible, rp_real_root_count,
                              squarefree_decomposition)

# Q as a field object of dense.py, on Fractions: the reference code below
# computes over it, and the library, whose Q[x] is RatPoly, does not
QQ = dense.Field(Fr(0), Fr(1), dense.same, lambda a: Fr(1) / a)

ALGEBRAS = (QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3),
            QuaternionAlgebra(-2, -5), QuaternionAlgebra(Fr(-1, 2), -3))


def rnd_q(rng, A, height=3):
    return A.element([rng.randint(-height, height) for _ in range(4)])


def rnd_poly(rng, A, deg, height=3, monic=False):
    coeffs = [rnd_q(rng, A, height) for _ in range(deg + 1)]
    if monic:
        coeffs[-1] = A.one()
    while coeffs[-1].is_zero:
        coeffs[-1] = rnd_q(rng, A, height)
    return QPoly(A, coeffs)


# ---------------------------------------------------------------------------
# the GCRD by a primitive pseudo-remainder sequence on kernel tuples, which
# right Euclid on QPolys replaced

def cp_primitive(P):
    """P divided by the positive rational content of all its coordinates:
    integer tuples whose entries have gcd 1."""
    m = math.lcm(*[c.denominator for a in P for c in a])
    P = [[c.numerator * (m // c.denominator) for c in a] for a in P]
    g = math.gcd(*[c for a in P for c in a])
    return [(a[0] // g, a[1] // g, a[2] // g, a[3] // g) for a in P]


def ref_qp_gcrd(p, q):
    """The monic GCRD, by a primitive pseudo-remainder sequence over Z
    (Collins 1967): each pseudo-remainder is divided by the content of all
    its coordinates, which also clears denominators of alpha and beta."""
    if p.is_zero and q.is_zero:
        raise DegenerateInput("gcrd(0, 0) is undefined")
    al, be = p.parent.alpha, p.parent.beta
    R, D = cp_primitive(p.num), cp_primitive(q.num)
    while D:
        R, D = D, cp_primitive(cp_pseudo_divmod(al, be, R, D)[2])
    return QPoly.from_kernel(p.parent, 1, R).monic()


def rnd_linear(rng, A):
    """x - a for a random quaternion a of height 5."""
    return QPoly(A, [-rnd_q(rng, A, 5), A.one()])


def gcrd_corpus(rng, A):
    """(p, q) pairs: random pairs with a planted common right factor of
    degree 0 to 3, some over non-integral coefficients, each also with a
    zero second argument; q against a central norm factor N(x - a), as
    factor and roots pass them; and ladder products of 4 to 24 linear
    factors against the norm of one of their factors."""
    out = []
    for k in range(4):
        for _ in range(12):
            g = rnd_poly(rng, A, k, height=2)
            if rng.random() < 0.5:
                g = g * QPoly(A, [rnd_rational_q(rng, A)])
            p = rnd_poly(rng, A, rng.randint(0, 3)) * g
            q = rnd_poly(rng, A, rng.randint(0, 3)) * g
            out += [(p, q), (q, p), (p, QPoly(A, []))]
    for _ in range(16):
        q = rnd_poly(rng, A, rng.randint(1, 4))
        for n in (qp_norm(rnd_linear(rng, A)), qp_norm(q)):
            c = QPoly.from_ratpoly(A, n)
            out += [(q, c), (c, q)]
    for n in (4, 8, 12, 16, 24):
        fs = [rnd_linear(rng, A) for _ in range(n)]
        ladder = fs[0]
        for f in fs[1:]:
            ladder = ladder * f
        for f in (fs[-1], fs[0], rng.choice(fs)):
            c = QPoly.from_ratpoly(A, qp_norm(f))
            out += [(ladder, c), (c, ladder)]
    return out


def test_right_euclid_gcrd_is_the_primitive_remainder_gcrd():
    """qp_gcrd gives the (den, num) of the primitive pseudo-remainder
    sequence, or raises the same error, on planted common right factors,
    zero second arguments, central second arguments and linear ladders
    over four algebras."""
    rng = random.Random(281)
    pairs = nontrivial = 0
    for A in ALGEBRAS:
        for p, q in gcrd_corpus(rng, A) + [(QPoly(A, []), QPoly(A, []))]:
            got, want = (form_outcome(gcrd, p, q)
                         for gcrd in (qp_gcrd, ref_qp_gcrd))
            if isinstance(want, QPoly):
                assert (got.den, got.num) == (want.den, want.num)
                nontrivial += want.degree > 0
            else:
                assert got == want
            pairs += 1
    assert pairs >= 900 and nontrivial >= 600


# ---------------------------------------------------------------------------
# the halves of a split central factor

def ref_halves(A, p, zq):
    """The norm-reduction loop: each step replaces qp by qp*conj(r)/q,
    r = qp mod q, until N(qp) = p; then qp is made monic on the right."""
    qp = QPoly.from_coordinates(A, [qi % p for qi in zq])
    q = qp_norm(qp).exact_div(p)
    first_q = q
    while q.degree > 0:
        qc = QPoly.from_ratpoly(A, q)
        _, r = qp_right_divmod(qp, qc)
        qp = qp_exact_right_div(qp * qp_conj(r), qc)
        qp = QPoly(A, [A.element(c) for c in cp_primitive(qp.num)])
        newq = qp_norm(qp).exact_div(p)
        assert newq.degree < q.degree, "degree failed to drop"
        q = newq
    c = qp.lc
    f = qp * QPoly(A, [q_inv(c)])
    fbar = QPoly(A, [q_inv(c.conj())]) * qp_conj(qp)
    return [f, fbar], first_q


def planted_zero_divisors(rng, A, half, variants):
    """(p, z) pairs: p = N(q) irreducible for a random monic q of degree
    half, and z one of q, q*W, W*q and W1*q*W2 mod p."""
    while True:
        q = rnd_poly(rng, A, half, monic=True)
        p = qp_norm(q)
        if rp_is_irreducible(p):
            break
    out = [(p, q)]
    while len(out) < variants:
        w1, w2 = (rnd_poly(rng, A, rng.randint(0, 2 * half - 1), height=2)
                  for _ in range(2))
        z = [w1 * q, q * w2, w1 * q * w2][len(out) % 3]
        z = QPoly.from_coordinates(A, [c % p for c in z.coordinates()])
        if not z.is_zero:
            out.append((p, z))
    return out


def test_halves_are_the_gcrd_of_the_reduction_loop(monkeypatch):
    """factor_central_irreducible returns the halves the reduction loop
    gave, and the same first quotient N(z)/p, on planted zero divisors z
    of degree 4, 6 and 8 central factors over four algebras."""
    planted = {}
    monkeypatch.setattr(qpoly, "nf_splits_quaternion", lambda *a: True)
    monkeypatch.setattr(qpoly, "subfield_factor", lambda *a, **k: None)
    monkeypatch.setattr(qpoly, "search_zero_divisor",
                        lambda *a, **k: planted["zd"])
    rng = random.Random(131)
    cases = looped = 0
    for A in ALGEBRAS:
        for half, count in ((2, 60), (3, 25), (4, 10)):
            for _ in range(count):
                for p, z in planted_zero_divisors(rng, A, half, 6):
                    zq = z.coordinates()
                    want, first_q = ref_halves(A, p, zq)
                    planted["zd"] = SimpleNamespace(q=zq, minpoly=p)
                    out = factor_central_irreducible(
                        NumberField.unchecked(p), A)
                    assert out.factors == want
                    assert out.first_quotient == first_q
                    cases += 1
                    looped += first_q.degree > 0
    assert cases >= 2000 and looped >= 1000


# ---------------------------------------------------------------------------
# factor swaps

def swap_factors(p, q):
    """(q1, p1) with q1*p1 = p*q, swapping irreducible factors with
    coprime norms while preserving both norms (Lemma on semicommutativity).

    p1 is GCRD(p*q, N(p)): the lemma's p1 right-divides p*q and its own
    norm N(p), hence the GCRD, whose norm divides
    gcd(N(p) N(q), N(p)^2) = N(p).  A central factor needs no special
    case: the GCRD is then p."""
    if not (p.is_monic and q.is_monic):
        raise PreconditionViolation("factors must be monic")
    np, nq = qp_norm(p), qp_norm(q)
    if rp_gcd(np, nq).degree > 0:
        raise PreconditionViolation("norms must be relatively prime")
    pq = p * q
    p1 = qp_gcrd(pq, QPoly.from_ratpoly(p.parent, np))
    q1 = qp_exact_right_div(pq, p1)
    if q1 * p1 != pq or qp_norm(p1) != np or qp_norm(q1) != nq:
        raise InternalInvariantViolation("factor swap failed verification")
    return q1, p1


def xgcd(f, g, F):
    """(h, s, t) with s*f + t*g = h = monic gcd(f, g)."""
    r0, r1 = f, g
    s0, s1 = [F.one], []
    t0, t1 = [], [F.one]
    while r1:
        q, r = dense.divmod(r0, r1, F)
        r0, r1 = r1, r
        s0, s1 = s1, dense.sub(s0, dense.mul(q, s1, F), F)
        t0, t1 = t1, dense.sub(t0, dense.mul(q, t1, F), F)
    if not r0:
        raise DegenerateInput("xgcd(0, 0) is undefined")
    inv = F.inv(r0[-1])
    return (dense.scale(r0, inv, F), dense.scale(s0, inv, F),
            dense.scale(t0, inv, F))


def rp_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g, g monic, in Q[x]."""
    g, u, v = xgcd(a.coeffs, b.coeffs, QQ)
    return RatPoly(g), RatPoly(u), RatPoly(v)


def ref_swap(p, q):
    """The Bezout-LCLM swap: with u N(p) + v N(q) = 1, p1 is the monic
    LCLM(p, conj(q) v) / (conj(q) v); a central factor is swapped as is."""
    np, nq = qp_norm(p), qp_norm(q)
    if p.is_central or q.is_central:
        return q, p
    _, u, v = rp_xgcd(np, nq)
    qstar = qp_conj(q) * QPoly.from_ratpoly(q.parent, v)
    p1 = qp_exact_right_div(qp_lclm(p, qstar), qstar).monic()
    return qp_exact_right_div(p * q, p1), p1


def rnd_factor(rng, A, central):
    """A monic factor: a central x - r or x^2 + s, or a random monic
    linear or quadratic one."""
    deg = rng.randint(1, 2)
    if central:
        c = [RatPoly([-rng.randint(-5, 5), 1]),
             RatPoly([rng.randint(1, 9), 0, 1])][deg - 1]
        return QPoly.from_ratpoly(A, c)
    return rnd_poly(rng, A, deg, monic=True)


def test_swap_is_the_bezout_lclm_swap():
    rng = random.Random(137)
    done = central = 0
    while done < 1000:
        A = ALGEBRAS[done % len(ALGEBRAS)]
        kind = done % 4
        p = rnd_factor(rng, A, kind == 1)
        q = rnd_factor(rng, A, kind == 2)
        if rp_gcd(qp_norm(p), qp_norm(q)).degree > 0:
            continue
        assert swap_factors(p, q) == ref_swap(p, q)
        done += 1
        central += p.is_central or q.is_central
    assert central >= 200


# ---------------------------------------------------------------------------
# local obstructions

def _form_primes(coeffs):
    """The primes at which some coefficient has odd valuation."""
    return {p for c in coeffs for p in square_class(c)[2]}


def _relevant_places(coeffs):
    places = {2, INFINITE_PLACE}
    for c in coeffs:
        places.update(factorint(abs(squarefree_kernel(c))))
    return sorted(places, key=lambda v: (v == INFINITE_PLACE, v))


def ref_ternary_obstruction(coeffs):
    """The first place where the Hasse invariant differs from
    (-1, -det)_v."""
    a, b, c = [Fr(x) for x in coeffs]
    det = a * b * c
    for v in _relevant_places([a, b, c]):
        hasse = (hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
                 * hilbert_symbol(b, c, v))
        if hasse != hilbert_symbol(-1, -det, v):
            return v
    return None


def ref_quaternary_obstruction(a):
    """The first place where the form is definite, or where det is a
    square and the Hasse invariant differs from (-1, -1)_v."""
    det = a[0] * a[1] * a[2] * a[3]
    for v in _relevant_places(a):
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


def _quaternary_local_obstruction(a):
    """The library's obstruction, given the primes of the coefficients."""
    return quadform._quaternary_local_obstruction(a, _form_primes(a))


def rnd_coeff(rng):
    num = rng.choice([-1, 1]) * rng.randint(1, 60)
    return Fr(num, rng.choice([1, 1, 2, 3, 4, 5, 9, 12]))


# a ternary form is anisotropic at an even number of places, so a finite
# prime always comes before the real place
@pytest.mark.parametrize("n, new, ref, seen", [
    (3, ternary_local_obstruction, ref_ternary_obstruction, {None, 2, 3}),
    (4, _quaternary_local_obstruction, ref_quaternary_obstruction,
     {None, INFINITE_PLACE, 2, 3})])
def test_obstruction_is_the_hasse_loop(n, new, ref, seen):
    rng = random.Random(139 + n)
    places = set()
    for _ in range(10000):
        a = [rnd_coeff(rng) for _ in range(n)]
        v = new(a)
        assert v == ref(a), a
        places.add(v)
    assert seen <= places


def test_obstructions_leave_the_algebra_cache_alone():
    quadform.ramified_places.cache_clear()
    ternary_local_obstruction([1, 1, 1])
    quadform._quaternary_local_obstruction([Fr(1)] * 4, ())
    assert quadform.ramified_places.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the height loop of quaternary_isotropic

def test_height_loop_walks_only_pairs_of_height_h(monkeypatch):
    """The pairs tried at each height come in the order of the old
    comprehension over the whole square, up to height 200, and the search
    stops at the injected cap."""
    cap = 200
    tried = []

    def no_solution(coeffs, classes):
        # t = u^2 + 10^6 v^2 names the pair (u, v) for u < 1000
        v2, u2 = divmod(int(coeffs[2]), 10 ** 6)
        tried.append((math.isqrt(u2), math.isqrt(v2)))
        return None

    monkeypatch.setattr(quadform, "_QUATERNARY_HEIGHT_CAP", cap)
    monkeypatch.setattr(quadform, "_quaternary_local_obstruction",
                        lambda a, primes: None)
    monkeypatch.setattr(quadform, "_ternary", no_solution)
    # no two values share a square class, so every pair is tried
    monkeypatch.setattr(quadform, "square_class", lambda t: (t, Fr(1), ()))
    with pytest.raises(SearchExhausted, match="height cap of %d" % cap):
        quaternary_isotropic([1, 10 ** 6, -3, -5])
    old = [(u, v) for h in range(1, cap + 1)
           for u in range(0, h + 1) for v in range(0, h + 1)
           if (max(u, v) == h or h <= 1) and (u, v) != (0, 0)]
    assert tried == old


# ---------------------------------------------------------------------------
# the quadratic-form layer factoring each number once

def ref_squarefree_part(n):
    """The squarefree integer with the same sign and square class as n."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in factorint(n).items():
        if e % 2 == 1:
            out *= p
    return out


def ref_squarefree_kernel(q):
    """Squarefree integer in the square class of a nonzero rational."""
    q = Fr(q)
    return ref_squarefree_part(q.numerator * q.denominator)


def ref_sqrt_mod_squarefree(a, n):
    """Square root of a modulo a squarefree n >= 1, or None.

    Returns r with r*r = a (mod n), combining the roots modulo the prime
    factors of n by CRT.
    """
    if n == 1:
        return 0
    roots = []
    mods = []
    for p in factorint(n):
        if p == 2:
            r = a % 2
        else:
            r = sqrt_mod_prime(a, p)
            if r is None:
                return None
        roots.append(r)
        mods.append(p)
    return crt(roots, mods)


def ref_ramified_places(alpha, beta):
    """All places where (alpha, beta / Q) is not split, uncached: the
    finite primes ascending, then INFINITE_PLACE."""
    alpha = Fr(alpha)
    beta = Fr(beta)
    if alpha == 0 or beta == 0:
        raise DegenerateInput("algebra parameters must be nonzero")
    cands = {2}
    cands.update(factorint(abs(ref_squarefree_kernel(alpha))))
    cands.update(factorint(abs(ref_squarefree_kernel(beta))))
    return tuple(v for v in (*sorted(cands), INFINITE_PLACE)
                 if hilbert_symbol(alpha, beta, v) == -1)


def ref_ternary_local_obstruction(coeffs):
    """A place where the ternary form is anisotropic, or None.

    a x^2 + b y^2 + c z^2 = 0 is w^2 = (-ac) x^2 + (-bc) y^2 with w = cz,
    so the form is anisotropic exactly where (-ac, -bc / Q) ramifies: the
    first such place, finite primes ascending, then infinity.  The
    uncached body of ramified_places keeps single forms out of the cache
    of algebras.
    """
    a, b, c = [Fr(x) for x in coeffs]
    return next(iter(ref_ramified_places(-a * c, -b * c)), None)


def ref_descent(A, B):
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
        x, y, z = ref_descent(B, A)
        return (y, x, z)
    # now |A| <= |B|; termination shrinks |B| so B = -1 forces A = -1
    if B == -1:
        raise InternalInvariantViolation("insolvable pair reached descent")
    nb = abs(B)
    r = ref_sqrt_mod_squarefree(A % nb, nb)
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
    Bp = ref_squarefree_part(t)
    m2 = t // Bp
    m = math.isqrt(abs(m2))
    x1, y1, z1 = ref_descent(A, Bp)
    # compose: (r + sqrt A)(z1 + x1 sqrt A)
    z2 = r * z1 + A * x1
    x2 = r * x1 + z1
    y2 = Bp * m * y1
    g = math.gcd(x2, y2, z2)
    if g == 0:
        raise InternalInvariantViolation("trivial vector from descent")
    return (x2 // g, y2 // g, z2 // g)


def ref_ternary_isotropic(coeffs):
    """Primitive integer solution of a1 x^2 + a2 y^2 + a3 z^2 = 0, or None.

    The decision (None = anisotropic) comes from Hilbert symbols; the
    vector from Lagrange descent, so answers are exact on both sides.
    """
    if len(coeffs) != 3:
        raise DegenerateInput("ternary form needs 3 coefficients")
    a = [Fr(c) for c in coeffs]
    if any(c == 0 for c in a):
        raise DegenerateInput("form coefficients must be nonzero")
    if ref_ternary_local_obstruction(a) is not None:
        return None
    # scale to squarefree integers, tracking per-variable scalings
    scale = [Fr(1)] * 3
    ints = []
    for idx, c in enumerate(a):
        s = ref_squarefree_kernel(c)
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
        sk = ref_squarefree_part(ck)
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
    sA = ref_squarefree_part(A)
    tA = math.isqrt(A // sA)
    sB = ref_squarefree_part(B)
    tB = math.isqrt(B // sB)
    X, Y, Z = ref_descent(sA, sB)
    # z'^2 = sA X^2 + sB Y^2 ; original reduced ternary solution:
    x = Fr(X * tA, 1)
    y = Fr(Y * tB, 1)
    z = Fr(Z, ints[2])
    # verify against the reduced pairwise-coprime form
    sol = [x, y, z]
    for (k, g, t) in reversed(post):
        # reduced solution (X, Y, Z_k) of new form -> old: coordinate k
        # gets multiplied by g and divided by the square scaling t
        sol[k] = sol[k] * g / t
    sol = [sol[i] * scale[i] for i in range(3)]
    den = math.lcm(*(c.denominator for c in sol))
    vec = [int(c * den) for c in sol]
    g = math.gcd(*vec)
    vec = [c // g for c in vec]
    if sum(Fr(v) * Fr(v) * a[i] for i, v in enumerate(vec)) != 0:
        raise InternalInvariantViolation("descent produced a non-solution")
    return tuple(vec)


def ref_quaternary_local_obstruction(a):
    """A place where the quaternary diagonal form is anisotropic, or None.

    Where the determinant is a local square, a3 is a0 a1 a2 up to squares
    and the form is a0 times the norm form of (-a0 a1, -a0 a2 / Q), which
    is anisotropic exactly where that algebra ramifies; elsewhere a
    quaternary form is isotropic.
    """
    det = a[0] * a[1] * a[2] * a[3]
    places = ref_ramified_places(-a[0] * a[1], -a[0] * a[2])
    return next((v for v in places if is_local_square(det, v)), None)


def ref_quaternary_isotropic(coeffs):
    """Primitive solution of sum a_i x_i^2 = 0 (4 variables), or None.

    Raises SearchExhausted when no solution turns up by height
    _QUATERNARY_HEIGHT_CAP, though the local conditions hold.
    """
    if len(coeffs) != 4:
        raise DegenerateInput("quaternary form needs 4 coefficients")
    a = [Fr(c) for c in coeffs]
    if any(c == 0 for c in a):
        raise DegenerateInput("form coefficients must be nonzero")
    if ref_quaternary_local_obstruction(a) is not None:
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
        # the pairs of height max(u, v) = h, in the order of u, then v
        for u, v in ([(u, h) for u in range(h)]
                     + [(h, v) for v in range(h + 1)]):
            t = a[0] * u * u + a[1] * v * v
            if t == 0:
                return (u, v, 0, 0)
            key = ref_squarefree_kernel(t)
            if key in seen:
                continue
            seen.add(key)
            res = ref_ternary_isotropic([a[2], a[3], t])
            if res is None:
                continue
            X, Y, Z = res
            if Z == 0:
                return (0, 0, X, Y)
            return (u * Z, v * Z, X, Y)
        h += 1
        if h > quadform._QUATERNARY_HEIGHT_CAP:
            raise SearchExhausted(
                "isotropic quaternary search passed its height cap of %d"
                % quadform._QUATERNARY_HEIGHT_CAP)


def ref_represent_pure(alpha, beta, d):
    """represent_pure on ref_quaternary_isotropic."""
    alpha, beta, d = Fr(alpha), Fr(beta), Fr(d)
    if alpha == 0 or beta == 0 or d == 0:
        raise DegenerateInput("parameters must be nonzero")
    sol = ref_quaternary_isotropic([alpha, beta, -alpha * beta, -d])
    if sol is None:
        return None
    x, y, z, w = [Fr(c) for c in sol]
    return (x / w, y / w, z / w)


def form_outcome(fn, *args):
    """fn(*args), or the type of the QuatpolyError it raises."""
    try:
        return fn(*args)
    except QuatpolyError as exc:
        return type(exc)


def rnd_form_coeff(rng):
    """A nonzero rational: small, or a numerator up to 10^6 over a small
    denominator."""
    if rng.random() < 0.5:
        return rnd_coeff(rng)
    return Fr(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6),
              rng.randint(1, 30))


def rnd_ternary(rng):
    """Three rational coefficients: random ones, which are mostly
    anisotropic, or, half the time, two small random ones and the third
    planted so that a random integer vector is a zero."""
    if rng.random() < 0.5:
        a = [rnd_form_coeff(rng) for _ in range(3)]
    else:
        a = [rnd_coeff(rng), rnd_coeff(rng), Fr(0)]
        x, y, z = [rng.randint(1, 30) for _ in range(3)]
        a[2] = -(a[0] * x * x + a[1] * y * y) / (z * z) or a[0]
    if rng.random() < 0.02:
        a[rng.randrange(3)] = Fr(0)
    return a


def test_square_classes_give_the_old_ternary_answers():
    """ternary_isotropic and ternary_local_obstruction on square classes
    answer as the code that factored each number again where it needed
    it, on 3000 forms, a few with a zero coefficient."""
    rng = random.Random(271)
    kinds = collections.Counter()
    for _ in range(3000):
        a = rnd_ternary(rng)
        want = form_outcome(ref_ternary_isotropic, a)
        assert form_outcome(ternary_isotropic, a) == want, a
        assert form_outcome(ternary_local_obstruction, a) == \
            form_outcome(ref_ternary_local_obstruction, a), a
        kinds[want if want in (None, DegenerateInput) else "vector"] += 1
    assert kinds["vector"] >= 1000 and kinds[None] >= 1000, kinds
    assert kinds[DegenerateInput] >= 30, kinds


def test_square_classes_give_the_old_pure_quaternions():
    """represent_pure answers as before on 300 d with |d| <= 10^6 over
    three division algebras: random d, a tenth of them rational, and
    half the time a planted value alpha x^2 + beta y^2 - alpha beta z^2."""
    rng = random.Random(272)
    found = 0
    for k in range(300):
        alpha, beta = ((-1, -1), (-1, -3), (-2, -5))[k % 3]
        d = rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.randint(1, 6))
        if k % 2:
            h = rng.choice([10, 100, 200])
            x, y, z = [rng.randint(-h, h) for _ in range(3)]
            d = alpha * x * x + beta * y * y - alpha * beta * z * z or d
        elif k % 10 == 8:
            d = Fr(d, rng.randint(2, 30))
        want = form_outcome(ref_represent_pure, alpha, beta, d)
        assert form_outcome(represent_pure, alpha, beta, d) == want, d
        found += want is not None
    assert found >= 150
    assert form_outcome(represent_pure, -1, -1, 0) is DegenerateInput


# ---------------------------------------------------------------------------
# the quadratic-subfield zero divisor

class EmbeddingObstructed(Exception):
    """What ref_embed_quadratic raised when Q(sqrt d) does not embed."""


def ref_embed_quadratic(A, d):
    """A pure quaternion with square d, realizing Q(sqrt d) inside A."""
    d = Fr(d)
    if d == 0:
        raise DegenerateInput("d must be nonzero")
    if not splits_in_quadratic(A.alpha, A.beta, d):
        raise EmbeddingObstructed(
            "Q(sqrt %s) does not embed: it does not split the algebra" % (d,))
    rep = represent_pure(A.alpha, A.beta, d)
    if rep is None:
        raise EmbeddingObstructed(
            "no pure quaternion of square %s exists" % (d,))
    x, y, z = rep
    a = Quaternion(A, (0, x, y, z))
    if a * a != A.scalar(d):
        raise EmbeddingObstructed("representation did not square to d")
    return a


def ref_quadratic_half(p, A):
    """x - (t/2 + u a) for an irreducible p = x^2 - t x + n, or None."""
    n, t = p[0], -p[1]
    disc = t * t - 4 * n
    d = squarefree_kernel(disc)
    if not splits_in_quadratic(A.alpha, A.beta, d):
        return None
    s2 = disc / d
    s = Fr(math.isqrt(s2.numerator), math.isqrt(s2.denominator))
    r0, u = t / 2, (s if d > 0 else -s) / 2
    # (x - r)(x - conj r) has the coefficients of p
    if (2 * r0, r0 * r0 - d * u * u) != (t, n):
        raise InternalInvariantViolation(
            "quadratic roots fail to reconstruct the input")
    return QPoly(A, [-(A.scalar(r0) + u * ref_embed_quadratic(A, d)),
                     A.one()])


def ref_subfield_half(p, A, L):
    """The first factor of p over the first candidate subfield Q(sqrt d)
    of L = Q[x]/(p) that splits A and over which p splits, embedded in
    A[x] through a = embed_quadratic(A, d); None when there is none."""
    for d in nf_quadratic_candidates(L):
        if not splits_in_quadratic(A.alpha, A.beta, Fr(d)):
            continue
        # p splits over Q(sqrt d) exactly when Q(sqrt d) is a subfield of L
        L2, parts = nf_factor_over_quadratic(p, d)
        if len(parts) == 1:
            continue
        g = parts[0]
        gbar = [L2.element((c.coords[0], -c.coords[1])) for c in g]
        prod = dense.mul(g, gbar, L2.field)
        if [c.coords for c in prod] != \
                [L2.from_rational(c).coords for c in p.coeffs]:
            raise InternalInvariantViolation(
                "conjugate halves fail to reconstruct the input")
        a = ref_embed_quadratic(A, d)
        return QPoly(A, [A.scalar(c.coords[0]) + c.coords[1] * a for c in g])
    return None


def ref_subfield_factor(p, A):
    """(conj q, q) from the two halves above, checked by q * conj(q)."""
    L = NumberField(p)
    q = ref_quadratic_half(p, A) if p.degree == 2 \
        else ref_subfield_half(p, A, L)
    if q is None:
        return None
    qbar = qp_conj(q)
    if q * qbar != QPoly.from_ratpoly(A, p):
        raise InternalInvariantViolation("embedded halves mismatch")
    return qbar, q


def ref_layer_2(alpha, beta, L):
    """The old subfield layer of find_zero_divisor: -sqrt(d) + a, with
    sqrt(d) from nf_sqrt and a from represent_pure; None when no subfield
    splits the algebra."""
    for d in nf_quadratic_candidates(L):
        if not splits_in_quadratic(alpha, beta, d):
            continue
        s = nf_sqrt(Fr(d), L)
        if s is None:
            continue  # Q(sqrt d) is not a subfield of L
        if s * s != L.from_rational(d):
            raise InternalInvariantViolation("subfield square root is wrong")
        rep = represent_pure(alpha, beta, Fr(d))
        if rep is None:
            raise InternalInvariantViolation(
                "local embedding condition held but representation failed")
        x, y, z = rep
        cert = ZeroDivisorCertificate(
            alpha, beta, L.minpoly,
            (-s.poly, RatPoly.const(x), RatPoly.const(y),
             RatPoly.const(z)))
        return cert.validate()
    return None


SUBFIELD_ALGEBRAS = ALGEBRAS + (QuaternionAlgebra(-1, 3),)


def subfield_norms(rng, A, count):
    """count irreducible norms N(q) of monic q of degree 1, 2 and 3 in
    turn; two in three of degree 2 or 3 have coefficients in Q(u) for a
    pure quaternion u, so that Q(sqrt(u^2)) is a subfield splitting A."""
    out = []
    while len(out) < count:
        deg = 1 + len(out) % 3
        if deg > 1 and len(out) % 9 < 6:
            u = A.element([0] + [rng.randint(-2, 2) for _ in range(3)])
            coeffs = [A.scalar(rng.randint(-3, 3)) + rng.randint(-2, 2) * u
                      for _ in range(deg)]
        else:
            coeffs = [rnd_q(rng, A, 3) for _ in range(deg)]
        p = qp_norm(QPoly(A, coeffs + [A.one()]))
        if rp_is_irreducible(p):
            out.append(p)
    return out


def test_one_subfield_path_gives_the_old_halves_and_layer_2():
    """subfield_factor gives the pairs (conj q, q) of the closed form and
    the Trager walk it replaced, on irreducible norms over five algebras;
    and where the old layer 2 found -sqrt(d) + a, subfield_zero_divisor
    finds conj(q) through the same d: its pure part is a multiple of a."""
    rng = random.Random(149)
    splits = {2: 0, 4: 0, 6: 0}
    cases = 0
    for A in SUBFIELD_ALGEBRAS:
        for p in subfield_norms(rng, A, 80):
            cases += 1
            want = ref_subfield_factor(p, A)
            L = NumberField(p)
            assert subfield_factor(L, A) == want, (p, A)
            old = ref_layer_2(A.alpha, A.beta, L)
            new = subfield_zero_divisor(A.alpha, A.beta, L)
            assert (old is None) == (new is None) == (want is None), (p, A)
            if want is None:
                continue
            splits[p.degree] += 1
            assert new == ZeroDivisorCertificate(
                A.alpha, A.beta, p, want[0].coordinates())
            new.validate()
            old.validate()
            a = [c[0] for c in old.q[1:]]
            pure = new.q[1:]
            assert all(pure[i] * a[j] == pure[j] * a[i]
                       for i in range(3) for j in range(i)), (p, A)
    assert cases == 400 and splits[4] + splits[6] >= 100
    assert 0 < sum(splits.values()) < cases


def ref_quartic_subfields(L):
    """The quadratic subfields of L as every even degree finds them: the
    locally screened divisors of 4 disc that are squares in L."""
    return [d for d in nf_quadratic_candidates(L) if nf_sqrt(d, L) is not None]


# V4 (x^4 + 1, x^4 - 10x^2 + 1), C4 (x^4 - 4x^2 + 2, x^4 + 5x^2 + 5),
# D4 (x^4 - 2, x^4 + 3), A4 (x^4 + 8x + 12) and S4 (x^4 + x + 1)
NAMED_QUARTICS = ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [2, 0, -4, 0, 1],
                  [5, 0, 5, 0, 1], [-2, 0, 0, 0, 1], [3, 0, 0, 0, 1],
                  [12, 8, 0, 0, 1], [1, 1, 0, 0, 1])


def quartic_corpus(rng):
    """(p, d) pairs, d the squarefree kernel of u^2 when p = N(q) for a
    monic quadratic q with coefficients in Q(u), else None: the named
    quartics; 90 irreducible x^4 + b x^2 + e, e or e (b^2 - 4e) a square
    for two in three; 90 with integer and 60 with rational coefficients;
    and 20 norms N(q) over each of (-1,-1), (-1,-3) and (-2,-5), half
    planted."""
    out = [(from_int_list(c), None) for c in NAMED_QUARTICS]

    def add(p, d=None):
        if rp_is_irreducible(p):
            out.append((p, d))

    while len(out) < 98:
        b, e = rng.randint(-20, 20), rng.randint(-40, 40)
        if len(out) % 3 == 0:
            e = rng.randint(1, 8) ** 2
        elif len(out) % 3 == 1:
            # e (b^2 - 4e) = (c s w)^2 for b = c = w^2 + 4s^2 and e = c s^2
            w, s = rng.randint(1, 3), rng.randint(1, 3)
            b = w * w + 4 * s * s
            b, e = rng.choice((b, -b)), b * s * s
        add(from_int_list([e, 0, b, 0, 1]))
    while len(out) < 188:
        add(from_int_list([rng.randint(-9, 9) for _ in range(4)] + [1]))
    while len(out) < 248:
        add(RatPoly([Fr(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(4)] + [1]))
    for A in ALGEBRAS[:3]:
        count = len(out) + 20
        while len(out) < count:
            if len(out) % 2:
                add(qp_norm(QPoly(A, [rnd_q(rng, A), rnd_q(rng, A),
                                      A.one()])))
                continue
            u = A.element([0] + [rng.randint(-2, 2) for _ in range(3)])
            if u.is_zero:
                continue
            a, b = [A.scalar(rng.randint(-3, 3)) + rng.randint(-2, 2) * u
                    for _ in range(2)]
            add(qp_norm(QPoly(A, [b, a, A.one()])),
                squarefree_kernel((u * u).coords[0]))
    return out


def is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


def test_quartic_subfields_are_the_squares_among_the_candidates():
    """nf_quartic_subfields, read off the resolvent cubic, gives the list
    and order of the discriminant route on 308 irreducible quartics: the
    Galois groups V4, C4, D4, A4 and S4, rational coefficients, and norms
    over three algebras, every planted subfield among them."""
    rng = random.Random(151)
    corpus = quartic_corpus(rng)
    counts = {0: 0, 1: 0, 3: 0}
    rational_with_subfield = 0
    for p, planted in corpus:
        L = NumberField.unchecked(p)
        got = nf_quartic_subfields(L)
        assert got == ref_quartic_subfields(L), p
        counts[len(got)] += 1
        rational_with_subfield += p.den > 1 and len(got) > 0
        assert planted is None or planted in got, (p, planted)
    assert len(corpus) == 308
    assert sum(planted is not None for _, planted in corpus) == 30
    assert min(counts.values()) >= 20, counts
    # x^4 + b x^2 + e has the group V4 when e is a square, else C4 when
    # e (b^2 - 4e) is one, else D4
    groups = {"V4": 0, "C4": 0, "D4": 0}
    for p, _ in corpus[8:98]:
        b, e = int(p[2]), int(p[0])
        group = ("V4" if is_square(e)
                 else "C4" if is_square(e * (b * b - 4 * e)) else "D4")
        groups[group] += 1
    assert min(groups.values()) > 0, groups
    assert rational_with_subfield > 0


# ---------------------------------------------------------------------------
# the Beck decomposition and the expanded product on the coordinate kernel

BECK_ALGEBRAS = ALGEBRAS + (QuaternionAlgebra(-1, 3),
                            QuaternionAlgebra(Fr(3, 5), Fr(-7, 3)))


def ref_beck_decompose(p):
    """Beck in A[x]: m = lc^-1 * p, cen the monic gcd of m's coordinates,
    q = m / cen by exact right division, and the product checked."""
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


def ref_expand(fac):
    """The chain of QPoly products leading * f1 * ... * fn."""
    out = QPoly(fac.leading.parent, [fac.leading])
    for f in fac.factors:
        out = out * f
    return out


def rnd_rational_q(rng, A):
    """A nonzero quaternion; about half of them have non-integral
    coordinates."""
    while True:
        den = rng.choice((1, 1, 2, 3, 6))
        a = A.element([Fr(rng.randint(-4, 4), den) for _ in range(4)])
        if not a.is_zero:
            return a


# the degree ranges of q and r in lead * q * r, by kind of input
BECK_KINDS = {"central": ((0, 0), (1, 3)), "free": ((1, 3), (0, 0)),
              "mixed": ((0, 3), (0, 3)), "constant": ((0, 0), (0, 0))}


def rnd_beck_input(rng, A, kind):
    """lead * q * r for a nonzero quaternion lead, a random q and a monic
    central r, with the degrees BECK_KINDS gives for kind."""
    (q0, q1), (r0, r1) = BECK_KINDS[kind]
    lead = rnd_rational_q(rng, A)
    q = QPoly(A, [rnd_rational_q(rng, A)
                  for _ in range(rng.randint(q0, q1) + 1)])
    r = RatPoly([Fr(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                 for _ in range(rng.randint(r0, r1))] + [1])
    return QPoly(A, [lead]) * q * QPoly.from_ratpoly(A, r)


def test_integer_beck_is_the_qpoly_beck():
    """beck_decompose gives the leading coefficient, central-free and
    central parts of the A[x] computation it replaced, on central,
    central-free, mixed and constant inputs with non-integral
    coefficients, over six algebras."""
    rng = random.Random(151)
    both = 0
    for A in BECK_ALGEBRAS:
        for n in range(160):
            p = rnd_beck_input(rng, A, list(BECK_KINDS)[n % 4])
            want, got = ref_beck_decompose(p), beck_decompose(p)
            assert got.leading == want.leading, p
            assert got.central_free == want.central_free, p
            assert got.central == want.central, p
            both += (want.central.degree > 0
                     and want.central_free.degree > 0)
    assert both >= 150


def test_kernel_expand_is_the_qpoly_chain():
    """Factorization.expand gives the chain of QPoly products, for 0-4
    factors with non-integral coefficients over six algebras."""
    rng = random.Random(157)
    empty = 0
    for A in BECK_ALGEBRAS:
        for n in range(60):
            factors = [rnd_beck_input(rng, A, list(BECK_KINDS)[k % 4])
                       for k in range(n % 5)]
            fac = Factorization(rnd_rational_q(rng, A), factors)
            assert fac.expand() == ref_expand(fac)
            empty += not factors
    assert empty == 72


def test_integer_beck_check_fires(monkeypatch):
    """A wrong cofactor, or a gcd that does not divide the coordinates,
    fails the integer multiply-back check."""
    A = QuaternionAlgebra(-1, -1)
    i = A.i
    p = QPoly(A, [A.scalar(2), A.one()]) * QPoly(A, [-i, A.one()])
    cofactors = qpoly.primitive_gcd_cofactors

    def wrong_cofactor(polys):
        g, quots = cofactors(polys)
        quots[1] = dense.add(quots[1], [1], dense.ZZ)
        return g, quots

    def wrong_gcd(polys):
        g, quots = cofactors(polys)
        return dense.mul(g, [1, 1], dense.ZZ), quots

    for fake in (wrong_cofactor, wrong_gcd):
        monkeypatch.setattr(qpoly, "primitive_gcd_cofactors", fake)
        with pytest.raises(InternalInvariantViolation, match="mismatch"):
            beck_decompose(p)


def rnd_central(rng, A):
    """A central QPoly of degree 0 to 5 with rational, mostly non-monic
    coefficients."""
    c = [Fr(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
         for _ in range(rng.randint(1, 6))]
    c[-1] = c[-1] or Fr(5, 3)
    return QPoly.from_ratpoly(A, RatPoly(c))


def test_scalar_beck_is_the_general_beck(monkeypatch):
    """A central polynomial with rational, non-monic coefficients is read
    off its scalar column, and decomposes as ref_beck_decompose and the
    general path of beck_decompose decompose it, over six algebras, among
    them (-1, -1), (-1, -3), (-1/2, -3) and (3/5, -7/3); a non-central
    one is left to the general path."""
    rng = random.Random(163)
    inputs = [rnd_central(rng, A) for A in BECK_ALGEBRAS for _ in range(40)]
    assert sum(not p.is_monic for p in inputs) >= 200
    assert all(qpoly._scalar_beck(p) is not None for p in inputs)
    got = [beck_decompose(p) for p in inputs]
    monkeypatch.setattr(qpoly, "_scalar_beck", lambda p: None)
    assert got == [beck_decompose(p) for p in inputs]
    assert got == [ref_beck_decompose(p) for p in inputs]
    A = QuaternionAlgebra(-1, -1)
    assert qpoly._scalar_beck(QPoly(A, [A.i, A.one()])) is None


def test_scalar_beck_check_fires(monkeypatch):
    """A central part that does not multiply back to p fails the check
    on the scalar column."""
    A = QuaternionAlgebra(-1, -3)
    p = QPoly.from_ratpoly(A, RatPoly([Fr(1, 2), 3, 6]))

    def wrong_central(c, den):
        return from_int_list(c[:-1] + [c[-1] + 1], den)

    monkeypatch.setattr(qpoly, "from_int_list", wrong_central)
    with pytest.raises(InternalInvariantViolation, match="mismatch"):
        beck_decompose(p)


# ---------------------------------------------------------------------------
# QPoly as integer coordinates over one denominator

def ref_evaluate(p, a):
    """Sum c_m a^m by a loop over the powers of a."""
    out = p.parent.zero()
    pw = p.parent.one()
    for c in p.coeffs:
        out = out + c * pw
        pw = pw * a
    return out


def ref_monic(p):
    """lc^-1 * p (left normalization)."""
    if p.is_zero:
        raise DegenerateInput("zero polynomial cannot be made monic")
    return QPoly(p.parent, [q_inv(p.lc)]) * p


def test_evaluate_and_monic_are_the_quaternion_loops():
    """qp_evaluate, a right division by x - a, gives the power sum, and
    monic on the coordinates gives q_inv(lc) * p, for polynomials with
    non-integral coefficients and Fraction points over six algebras."""
    rng = random.Random(163)
    for A in BECK_ALGEBRAS:
        for n in range(80):
            p = rnd_beck_input(rng, A, list(BECK_KINDS)[n % 4])
            a = rnd_rational_q(rng, A)
            assert qp_evaluate(p, a) == ref_evaluate(p, a), (p, a)
            assert qp_evaluate(p, A.scalar(a.coords[0])) == \
                ref_evaluate(p, A.scalar(a.coords[0]))
            assert p.monic() == ref_monic(p), p
            # a root of a linear right factor evaluates to zero
            root = QPoly(A, [-a, A.one()])
            assert qp_evaluate(p * root, a).is_zero
    zero = QPoly(A, [])
    assert qp_evaluate(zero, a) == ref_evaluate(zero, a) == A.zero()


def assert_reduced(p):
    """den > 0, integer entries with gcd(den, entries) = 1, num trimmed."""
    entries = [c for a in p.num for c in a]
    assert type(p.den) is int and p.den > 0, p
    assert all(type(c) is int for c in entries), p
    assert math.gcd(p.den, *entries) == 1, p
    assert type(p.num) is tuple
    assert all(type(a) is tuple and len(a) == 4 for a in p.num)
    assert not p.num or p.num[-1] != (0, 0, 0, 0), p


def test_every_result_is_in_reduced_form():
    """Sums, differences, products, right quotients and remainders, GCRDs
    and monic polynomials are all stored as (den, num) in lowest terms,
    including results that cancel to zero."""
    rng = random.Random(167)
    for A in BECK_ALGEBRAS:
        for n in range(40):
            p = rnd_beck_input(rng, A, list(BECK_KINDS)[n % 4])
            q = rnd_beck_input(rng, A, list(BECK_KINDS)[(n + 1) % 4])
            g = QPoly(A, [rnd_rational_q(rng, A), A.one()])
            quot, rem = qp_right_divmod(p, q)
            for r in (p, q, p + q, p - q, p - p, p * q, -p, quot, rem,
                      qp_conj(p), qp_gcrd(p * g, q * g), p.monic(),
                      qp_right_divmod(p * q, q)[1]):
                assert_reduced(r)


def test_one_polynomial_built_three_ways_is_one_value():
    """Parsing, multiplying out and from_coordinates give equal values,
    equal hashes and the same stored (den, num)."""
    rng = random.Random(173)
    for A in BECK_ALGEBRAS:
        for n in range(20):
            p = (rnd_beck_input(rng, A, list(BECK_KINDS)[n % 4])
                 * QPoly(A, [rnd_rational_q(rng, A), A.one()]))
            forms = (p, parse_poly(str(p), A),
                     QPoly.from_coordinates(A, p.coordinates()),
                     QPoly(A, p.coeffs))
            for f in forms:
                assert f == p and hash(f) == hash(p)
                assert (f.den, f.num) == (p.den, p.num)
    A = QuaternionAlgebra(Fr(-1, 2), -3)
    parsed = parse_poly("(1/2+i)x^2 - (2/3)k x + 3/4", A)
    built = (QPoly(A, [A.element((0, 0, 0, Fr(-4, 3))),
                       A.element((1, 2, 0, 0))]) * QPoly.x(A)
             + Fr(3, 2)) * Fr(1, 2)
    coords = QPoly.from_coordinates(A, (
        RatPoly([Fr(3, 4), 0, Fr(1, 2)]), RatPoly([0, 0, 1]), RatPoly([]),
        RatPoly([0, Fr(-2, 3)])))
    assert parsed == built == coords
    assert hash(parsed) == hash(built) == hash(coords)
    assert (parsed.den, parsed.num) == (12, ((9, 0, 0, 0), (0, 0, 0, -8),
                                             (6, 12, 0, 0)))
    # four coordinates over different denominators, against the Fraction
    # coefficients from_coordinates once read
    for _ in range(200):
        cs = [RatPoly(rnd_rational_coeffs(rng)) for _ in range(4)]
        want = QPoly.from_kernel(A, 1, list(zip_longest(
            *[c.coeffs for c in cs], fillvalue=0)))
        got = QPoly.from_coordinates(A, cs)
        assert (got.den, got.num) == (want.den, want.num)


# ---------------------------------------------------------------------------
# Zassenhaus lifting only as far as the factors need

def ref_factor_squarefree_int(f):
    """Irreducible integer factors of a primitive squarefree int poly, lc > 0:
    one lift to p^k above twice the Mignotte bound, then recombination."""
    if len(f) - 1 == 1:
        return [f]
    p = ratpoly._good_prime(f)
    fbar = dense.monic([c % p for c in f], GF(p))
    modular = sorted(ratpoly.gfp_factor_squarefree(fbar, p),
                     key=lambda g: (len(g), g))
    if len(modular) == 1:
        return [f]
    bound = ratpoly._mignotte_bound(f)
    k = 1
    while p ** k <= 2 * bound:
        k += 1
    modular = ratpoly._lift_list(f, modular, p, k)
    m = p ** k

    out = []
    from itertools import combinations
    current = list(f)
    pool = list(modular)
    size = 1
    while 2 * size <= len(pool):
        found = True
        while found:
            found = False
            for combo in combinations(range(len(pool)), size):
                cand = [current[-1] % m]
                for idx in combo:
                    cand = [c % m for c in dense.mul(cand, pool[idx], ZZ)]
                cand_pp = ratpoly._primitive(
                    [ratpoly._symmetric(c, m) for c in cand])
                if not cand_pp:
                    continue
                # current and cand_pp are primitive, so is the quotient
                q = ratpoly._exact_quotient(current, cand_pp)
                if q is not None:
                    out.append(cand_pp)
                    current = q
                    pool = [g for i, g in enumerate(pool) if i not in combo]
                    found = True
                    break
            if 2 * size > len(pool):
                break
        size += 1
    if len(current) - 1 >= 1:
        out.append(current)
    return out


def squarefree_parts(f):
    return [g for g, _ in ratpoly._squarefree_int(ratpoly._primitive(f))]


def norm_corpus(rng):
    """Squarefree parts of N(q), q a product of 1-5 random monic linear and
    quadratic factors over (-1, -1) and (-1, -3)."""
    out = []
    for A in ALGEBRAS[:2]:
        for _ in range(40):
            q = QPoly(A, [A.one()])
            for _ in range(rng.randint(1, 5)):
                q = q * rnd_poly(rng, A, rng.randint(1, 2), monic=True)
            out += squarefree_parts(qp_norm(q).primitive_int())
    return out


def product_corpus(rng):
    """Squarefree parts of products of 2-4 random integer polynomials of
    degree 1-4, lc 1-3 and coefficient height 5, 10^2, 10^4 or 10^6."""
    out = []
    for height in (5, 10 ** 2, 10 ** 4, 10 ** 6):
        for _ in range(80):
            f = [1]
            for _ in range(rng.randint(2, 4)):
                g = [rng.randint(-height, height)
                     for _ in range(rng.randint(1, 4))]
                f = dense.mul(f, g + [rng.randint(1, 3)], ZZ)
            out += squarefree_parts(f)
    return out


def test_early_lift_finds_the_full_bound_factors(monkeypatch):
    """The same factors as one lift to the full bound, on norms and on
    integer products of every height.  Each call recombines once, and then
    once more for each piece left unproved, above that piece's own full
    bound; answers kept from below it include pieces of several lifts,
    proved by their own bound."""
    rng = random.Random(179)
    corpus = norm_corpus(rng) + product_corpus(rng)
    runs = []
    recombine = ratpoly._recombine

    def spy(f, lifted, m):
        pieces = recombine(f, lifted, m)
        runs[-1].append((m > 2 * ratpoly._mignotte_bound(f),
                         max(s for _, s in pieces)))
        return pieces

    monkeypatch.setattr(ratpoly, "_recombine", spy)
    for f in corpus:
        runs.append([])
        got = ratpoly._factor_squarefree_int(f)
        assert sorted(got) == sorted(ref_factor_squarefree_int(f)), f
    shapes = {tuple(full for full, _ in run) for run in runs}
    assert shapes == {(), (False,), (True,)} | {
        (False,) + (True,) * n for n in range(1, 5)}
    assert any(run == [(False, s)] for run in runs for s in (2, 3, 4))


# ---------------------------------------------------------------------------
# parsing text onto the coordinate kernel

_REF_ATOM_STARTERS = set("0123456789ijkx(")


class RefTokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def number(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise PolyParseError("expected a number", position=start)
        return int(self.text[start:self.pos])

    def error(self, msg):
        raise PolyParseError(msg, position=self.pos)


def ref_parse_poly(text, A):
    """The character-by-character parser that built every atom as a
    Quaternion and a QPoly and combined them one operation at a time."""
    toks = RefTokens(text)
    p = ref_expr(toks, A)
    if toks.peek() is not None:
        toks.error("unexpected trailing input")
    return p


def ref_expr(toks, A):
    out = None
    sign = 1
    ch = toks.peek()
    if ch == "-":
        toks.take()
        sign = -1
    elif ch == "+":
        toks.take()
    while True:
        term = ref_term(toks, A)
        term = term if sign == 1 else -term
        out = term if out is None else out + term
        ch = toks.peek()
        if ch == "+":
            toks.take()
            sign = 1
        elif ch == "-":
            toks.take()
            sign = -1
        else:
            return out


def ref_term(toks, A):
    out = ref_factor(toks, A)
    while True:
        ch = toks.peek()
        if ch == "*":
            toks.take()
            out = out * ref_factor(toks, A)
        elif ch is not None and ch in _REF_ATOM_STARTERS:
            out = out * ref_factor(toks, A)
        else:
            return out


def ref_factor(toks, A):
    if toks.peek() == "-":
        toks.take()
        return -ref_factor(toks, A)
    base = ref_atom(toks, A)
    if toks.peek() == "^":
        toks.take()
        n = toks.number()
        return base ** n
    return base


def ref_atom(toks, A):
    ch = toks.peek()
    if ch is None:
        toks.error("unexpected end of input")
    if ch.isdigit():
        num = toks.number()
        if toks.peek() == "/":
            toks.take()
            den = toks.number()
            if den == 0:
                toks.error("zero denominator")
            return QPoly(A, [A.scalar(Fr(num, den))])
        return QPoly(A, [A.scalar(num)])
    if ch == "i":
        toks.take()
        return QPoly(A, [A.i])
    if ch == "j":
        toks.take()
        return QPoly(A, [A.j])
    if ch == "k":
        toks.take()
        return QPoly(A, [A.k])
    if ch == "x":
        toks.take()
        return QPoly.x(A)
    if ch == "(":
        toks.take()
        inner = ref_expr(toks, A)
        if toks.peek() != ")":
            toks.error("expected ')'")
        toks.take()
        return inner
    toks.error("unexpected character %r" % ch)


PARSE_ALGEBRAS = (QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3),
                  QuaternionAlgebra(Fr(-1, 2), Fr(3, 7)))


def rnd_expr(rng, depth=0):
    """A signed sum of products of atoms: integers, rationals, i, j, k, x
    and parenthesized sums two deep, joined by *, a space or nothing,
    with ^ 0-3, unary minus and stray whitespace."""
    def ws():
        return rng.choice(("", "", "", " ", "  ", "\t"))

    def atom():
        kind = rng.randrange(5 if depth < 2 else 4)
        if kind == 0:
            return str(rng.randint(0, 12))
        if kind == 1:
            return "%d%s/%s%d" % (rng.randint(0, 12), ws(), ws(),
                                  rng.randint(1, 9))
        if kind < 4:
            return rng.choice("ijkxx")
        return "(" + ws() + rnd_expr(rng, depth + 1) + ws() + ")"

    def factor():
        out = atom()
        if rng.random() < 0.25:
            out += ws() + "^" + ws() + str(rng.randint(0, 3))
        return ("-" + ws() + out) if rng.random() < 0.1 else out

    def term():
        out = factor()
        for _ in range(rng.randint(0, 2)):
            nxt, sep = factor(), rng.choice(("*", " ", ""))
            if sep == "" and out[-1].isdigit() and nxt[0].isdigit():
                sep = " "
            out += ws() + sep + ws() + nxt
        return out

    out = rng.choice(("", "", "-", "+")) + ws() + term()
    for _ in range(rng.randint(0, 3 if depth == 0 else 1)):
        out += ws() + rng.choice("+-") + ws() + term()
    return out


def parse_outcome(parse, text, A):
    """(den, num) of the parsed text, or the message and position of its
    PolyParseError."""
    try:
        p = parse(text, A)
    except PolyParseError as exc:
        return str(exc), exc.position
    return p.den, p.num


# every input of test_parse_errors_carry_position, and each error kind
PARSE_ERRORS = ("", "x +", "(x", "x^", "1/0", "x^-2", "y", "3//2", "x + @",
                "  ", "x ^ ", "1/ 00 ", "2 / 0 x", "x^2^3", "(x))", "3/x",
                "x٣", "(1+k)x^2 -", "i j )", "*x", "x**2", "(", ")", "x/2",
                "- - ", "x + (i - ", "2(3/", "x^(2)")


def test_token_parser_is_the_character_parser():
    """Parsing onto the kernel in one token pass gives the (den, num) of
    the old parser on random expressions over three algebras; on known
    bad inputs and on those expressions with a character inserted or
    deleted, it fails with the same message at the same position."""
    rng = random.Random(181)
    texts = [rnd_expr(rng) for _ in range(700)]
    mutants = []
    for text in texts[:400]:
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            mutants.append(text[:at] + rng.choice("()+-*/^@y.") + text[at:])
        elif at < len(text) and not text[at].isdigit():
            mutants.append(text[:at] + text[at + 1:])
    # a deletion can join an exponent to the digits after it; keep the
    # exponents small so that the corpus stays fast
    mutants = [t for t in mutants if not re.search(r"\^\s*\d\d", t)]
    failed = 0
    for n, text in enumerate(texts + mutants + list(PARSE_ERRORS)):
        A = PARSE_ALGEBRAS[n % 3]
        got = parse_outcome(parse_poly, text, A)
        assert got == parse_outcome(ref_parse_poly, text, A), text
        failed += isinstance(got[0], str)
    assert failed >= len(PARSE_ERRORS) + 100


# ---------------------------------------------------------------------------
# Dedekind-Kummer: splitting_type read (e, f) off m mod p where Z[theta]
# is p-maximal; it now splits O/pO on that path too

def ref_gfp_factor(f, p):
    """Factor any nonzero poly over GF(p): list of (monic irreducible, mult)."""
    F = GF(p)
    f = dense.monic(dense.trim([c % p for c in f]), F)
    out = {}

    def rec(g, mult):
        if len(g) - 1 < 1:
            return
        dg = dense.derivative(g, F)
        if not dg:
            # g = h(x^p) = h(x)^p over the prime field
            rec(dense.trim(g[::p]), mult * p)
            return
        s = dense.gcd(g, dg, F)
        w = dense.divmod(g, s, F)[0]
        k = 1
        while len(w) > 1:
            y = dense.gcd(w, s, F)
            z = dense.divmod(w, y, F)[0]
            if len(z) > 1:
                for q in ratpoly.gfp_factor_squarefree(z, p):
                    out[tuple(q)] = out.get(tuple(q), 0) + mult * k
            w = y
            s = dense.divmod(s, y, F)[0]
            k += 1
        if len(s) > 1:
            # leftover multiplicities are divisible by p: s = t(x^p)
            rec(dense.trim(s[::p]), mult * p)

    rec(f, 1)
    return [(list(q), m) for q, m in sorted(out.items())]


# ---------------------------------------------------------------------------
# RatPoly as integers over one denominator: the Fraction RatPoly it replaced

def ref_wrap(coeffs):
    """The RatPoly of a core result (trimmed list of Fractions), without
    the constructor's conversion."""
    out = object.__new__(RefRatPoly)
    out.coeffs = tuple(coeffs)
    return out


class RefRatPoly:
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
        if isinstance(other, RefRatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fr)):
            return self.coeffs == RefRatPoly.const(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return ref_wrap([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fr)):
            other = RefRatPoly.const(other)
        if not isinstance(other, RefRatPoly):
            return NotImplemented
        return ref_wrap(dense.add(self.coeffs, other.coeffs, QQ))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fr)):
            other = RefRatPoly.const(other)
        if not isinstance(other, RefRatPoly):
            return NotImplemented
        return ref_wrap(dense.sub(self.coeffs, other.coeffs, QQ))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fr)):
            return ref_wrap(dense.scale(self.coeffs, other, QQ))
        if not isinstance(other, RefRatPoly):
            return NotImplemented
        return ref_wrap(dense.mul(self.coeffs, other.coeffs, QQ))

    __rmul__ = __mul__

    def __pow__(self, n):
        return dense.power(self, n, RefRatPoly.const(1))

    def __divmod__(self, other):
        if isinstance(other, (int, Fr)):
            other = RefRatPoly.const(other)
        if not isinstance(other, RefRatPoly):
            return NotImplemented
        if other.is_zero:
            raise DegenerateInput("division by zero polynomial")
        q, r = dense.divmod(self.coeffs, other.coeffs, QQ)
        return ref_wrap(q), ref_wrap(r)

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
        return ref_wrap(dense.monic(self.coeffs, QQ))

    def derivative(self):
        return ref_wrap(dense.derivative(self.coeffs, QQ))

    def __call__(self, v):
        return dense.evaluate(self.coeffs, v, QQ)

    def denominator_lcm(self):
        return math.lcm(*[c.denominator for c in self.coeffs])

    def int_coeffs(self):
        """Integer coefficient list of d*self, d = lcm of denominators."""
        d = self.denominator_lcm()
        return [int(c * d) for c in self.coeffs]

    def primitive_int(self):
        """Primitive integer poly with positive lc in the same Q*-class."""
        return ratpoly._primitive(self.int_coeffs())

    def __repr__(self):
        return "RatPoly([%s])" % ", ".join(map(str, self.coeffs))

    def __str__(self):
        return ref_format_terms(self.coeffs)


def ref_format_terms(coeffs):
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


def ref_from_int_list(ic, den=1):
    """The RatPoly of integer coefficients ic, each divided by den."""
    return ref_wrap(dense.trim([Fr(c, den) for c in ic]))


def ref_rp_gcd(a, b):
    """Monic gcd in Q[x], by a primitive remainder sequence over Z."""
    if a.is_zero and b.is_zero:
        raise DegenerateInput("gcd(0, 0) is undefined")
    f = ratpoly._primitive_gcd(a.primitive_int(), b.primitive_int())[0]
    return ref_wrap(dense.monic([Fr(c) for c in f], QQ))


def ref_squarefree_decomposition(p):
    """Yun's algorithm: list of (monic squarefree factor, multiplicity)."""
    if p.is_zero:
        raise DegenerateInput("cannot decompose the zero polynomial")
    return [(ref_from_int_list(a).monic(), i)
            for a, i in ratpoly._squarefree_int(p.primitive_int())]


def ref_rp_factor(p):
    """(content, [(monic irreducible, multiplicity)]) of rp_factor."""
    if p.is_zero:
        raise DegenerateInput("cannot factor the zero polynomial")
    found = {}
    for sf, mult in ratpoly._squarefree_int(p.primitive_int()):
        for g in ratpoly._factor_squarefree_int(sf):
            gm = tuple(dense.monic([Fr(c) for c in g], QQ))
            found[gm] = found.get(gm, 0) + mult
    factors = sorted(((ref_wrap(c), m) for c, m in found.items()),
                     key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return p.lc, factors


def rnd_rational_coeffs(rng):
    """Coefficients of zero, a constant or a polynomial of degree up to 6,
    with a leading coefficient of either sign and sometimes trailing
    zeros, over denominators up to 12."""
    deg = rng.choice((-1, 0, 0, 1, 2, 3, 4, 5, 6))
    cs = [Fr(rng.randint(-12, 12), rng.randint(1, 12))
          for _ in range(deg + 1)]
    if cs and not cs[-1]:
        cs[-1] = Fr(rng.choice((-1, 1)) * rng.randint(1, 12),
                    rng.randint(1, 4))
    return cs + [0] * rng.randint(0, 1)


def outcome(fn, *args):
    """fn(*args), or the type of the DegenerateInput it raises."""
    try:
        return fn(*args)
    except DegenerateInput as exc:
        return type(exc)


def tagged(value):
    """value with each RatPoly or RefRatPoly as ("poly", coefficients) and
    each other scalar as (type, value), through tuples and lists; a
    RatPoly must be in lowest terms over a positive denominator."""
    if isinstance(value, RatPoly):
        assert value.den > 0 and math.gcd(value.den, *value.num) == 1
        assert not value.num or value.num[-1]
        assert all(type(c) is int for c in value.num)
        return "poly", value.coeffs
    if isinstance(value, RefRatPoly):
        return "poly", value.coeffs
    if isinstance(value, (tuple, list)):
        return [tagged(v) for v in value]
    return type(value), value


RATPOLY_BINARY = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
                  lambda x, y: y + x, lambda x, y: y - x, lambda x, y: y * x,
                  divmod, lambda x, y: x % y, lambda x, y: x // y,
                  lambda x, y: x.exact_div(y), lambda x, y: x == y,
                  lambda x, y: y == x)
RATPOLY_UNARY = (lambda p: -p, lambda p: p.monic(), lambda p: p ** 2,
                 lambda p: p.derivative(), lambda p: p.is_monic,
                 lambda p: p.degree, lambda p: p.is_zero, bool,
                 lambda p: p.lc, str, repr, lambda p: p.primitive_int(),
                 lambda p: [p[i] for i in range(-1, p.degree + 3)],
                 lambda p: p == p.monic())


def test_integer_ratpoly_is_the_fraction_ratpoly():
    """Every public member of RatPoly, and rp_gcd, squarefree_decomposition
    and rp_factor, on random rational polynomials (zero, constants and
    negative leading coefficients among them), against the Fraction
    RatPoly: the same values of the same types, and each result a RatPoly
    in lowest terms."""
    rng = random.Random(80)
    for _ in range(600):
        ca, cb = rnd_rational_coeffs(rng), rnd_rational_coeffs(rng)
        a, b, ra, rb = RatPoly(ca), RatPoly(cb), RefRatPoly(ca), RefRatPoly(cb)
        s = rng.choice((rng.randint(-4, 4),
                        Fr(rng.randint(-9, 9), rng.randint(1, 9))))
        v = rng.choice((rng.randint(-3, 3), Fr(rng.randint(-9, 9), 7)))
        cases = [(member, (a,), None, (ra,)) for member in RATPOLY_UNARY]
        cases += [(op, (a, y), None, (ra, ry)) for op in RATPOLY_BINARY
                  for y, ry in ((b, rb), (s, s))]
        cases += [(lambda p, w: p(w), (a, v), None, (ra, v)),
                  (lambda p, q: (p * q).exact_div(q), (a, b), None, (ra, rb)),
                  (rp_gcd, (a, b), ref_rp_gcd, (ra, rb)),
                  (squarefree_decomposition, (a,),
                   ref_squarefree_decomposition, (ra,)),
                  (factor_pair, (a,), ref_rp_factor, (ra,))]
        for member, args, ref_member, ref_args in cases:
            want = outcome(ref_member or member, *ref_args)
            assert tagged(outcome(member, *args)) == tagged(want)


def factor_pair(p):
    """(content, factors) of rp_factor(p)."""
    fac = ratpoly.rp_factor(p)
    return fac.content, fac.factors


def test_repeated_factors_factor_as_the_fraction_ratpoly():
    """rp_factor and squarefree_decomposition on products with repeated
    and shared factors, where the sort by rationals has ties of degree."""
    rng = random.Random(81)
    for _ in range(150):
        c = Fr(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        p, rp = RatPoly.const(c), RefRatPoly.const(c)
        for _ in range(3):
            cs, e = rnd_rational_coeffs(rng), rng.randint(1, 3)
            if RatPoly(cs).degree > 0:
                p, rp = p * RatPoly(cs) ** e, rp * RefRatPoly(cs) ** e
        assert tagged(factor_pair(p)) == tagged(ref_rp_factor(rp))
        assert tagged(squarefree_decomposition(p)) == \
            tagged(ref_squarefree_decomposition(rp))


def test_division_by_a_negative_leading_coefficient():
    """s > 0 in s*f = q*g + r also when lc(g) < 0, and divmod agrees with
    the Fraction division for zero, constant and negative divisors."""
    cases = [([], [Fr(-2, 3)]), ([1, 2, 3], [Fr(-2, 3)]),
             ([5, 0, -1, 4], [1, Fr(-3, 2)]), ([0, 0, 1], [0, -1]),
             ([Fr(1, 2), 1], [Fr(1, 3), 0, -7]), ([Fr(7, 4)], [-1])]
    for cf, cg in cases:
        f, g = RatPoly(cf), RatPoly(cg)
        s, q, r = ratpoly._pseudo_divmod(list(f.num), list(g.num))
        assert s > 0 and dense.sub(dense.scale(f.num, s, ZZ),
                                   dense.mul(q, g.num, ZZ), ZZ) == r
        assert tagged(divmod(f, g)) == \
            tagged(divmod(RefRatPoly(cf), RefRatPoly(cg)))
    with pytest.raises(DegenerateInput):
        divmod(RatPoly([1, 2]), RatPoly())


# ---------------------------------------------------------------------------
# number-field elements as one RatPoly: the Fraction NFElement and the
# coordinate norm they replaced

class RefNumberField(NumberField):
    """NumberField with the Fraction elements: element, from_rational and
    gen as they were, and dense.py's field object over RefNFElement."""

    @property
    def field(self):
        return dense.Field(self.zero(), self.one(), dense.same,
                           RefNFElement.inv)

    def element(self, coords):
        coords = dense.trim([Fr(c) for c in coords])
        if len(coords) > self.degree:
            coords = dense.divmod(coords, self.minpoly.coeffs, QQ)[1]
        return ref_nf_element(self, coords)

    def from_rational(self, c):
        return self.element([Fr(c)])

    def gen(self):
        return self.element([0, 1] if self.degree > 1
                            else [-self.minpoly[0]])


def ref_nf_element(L, coords):
    """The element of L with Fraction coordinates coords (at most
    L.degree of them), padded with zeros, without conversion."""
    out = object.__new__(RefNFElement)
    out.parent = L
    out.coords = tuple(coords + [Fr(0)] * (L.degree - len(coords)))
    return out


class RefNFElement:
    __slots__ = ("parent", "coords")

    def __init__(self, parent, coords):
        self.parent = parent
        self.coords = tuple([Fr(c) for c in coords])

    @property
    def poly(self):
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

    def _coerce(self, other):
        if isinstance(other, RefNFElement):
            if other.parent != self.parent:
                raise DegenerateInput("elements of different fields")
            return other
        if isinstance(other, (int, Fr)):
            return self.parent.from_rational(other)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.parent.minpoly, self.coords))

    def __neg__(self):
        return ref_nf_element(self.parent, [-c for c in self.coords])

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ref_nf_element(self.parent,
                              [a + b for a, b in zip(self.coords,
                                                     other.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ref_nf_element(self.parent,
                              [a - b for a, b in zip(self.coords,
                                                     other.coords)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fr)):
            return ref_nf_element(self.parent,
                                  [c * other for c in self.coords])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        L = self.parent
        prod = dense.mul(self._poly(), other._poly(), QQ)
        return ref_nf_element(L, dense.divmod(prod, L.minpoly.coeffs, QQ)[1])

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero in number field")
        L = self.parent
        g, u, _ = xgcd(self._poly(), L.minpoly.coeffs, QQ)
        if len(g) != 1:
            raise InternalInvariantViolation("minpoly not irreducible?")
        # deg u < deg minpoly - deg g, so u is already reduced
        return ref_nf_element(L, u)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, n):
        return dense.power(self, n, self.parent.one())

    def __repr__(self):
        return "NF(%s)" % (self.poly,)


def ref_nf_poly_norm(f, L):
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
            values.append(ratpoly.resultant(L.minpoly, theta_poly))
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


# minimal polynomials over denominators above 1, then random ones of
# degree 1 to 6
NF_MINPOLYS = ([Fr(-1, 2), 0, 1], [Fr(1, 2), Fr(1, 3), 0, 1],
               [-2, 0, 1], [1, 0, 1], [Fr(3, 4), 1])


def nf_minpolys(rng, count):
    """count monic irreducible minimal polynomials: NF_MINPOLYS, then
    random ones of degree 1 to 6 over denominators up to 4."""
    out = [RatPoly(m) for m in NF_MINPOLYS]
    while len(out) < count:
        n = 1 + len(out) % 6
        m = RatPoly([Fr(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(n)] + [1])
        if n == 1 or rp_is_irreducible(m):
            out.append(m)
    return out


def nf_tagged(value):
    """value with each NFElement or RefNFElement as ("el", coordinates)
    and each other scalar as (type, value), through tuples and lists; an
    NFElement must hold a RatPoly of degree below that of its field."""
    if isinstance(value, NFElement):
        assert isinstance(value.poly, RatPoly)
        assert value.poly.degree < value.parent.degree
        return "el", value.coords
    if isinstance(value, RefNFElement):
        return "el", value.coords
    if isinstance(value, RatPoly):
        return "poly", value.den, value.num
    if isinstance(value, (tuple, list)):
        return [nf_tagged(v) for v in value]
    return type(value), value


def nf_outcome(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except (DegenerateInput, DivisionByZero, TypeError) as exc:
        return type(exc)


NF_BINARY = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
             lambda x, y: x / y, lambda x, y: x == y)
NF_UNARY = (lambda a: -a, lambda a: a.inv(), lambda a: a ** 3,
            lambda a: a ** 0, lambda a: a.is_zero, bool,
            lambda a: a.is_rational, lambda a: a.poly, lambda a: a.coords,
            repr,
            lambda a: a == a.parent.gen(), lambda a: a * a.parent.gen())


def rnd_coords(rng, n):
    """Up to 2n rational coordinates, so that some need reducing."""
    return [Fr(rng.randint(-6, 6), rng.randint(1, 5))
            for _ in range(rng.randint(0, 2 * n))]


def test_ratpoly_element_is_the_fraction_element():
    """Every public member of NFElement and of NumberField's element
    constructors, on random fields of degree 1 to 6 (some over
    denominators above 1) and random elements with up to twice the
    degree in coordinates, against the Fraction NFElement: the same
    values, and the same equal hashes on equal elements."""
    rng = random.Random(230)
    for m in nf_minpolys(rng, 36):
        L, R = NumberField.unchecked(m), RefNumberField.unchecked(m)
        pairs = [(L.zero(), R.zero()), (L.one(), R.one()),
                 (L.gen(), R.gen())]
        for _ in range(12):
            cs = rnd_coords(rng, L.degree)
            pairs.append((L.element(cs), R.element(cs)))
            pairs.append((NFElement(L, cs), R.element(cs)))
        for _ in range(3):
            c = Fr(rng.randint(-6, 6), rng.randint(1, 3))
            pairs.append((L.from_rational(c), R.from_rational(c)))
        for a, ra in pairs:
            for member in NF_UNARY:
                assert nf_tagged(nf_outcome(member, a)) == \
                    nf_tagged(nf_outcome(member, ra))
            s = rng.choice((rng.randint(-3, 3), Fr(rng.randint(-5, 5), 3)))
            b, rb = rng.choice(pairs)
            for op in NF_BINARY:
                for y, ry in ((b, rb), (s, s)):
                    assert nf_tagged(nf_outcome(op, a, y)) == \
                        nf_tagged(nf_outcome(op, ra, ry))
                    assert nf_tagged(nf_outcome(op, y, a)) == \
                        nf_tagged(nf_outcome(op, ry, ra))
            assert (hash(a) == hash(b)) == (ra == rb) == \
                (hash(ra) == hash(rb))


def nf_factor_over_quadratic(p, d):
    """Factor p (monic, irreducible over Q) over Q(sqrt(d)).

    Returns (L2, factors): L2 = Q[x]/(x^2 - d) and the monic irreducible
    factors of p over L2 as NFElement coefficient lists, one factor when
    Q(sqrt(d)) is not a subfield of Q[x]/(p).  The field class and the
    factorisation are read off numberfield at call time, so that ref_call
    runs this on the Fraction elements.
    """
    sq = math.isqrt(abs(d))
    if d >= 0 and sq * sq == d:
        raise DegenerateInput("d must not be a square")
    if not p.is_monic:
        raise PreconditionViolation("input polynomial must be monic")
    # d is no square
    L2 = numberfield.NumberField.unchecked(RatPoly([-d, 0, 1]))
    f = [L2.from_rational(c) for c in p.coeffs]
    return L2, numberfield.nf_factor_squarefree(f, L2)


def ref_trager_norm(f, L):
    """Norm from L[y] to Q[y]: product of f over all embeddings of L.

    f^n for f over Q; else the Newton interpolant of the norms
    Res_theta(minpoly, f(t)) at n deg f + 1 integers t = 0, 1, -1, 2, ...
    """
    n = L.degree
    if all(c.is_rational for c in f):
        return RatPoly([c.poly[0] for c in f]) ** n
    poly, base = RatPoly(), RatPoly.const(1)
    for k in range(n * (len(f) - 1) + 1):
        t = (k + 1) // 2 if k % 2 else -(k // 2)
        value = ratpoly.resultant(L.minpoly,
                                  dense.evaluate(f, t, L.field).poly)
        poly = poly + base * ((value - poly(t)) / base(t))
        base = base * RatPoly([-t, 1])
    return poly


def ref_trager_factor(f, L):
    """Monic irreducible factors over L of a monic squarefree f in L[y],
    with the shift k starting at 0 whatever f and L are."""
    if len(f) - 1 == 1:
        return [f]
    F = L.field
    theta = L.gen()
    k = 0
    while True:
        shift = [theta * (-k), L.one()]  # y - k*theta
        fs = dense.compose(f, shift, F)
        norm = ref_trager_norm(fs, L)
        if rp_gcd(norm, norm.derivative()).degree == 0:
            break
        k += 1
    fac = ratpoly.rp_factor(norm)
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


def ref_call(fn, *args):
    """fn(*args) with numberfield on the Fraction elements and norm."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("NumberField", RefNumberField),
                            ("NFElement", RefNFElement),
                            ("nf_poly_norm", ref_nf_poly_norm)):
            mp.setattr(numberfield, name, value)
        return fn(*args)


def test_trager_steps_are_the_fraction_steps(monkeypatch):
    """nf_poly_norm, nf_factor_squarefree, nf_factor_over_quadratic and
    nf_sqrt without its local pre-test, on the fields of the element test,
    against the same steps on the Fraction elements and the coordinate
    norm: the same norms, factors and roots."""
    monkeypatch.setattr(numberfield, "_local_nonsquare", lambda el: False)
    rng = random.Random(231)
    for m in nf_minpolys(rng, 24):
        L, R = NumberField.unchecked(m), RefNumberField.unchecked(m)
        n = L.degree
        a, b, c = [rnd_coords(rng, n) for _ in range(3)]

        def both(build):
            return build(L), build(R)

        # squarefree monic inputs: m itself, (y - a)(y - b) and y^2 - c
        polys = [both(lambda K: [K.from_rational(x) for x in m.coeffs])]
        if L.element(a) != L.element(b):
            polys.append(both(lambda K: dense.mul(
                [-K.element(a), K.one()], [-K.element(b), K.one()],
                K.field)))
        if L.element(c):
            polys.append(both(lambda K: [-K.element(c), K.zero(),
                                         K.one()]))
        for f, rf in polys:
            assert nf_tagged(nf_poly_norm(f, L)) == \
                nf_tagged(ref_nf_poly_norm(rf, R))
            assert nf_tagged(nf_factor_squarefree(f, L)) == \
                nf_tagged(ref_call(nf_factor_squarefree, rf, R))
        # norms of a polynomial that need not be monic, and of one whose
        # value at t = -1, 2, is rational (a point the coordinate norm
        # skipped for n > 1)
        for cs in ((a, c, b), ([1, 1], [0, 1], [1])):
            f, rf = both(lambda K: [K.element(x) for x in cs])
            if f[-1]:
                assert nf_tagged(nf_poly_norm(f, L)) == \
                    nf_tagged(ref_nf_poly_norm(rf, R))
        for d in (rng.randint(-6, 6), L.element(c)):
            rd = R.element(c) if isinstance(d, NFElement) else d
            assert nf_tagged(nf_sqrt(d, L)) == \
                nf_tagged(ref_call(nf_sqrt, rd, R))
            assert nf_tagged(nf_sqrt(d * d, L)) == \
                nf_tagged(ref_call(nf_sqrt, rd * rd, R))
        # d of the subfield of a quadratic m, where m splits, and another
        ds = [rng.choice((-7, -3, -2, -1, 2, 3, 5))] if n > 1 else []
        if n == 2:
            ds.append(squarefree_kernel(m[1] * m[1] - 4 * m[0]))
        for d in ds:
            L2, got = nf_factor_over_quadratic(m, d)
            R2, want = ref_call(nf_factor_over_quadratic, m, d)
            assert isinstance(R2, RefNumberField) and L2 == R2
            assert nf_tagged(got) == nf_tagged(want)


def test_trager_runs_as_before_from_the_first_useful_shift():
    """nf_poly_norm without its f^n branch, nf_factor_squarefree, whose
    shift starts at k = 1 for f over Q in a field of degree > 1, and
    _trager_half, which builds Q(sqrt d) itself, on the fields of the
    Trager steps against ref_trager_norm, Trager from k = 0 and
    nf_factor_over_quadratic: the same norms, factors and halves."""
    rng = random.Random(232)
    for m in nf_minpolys(random.Random(231), 24):
        L = NumberField.unchecked(m)
        n = L.degree
        a, b, c = [L.element(rnd_coords(rng, n)) for _ in range(3)]
        y = L.one()
        # squarefree monic inputs: m itself, (y - a)(y - b), y^2 - c and
        # y^2 - e for a rational e
        polys = [[L.from_rational(x) for x in m.coeffs],
                 [-L.from_rational(rng.randint(1, 9)), L.zero(), y]]
        if a != b:
            polys.append(dense.mul([-a, y], [-b, y], L.field))
        if c:
            polys.append([-c, L.zero(), y])
        for f in polys:
            assert nf_tagged(nf_poly_norm(f, L)) == \
                nf_tagged(ref_trager_norm(f, L))
            assert nf_tagged(nf_factor_squarefree(f, L)) == \
                nf_tagged(ref_trager_factor(f, L))
        ds = [rng.choice((-7, -3, -2, -1, 2, 3, 5))] if n > 1 else []
        if n == 2:
            ds.append(squarefree_kernel(m[1] * m[1] - 4 * m[0]))
        for d in ds:
            L2, parts = nf_factor_over_quadratic(m, d)
            want = ref_trager_factor([L2.from_rational(x)
                                      for x in m.coeffs], L2)
            assert nf_tagged(parts) == nf_tagged(want)
            half = quadform._trager_half(m, d)
            assert half == (None if len(want) == 1
                            else [x.coords for x in want[0]])


# ---------------------------------------------------------------------------
# the heuristic gcd GCDHEU, equal-degree splitting from the Frobenius powers
# and the fused powmod: the remainder-sequence gcd, the random splitting and
# the powmod with a divmod per product they replaced

def ref_powmod(f, e, m, F):
    """f^e mod m."""
    return dense.power(dense.divmod(f, m, F)[1], e, [F.one],
                       lambda a, b: dense.divmod(dense.mul(a, b, F), m,
                                                 F)[1])


def ref_primitive_gcd(f, g):
    """The primitive gcd with positive lc of integer polys f, g, not both
    zero, by a primitive remainder sequence over Z (Collins 1967): each
    pseudo-remainder is divided by its integer content."""
    f, g = ratpoly._primitive(f), ratpoly._primitive(g)
    while g:
        f, g = g, ratpoly._primitive(ratpoly._pseudo_divmod(f, g)[2])
    return f


def ref_edf(f, d, p, rng):
    """Equal-degree splitting of monic squarefree f into factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    F = GF(p)
    if d == 1 and p < ratpoly._ROOT_SEARCH_BOUND:
        return [[-r % p, 1] for r in range(p) if not dense.evaluate(f, r, F)]
    while True:
        r = dense.trim([rng.randrange(p) for _ in range(n)])
        if len(r) < 2:
            continue
        if p == 2:
            s = []
            t = dense.divmod(r, f, F)[1]
            for _ in range(d):
                s = dense.add(s, t, F)
                t = ref_powmod(t, 2, f, F)
        else:
            s = dense.sub(ref_powmod(r, (p ** d - 1) // 2, f, F), [1], F)
        g = dense.gcd(s, f, F) if s else []
        if g and 0 < len(g) - 1 < n:
            return (ref_edf(g, d, p, rng)
                    + ref_edf(dense.divmod(f, g, F)[0], d, p, rng))


def ref_gfp_factor_squarefree(f, p):
    """Irreducible factors of a monic squarefree poly over GF(p).

    Distinct-degree factorization, then equal-degree splitting of each
    part; for p < _ROOT_SEARCH_BOUND the linear factors are x - r for the
    roots r of the degree-1 part, by evaluation at every residue."""
    rng = random.Random((0, tuple(f), p).__hash__())
    F = GF(p)
    out = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = ref_powmod(h, p, v, F)
        g = dense.gcd(dense.sub(h, [0, 1], F), v, F)
        if len(g) > 1:
            out.extend(ref_edf(g, d, p, rng))
            v = dense.divmod(v, g, F)[0]
            h = dense.divmod(h, v, F)[1]
    if len(v) > 1:
        out.append(v)
    return out


SPLIT_PRIMES = (2, 3, 5, 7, 11, 67, 101, 257)


def rnd_gfp_squarefree(rng, p, n):
    """A monic squarefree poly of degree n over GF(p): a product of random
    monic factors of degree 1 to 4, often several of one degree, or a
    random poly, redrawn until squarefree."""
    F = GF(p)
    while True:
        if rng.random() < 0.5:
            f = [rng.randrange(p) for _ in range(n)] + [1]
        else:
            f, top = [1], rng.randint(1, min(n, 4))
            while len(f) - 1 < n:
                k = min(rng.choice((top, top, rng.randint(1, top))),
                        n - len(f) + 1)
                f = dense.mul(f, [rng.randrange(p) for _ in range(k)] + [1],
                              F)
        if dense.gcd(f, dense.derivative(f, F), F) == [1]:
            return f


def test_frobenius_splitting_is_the_random_splitting():
    """For each prime of SPLIT_PRIMES and each degree 2 to 16, the sorted
    modular factors of random squarefree polys are those of the random
    splitting on (p^d-1)/2 powers."""
    rng = random.Random(240)
    for p in SPLIT_PRIMES:
        for n in range(2, 17):
            for _ in range(3):
                f = rnd_gfp_squarefree(rng, p, n)
                got = ratpoly.gfp_factor_squarefree(f, p)
                assert sorted(got) == sorted(ref_gfp_factor_squarefree(f, p))
                assert all(q[-1] == 1 for q in got)


def test_every_probe_failing_leaves_random_splitting(monkeypatch):
    """With no probe splitting, random splitting alone gives the factors;
    and mod 3 the probes cannot tell apart two quartics whose values at
    0, 1, 2 have the same quadratic characters, so that split is random
    without any patch."""
    calls = []
    split = ratpoly._random_split

    def spy(f, d, p, rng):
        calls.append((d, p))
        return split(f, d, p, rng)

    monkeypatch.setattr(ratpoly, "_random_split", spy)
    F = GF(3)
    f = dense.mul([1, 0, 1, 1, 1], [1, 1, 1, 0, 1], F)
    assert sorted(ratpoly.gfp_factor_squarefree(f, 3)) == \
        [[1, 0, 1, 1, 1], [1, 1, 1, 0, 1]]
    assert calls and all(c == (4, 3) for c in calls)

    monkeypatch.setattr(ratpoly, "_probe_split",
                        lambda f, d, p, frob, c: (None, p))
    rng = random.Random(241)
    for p in SPLIT_PRIMES[1:]:
        for n in (4, 9, 16):
            calls.clear()
            f = rnd_gfp_squarefree(rng, p, n)
            want = ref_gfp_factor_squarefree(f, p)
            assert sorted(ratpoly.gfp_factor_squarefree(f, p)) == \
                sorted(want)
            degrees = [len(q) - 1 for q in want]
            assert bool(calls) == any(
                degrees.count(d) > 1 and (d > 1 or p >= 64)
                for d in degrees)


def test_fused_powmod_is_the_divmod_powmod():
    """Over GF(p) for the split primes and over Q, moduli monic or not and
    of degree 0 to 6, exponents 0 to 40 and a few large ones."""
    rng = random.Random(242)
    fields = [(GF(p), lambda r, p=p: r.randrange(p)) for p in SPLIT_PRIMES]
    fields.append((QQ, lambda r: Fr(r.randint(-9, 9), r.randint(1, 4))))
    for F, elt in fields:
        for _ in range(40):
            m = dense.trim([elt(rng) for _ in range(rng.randint(1, 7))])
            if not m:
                continue
            f = dense.trim([elt(rng) for _ in range(rng.randint(0, 9))])
            e = rng.choice((rng.randint(0, 40), rng.randint(0, 10 ** 6)))
            if F is QQ:
                e %= 6
            assert dense.powmod(f, e, m, F) == ref_powmod(f, e, m, F)
    with pytest.raises(DivisionByZero):
        dense.powmod([1, 1], 2, [], GF(5))


def rnd_int_poly(rng, deg, height):
    return dense.trim([rng.randint(-height, height) for _ in range(deg)]
                      + [rng.choice((-1, 1)) * rng.randint(1, height)])


def planted_gcd_pairs(rng):
    """Integer polys f, g with a planted common factor h of degree 0 to 6,
    contents and signs of either kind, and constants and zero among them."""
    pairs = [([5], [0, 3]), ([-3], [-2, 0, 4]), ([7], [14]), ([], [-6, 9]),
             ([0, -4, 2], []), ([-1], [1]), ([-2, 1], [2, -1]),
             ([1, 2, 1], [-3, -3])]
    for _ in range(300):
        h = rnd_int_poly(rng, rng.randint(0, 6), rng.choice((2, 9, 1000)))
        a = rnd_int_poly(rng, rng.randint(0, 8), rng.choice((3, 50)))
        b = rnd_int_poly(rng, rng.randint(0, 8), rng.choice((3, 50)))
        if rng.random() < 0.2:
            b = dense.mul(a, [rng.randint(-2, 2), 1], ZZ)
        f, g = dense.mul(h, a, ZZ), dense.mul(h, b, ZZ)
        f = dense.scale(f, rng.choice((1, -1, 6, -35)), ZZ)
        pairs.append((f, g))
    return pairs


def test_heuristic_gcd_is_the_remainder_sequence():
    """_primitive_gcd, primitive_gcd_cofactors and rp_gcd on planted
    common factors, constants and negative leading coefficients give the
    remainder sequence's gcd, _primitive_gcd with the quotients of the
    primitive parts by it, and GCDHEU finds it on every pair of
    nonconstant inputs without the fallback."""
    rng = random.Random(243)
    pairs = planted_gcd_pairs(rng)
    tried = answered = 0
    for f, g in pairs:
        want = ref_primitive_gcd(f, g)
        pf, pg = ratpoly._primitive(f), ratpoly._primitive(g)
        quotients = [ratpoly._quo(pf, want), ratpoly._quo(pg, want)]
        assert ratpoly._primitive_gcd(f, g) == (want, *quotients), (f, g)
        assert ratpoly.primitive_gcd_cofactors([f, g]) == (
            want, [ratpoly._quo(f, want), ratpoly._quo(g, want)])
        if len(pf) > 1 and len(pg) > 1:
            tried += 1
            answered += ratpoly._heu_gcd(pf, pg) == (want, *quotients)
        assert rp_gcd(RatPoly(f), RatPoly(g)) == \
            ratpoly.from_int_list(want, want[-1])
    assert answered == tried > 250


def test_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    """When GCDHEU's candidate test rejects every point, _HEU_TRIES of
    them, the remainder sequence gives the same gcd and quotients."""
    rng = random.Random(244)
    pairs = planted_gcd_pairs(rng)
    tests, remainders = [], []
    pseudo_divmod = ratpoly._pseudo_divmod
    exact_quotient = ratpoly._exact_quotient

    def reject(f, g):
        # only GCDHEU's candidate test is rejected, not the division of
        # the inputs by the gcd of the remainder sequence
        if sys._getframe(1).f_code.co_name != "_heu_gcd":
            return exact_quotient(f, g)
        tests.append(g)
        return None

    def spy(f, g):
        remainders.append(g)
        return pseudo_divmod(f, g)

    monkeypatch.setattr(ratpoly, "_exact_quotient", reject)
    monkeypatch.setattr(ratpoly, "_pseudo_divmod", spy)
    for f, g in pairs:
        tests.clear()
        remainders.clear()
        heuristic = (len(ratpoly._primitive(f)) > 1
                     and len(ratpoly._primitive(g)) > 1)
        h, qf, qg = ratpoly._primitive_gcd(f, g)
        assert h == ref_primitive_gcd(f, g)
        assert (dense.mul(h, qf, ZZ), dense.mul(h, qg, ZZ)) == (
            ratpoly._primitive(f), ratpoly._primitive(g))
        assert len(tests) == (ratpoly._HEU_TRIES if heuristic else 0)
        assert remainders or not f or not g


# ---------------------------------------------------------------------------
# search trials reduced by L.element, not by a loop of their own

def ref_trial_value(al, be, m, a1, a2, a3):
    """The coordinates of al a1^2 + be a2^2 - al be a3^2 in Q[x]/(m), for
    coordinate lists a1, a2, a3 and a monic m: the polynomial is formed
    whole and reduced once by m.  Ring operations only, so no inverse is
    needed and integer data stays integer."""
    n = len(m) - 1
    t = [0] * (2 * n - 1)
    for w, a in ((al, a1), (be, a2), (-al * be, a3)):
        for k, c in enumerate(dense.mul(a, a, ZZ)):
            t[k] += w * c
    for k in range(len(t) - 1, n - 1, -1):
        c = t[k]
        if c:
            # mod m, c x^k = c x^(k-n) (x^n - m), of degree below k
            for j in range(n):
                t[k - n + j] -= c * m[j]
    return t[:n]


def ref_search_zero_divisor(alpha, beta, L, seed=0, max_height=20):
    """search_zero_divisor with its own reduction of each trial by a
    Fraction copy m of the minimal polynomial."""
    quadform._check_trials(max_height)
    alpha, beta = Fr(alpha), Fr(beta)
    al, be = kernel_ints((alpha, beta))
    mp = L.minpoly
    m = mp.num if mp.den == 1 else [Fr(c, mp.den) for c in mp.num]
    rng = random.Random(seed)
    n = L.degree
    for trial in range(max_height):
        h = 1 + trial // 8
        a1, a2, a3 = [[rng.randint(-h, h) for _ in range(n)]
                      for _ in range(3)]
        t = ref_trial_value(al, be, m, a1, a2, a3)
        if any(t):
            s = nf_sqrt(L.element(t), L)
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


def test_unreduced_trial_is_the_reduced_trial_in_the_field():
    """L.element of the unreduced trial list is L.element of the old
    reduced coordinates, over random algebras with rational parameters
    and random fields of degree 1 to 6, some of whose minimal polynomials
    have denominators above 1."""
    rng = random.Random(283)
    fields = [NumberField.unchecked(m) for m in nf_minpolys(rng, 30)]
    assert sum(L.minpoly.den > 1 for L in fields) >= 10
    zero = 0
    for L in fields:
        mp = L.minpoly
        m = mp.num if mp.den == 1 else [Fr(c, mp.den) for c in mp.num]
        for _ in range(40):
            al, be = kernel_ints([Fr(rng.randint(-9, 9) or 1,
                                     rng.choice((1, 1, 2, 3)))
                                  for _ in range(2)])
            h = rng.randint(0, 3)
            a1, a2, a3 = [[rng.randint(-h, h) for _ in range(L.degree)]
                          for _ in range(3)]
            want = L.element(ref_trial_value(al, be, m, a1, a2, a3))
            got = L.element(quadform._trial_value(al, be, a1, a2, a3))
            assert got == want
            zero += not want
    assert zero >= 20


# three quartic fields, one with a non-integral minimal polynomial and one
# under an algebra with non-integral alpha, a sextic N(q) for a monic
# cubic q over (-1, -1), and a quartic under (3/5, -7/3), whose
# denominators are local primes of the screen
SEARCH_CASES = [
    (-1, -1, from_int_list([6, 2, 9, -4, 1])),
    (-1, -1, RatPoly([Fr(5, 4), 1, 4, -1, 1])),
    (Fr(-1, 2), -3, from_int_list([6, -6, 3, 0, 1])),
    (-1, -1, from_int_list([8, -16, 10, 0, 2, -2, 1])),
    (Fr(3, 5), Fr(-7, 3), from_int_list([6, 2, 9, -4, 1])),
]


def test_search_reduced_by_the_field_gives_the_old_certificates():
    """Seeds 0-29 give the certificates, or the SearchExhausted messages,
    of the search that reduced each trial itself and sent every nonzero
    one to nf_sqrt, unscreened."""
    found = 0
    for alpha, beta, minpoly in SEARCH_CASES:
        L = NumberField(minpoly)
        for seed in range(30):
            got, want = [], []
            for search, out in ((search_zero_divisor, got),
                                (ref_search_zero_divisor, want)):
                try:
                    cert = search(alpha, beta, L, seed=seed)
                    out.append((cert.q, cert.minpoly))
                except SearchExhausted as exc:
                    out.append(str(exc))
            assert got == want
            found += not isinstance(want[0], str)
    assert found >= 2


def test_trial_screen_rejects_only_what_nf_sqrt_rejects():
    """The screen of a search trial on its integer coordinates proves the
    trial value no square in L only where nf_sqrt finds no root, over
    random algebras with rational parameters and random fields of degree
    1 to 6; over an integral algebra it is the local test of nf_sqrt on
    the reduced value, trial for trial."""
    rng = random.Random(293)
    fields = [NumberField.unchecked(m) for m in nf_minpolys(rng, 30)]
    screened = integral = 0
    for L in fields:
        for _ in range(30):
            alpha, beta = [Fr(rng.randint(-9, 9) or 1,
                              rng.choice((1, 1, 2, 3, 5)))
                           for _ in range(2)]
            al, be = kernel_ints((alpha, beta))
            d2 = (alpha.denominator * beta.denominator) ** 2
            w = [int(c * d2) for c in (alpha, beta, -alpha * beta)]
            h = rng.randint(0, 3)
            a1, a2, a3 = [[rng.randint(-h, h) for _ in range(L.degree)]
                          for _ in range(3)]
            t = L.element(quadform._trial_value(al, be, a1, a2, a3))
            got = quadform._trial_nonsquare(L, w, a1, a2, a3)
            if got:
                assert t and nf_sqrt(t, L) is None
                screened += 1
            if d2 == 1:
                assert got == numberfield._local_nonsquare(t)
                integral += 1
    assert screened >= 200 and integral >= 200


def test_sign_change_proves_a_real_root(monkeypatch):
    """Wherever lc(f) f(0) < 0, f has a real root, on squarefree f of
    degree 1 to 6 with rational coefficients; and nf_splits_quaternion
    gives the answer of the Sturm count alone on the irreducible ones of
    even degree, over four algebras."""
    rng = random.Random(307)
    fired, fields = 0, []
    while len(fields) < 60:
        n = rng.randint(1, 6)
        f = RatPoly([Fr(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(n)] + [Fr(rng.choice((-3, -1, 1, 2)))])
        if rp_gcd(f, f.derivative()).degree > 0:
            continue
        if numberfield._sign_change(f):
            fired += 1
            assert rp_real_root_count(f) > 0, f
        if n % 2 == 0 and rp_is_irreducible(f):
            fields.append(NumberField.unchecked(f.monic()))
    assert fired >= 60
    assert 10 <= sum(numberfield._sign_change(L.minpoly) for L in fields) < 50
    pairs = [(A.alpha, A.beta, L) for A in ALGEBRAS for L in fields]
    got = [nf_splits_quaternion(*a) for a in pairs]
    monkeypatch.setattr(numberfield, "_sign_change", lambda f: False)
    assert got == [nf_splits_quaternion(*a) for a in pairs]


# ---------------------------------------------------------------------------
# remainders without quotients, and the int path of from_int_list: the
# divisions that built and normalised a quotient for callers that drop it

def ref_divmod(f, g, F):
    """(q, r) with f = q*g + r and deg r < deg g."""
    if not g:
        raise DivisionByZero("polynomial division by zero")
    n = len(g) - 1
    if len(f) <= n:
        return [], list(f)
    red = F.red
    inv = F.inv(g[-1])
    r = list(f)
    q = [F.zero] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c = red(r[k + n])
        if c:
            c = red(c * inv)
            q[k] = c
            for j in range(n):
                r[k + j] -= c * g[j]
    return q, dense.trim([red(c) for c in r[:n]])


def ref_pseudo_divmod(f, g):
    """(s, q, r) with s*f = q*g + r in Z[x], scaled by |lc(g)| each step."""
    n, a, u = len(g) - 1, abs(g[-1]), 1 if g[-1] > 0 else -1
    s, q, r = 1, [0] * max(len(f) - n, 0), list(f)
    while len(r) > n:
        c = u * r.pop()
        k = len(r) - n
        s, q, r = a * s, [a * b for b in q], [a * b for b in r]
        q[k] = c
        for j in range(n):
            r[k + j] -= c * g[j]
        dense.trim(r)
    return s, q, r


def ref_cp_pseudo_divmod(al, be, P, D):
    """(s, Q, R) with s*P = Q*D + R, Q and R scaled by N(lc D) each step."""
    t, x, y, z = D[-1]
    n, dc = coord_norm(al, be, D[-1]), (t, -x, -y, -z)
    s, Q, R = 1, [ZERO] * max(len(P) - len(D) + 1, 0), list(P)
    while len(R) >= len(D):
        m = len(R) - len(D)
        c = coord_mul(al, be, R.pop(), dc)
        if c == ZERO:
            continue
        if n != 1:
            s, Q, R = n * s, cp_scale(n, Q), cp_scale(n, R)
        Q[m] = c
        for l, d in enumerate(D[:-1]):
            r, e = R[m + l], coord_mul(al, be, c, d)
            R[m + l] = (r[0] - e[0], r[1] - e[1], r[2] - e[2], r[3] - e[3])
    return s, Q, cp_trim(R)


# Z[x] divided by a divisor of lc +-1, whose inverse is itself
ZU = dense.Field(0, 1, dense.same, lambda a: 1 // a)


def rem_cases(rng, F, elt, lcs=None):
    """(f, g) with g of degree 0 to 4, its lc drawn from lcs when given,
    and f of any length up to 8, zero and shorter than g among them."""
    for _ in range(60):
        g = dense.trim([elt(rng) for _ in range(rng.randint(0, 4))])
        g.append(rng.choice(lcs) if lcs else elt(rng) or F.one)
        f = dense.trim([elt(rng) for _ in range(rng.randint(0, 8))])
        yield f, g


def test_dense_rem_is_the_divmod_remainder():
    """dense.rem, and divmod on the shared loop, against the divmod that
    built q: over GF(p), Z/2^16 and Z by unit lcs, Q and two number
    fields."""
    rng = random.Random(300)
    Q_cbrt2 = NumberField(from_int_list([-2, 0, 0, 1]))
    Q_i = NumberField(from_int_list([1, 0, 1]))
    fields = [(GF(p), lambda r, p=p: r.randrange(p), None)
              for p in (2, 3, 7, 101)]
    fields += [(GF(2 ** 16), lambda r: r.randrange(2 ** 16), (1,)),
               (ZU, lambda r: r.randint(-50, 50), (1, -1)),
               (QQ, lambda r: Fr(r.randint(-9, 9), r.randint(1, 4)), None)]
    for L in (Q_cbrt2, Q_i):
        fields.append((L.field, lambda r, L=L: L.element(
            [Fr(r.randint(-5, 5), r.randint(1, 3))
             for _ in range(L.degree)]), None))
    for F, elt, lcs in fields:
        for f, g in rem_cases(rng, F, elt, lcs):
            want = ref_divmod(f, g, F)
            assert dense.rem(f, g, F) == want[1]
            assert dense.divmod(f, g, F) == want
    with pytest.raises(DivisionByZero):
        dense.rem([1], [], GF(5))


def test_pseudo_remainder_is_the_pseudo_division():
    """_pseudo_rem, _pseudo_divmod on its steps, and RatPoly % against the
    scaling division and divmod(...)[1]: lcs of either sign, unit or not,
    constant divisors and dividends shorter than the divisor."""
    rng = random.Random(301)
    for _ in range(800):
        g = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        g.append(rng.choice((1, -1, 2, -3, 6, -1)))
        f = dense.trim([rng.randint(-30, 30)
                        for _ in range(rng.randint(0, 9))])
        s, q, r = ref_pseudo_divmod(f, g)
        assert ratpoly._pseudo_rem(f, g) == (s, r)
        assert ratpoly._pseudo_divmod(f, g) == (s, q, r)
        a = from_int_list(f, rng.choice((1, 2, -3, 10)))
        b = from_int_list(g, rng.choice((1, 5, -7)))
        assert tagged(a % b) == tagged(divmod(a, b)[1])
        assert tagged(a % b) == tagged(RefRatPoly(a.coeffs)
                                       % RefRatPoly(b.coeffs))
    a = RatPoly([1, 2, 3])
    assert tagged(a % 3) == tagged(divmod(a, 3)[1]) == tagged(RatPoly())
    assert tagged(a % Fr(-2, 5)) == tagged(RatPoly())
    assert (a % RatPoly([0, 0, 0, 5])) == a
    with pytest.raises(DegenerateInput):
        a % RatPoly()
    with pytest.raises(TypeError):
        a % "x"


def test_right_remainder_is_the_right_division():
    """cp_pseudo_rem, cp_pseudo_divmod on its steps and _right_rem against
    the division that scaled Q and R by N(lc D) each step and
    qp_right_divmod(...)[1], with rational alpha and beta among the
    algebras, so that the kernel holds Fraction entries.  On integer
    alpha and beta each step divides its scale by a gcd, so s may be a
    divisor of the reference's: s*P = Q*D + R exactly on the kernel, and
    R is the reference's R times s/s_ref.  On rational ones the step is
    the reference's, and (s, Q, R) is its answer."""
    rng = random.Random(302)
    algebras = ALGEBRAS + (QuaternionAlgebra(Fr(-2, 3), Fr(-5, 7)),)
    for A in algebras:
        al, be = A.alpha, A.beta
        for _ in range(40):
            d = rnd_poly(rng, A, rng.randint(0, 3), monic=rng.random() < .3)
            p = (rnd_poly(rng, A, rng.randint(0, 6)) if rng.random() < .9
                 else QPoly(A, []))
            ref = ref_cp_pseudo_divmod(al, be, list(p.num), list(d.num))
            s, Q, R = cp_pseudo_divmod(al, be, p.num, d.num)
            assert cp_pseudo_rem(al, be, p.num, d.num) == (s, R)
            assert cp_trim(cp_add(cp_mul(al, be, Q, d.num), R)) == \
                cp_trim(cp_scale(s, p.num))
            assert cp_scale(ref[0], R) == cp_scale(s, ref[2])
            if type(al) is not int or type(be) is not int:
                assert (s, Q, R) == ref
            quot, rem = qp_right_divmod(p, d)
            assert qpoly._right_rem(p, d) == (s * p.den, R)
            assert quot * d + rem == p
            assert rem == QPoly.from_kernel(A, s * p.den, R)


def test_from_int_list_takes_ints_alone_on_the_int_path():
    """from_int_list against ref_from_int_list on int, Fraction and bool
    entries mixed, int, negative and Fraction dens, tuples and all-zero
    input: each result in lowest terms with den > 0 and plain int
    entries."""
    rng = random.Random(303)
    pick = (lambda: rng.randint(-20, 20),
            lambda: Fr(rng.randint(-20, 20), rng.randint(1, 6)),
            lambda: rng.choice((True, False)))
    for _ in range(2000):
        kinds = rng.sample(pick, rng.randint(1, 3))
        ic = [rng.choice(kinds)() for _ in range(rng.randint(0, 7))]
        ic += [0] * rng.randint(0, 2)
        if rng.random() < .3:
            ic = tuple(ic)
        den = rng.choice((1, rng.randint(-12, -1), rng.randint(2, 12),
                          Fr(rng.randint(-9, 9) or 1, rng.randint(1, 9))))
        got = from_int_list(ic, den)
        assert got.coeffs == ref_from_int_list(ic, den).coeffs
        assert type(got.den) is int and got.den > 0
        assert all(type(c) is int for c in got.num)
        assert math.gcd(got.den, *got.num) == 1
    for zeros in ([], [0, 0], (0,), [False, Fr(0)]):
        got = from_int_list(zeros, -3)
        assert (got.den, got.num) == (1, ())


# ---------------------------------------------------------------------------
# the inverse of the Hensel lift and the int path of _make: an extended
# Euclid that built a cofactor it dropped, and a lowest-terms pass through
# a flat RatPoly that was cut back into 4-tuples

def test_inverse_is_the_xgcd_cofactor():
    """dense.inverse(a, m) against the s of xgcd(a, m): random coprime
    pairs over GF(p) for small p, constant a among them, and the (f', f)
    pairs of the lift at the prime _good_prime picks, on the norm and
    product corpus of the early lift; pairs with a common factor raise."""
    rng = random.Random(310)
    for p in (2, 3, 5, 7, 101):
        F = GF(p)
        for _ in range(80):
            m = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
            m.append(rng.randrange(1, p))
            a = dense.trim([rng.randrange(p)
                            for _ in range(rng.randint(1, 8))]) or [1]
            h, s, _ = xgcd(a, m, F)
            if h == [1]:
                assert dense.inverse(a, m, F) == s
            else:
                with pytest.raises(DegenerateInput):
                    dense.inverse(a, m, F)
            g = [rng.randrange(p) for _ in range(rng.randint(1, 2))] + [1]
            with pytest.raises(DegenerateInput):
                dense.inverse(dense.mul(a, g, F), dense.mul(m, g, F), F)
        for c in range(1, p):
            assert dense.inverse([c], m, F) == xgcd([c], m, F)[1] == \
                [pow(c, -1, p)]
    rng = random.Random(179)
    corpus = norm_corpus(rng) + product_corpus(rng)
    for f in corpus:
        if len(f) < 3:
            continue
        p = ratpoly._good_prime(f)
        F = GF(p)
        df = dense.trim([c % p for c in dense.derivative(f, ZZ)])
        fp = [c % p for c in f]
        assert dense.inverse(df, fp, F) == xgcd(df, fp, F)[1]


def ref_make(den, P):
    """(den, num) of the _make that brought the flat list of coordinates
    to lowest terms with from_int_list and cut it back into 4-tuples."""
    r = from_int_list([c for a in P for c in a], den)
    return r.den, tuple(list(zip_longest(*[iter(r.num)] * 4, fillvalue=0)))


def test_make_takes_one_gcd_on_int_data():
    """qpoly._make against the from_int_list round trip on random kernels
    with int, bool and Fraction entries, the Fraction entries of products
    over rational alpha and beta, zero top tuples, all-zero data, and int,
    negative and Fraction dens: the same (den, num), num a tuple of int
    4-tuples."""
    rng = random.Random(311)
    A = ALGEBRAS[0]
    AQ = ALGEBRAS[3]
    pick = (lambda: rng.randint(-20, 20),
            lambda: 6 * rng.randint(-20, 20),
            lambda: rng.choice((True, False)),
            lambda: Fr(rng.randint(-20, 20), rng.randint(1, 6)))
    for n in range(1500):
        if n % 5 == 4:
            P = cp_mul(AQ.alpha, AQ.beta, rnd_poly(rng, AQ, 2).num,
                       rnd_poly(rng, AQ, rng.randint(0, 2)).num)
        else:
            kinds = (pick[:2] if n % 5 < 2
                     else rng.sample(pick, rng.randint(1, 4)))
            P = [tuple([rng.choice(kinds)() for _ in range(4)])
                 for _ in range(rng.randint(0, 4))]
        P += [ZERO] * rng.randint(0, 2)
        den = rng.choice((1, 6, rng.randint(-12, -1), rng.randint(2, 12),
                          Fr(rng.randint(-9, 9) or 1, rng.randint(1, 9))))
        got = qpoly._make(A, den, P)
        assert (got.den, got.num) == ref_make(den, P)
        assert type(got.den) is int and type(got.num) is tuple
        assert all(type(a) is tuple and len(a) == 4 for a in got.num)
        assert all(type(c) is int for a in got.num for c in a)
    for den in (1, -3, Fr(2, 3)):
        for zeros in ([], [ZERO, ZERO], [(False, 0, Fr(0), 0)]):
            got = qpoly._make(A, den, zeros)
            assert (got.den, got.num) == ref_make(den, zeros) == (1, ())
