"""Each fold of a hand-written derivation into GCRD, ramified_places or
one subfield path, each move of a QPoly computation onto the integer
coordinate kernel, the early-stopping Zassenhaus lift, the one-pass
parser, and the heuristic gcd, probe splitting and fused powmod of the
integer core, pinned against the code it replaced.  The reference
functions below are that code, kept verbatim in behaviour, and each test
compares its answers with the library's on a few hundred to a few
thousand inputs.  The factorisation over GF(p) that splitting_type once
read by Dedekind-Kummer is kept here too, as ref_gfp_factor; the tests
of test_numberfield and test_ratpoly pin against it.  So is rp_xgcd, the
extended gcd over Q that only the swap reference uses, and so is the
Fraction RatPoly, as RefRatPoly, that the integer one replaced."""

import math
import random
import re
from fractions import Fraction as Fr
from itertools import zip_longest
from types import SimpleNamespace

import pytest

from quatpoly import dense, numberfield, qpoly, quadform, ratpoly
from quatpoly.coordpoly import cp_primitive
from quatpoly.dense import GF, ZZ
from quatpoly.errors import (DegenerateInput, DivisionByZero,
                             InternalInvariantViolation, PolyParseError,
                             SearchExhausted, ZeroDivisorEncountered)
from quatpoly.intarith import factorint, squarefree_kernel
from quatpoly.numberfield import (INFINITE_PLACE, NFElement, NumberField,
                                  nf_factor_over_quadratic,
                                  nf_factor_squarefree, nf_poly_norm,
                                  nf_quadratic_candidates, nf_sqrt)
from quatpoly.parser import parse_poly
from quatpoly.qpoly import (BeckDecomposition, Factorization, QPoly,
                            beck_decompose, factor_central_irreducible,
                            qp_conj, qp_evaluate, qp_exact_right_div, qp_gcrd,
                            qp_lclm, qp_norm, qp_right_divmod,
                            subfield_factor, swap_factors)
from quatpoly.quadform import (ZeroDivisorCertificate, hilbert_symbol,
                               is_local_square, quaternary_isotropic,
                               represent_pure, splits_in_quadratic,
                               subfield_zero_divisor,
                               ternary_local_obstruction)
from quatpoly.quatalg import Quaternion, QuaternionAlgebra, q_inv
from quatpoly.ratpoly import (RatPoly, rp_gcd, rp_is_irreducible,
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
                    planted["zd"] = SimpleNamespace(q=zq)
                    out = factor_central_irreducible(
                        p, A, field=NumberField.unchecked(p))
                    assert out.factors == want
                    assert out.first_quotient == first_q
                    cases += 1
                    looped += first_q.degree > 0
    assert cases >= 2000 and looped >= 1000


# ---------------------------------------------------------------------------
# factor swaps

def rp_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g, g monic, in Q[x]."""
    g, u, v = dense.xgcd(a.coeffs, b.coeffs, QQ)
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


def rnd_coeff(rng):
    num = rng.choice([-1, 1]) * rng.randint(1, 60)
    return Fr(num, rng.choice([1, 1, 2, 3, 4, 5, 9, 12]))


# a ternary form is anisotropic at an even number of places, so a finite
# prime always comes before the real place
@pytest.mark.parametrize("n, new, ref, seen", [
    (3, ternary_local_obstruction, ref_ternary_obstruction, {None, 2, 3}),
    (4, quadform._quaternary_local_obstruction, ref_quaternary_obstruction,
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
    quadform._quaternary_local_obstruction([Fr(1)] * 4)
    assert quadform.ramified_places.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# the height loop of quaternary_isotropic

def test_height_loop_walks_only_pairs_of_height_h(monkeypatch):
    """The pairs tried at each height come in the order of the old
    comprehension over the whole square, up to height 200, and the search
    stops at the injected cap."""
    cap = 200
    tried = []

    def no_solution(coeffs):
        # t = u^2 + 10^6 v^2 names the pair (u, v) for u < 1000
        v2, u2 = divmod(int(coeffs[2]), 10 ** 6)
        tried.append((math.isqrt(u2), math.isqrt(v2)))
        return None

    monkeypatch.setattr(quadform, "_QUATERNARY_HEIGHT_CAP", cap)
    monkeypatch.setattr(quadform, "_quaternary_local_obstruction",
                        lambda a: None)
    monkeypatch.setattr(quadform, "ternary_isotropic", no_solution)
    # no two values share a square class, so every pair is tried
    monkeypatch.setattr(quadform, "squarefree_kernel", lambda t: t)
    with pytest.raises(SearchExhausted, match="height cap of %d" % cap):
        quaternary_isotropic([1, 10 ** 6, -3, -5])
    old = [(u, v) for h in range(1, cap + 1)
           for u in range(0, h + 1) for v in range(0, h + 1)
           if (max(u, v) == h or h <= 1) and (u, v) != (0, 0)]
    assert tried == old


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
            (-s.as_ratpoly(), RatPoly.const(x), RatPoly.const(y),
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
            assert subfield_factor(p, A) == want, (p, A)
            L = NumberField(p)
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


def test_integer_beck_witnesses_a_zero_norm_leading_coefficient():
    """Over a split algebra, a leading coefficient of norm 0 is reported as
    the zero divisor it is, as the inverse in the A[x] computation did."""
    A = QuaternionAlgebra.unchecked(1, -1)
    p = QPoly(A, [A.i, A.one() + A.i])
    for decompose in (ref_beck_decompose, beck_decompose):
        with pytest.raises(ZeroDivisorEncountered) as ei:
            decompose(p)
        assert ei.value.witness == p.lc


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


def test_zero_norm_leading_coefficient_raises_the_typed_error():
    """Over a split algebra, making a polynomial with leading coefficient
    1 + i (norm 0) monic reports that zero divisor, through monic and
    through the GCRD, as q_inv did."""
    A = QuaternionAlgebra.unchecked(1, 1)
    lc = A.one() + A.i
    p = QPoly(A, [A.j, lc])
    for make_monic in (ref_monic, QPoly.monic,
                       lambda p: qp_gcrd(p, QPoly(A, []))):
        with pytest.raises(ZeroDivisorEncountered) as ei:
            make_monic(p)
        assert ei.value.witness == lc


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

    def compose(self, other):
        return ref_wrap(dense.compose(self.coeffs, other.coeffs, QQ))

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
        return "RatPoly(%s)" % (list(self.coeffs),)

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
    f = ratpoly._primitive_gcd(a.primitive_int(), b.primitive_int())
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
                  (lambda p, q: p.compose(q), (a, b), None, (ra, rb)),
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

    def __init__(self, minpoly, _checked=True):
        super().__init__(minpoly, _checked)
        self.field = dense.Field(self.zero(), self.one(), dense.same,
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
        g, u, _ = dense.xgcd(self._poly(), L.minpoly.coeffs, QQ)
        if len(g) != 1:
            raise InternalInvariantViolation("minpoly not irreducible?")
        # deg u < deg minpoly - deg g, so u is already reduced
        return ref_nf_element(L, u)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n):
        return dense.power(self, n, self.parent.one())

    def __repr__(self):
        return "NF(%s)" % (self.as_ratpoly(),)


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
            lambda a: a.is_rational, lambda a: a.rational_value(),
            lambda a: a.as_ratpoly(), lambda a: a.coords, repr,
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
    remainder sequence's gcd, and GCDHEU finds it on every pair of
    nonconstant inputs without the fallback."""
    rng = random.Random(243)
    pairs = planted_gcd_pairs(rng)
    tried = answered = 0
    for f, g in pairs:
        want = ref_primitive_gcd(f, g)
        assert ratpoly._primitive_gcd(f, g) == want, (f, g)
        assert ratpoly.primitive_gcd_cofactors([f, g]) == (
            want, [ratpoly._quo(f, want), ratpoly._quo(g, want)])
        pf, pg = ratpoly._primitive(f), ratpoly._primitive(g)
        if len(pf) > 1 and len(pg) > 1:
            tried += 1
            answered += ratpoly._heu_gcd(pf, pg) == want
        assert rp_gcd(RatPoly(f), RatPoly(g)) == \
            ratpoly.from_int_list(want, want[-1])
    assert answered == tried > 250


def test_gcd_falls_back_to_the_remainder_sequence(monkeypatch):
    """When GCDHEU's candidate test rejects every point, _HEU_TRIES of
    them, the remainder sequence gives the same gcd."""
    rng = random.Random(244)
    pairs = planted_gcd_pairs(rng)
    tests, remainders = [], []
    pseudo_divmod = ratpoly._pseudo_divmod

    def reject(f, g):
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
        assert ratpoly._primitive_gcd(f, g) == ref_primitive_gcd(f, g)
        assert len(tests) == (ratpoly._HEU_TRIES if heuristic else 0)
        assert remainders or not f or not g
