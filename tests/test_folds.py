"""Each fold of a hand-written derivation into GCRD, ramified_places or
one subfield path, each move of a QPoly computation onto the integer
coordinate kernel, the early-stopping Zassenhaus lift and the one-pass
parser, pinned against the code it replaced.  The reference
functions below are that code, kept verbatim in behaviour, and each test
compares its answers with the library's on a few hundred to a few
thousand inputs.  The factorisation over GF(p) that splitting_type once
read by Dedekind-Kummer is kept here too, as ref_gfp_factor; the tests
of test_numberfield and test_ratpoly pin against it.  So is rp_xgcd, the
extended gcd over Q that only the swap reference uses."""

import math
import random
import re
from fractions import Fraction as Fr
from types import SimpleNamespace

import pytest

from quatpoly import dense, qpoly, quadform, ratpoly
from quatpoly.coordpoly import cp_primitive
from quatpoly.dense import GF, QQ, ZZ
from quatpoly.errors import (DegenerateInput, InternalInvariantViolation,
                             PolyParseError, SearchExhausted,
                             ZeroDivisorEncountered)
from quatpoly.intarith import factorint, squarefree_kernel
from quatpoly.numberfield import (INFINITE_PLACE, NumberField,
                                  nf_factor_over_quadratic,
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
from quatpoly.ratpoly import RatPoly, rp_gcd, rp_is_irreducible

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
