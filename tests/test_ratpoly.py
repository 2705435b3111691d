import math
import random
from collections import Counter
from fractions import Fraction as Fr

import pytest

from quatpoly import dense, ratpoly
from quatpoly.dense import GF, ZZ
from quatpoly.errors import (DegenerateInput, InternalInvariantViolation,
                             NotSquarefree)
from quatpoly.intarith import is_prime
from quatpoly.ratpoly import (RatPoly, _good_prime, _lift_list,
                              _mignotte_bound, _proves_irreducible,
                              from_int_list, gfp_factor_squarefree,
                              primitive_gcd_cofactors, resultant,
                              rp_discriminant, rp_factor, rp_gcd,
                              rp_is_irreducible, rp_real_root_count,
                              squarefree_decomposition)
from test_folds import QQ, ref_gfp_factor, rp_xgcd


def sylvester_resultant(p, q):
    """Independent oracle: determinant of the Sylvester matrix."""
    n, m = p.degree, q.degree
    size = n + m
    rows = []
    for r in range(m):
        row = [Fr(0)] * size
        for idx in range(n + 1):
            row[r + idx] = p[n - idx]
        rows.append(row)
    for r in range(n):
        row = [Fr(0)] * size
        for idx in range(m + 1):
            row[r + idx] = q[m - idx]
        rows.append(row)
    # fraction-free-ish Gaussian elimination determinant
    det = Fr(1)
    for col in range(size):
        piv = None
        for r in range(col, size):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fr(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def descartes_root_count(p):
    """Independent oracle: exact real-root count of a squarefree p by
    bisection with Descartes' rule of signs (Vincent–Collins–Akritas)."""
    count = 1 if p(Fr(0)) == 0 else 0
    bound = 1 + max(abs(c) for c in p.coeffs) / abs(p.lc)
    for mirror in (1, -1):
        q = RatPoly([c * mirror ** m for m, c in enumerate(p.coeffs)])
        scaled = RatPoly([c * bound ** m for m, c in enumerate(q.coeffs)])
        count += _vca_01(scaled, 0)
    return count


def _sign_variations(coeffs):
    v = 0
    prev = 0
    for c in coeffs:
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if prev and s != prev:
            v += 1
        prev = s
    return v


def _vca_01(q, depth):
    """Number of roots of q in the open interval (0, 1)."""
    assert depth < 64, "VCA recursion ran away"
    n = q.degree
    # Descartes bound for (0,1): variations of (x+1)^n q(1/(x+1))
    rev = RatPoly(list(reversed([q[m] for m in range(n + 1)])))
    shifted = rev.compose(from_int_list([1, 1]))
    v = _sign_variations(shifted.coeffs)
    if v == 0:
        return 0
    if v == 1:
        return 1
    half = q.compose(RatPoly([Fr(0), Fr(1, 2)]))      # roots in (0, 1/2)
    other = q.compose(RatPoly([Fr(1, 2), Fr(1, 2)]))  # roots in (1/2, 1)
    mid = 1 if q(Fr(1, 2)) == 0 else 0
    return _vca_01(half, depth + 1) + mid + _vca_01(other, depth + 1)


def rnd_poly(rng, deg, height=9):
    coeffs = [Fr(rng.randint(-height, height)) for _ in range(deg)]
    coeffs.append(Fr(rng.randint(1, height)))
    return RatPoly(coeffs)


class TestArithmetic:
    def test_divmod_identity(self):
        rng = random.Random(1)
        for _ in range(300):
            p = rnd_poly(rng, rng.randint(0, 6))
            d = rnd_poly(rng, rng.randint(0, 4))
            q, r = divmod(p, d)
            assert q * d + r == p
            assert r.is_zero or r.degree < d.degree

    def test_division_by_a_scalar(self):
        """An int or Fraction divisor is the constant polynomial, as it is
        for +, - and *; any other divisor type is a TypeError."""
        p = from_int_list([1, 2, 3])
        assert p // 2 == p * Fr(1, 2)
        assert p % 3 == 0
        assert divmod(p, Fr(1, 2)) == (p * 2, RatPoly())
        assert p.exact_div(2) == p * Fr(1, 2)
        for zero in (0, Fr(0)):
            with pytest.raises(DegenerateInput):
                p // zero
        with pytest.raises(TypeError):
            divmod(p, "x")

    def test_gcd_properties(self):
        rng = random.Random(2)
        for _ in range(100):
            g = rnd_poly(rng, rng.randint(0, 3))
            a = g * rnd_poly(rng, rng.randint(0, 3))
            b = g * rnd_poly(rng, rng.randint(0, 3))
            got = rp_gcd(a, b)
            assert (a % got).is_zero and (b % got).is_zero
            assert (got % rp_gcd(g, got)).is_zero
            gx, u, v = rp_xgcd(a, b)
            assert u * a + v * b == gx

    def test_gcd_zero_zero(self):
        with pytest.raises(DegenerateInput):
            rp_gcd(RatPoly([]), RatPoly([]))


class TestResultant:
    def test_against_sylvester(self):
        rng = random.Random(3)
        for _ in range(60):
            p = rnd_poly(rng, rng.randint(1, 5))
            q = rnd_poly(rng, rng.randint(1, 5))
            assert resultant(p, q) == sylvester_resultant(p, q)

    def test_shared_root(self):
        c = from_int_list([-1, 1])
        p = c * from_int_list([3, 1])
        q = c * from_int_list([-7, 1])
        assert resultant(p, q) == 0

    def test_discriminant_square_detection(self):
        assert rp_discriminant(from_int_list([-1, 0, 1])) == 4
        assert rp_discriminant(from_int_list([1, 1, 1])) == -3


class TestRealRoots:
    def test_against_bisection(self):
        rng = random.Random(4)
        done = 0
        while done < 40:
            p = rnd_poly(rng, rng.randint(1, 5))
            if rp_gcd(p, p.derivative()).degree > 0:
                continue
            assert rp_real_root_count(p) == descartes_root_count(p)
            done += 1

    def test_rejects_repeated_roots(self):
        p = from_int_list([1, 2, 1])
        with pytest.raises(NotSquarefree):
            rp_real_root_count(p)


def squarefree_decomposition_reference(p):
    """Yun's algorithm over Q on the monic p: list of (monic squarefree
    factor, multiplicity)."""
    p = p.monic()
    if p.degree < 1:
        return []
    g = rp_gcd(p, p.derivative())
    out = []
    b = p.exact_div(g)
    c = p.derivative().exact_div(g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = rp_gcd(b, d) if not d.is_zero else b.monic()
        if a.degree > 0:
            out.append((a.monic(), i))
        b = b.exact_div(a)
        c = d.exact_div(a)
        d = c - b.derivative()
        i += 1
    return out


class TestSquarefreeDecomposition:
    def test_matches_rational_yun(self):
        rng = random.Random(8)
        for _ in range(60):
            p = RatPoly([Fr(rng.randint(-7, -1), rng.randint(1, 5))])
            for mult in range(1, 5):
                if rng.random() < 0.7:
                    p = p * rnd_poly(rng, rng.randint(1, 2), height=5) ** mult
            assert p.lc < 0
            assert squarefree_decomposition(p) == \
                squarefree_decomposition_reference(p)

    def test_inexact_division_raises(self, monkeypatch):
        monkeypatch.setattr(ratpoly, "_exact_quotient", lambda f, g: None)
        p = from_int_list([1, 1]) ** 2 * from_int_list([-2, 0, 1])
        with pytest.raises(InternalInvariantViolation, match="not exact"):
            squarefree_decomposition(p)

    def test_reconstruction(self):
        rng = random.Random(5)
        for _ in range(40):
            p = RatPoly([Fr(1)])
            for mult in range(1, 4):
                f = rnd_poly(rng, rng.randint(1, 2))
                p = p * f ** mult
            parts = squarefree_decomposition(p.monic())
            rebuilt = RatPoly([Fr(1)])
            for f, m in parts:
                rebuilt = rebuilt * f ** m
                assert rp_gcd(f, f.derivative()).degree == 0
            assert rebuilt == p.monic()


class TestPrimitiveGcdCofactors:
    def test_matches_rp_gcd(self):
        """g is the primitive integer form of the monic gcd over Q, and the
        cofactors multiply back; zero polys are skipped by the gcd."""
        rng = random.Random(12)
        for _ in range(100):
            common = rnd_poly(rng, rng.randint(0, 2))
            if common.is_zero:
                continue
            polys = [(rnd_poly(rng, 2) * common).primitive_int()
                     for _ in range(rng.randint(1, 3))] + [[]]
            if not any(polys):
                continue
            g, quots = primitive_gcd_cofactors(polys)
            want = RatPoly()
            for f in filter(None, polys):
                want = rp_gcd(want, from_int_list(f))
            assert from_int_list(g, g[-1]) == want and g[-1] > 0
            assert [dense.mul(q, g, ZZ) for q in quots] == polys

    def test_inexact_division_raises(self, monkeypatch):
        monkeypatch.setattr(ratpoly, "_exact_quotient", lambda f, g: None)
        with pytest.raises(InternalInvariantViolation, match="not exact"):
            primitive_gcd_cofactors([[2, 2], [-2, 0, 2]])


class TestFactorModP:
    def test_multiply_back_and_irreducible(self):
        rng = random.Random(6)
        for p in (2, 3, 5, 13):
            for _ in range(30):
                deg = rng.randint(1, 6)
                f = [rng.randrange(p) for _ in range(deg)] + [1]
                fac = ref_gfp_factor(f, p)
                prod = [1]
                for g, e in fac:
                    for _ in range(e):
                        prod = _gmul_naive(prod, g, p)
                assert prod == f
                for g, e in fac:
                    assert _is_irreducible_bruteforce(g, p)


def _gmul_naive(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _is_irreducible_bruteforce(g, p):
    """Oracle: degree <= 3 has a root test; higher degrees via trial
    division by all monic polynomials of degree <= deg/2."""
    deg = len(g) - 1
    if deg == 1:
        return True
    from itertools import product as iproduct
    for d in range(1, deg // 2 + 1):
        for tail in iproduct(range(p), repeat=d):
            cand = list(tail) + [1]
            if _gdiv_exact(g, cand, p):
                return False
    return True


def _gdiv_exact(a, b, p):
    a = list(a)
    while len(a) >= len(b):
        c = a[-1] * pow(b[-1], p - 2, p) % p if p > 2 else a[-1] * b[-1] % p
        for idx in range(len(b)):
            a[len(a) - len(b) + idx] = (a[len(a) - len(b) + idx]
                                        - c * b[idx]) % p
        a.pop()
    return all(x % p == 0 for x in a)


class TestFactorOverQ:
    def test_planted_factors(self):
        rng = random.Random(7)
        for _ in range(60):
            parts = []
            p = RatPoly([Fr(rng.randint(1, 5))])
            for _ in range(rng.randint(1, 4)):
                f = rnd_poly(rng, rng.randint(1, 3), height=5)
                parts.append(f)
                p = p * f
            fac = rp_factor(p)
            assert fac.expand() == p
            for g, _e in fac.factors:
                assert g.is_monic
                assert rp_is_irreducible(g)

    def test_known_values(self):
        fac = rp_factor(from_int_list([-1, 0, 0, 0, 0, 0, 1]))
        names = sorted(str(g) for g, _ in fac.factors)
        assert names == ["x + 1", "x - 1", "x^2 + x + 1", "x^2 - x + 1"]
        assert rp_is_irreducible(from_int_list([6, 16, 11, 0, 1]))
        assert rp_is_irreducible(from_int_list([-2, 0, 0, 1]))
        assert not rp_is_irreducible(from_int_list([1, 2, 1]))

    def test_norm_example(self):
        n = (from_int_list([1, 0, 1]) * from_int_list([5, -4, 1])
             * from_int_list([5, 0, -3, 0, 1]))
        fac = rp_factor(n)
        got = sorted((str(g), e) for g, e in fac.factors)
        assert got == [("x^2 + 1", 1), ("x^2 - 4*x + 5", 1),
                       ("x^4 - 3*x^2 + 5", 1)]

    def test_multiplicities(self):
        p = from_int_list([1, 1]) ** 3 * from_int_list([1, 0, 1]) ** 2
        fac = rp_factor(p)
        assert sorted((str(g), e) for g, e in fac.factors) == \
            [("x + 1", 3), ("x^2 + 1", 2)]


def good_prime_reference(f):
    """The smallest odd prime not dividing lc(f) * Res(f, f') over Q."""
    fp = from_int_list(f)
    bad = abs(f[-1] * resultant(fp, fp.derivative()).numerator)
    p = 3
    while bad % p == 0:
        p += 2
        while not is_prime(p):
            p += 2
    return p


def lift_linear_reference(f, g, h, p, k):
    """Linear Hensel lifting of f = g*h (mod p) to (mod p^k), one power of p
    per step, with the Bezout pair of g, h mod p fixed; g stays monic."""
    F = GF(p)
    gbar = [c % p for c in g]
    hbar = [c % p for c in h]
    _, s, t = dense.xgcd(gbar, hbar, F)
    mod = p
    while mod < p ** k:
        e = dense.sub(f, dense.mul(g, h, ZZ), ZZ)
        e = dense.trim([(c // mod) % p for c in e])
        if e:
            q, dg = dense.divmod(dense.mul(t, e, F), gbar, F)
            dh = dense.add(dense.mul(s, e, F), dense.mul(hbar, q, F), F)
            g = dense.add(g, [c * mod for c in dg], ZZ)
            h = dense.add(h, [c * mod for c in dh], ZZ)
        mod *= p
    m = p ** k
    return dense.trim([c % m for c in g]), dense.trim([c % m for c in h])


def lift_list_reference(f, factors, p, k):
    m = p ** k
    if len(factors) == 1:
        inv = pow(f[-1], -1, m)
        return [dense.trim([c * inv % m for c in f])]
    h = [f[-1] % p]
    for q in factors[1:]:
        h = dense.mul(h, q, GF(p))
    g2, h2 = lift_linear_reference(f, factors[0], h, p, k)
    return [g2] + lift_list_reference(h2, factors[1:], p, k)


def rnd_squarefree_int(rng, deg, height=30, lc=None):
    while True:
        f = [rng.randint(-height, height) for _ in range(deg)]
        f.append(lc or rng.randint(1, height))
        fp = from_int_list(f)
        if rp_gcd(fp, fp.derivative()).degree == 0:
            return f


class TestIntegerZassenhaus:
    """The integer steps of rp_factor against the rational ones they
    replace."""

    def test_gcd_matches_rational_euclid(self):
        rng = random.Random(71)
        cases = [(RatPoly(), from_int_list([0, 2])),
                 (from_int_list([-3, 0, 2]), RatPoly()),
                 (RatPoly.const(Fr(-5, 3)), rnd_poly(rng, 4)),
                 (from_int_list([1, 1]) * from_int_list([-2, 0, -7]),
                  from_int_list([1, 1]) * from_int_list([4, -3]))]
        for _ in range(150):
            common = rnd_poly(rng, rng.randint(0, 3), height=6)
            a = common * RatPoly([Fr(rng.randint(-20, 20), rng.randint(1, 6))
                                  for _ in range(rng.randint(1, 6))])
            b = common * RatPoly([Fr(rng.randint(-20, 20), rng.randint(1, 6))
                                  for _ in range(rng.randint(1, 6))])
            if rng.random() < 0.3:
                b = -b
            if a or b:
                cases.append((a, b))
        for a, b in cases:
            assert rp_gcd(a, b).coeffs == tuple(dense.gcd(a.coeffs, b.coeffs,
                                                          QQ)), (a, b)
        with pytest.raises(DegenerateInput):
            rp_gcd(RatPoly(), RatPoly())

    def test_good_prime_matches_discriminant_choice(self):
        rng = random.Random(72)
        # 3, 5 or 7 divide lc or disc: x^2+x+1 (disc -3), x^2-5, x^2+7,
        # (x^2-5)(x^2+7), x^2-105, and leading coefficients 3, 15, 105
        cases = [[1, 1, 1], [-5, 0, 1], [7, 0, 1], [-35, 0, 2, 0, 1],
                 [-105, 0, 1], [1, 1, 3], [1, 0, 1, 15], [2, -1, 0, 105],
                 [1, 0, 0, 0, 1], [1, 0, -10, 0, 1]]
        cases += [rnd_squarefree_int(rng, rng.randint(2, 8),
                                     lc=rng.choice([None, 3, 5, 7, 21]))
                  for _ in range(80)]
        picked = set()
        for f in cases:
            p = _good_prime(f)
            assert p == good_prime_reference(f), f
            picked.add(p)
        assert {5, 7, 11} <= picked

    def test_quadratic_lift_matches_linear_lift(self):
        rng = random.Random(73)
        lifted = 0
        for _ in range(25):
            f = rnd_squarefree_int(rng, rng.randint(2, 9))
            p = _good_prime(f)
            fbar = dense.monic([c % p for c in f], GF(p))
            modular = sorted(gfp_factor_squarefree(fbar, p))
            for k in (1, 2, 3, 4, 7, 12):
                got = _lift_list(f, modular, p, k)
                assert got == lift_list_reference(f, modular, p, k)
                lifted += len(modular) > 1
        assert lifted > 20

    def test_tree_lift_matches_chain_on_many_factors(self):
        """Products of 6-12 monic integer linears and quadratics, degree up
        to 24, lifted at the prime rp_factor would pick."""
        rng = random.Random(75)
        cases = 0
        while cases < 12:
            f = [1]
            for _ in range(rng.randint(6, 12)):
                g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 2))]
                f = dense.mul(f, g + [1], ZZ)
            fp = from_int_list(f)
            if rp_gcd(fp, fp.derivative()).degree > 0:
                continue
            assert len(f) - 1 <= 24
            p = _good_prime(f)
            modular = sorted(gfp_factor_squarefree([c % p for c in f], p),
                             key=lambda g: (len(g), g))
            for k in (2, 9):
                assert _lift_list(f, modular, p, k) == \
                    lift_list_reference(f, modular, p, k)
            cases += 1

    def test_tree_lift_splits_by_degree(self, monkeypatch):
        """Eight modular quadratics: the first pair lifted is two products
        of four, where a chain would start with one quadratic."""
        p = 101
        quads = [[c, 0, 1] for c in (1, 2, 3, 5, 7, 11, 13, 17)]
        f = [1]
        for q in quads:
            f = dense.mul(f, q, ZZ)
        calls = []
        lift = ratpoly._lift_quadratic

        def spy(f, g, h, p, k):
            calls.append(len(g) - 1)
            return lift(f, g, h, p, k)

        monkeypatch.setattr(ratpoly, "_lift_quadratic", spy)
        got = _lift_list(f, quads, p, 5)
        assert calls[0] == 8 and len(calls) == 7
        monkeypatch.undo()
        assert got == lift_list_reference(f, quads, p, 5)

    @staticmethod
    def check(p):
        fac = rp_factor(p)
        assert fac.expand() == p
        for g, _e in fac.factors:
            assert g.is_monic and rp_is_irreducible(g)
        return sorted((str(g), e) for g, e in fac.factors)

    def test_factor_edge_cases(self):
        x = from_int_list([0, 1])
        assert self.check(x ** 3 * from_int_list([-2, 0, 1])) == \
            [("x", 3), ("x^2 - 2", 1)]
        assert self.check(x * from_int_list([1, 1]) ** 2 * RatPoly.const(
            Fr(-7, 4))) == [("x", 1), ("x + 1", 2)]
        assert self.check(RatPoly([Fr(1, 6), Fr(0), Fr(2, 3)])) == \
            [("x^2 + 1/4", 1)]
        # irreducible, yet reducible mod every prime; the product is 4
        # quadratics mod 7, and each factor over Q is a pair of them
        for c in ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1]):
            assert len(self.check(from_int_list(c))) == 1
        assert self.check(from_int_list([1, 0, 0, 0, 1])
                          * from_int_list([1, 0, -10, 0, 1])) == \
            [("x^4 + 1", 1), ("x^4 - 10*x^2 + 1", 1)]

    def test_working_precision_falls_back_to_the_full_bound(self,
                                                            monkeypatch):
        """(x^2 + 100003x + 1)(x^2 + 200003) has four factors mod p = 7.
        At the working precision 7^6 the coefficients do not fit, so
        recombination finds nothing and leaves f, which its bound cannot
        prove irreducible: the lift goes again, to the full bound."""
        f = dense.mul([1, 100003, 1], [200003, 0, 1], ZZ)
        assert _good_prime(f) == 7
        runs = []
        recombine = ratpoly._recombine

        def spy(f, lifted, m):
            pieces = recombine(f, lifted, m)
            runs.append((m, len(lifted), pieces))
            return pieces

        monkeypatch.setattr(ratpoly, "_recombine", spy)
        fac = rp_factor(from_int_list(f))
        monkeypatch.undo()
        assert sorted((str(g), e) for g, e in fac.factors) == \
            [("x^2 + 100003*x + 1", 1), ("x^2 + 200003", 1)]
        assert len(runs) == 2
        (m1, r, first), (m2, _, second) = runs
        assert (m1, r, first) == (7 ** 6, 4, [(f, 4)])
        assert not _proves_irreducible(f, 4, f[-1], m1)
        assert m2 > 2 * _mignotte_bound(f)
        assert sorted(second) == [([1, 100003, 1], 2), ([200003, 0, 1], 2)]

    def test_second_pass_lifts_only_the_unproved_piece(self, monkeypatch):
        """x^2 + 1 stays irreducible mod 7 and is proved at the working
        precision; the quartic (x^2 + 100003x + 1)(x^2 + 200003) is not.
        The second lift takes only the quartic's four modular factors, to
        above twice the quartic's own Mignotte bound."""
        quartic = dense.mul([1, 100003, 1], [200003, 0, 1], ZZ)
        f = dense.mul(quartic, [1, 0, 1], ZZ)
        assert _good_prime(f) == 7
        runs = []
        recombine = ratpoly._recombine

        def spy(f, lifted, m):
            pieces = recombine(f, lifted, m)
            runs.append((f, m, len(lifted), pieces))
            return pieces

        monkeypatch.setattr(ratpoly, "_recombine", spy)
        fac = rp_factor(from_int_list(f))
        monkeypatch.undo()
        assert sorted((str(g), e) for g, e in fac.factors) == \
            [("x^2 + 1", 1), ("x^2 + 100003*x + 1", 1), ("x^2 + 200003", 1)]
        assert [(g, m, r) for g, m, r, _ in runs] == \
            [(f, 7 ** 6, 5), (quartic, runs[1][1], 4)]
        assert sorted(runs[0][3]) == [([1, 0, 1], 1), (quartic, 4)]
        m2 = runs[1][1]
        assert 2 * _mignotte_bound(quartic) < m2 <= 14 * _mignotte_bound(
            quartic)
        assert m2 < 2 * _mignotte_bound(f)

    def test_certificate_rejects_up_to_its_bound(self):
        """More than one lift: proved only for m > 2 |lc| 2^deg(g) |g|_2,
        and never at or below it.  One lift: always proved."""
        # |g|_2 = 3, 5, 5 and sqrt 3
        for g, norm2 in (([2, 1, 2], 9), ([3, 4], 25), ([1, 2, 2, 4], 25),
                         ([1, 1, 1], 3)):
            n = len(g) - 1
            for lc in (1, 3):
                edge_sq = (2 * lc * 2 ** n) ** 2 * norm2
                edge = math.isqrt(edge_sq)
                for m in range(1, edge + 1):
                    assert not _proves_irreducible(g, 2, lc, m), (g, lc, m)
                    assert not _proves_irreducible(g, 5, lc, m), (g, lc, m)
                assert _proves_irreducible(g, 2, lc, edge + 1)
                assert _proves_irreducible(g, 1, lc, 7)

    def test_degree_48_norm(self):
        """The norm of a product of 24 linear factors x - a over (-1, -1)
        is the product of their norms x^2 - 2 a0 x + |a|^2, each
        irreducible when a is not real."""
        rng = random.Random(74)
        norms = []
        for _ in range(24):
            a = [rng.randint(-5, 5) for _ in range(4)]
            a[rng.randint(1, 3)] = rng.choice([-1, 1]) * rng.randint(1, 5)
            norms.append(from_int_list([sum(c * c for c in a), -2 * a[0], 1]))
        n = RatPoly.const(1)
        for g in norms:
            n = n * g
        assert n.degree == 48
        fac = rp_factor(n)
        assert fac.expand() == n
        assert Counter({g.coeffs: e for g, e in fac.factors}) == \
            Counter(g.coeffs for g in norms)


def rnd_with_roots(rng, roots, nonlinear, lc):
    """lc times the product of x - a for a in roots and of monic random
    quadratics and cubics, nonlinear of them; None unless squarefree."""
    f = [lc]
    for a in roots:
        f = dense.mul(f, [-a, 1], ZZ)
    for _ in range(nonlinear):
        f = dense.mul(f, [rng.randint(-20, 20)
                          for _ in range(rng.randint(2, 3))] + [1], ZZ)
    fp = from_int_list(f)
    return f if rp_gcd(fp, fp.derivative()).degree == 0 else None


class TestRootPath:
    """Linear modular factors as roots: found by evaluation below
    _ROOT_SEARCH_BOUND, lifted by Newton steps and divided out, with only
    the nonlinear factors on the factor tree."""

    @staticmethod
    def lifts(f, modular, p, k, monkeypatch):
        """The lifts _lift_and_recombine hands to _recombine at p^k."""
        seen = []
        monkeypatch.setattr(ratpoly, "_recombine",
                            lambda f, lifted, m: seen.append((lifted, m)))
        ratpoly._lift_and_recombine(f, modular, p, p ** (k - 1))
        monkeypatch.undo()
        ((lifted, m),) = seen
        assert m == p ** k
        return lifted

    def test_newton_lifts_match_the_linear_lift(self, monkeypatch):
        """At the prime rp_factor picks, for lc 1, 3 and 105, and at p = 3
        with lc 1; k = 3, 7 and 12 clamp the last step below m^2."""
        rng = random.Random(76)
        cases = []
        for lc in (1, 3, 105):
            while sum(c[2] == lc for c in cases) < 12:
                roots = rng.sample(range(-40, 40), rng.randint(1, 5))
                f = rnd_with_roots(rng, roots, rng.randint(0, 2), lc)
                if f is not None:
                    cases.append((f, _good_prime(f), lc))
        while sum(c[1] == 3 for c in cases) < 12:
            roots = rng.sample(range(-20, 20), rng.randint(1, 3))
            f = rnd_with_roots(rng, roots, rng.randint(0, 2), 1)
            if f is not None and _good_prime(f) == 3:
                cases.append((f, 3, 1))
        shapes = set()
        for f, p, _ in cases:
            fbar = dense.monic([c % p for c in f], GF(p))
            modular = sorted(gfp_factor_squarefree(fbar, p),
                             key=lambda g: (len(g), g))
            shapes.add((len(modular[0]) == 2, len(modular[-1]) == 2))
            for k in (1, 2, 3, 4, 7, 12):
                assert self.lifts(f, modular, p, k, monkeypatch) == \
                    lift_list_reference(f, modular, p, k), (f, p, k)
                for q in modular:
                    if len(q) == 2:
                        r = ratpoly._lift_root(f, -q[0] % p, p, k)
                        assert r < p ** k and r % p == -q[0] % p
                        assert dense.evaluate(f, r, GF(p ** k)) == 0
        assert {(True, True), (True, False)} <= shapes

    def test_tree_lift_sees_only_nonlinear_factors(self, monkeypatch):
        """Eight roots: no quadratic lift at all.  Four roots and three
        quadratics: every pair lifted is a product of the quadratics."""
        calls = []
        lift = ratpoly._lift_quadratic

        def spy(f, g, h, p, k):
            calls.append((g, h, p))
            return lift(f, g, h, p, k)

        monkeypatch.setattr(ratpoly, "_lift_quadratic", spy)
        linears = [1]
        for a in (-7, -3, -1, 0, 2, 5, 6, 11):
            linears = dense.mul(linears, [-a, 1], ZZ)
        p = _good_prime(linears)
        assert len(gfp_factor_squarefree([c % p for c in linears],
                                          p)) == 8
        assert TestIntegerZassenhaus.check(from_int_list(linears)) == \
            sorted((str(from_int_list([-a, 1])), 1)
                   for a in (-7, -3, -1, 0, 2, 5, 6, 11))
        assert calls == []

        mixed = dense.mul(dense.mul([-2, 1], [3, 1], ZZ),
                          dense.mul([-5, 1], [7, 1], ZZ), ZZ)
        for q in ([1, 0, 1], [2, 1, 1], [3, 0, 1]):
            mixed = dense.mul(mixed, q, ZZ)
        p = _good_prime(mixed)
        modular = gfp_factor_squarefree([c % p for c in mixed], p)
        degrees = sorted(len(q) - 1 for q in modular)
        assert degrees.count(1) >= 4 and degrees.count(2) >= 2
        assert len(TestIntegerZassenhaus.check(from_int_list(mixed))) == 7
        assert calls
        g0, h0, _ = calls[0]
        assert len(g0) + len(h0) - 2 == sum(d for d in degrees if d > 1)
        for g, h, p in calls:
            for q in (g, h):
                assert all(dense.evaluate(q, r, GF(p))
                           for r in range(p)), (q, p)

    def test_evaluation_finds_the_random_splitting_factors(self,
                                                           monkeypatch):
        """Every prime below the bound, 2 included: the factors found with
        the roots by evaluation are those of splitting alone, by the
        probes and random splitting."""
        rng = random.Random(77)
        primes = [p for p in range(2, ratpoly._ROOT_SEARCH_BOUND)
                  if is_prime(p)]
        assert primes[0] == 2 and primes[-1] == 61
        for p in primes:
            for _ in range(6):
                f = [1]
                for a in rng.sample(range(p), min(p, rng.randint(1, 6))):
                    f = dense.mul(f, [-a % p, 1], GF(p))
                f = dense.mul(f, [rng.randrange(p)
                                  for _ in range(rng.randint(0, 4))] + [1],
                              GF(p))
                if dense.gcd(f, dense.derivative(f, GF(p)), GF(p)) != [1]:
                    continue
                got = sorted(gfp_factor_squarefree(f, p))
                assert got == [q for q, _ in ref_gfp_factor(f, p)]
                monkeypatch.setattr(ratpoly, "_ROOT_SEARCH_BOUND", 2)
                assert got == sorted(gfp_factor_squarefree(f, p)), (f, p)
                monkeypatch.undo()
                assert [q for q in got if len(q) == 2] == \
                    sorted([-r % p, 1] for r in range(p)
                           if not dense.evaluate(f, r, GF(p)))

    def test_primes_from_the_bound_take_the_probes(self, monkeypatch):
        """Five roots mod 61 take 61 evaluations; mod 67 and 101, none, and
        the probes split them without random splitting."""
        calls = []
        evaluate = dense.evaluate

        def spy(f, r, F):
            calls.append(r)
            return evaluate(f, r, F)

        monkeypatch.setattr(dense, "evaluate", spy)
        monkeypatch.setattr(ratpoly, "_random_split", None)
        for p, evaluated in ((61, list(range(61))), (67, []), (101, [])):
            calls.clear()
            # x^2 + 1 and x^2 + 2 are irreducible mod these primes
            quadratic = [1, 0, 1] if p % 4 == 3 else [2, 0, 1]
            f = quadratic
            for a in (1, 2, 3, 5, 8):
                f = dense.mul(f, [-a % p, 1], GF(p))
            assert sorted(gfp_factor_squarefree(f, p)) == sorted(
                [[-a % p, 1] for a in (1, 2, 3, 5, 8)] + [quadratic])
            assert calls == evaluated, p


def is_irreducible_mod(q, p):
    """Ben-Or's test for a monic q of degree d over GF(p): no factor of
    degree i <= d/2, that is gcd(x^(p^i) - x, q) = 1 for each such i."""
    F = GF(p)
    return all(dense.gcd(dense.sub(dense.powmod([0, 1], p ** i, q, F),
                                   [0, 1], F), q, F) == [1]
               for i in range(1, (len(q) - 1) // 2 + 1))


class TestProbeSplitting:
    """Equal-degree splitting by the probes x + c, from the Frobenius
    powers that distinct-degree factorization computes."""

    @staticmethod
    def product_of_irreducibles(rng, p, d, k):
        """(qs, f): k distinct monic irreducibles of degree d over GF(p),
        sorted, and their product."""
        qs = []
        while len(qs) < k:
            q = [rng.randrange(p) for _ in range(d)] + [1]
            if q not in qs and is_irreducible_mod(q, p):
                qs.append(q)
        f = [1]
        for q in qs:
            f = dense.mul(f, q, GF(p))
        return sorted(qs), f

    def test_probe_splits_by_the_character_of_the_norm(self):
        """On a product of irreducibles q of degree d, the first probe c at
        which the quadratic characters of the norms (-1)^d q(-c) of x + c
        differ splits off exactly the q of character 1; with no such c,
        no probe splits."""
        rng = random.Random(91)
        for p in (3, 5, 7, 11, 67):
            F = GF(p)
            for d in (1, 2, 3, 4):
                for _ in range(4):
                    # GF(3) has only three monic irreducibles of degree 1
                    # and of degree 2
                    k = rng.randint(2, 3 if p == 3 else 4)
                    qs, f = self.product_of_irreducibles(rng, p, d, k)
                    frob = [dense.powmod([0, 1], p ** i, f, F)
                            for i in range(1, d)]
                    want = None, p
                    for c in range(p):
                        ones = [q for q in qs if pow(
                            (-1) ** d * dense.evaluate(q, -c % p, F),
                            (p - 1) // 2, p) == 1]
                        if 0 < len(ones) < len(qs):
                            g = [1]
                            for q in ones:
                                g = dense.mul(g, q, F)
                            want = g, c + 1
                            break
                    assert ratpoly._probe_split(f, d, p, frob, 0) == want

    def test_splitting_gets_the_frobenius_powers(self, monkeypatch):
        """Each probe split of gfp_factor_squarefree sees x^(p^i) mod its
        f for 0 < i < d, reduced from the powers of distinct-degree
        factorization."""
        seen = []
        probe = ratpoly._probe_split

        def spy(f, d, p, frob, c):
            F = GF(p)
            assert frob == [dense.powmod([0, 1], p ** i, f, F)
                            for i in range(1, d)]
            seen.append(d)
            return probe(f, d, p, frob, c)

        monkeypatch.setattr(ratpoly, "_probe_split", spy)
        rng = random.Random(92)
        for p in (3, 5, 13, 67):
            f = [1]
            for d, k in ((1, 2), (2, 3), (3, 2), (4, 2)):
                f = dense.mul(f, self.product_of_irreducibles(rng, p, d,
                                                              k)[1], GF(p))
            got = gfp_factor_squarefree(f, p)
            assert sorted(len(q) - 1 for q in got) == \
                [1, 1, 2, 2, 2, 3, 3, 4, 4]
            assert all(is_irreducible_mod(q, p) for q in got)
        assert {2, 3, 4} <= set(seen)


def sturm_root_count_reference(p):
    """The Fraction Sturm count rp_real_root_count replaced: gcd(p, p')
    for the squarefree check, then the Sturm sequence over Q and the
    variations of its leading coefficients at -oo and +oo."""
    if ratpoly.rp_gcd(p, p.derivative()).degree > 0:
        raise NotSquarefree("input must be squarefree")
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
        if seq[-1].is_zero:
            seq.pop()
            break
    at_minus = [(1 if q.lc > 0 else -1) * (-1) ** q.degree for q in seq]
    at_plus = [1 if q.lc > 0 else -1 for q in seq]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def rnd_rational_poly(rng, deg, height=9):
    """A RatPoly of degree deg with rational coefficients and a leading
    coefficient of either sign."""
    coeffs = [Fr(rng.randint(-height, height), rng.randint(1, 5))
              for _ in range(deg)]
    lc = Fr(rng.randint(1, height), rng.randint(1, 5))
    return RatPoly(coeffs + [lc if rng.random() < 0.5 else -lc])


class TestSturmOnIntegers:
    """rp_real_root_count runs one primitive remainder sequence over Z;
    the Fraction Sturm sequence it replaced is the reference."""

    def test_matches_fraction_sturm_sequence(self):
        rng = random.Random(20)
        done, negative = 0, 0
        while done < 600:
            deg = 1 + done % 10
            p = rnd_rational_poly(rng, deg)
            if rng.random() < 0.3:  # planted real roots
                p = p * from_int_list([-rng.randint(-9, 9), 1])
            if rp_gcd(p, p.derivative()).degree > 0:
                continue
            assert rp_real_root_count(p) == sturm_root_count_reference(p), p
            negative += p.lc < 0
            done += 1
        assert negative > 200

    def test_not_squarefree_raises_as_before(self):
        rng = random.Random(21)
        for _ in range(200):
            g = rnd_rational_poly(rng, rng.randint(1, 3))
            p = g * g * rnd_rational_poly(rng, rng.randint(0, 4))
            with pytest.raises(NotSquarefree):
                sturm_root_count_reference(p)
            with pytest.raises(NotSquarefree):
                rp_real_root_count(p)

    def test_pseudo_remainder_has_a_positive_multiplier(self):
        rng = random.Random(22)
        for _ in range(300):
            f = rnd_rational_poly(rng, rng.randint(0, 8)).primitive_int()
            g = list(rnd_rational_poly(rng, rng.randint(0, 5)).num)
            s, q, r = ratpoly._pseudo_divmod(f, g)
            want = from_int_list(f) % from_int_list(g)
            assert s > 0 and len(r) < len(g)
            assert dense.sub(dense.scale(f, s, ZZ), dense.mul(q, g, ZZ),
                             ZZ) == r
            if want.is_zero:
                assert r == []
            else:
                ratio = from_int_list(r).lc / want.lc
                assert ratio > 0 and from_int_list(r) == want * ratio


def ratpoly_str_reference(p):
    """The RatPoly.__str__ that format_terms replaced."""
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            term = str(c)
        else:
            xs = "x" if i == 1 else "x^%d" % i
            if c == 1:
                term = xs
            elif c == -1:
                term = "-" + xs
            else:
                term = "%s*%s" % (c, xs)
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def rnd_display_coeff(rng):
    """Zero, +-1, an integer or a proper fraction, each often."""
    kind = rng.randrange(5)
    if kind == 0:
        return Fr(0)
    if kind == 1:
        return Fr(rng.choice((1, -1)))
    if kind == 2:
        return Fr(rng.randint(-20, 20))
    return Fr(rng.randint(-20, 20), rng.randint(1, 9))


def test_ratpoly_str_matches_the_old_printer():
    rng = random.Random(23)
    for _ in range(6000):
        p = RatPoly([rnd_display_coeff(rng)
                     for _ in range(rng.randint(0, 7))])
        assert str(p) == ratpoly_str_reference(p)
