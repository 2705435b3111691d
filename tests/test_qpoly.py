import ast
import json
import random
import re
import sys
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from quatpoly import cli, dense, maxorder, numberfield, qpoly, quadform
from quatpoly.coordpoly import cp_pseudo_rem, kernel_ab
from quatpoly.errors import (AlgebraMismatch, DegenerateInput,
                             DivisionByZero, InvalidCertificate,
                             PreconditionViolation, SearchExhausted,
                             SplitAlgebra)
from quatpoly.numberfield import NumberField, nf_quadratic_subfields
from quatpoly.parser import parse_poly
from quatpoly.qpoly import (QPoly, beck_decompose, factor,
                            factor_central_irreducible, is_irreducible,
                            qp_conj, qp_evaluate, qp_exact_right_div,
                            qp_gcrd, qp_gcrd_bezout, qp_lclm, qp_norm,
                            qp_right_divmod, roots, subfield_factor)
from quatpoly.quadform import (ZeroDivisorCertificate, represent_pure,
                               splits_in_quadratic)
from quatpoly.quatalg import QuaternionAlgebra, is_conjugate, q_inv
from quatpoly.ratpoly import from_int_list, rp_factor, rp_is_irreducible
from test_folds import nf_factor_over_quadratic, swap_factors

H = QuaternionAlgebra(-1, -1)
H13 = QuaternionAlgebra(-1, -3)
README = Path(__file__).resolve().parents[1] / "README.md"
# division algebras with non-integral parameters
HQ = QuaternionAlgebra(Fr(-1, 2), -3)
HQ2 = QuaternionAlgebra(Fr(-1, 3), Fr(-2, 5))


def rnd_q(rng, A, height=4):
    return A.element([rng.randint(-height, height) for _ in range(4)])


def rnd_poly(rng, A, deg, height=4):
    coeffs = [rnd_q(rng, A, height) for _ in range(deg)]
    lead = rnd_q(rng, A, height)
    while lead.is_zero:
        lead = rnd_q(rng, A, height)
    return QPoly(A, coeffs + [lead])


def P(text, A=H):
    return parse_poly(text, A)


class TestArithmetic:
    def test_noncommutative_product(self):
        # (x - i)(x - j) = x^2 - (i+j)x + ij = x^2 - (i+j)x + k
        assert P("x - i") * P("x - j") == P("x^2 - (i+j)x + k")
        assert P("x - j") * P("x - i") == P("x^2 - (i+j)x - k")

    def test_division_identity(self):
        rng = random.Random(41)
        for A in (H, H13):
            for _ in range(500):
                p = rnd_poly(rng, A, rng.randint(0, 5))
                d = rnd_poly(rng, A, rng.randint(0, 3))
                q, r = qp_right_divmod(p, d)
                assert q * d + r == p
                assert r.is_zero or r.degree < d.degree

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            qp_right_divmod(P("x"), QPoly(H, []))

    def test_norm_and_conj(self):
        rng = random.Random(42)
        for A in (H, H13):
            for _ in range(200):
                p = rnd_poly(rng, A, rng.randint(0, 4))
                q = rnd_poly(rng, A, rng.randint(0, 4))
                assert qp_norm(p * q) == qp_norm(p) * qp_norm(q)
                assert qp_conj(p * q) == qp_conj(q) * qp_conj(p)

    def test_reflected_operands(self):
        """Quaternion * QPoly, number * QPoly and number - QPoly, against
        coefficient-by-coefficient Quaternion arithmetic."""
        rng = random.Random(44)
        for A in (H, H13, HQ):
            for _ in range(40):
                p = rnd_frac_poly(rng, A, rng.randint(0, 4))
                a = rnd_q(rng, A)
                n = len(p.coeffs)
                assert a * p == QPoly(A, [a * c for c in p.coeffs])
                assert a * p == QPoly(A, [a]) * p
                for c in (3, -2, Fr(2, 7), a):
                    assert c * p == QPoly(A, [c * q for q in p.coeffs])
                    assert c - p == QPoly(A, [(c if m == 0 else 0) - p[m]
                                              for m in range(n)])
                    assert (c - p) + p == QPoly(A, [c * A.one()])

    def test_equality_with_a_constant(self):
        rng = random.Random(45)
        for A in (H, H13, HQ):
            for _ in range(20):
                a = rnd_q(rng, A)
                assert QPoly(A, [a]) == a
                assert QPoly(A, [a]) != a + A.i
                assert QPoly(A, [a, A.one()]) != a
            assert QPoly(A, [A.element([3, 0, 0, 0])]) == 3
            assert QPoly(A, [A.element([Fr(-2, 3), 0, 0, 0])]) == Fr(-2, 3)
            assert QPoly(A, [A.element([3, 1, 0, 0])]) != 3
            assert QPoly(A, []) == 0 and QPoly(A, []) == A.zero()
            assert QPoly(A, []) != 1 and QPoly.x(A) != 0

    def test_operator_errors(self):
        """A negative power is DegenerateInput, / is no QPoly operator, and
        arithmetic across algebras is AlgebraMismatch, for QPoly and
        Quaternion operands alike."""
        p = P("x^2 + i")
        with pytest.raises(DegenerateInput):
            p ** -1
        for c in (2, Fr(1, 2), H.i, p):
            with pytest.raises(TypeError):
                p / c
        q = QPoly(H13, [H13.i, H13.one()])
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b):
            for a, b in ((p, q), (p, H13.j), (H13.j, p), (H.i, H13.j)):
                with pytest.raises(AlgebraMismatch):
                    op(a, b)
        with pytest.raises(AlgebraMismatch):
            H.i / H13.j

    def test_evaluate_is_right_remainder(self):
        rng = random.Random(43)
        for _ in range(200):
            p = rnd_poly(rng, H, rng.randint(1, 5))
            a = rnd_q(rng, H)
            _, r = qp_right_divmod(p, QPoly.x(H) - QPoly(H, [a]))
            val = qp_evaluate(p, a)
            assert r == QPoly(H, [val]) or (r.is_zero and val.is_zero)


def rnd_frac_poly(rng, A, deg):
    """Rational coordinates, with some zero coefficients."""
    coeffs = [A.element([Fr(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(4)]) if rng.random() < 0.75
              else A.zero() for _ in range(deg + 1)]
    while coeffs[-1].is_zero:
        coeffs[-1] = rnd_q(rng, A)
    return QPoly(A, coeffs)


def ref_mul(p, q):
    """Coefficient-by-coefficient product of Quaternion objects."""
    A = p.parent
    out = [A.zero()] * (len(p.coeffs) + len(q.coeffs))
    for m, a in enumerate(p.coeffs):
        for l, b in enumerate(q.coeffs):
            out[m + l] = out[m + l] + a * b
    return QPoly(A, out)


def ref_add(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    return QPoly(p.parent, [p[m] + q[m] for m in range(n)])


def ref_divmod(p, d):
    """Right division with Quaternion objects and the inverse of lc(d)."""
    A = p.parent
    dinv = q_inv(d.lc)
    quot = [A.zero()] * max(p.degree - d.degree + 1, 0)
    rem = list(p.coeffs)
    for m in range(len(quot) - 1, -1, -1):
        quot[m] = c = rem[m + d.degree] * dinv
        for l, b in enumerate(d.coeffs):
            rem[m + l] = rem[m + l] - c * b
    return QPoly(A, quot), QPoly(A, rem)


class TestKernel:
    def test_matches_quaternion_reference(self):
        rng = random.Random(53)
        for A in (H, H13, HQ):
            for _ in range(60):
                p = rnd_frac_poly(rng, A, rng.randint(0, 5))
                q = rnd_frac_poly(rng, A, rng.randint(0, 3))
                assert p * q == ref_mul(p, q)
                assert p + q == ref_add(p, q)
                assert p - q == ref_add(p, -q)
                assert (p - p).is_zero
                assert qp_right_divmod(p, q) == ref_divmod(p, q)

    def test_norm_matches_product_with_conjugate(self):
        rng = random.Random(55)
        for A in (H, H13, HQ2):
            for _ in range(40):
                p = rnd_frac_poly(rng, A, rng.randint(0, 5))
                n = qp_norm(p)
                assert n.degree == 2 * p.degree
                assert QPoly.from_ratpoly(A, n) == p * qp_conj(p)

    def test_gcrd_equals_bezout_gcrd(self):
        rng = random.Random(54)
        for A in (H, H13, HQ, HQ2):
            for _ in range(25):
                d = rnd_frac_poly(rng, A, rng.randint(1, 2))
                p = rnd_frac_poly(rng, A, rng.randint(0, 2)) * d
                q = rnd_frac_poly(rng, A, rng.randint(0, 2)) * d
                g = qp_gcrd(p, q)
                assert g == qp_gcrd_bezout(p, q)[0]
                assert g.is_monic and g.degree >= d.degree
                for f in (p, q):
                    assert qp_right_divmod(f, g)[1].is_zero
                assert qp_right_divmod(g, d)[1].is_zero


class TestGcrdLclm:
    def test_bezout(self):
        rng = random.Random(44)
        for _ in range(150):
            p = rnd_poly(rng, H, rng.randint(1, 4))
            q = rnd_poly(rng, H, rng.randint(1, 4))
            g, u, v = qp_gcrd_bezout(p, q)
            assert u * p + v * q == g
            assert g.is_monic
            _, rp_ = qp_right_divmod(p, g)
            _, rq_ = qp_right_divmod(q, g)
            assert rp_.is_zero and rq_.is_zero

    def test_common_right_factor_detected(self):
        rng = random.Random(45)
        for _ in range(100):
            d = rnd_poly(rng, H, rng.randint(1, 2)).monic()
            p = rnd_poly(rng, H, rng.randint(1, 2)) * d
            q = rnd_poly(rng, H, rng.randint(1, 2)) * d
            g = qp_gcrd(p, q)
            _, r = qp_right_divmod(g, d)
            assert r.is_zero

    def test_lclm_degree_identity(self):
        rng = random.Random(46)
        for _ in range(100):
            p = rnd_poly(rng, H, rng.randint(1, 3))
            q = rnd_poly(rng, H, rng.randint(1, 3))
            m = qp_lclm(p, q)
            g = qp_gcrd(p, q)
            assert m.degree == p.degree + q.degree - g.degree
            _, r1 = qp_right_divmod(m, p)
            _, r2 = qp_right_divmod(m, q)
            assert r1.is_zero and r2.is_zero

    def test_gcrd_with_a_31067_bit_coefficient(self):
        """The right Euclid keeps each remainder primitive, so that the
        coefficients do not grow from step to step; the GCRDs of these
        quadratics, with (9^99)^99 in one of them, are pinned."""
        A = QuaternionAlgebra(8, -6)
        p = parse_poly("(x - (-5 - 5j - 3k))(x - (9^99)^99)", A)
        q = parse_poly("x^2 - 4x - 1", A)
        c = parse_poly("x - (9^99)^99", A)
        assert qp_gcrd(p, q) == QPoly(A, [A.one()])
        assert qp_gcrd(p, q * c) == qp_gcrd(q * c, p) == c

    def test_gcrd_of_zero_pair(self):
        with pytest.raises(DegenerateInput):
            qp_gcrd(QPoly(H, []), QPoly(H, []))

    def test_one_make_per_gcrd_remainder(self, monkeypatch):
        """Over an integral algebra each remainder of qp_gcrd is made
        primitive by one _make straight from the kernel remainder; the
        one more _make is the final monic."""
        rng = random.Random(47)
        makes = spy_calls(monkeypatch, qpoly, "_make")
        rems = spy_calls(monkeypatch, qpoly, "_right_rem")
        for A in (H, H13):
            for _ in range(20):
                d = rnd_poly(rng, A, rng.randint(1, 2))
                p = rnd_poly(rng, A, rng.randint(1, 3)) * d
                q = rnd_poly(rng, A, rng.randint(1, 3)) * d
                del makes[:], rems[:]
                g = qp_gcrd(p, q)
                assert len(rems) >= 1 and len(makes) == len(rems) + 1
                assert g == qp_gcrd_bezout(p, q)[0]


class TestRootsAndRightFactors:
    def test_root_iff_right_linear_factor(self):
        rng = random.Random(47)
        for _ in range(100):
            a = rnd_q(rng, H)
            p = rnd_poly(rng, H, rng.randint(1, 3)) * \
                (QPoly.x(H) - QPoly(H, [a]))
            assert qp_evaluate(p, a).is_zero
        # and a planted non-root
        p = P("x^2 + 1")
        assert not qp_evaluate(p, H.scalar(1)).is_zero

    def test_left_factor_need_not_vanish(self):
        # (x - i)(x - j): j is a root, i need not be
        p = P("x - i") * P("x - j")
        assert qp_evaluate(p, H.j).is_zero
        assert not qp_evaluate(p, H.i).is_zero


class TestBeck:
    def test_decomposition_properties(self):
        rng = random.Random(48)
        for _ in range(60):
            cen = from_int_list([rng.randint(-4, 4)
                                 for _ in range(rng.randint(0, 2))] + [1])
            free = rnd_poly(rng, H, rng.randint(0, 3)).monic()
            lead = rnd_q(rng, H)
            while lead.is_zero:
                lead = rnd_q(rng, H)
            p = QPoly(H, [lead]) * free * QPoly.from_ratpoly(H, cen)
            b = beck_decompose(p)
            assert b.leading == p.lc
            assert b.central.is_monic
            assert b.central_free.is_monic
            rebuilt = QPoly(H, [b.leading]) * b.central_free * \
                QPoly.from_ratpoly(H, b.central)
            assert rebuilt == p
            # the central-free part has coordinates with trivial common gcd
            coords = [g for g in b.central_free.coordinates()
                      if not g.is_zero]
            g = coords[0]
            from quatpoly.ratpoly import rp_gcd
            for h in coords[1:]:
                g = rp_gcd(g, h)
            assert g.degree == 0

    def test_central_input(self):
        p = P("x^2 + 1")
        b = beck_decompose(p)
        assert b.central == from_int_list([1, 0, 1])
        assert b.central_free.degree == 0


class TestIrreducibility:
    def test_linear_always(self):
        assert is_irreducible(P("x - i"))
        assert is_irreducible(P("x - 2 - j"))
        assert is_irreducible(P("x + 3/2"))

    def test_central_quadratics(self):
        # x^2+1: Q(i) splits (-1,-1), so it factors as (x-i)(x+i)
        assert not is_irreducible(P("x^2 + 1"))
        # x^2-2: Q(sqrt 2) is real, cannot split a definite algebra
        assert is_irreducible(P("x^2 - 2"))
        assert not is_irreducible(P("x^2 - 4"))

    def test_central_odd_degree(self):
        assert is_irreducible(P("x^3 - 2"))
        assert not is_irreducible(P("x^3 - 8"))

    def test_mixed_reducible(self):
        assert not is_irreducible(P("x - i") * P("x^2 + 3"))
        assert not is_irreducible(P("x - i") * P("x - j"))

    def test_central_free_norm_criterion(self):
        # (x-i)(x-j) has norm (x^2+1)^2: reducible
        # x^2 - (i+j)x has norm x^2 (x^2 ... ): just check a known one
        q0 = P("x^2 - (3i - j + k)x - 2i + j - k")
        assert is_irreducible(q0)  # norm x^4 - 3x^2 + 5 is irreducible

    def test_central_tested_once(self, monkeypatch):
        """A central polynomial is tested for irreducibility once, by the
        NumberField built for it."""
        seen = []
        real = numberfield.rp_is_irreducible

        def spy(f):
            seen.append(f)
            return real(f)

        for module in (numberfield, qpoly):
            monkeypatch.setattr(module, "rp_is_irreducible", spy)
        for c, want in (([1, 0, 1], False), ([-2, 0, 0, 0, 1], True),
                        ([6, 16, 11, 0, 1], False)):
            p = from_int_list(c)
            seen.clear()
            assert is_irreducible(QPoly.from_ratpoly(H, p)) is want
            assert seen.count(p) == 1, p


class TestOneSplittingRule:
    """Whether a central irreducible p splits is decided in one place,
    qpoly._splits, for both factor_central_irreducible and
    is_irreducible."""

    def test_irreducible_iff_factor_keeps_one_factor(self):
        """On seeded central irreducibles of degree 2 to 5 over (-1,-1)
        and (-1,-3), is_irreducible is True exactly when factor returns
        p alone; a split p whose search exhausts is skipped."""
        rng = random.Random(36)
        seen = {True: 0, False: 0}
        for A in (H, H13):
            checked = 0
            while checked < 30:
                deg = rng.randint(2, 5)
                r = from_int_list([rng.randint(-6, 6) for _ in range(deg)]
                                  + [1])
                if not rp_is_irreducible(r):
                    continue
                p = QPoly.from_ratpoly(A, r)
                try:
                    n = len(factor(p).factors)
                except SearchExhausted:
                    continue
                checked += 1
                assert is_irreducible(p) == (n == 1), (A, r)
                seen[n == 1] += 1
        assert min(seen.values()) > 0

    def test_only_splits_names_the_rule(self):
        """Inside qpoly.py, only _splits names nf_splits_quaternion or
        calls a certificate's matches."""
        tree = ast.parse(Path(qpoly.__file__).read_text())
        where = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    name = (node.id if isinstance(node, ast.Name) else
                            node.attr if isinstance(node, ast.Attribute)
                            else None)
                    if name in ("nf_splits_quaternion", "matches"):
                        where.setdefault(name, set()).add(fn.name)
        assert where == dict.fromkeys(("nf_splits_quaternion", "matches"),
                                      {"_splits"})

    def test_odd_degree_comes_before_the_splitting_test(self, monkeypatch):
        """Over division algebras, integral and rational, an odd degree
        takes the odd-degree exit and runs no splitting test; an even
        degree runs exactly one, through factor_central_irreducible and
        through is_irreducible alike."""
        tests = spy_calls(monkeypatch, numberfield, "nf_splits_quaternion")
        cubic = from_int_list([-2, 0, 0, 1])
        for A in (H, H13, HQ):
            out = factor_central_irreducible(NumberField(cubic), A)
            assert out.factors == [QPoly.from_ratpoly(A, cubic)]
            assert is_irreducible(QPoly.from_ratpoly(A, cubic))
            assert tests == []
        # x^2 + 1 splits (-1,-1), as Q(i) embeds; x^2 - 2 is real and
        # splits no definite algebra
        for p, splits in (([1, 0, 1], True), ([-2, 0, 1], False)):
            p = from_int_list(p)
            for run in (lambda: len(factor_central_irreducible(
                            NumberField(p), H)) == 1,
                        lambda: is_irreducible(QPoly.from_ratpoly(H, p))):
                del tests[:]
                assert run() is not splits
                assert len(tests) == 1


class TestDivisionAlgebra:
    """Every QuaternionAlgebra is a division algebra: its one constructor
    rejects a split one, so every nonzero element is invertible."""

    def test_nonzero_elements_are_invertible(self):
        """On seeded random elements and polynomials over integral and
        rational division algebras, a nonzero quaternion has a nonzero
        norm and a * q_inv(a) == 1, and a nonzero QPoly has a monic
        monic()."""
        rng = random.Random(48)
        for A in (H, H13, HQ, HQ2, QuaternionAlgebra(-7, Fr(-5, 3))):
            for _ in range(60):
                a = A.element([Fr(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(4)])
                if a.is_zero:
                    continue
                assert a.norm() != 0
                assert a * q_inv(a) == A.one() == q_inv(a) * a
                f = rnd_frac_poly(rng, A, rng.randint(0, 3))
                m = f.monic()
                assert m.is_monic and m.degree == f.degree
                assert QPoly(A, [f.lc]) * m == f

    def test_split_algebras_are_rejected(self):
        for alpha, beta in ((1, 1), (1, -1), (-1, 2), (Fr(1, 4), -3)):
            with pytest.raises(SplitAlgebra):
                QuaternionAlgebra(alpha, beta)
        for alpha, beta in ((0, -1), (-1, 0)):
            with pytest.raises(DegenerateInput, match="must be nonzero"):
                QuaternionAlgebra(alpha, beta)
        assert not hasattr(QuaternionAlgebra, "unchecked")


QUARTIC_MIN = from_int_list([6, 16, 11, 0, 1])


def quartic_cert():
    return ZeroDivisorCertificate(
        -1, -1, QUARTIC_MIN,
        (from_int_list([0]),
         from_int_list([154, 211, -12, 19]),
         from_int_list([97, 136, -11, 13]), from_int_list([53])))


class TestSubfieldFactor:
    def test_x2_plus_1(self):
        pair = subfield_factor(NumberField(from_int_list([1, 0, 1])), H)
        assert pair is not None
        q, qbar = pair
        assert q * qbar == P("x^2 + 1")
        assert {str(q), str(qbar)} == {"x + (-i)", "x + i"} or \
            q * qbar == P("x^2 + 1")

    def test_no_subfield(self):
        # x^4+11x^2+16x+6 generates a quartic field with no quadratic
        # subfield, so the subfield route must give up
        assert subfield_factor(NumberField(QUARTIC_MIN), H) is None

    @staticmethod
    def reference(p, A):
        """Walk the subfields of Q[x]/(p), keep those splitting A, and
        embed the first conjugate pair of factors of p over one."""
        for d in nf_quadratic_subfields(NumberField(p)):
            if not splits_in_quadratic(A.alpha, A.beta, Fr(d)):
                continue
            L2, parts = nf_factor_over_quadratic(p, d)
            if len(parts) == 1:
                continue
            g = parts[0]
            gbar = [L2.element((c.coords[0], -c.coords[1])) for c in g]
            assert dense.mul(g, gbar, L2.field) == [
                L2.from_rational(c) for c in p.coeffs]
            a = A.element((0,) + represent_pure(A.alpha, A.beta, d))
            q = QPoly(A, [A.scalar(c.coords[0]) + c.coords[1] * a
                          for c in g])
            return qp_conj(q), q
        return None

    def test_matches_subfield_walk(self):
        fields = ([1, 0, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 0, 1],
                  [1, 0, -10, 0, 1], [6, 16, 11, 0, 1], [-2, 0, 0, 1])
        split = 0
        for c in fields:
            p = from_int_list(c)
            for A in (H, H13, QuaternionAlgebra(-2, -5)):
                want = self.reference(p, A)
                assert subfield_factor(NumberField(p), A) == want, (p, A)
                split += want is not None
        assert split >= 4

    @staticmethod
    def quadratic_corpus(rng, A, count):
        """count characteristic polynomials x^2 - tr(u) x + N(u) of
        non-central u in A, most with non-integral coordinates,
        and a tenth as many random irreducible quadratics."""
        out = []
        while len(out) < count:
            den = rng.choice((1, 2, 3))
            u = A.element([Fr(rng.randint(-9, 9), den)]
                          + [Fr(rng.randint(-5, 5), rng.choice((1, 2)))
                             for _ in range(3)])
            if any(u.coords[1:]):
                out.append(qp_norm(QPoly(A, [-u, A.one()])))
        while len(out) < count + count // 10:
            p = from_int_list([rng.randint(-20, 20), rng.randint(-9, 9), 1])
            if rp_is_irreducible(p):
                out.append(p)
        return out

    def test_closed_form_matches_subfield_walk(self):
        """On 400 characteristic polynomials over four algebras, definite
        and indefinite, the closed form for quadratics gives the pair the
        Trager walk gives, root sign included."""
        rng = random.Random(53)
        split = unsplit = 0
        for ab in ((-1, -1), (-1, -3), (-2, -5), (-1, 3)):
            A = QuaternionAlgebra(*ab)
            for p in self.quadratic_corpus(rng, A, 100):
                want = self.reference(p, A)
                assert subfield_factor(NumberField(p), A) == want, (p, A)
                split += want is not None
                unsplit += want is None
        assert split >= 400 and unsplit > 0

    def test_quadratics_run_no_subfield_walk(self, monkeypatch):
        """A quadratic is its own subfield: no candidate list and no
        factorization over Q(sqrt d) is needed to split it."""
        def forbidden(*args):
            raise AssertionError("subfield walk on a quadratic")

        monkeypatch.setattr(quadform, "nf_quadratic_candidates", forbidden)
        monkeypatch.setattr(quadform, "nf_factor_squarefree", forbidden)
        pairs = [subfield_factor(NumberField(from_int_list(c)), H13)
                 for c in ([1, 0, 1], [3, 2, 1], [-2, 0, 1], [7, 1, 1])]
        assert pairs[-1] is not None

    def test_local_screen_skips_trager(self, monkeypatch):
        """Candidates the local test proves to be non-squares in Q[x]/(p)
        reach no Trager factorization; the subfield of x^4 + 1 still
        does.  A quartic reads its subfields off the resolvent cubic, so
        the screen is seen at work on the two sextic norms N(q) of cubics
        q, where Trager would otherwise try 7 and 3 candidates."""
        calls = []
        trager = numberfield.nf_factor_squarefree
        for module in (numberfield, quadform):
            monkeypatch.setattr(module, "nf_factor_squarefree",
                                lambda f, K: calls.append(f) or trager(f, K))
        for c, want in (([6, 16, 11, 0, 1], 0), ([6, 2, 9, -4, 1], 0),
                        ([1, 0, 0, 0, 1], 1),
                        ([13, 18, -2, -4, 6, -2, 1], 0),
                        ([4, -10, 9, 0, 11, 4, 1], 1)):
            calls.clear()
            subfield_factor(NumberField(from_int_list(c)), H)
            assert len(calls) == want, c

    @staticmethod
    def screen_corpus(rng, A):
        """8 irreducible quartics N(q) for monic quadratics q, half with
        coefficients in Q(u) for a pure quaternion u, so that Q(sqrt(u^2))
        is a subfield, and 4 characteristic polynomials N(x - u)."""
        quartics, charpolys = [], []
        while len(quartics) < 8:
            if len(quartics) % 2:
                a, b = rnd_q(rng, A, 3), rnd_q(rng, A, 3)
            else:
                u = A.element([0] + [rng.randint(-2, 2) for _ in range(3)])
                a, b = [A.scalar(rng.randint(-3, 3)) + rng.randint(-2, 2) * u
                        for _ in range(2)]
            p = qp_norm(QPoly(A, [b, a, A.one()]))
            if rp_is_irreducible(p):
                quartics.append(p)
        while len(charpolys) < 4:
            u = rnd_q(rng, A, 3)
            if any(u.coords[1:]):
                charpolys.append(qp_norm(QPoly(A, [-u, A.one()])))
        return quartics + charpolys

    @staticmethod
    def sextic_corpus(rng, A):
        """4 irreducible sextic norms N(q) of monic cubics q, half with
        coefficients in Q(u) for a pure quaternion u: from degree 6 the
        subfield candidates still pass the local screen."""
        out = []
        while len(out) < 4:
            if len(out) % 2:
                q = [rnd_q(rng, A, 2) for _ in range(3)]
            else:
                u = A.element([0] + [rng.randint(-1, 1) for _ in range(3)])
                q = [A.scalar(rng.randint(-2, 2)) + rng.randint(-1, 1) * u
                     for _ in range(3)]
            p = qp_norm(QPoly(A, q + [A.one()]))
            if rp_is_irreducible(p):
                out.append(p)
        return out

    def test_answers_do_not_depend_on_the_local_screen(self, monkeypatch):
        """subfield_factor gives the same pairs and Nones on a seeded
        corpus whether or not nf_quadratic_candidates screens its
        candidates with the local test."""
        rng, rng6 = random.Random(47), random.Random(59)
        algebras = (H, H13, QuaternionAlgebra(-2, -5))
        cases = [(p, A) for A in algebras for p in self.screen_corpus(rng, A)]
        cases += [(p, A) for A in algebras
                  for p in self.sextic_corpus(rng6, A)]

        def answers():
            return [subfield_factor(NumberField(p), A) for p, A in cases]

        with_screen = answers()
        monkeypatch.setattr(numberfield, "_local_nonsquare", lambda el: False)
        assert answers() == with_screen
        split = [p.degree for (p, _), a in zip(cases, with_screen)
                 if a is not None]
        assert split.count(2) == 12 and split.count(4) >= 4
        assert 0 < split.count(6) < 12, split

    def test_rejects_bad_input(self):
        """A degree-1 field has no quadratic subfield; reducible and
        constant input never becomes a field (see
        TestFactorCentralIrreducible.test_rejects_reducible_and_constant)."""
        with pytest.raises(PreconditionViolation, match="degree >= 2"):
            subfield_factor(NumberField(from_int_list([2, 1])), H)


class TestFactorCentralIrreducible:
    def test_certificate_reduction_replay(self):
        out = factor_central_irreducible(NumberField(QUARTIC_MIN), H,
                                         cert=quartic_cert())
        assert len(out.factors) == 2
        f, fbar = out.factors
        assert f * fbar == QPoly.from_ratpoly(H, QUARTIC_MIN)
        assert out.first_quotient == from_int_list([5989, -742, 530])
        assert f.is_monic and fbar.is_monic
        assert qp_norm(f) == QUARTIC_MIN

    def test_odd_degree_stays(self):
        out = factor_central_irreducible(
            NumberField(from_int_list([-2, 0, 0, 1])), H)
        assert len(out.factors) == 1

    def test_nonsplitting_quartic_stays(self):
        # x^4 + 1 generates Q(zeta_8) whose quadratic subfields include
        # sqrt 2 ... the field splits (-1,-1)? zeta_8 field contains
        # sqrt(-1), so it does split and the factor pair must appear
        out = factor_central_irreducible(
            NumberField(from_int_list([1, 0, 0, 0, 1])), H)
        assert len(out.factors) == 2
        f, fbar = out.factors
        assert f * fbar == QPoly.from_ratpoly(H, from_int_list([1, 0, 0, 0, 1]))

    def test_real_quartic_stays(self):
        # x^4 - 2: field has real embeddings, cannot split (-1,-1)
        out = factor_central_irreducible(
            NumberField(from_int_list([-2, 0, 0, 0, 1])), H)
        assert len(out.factors) == 1

    def test_rejects_reducible_and_constant(self):
        # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2); 2x + 1 is not monic
        for c in ([1], [1, 2, 1], [-1, 0, 1], [4, 0, 0, 0, 1], [1, 2]):
            with pytest.raises(DegenerateInput,
                               match="irreducible|nonconstant"):
                NumberField(from_int_list(c))

    def test_first_argument_must_be_a_number_field(self):
        """A central factor comes as its field: a bare polynomial or
        anything else is a precondition violation, not an AttributeError
        from deep inside the route."""
        for bad in (from_int_list([1, 0, 0, 0, 1]), P("x^2 + 1"), None, 3):
            for fn in (factor_central_irreducible, subfield_factor):
                with pytest.raises(PreconditionViolation,
                                   match="NumberField"):
                    fn(bad, H)

    def test_one_irreducibility_test_per_field(self, monkeypatch):
        """p is tested once, by the NumberField(p) its caller builds, and
        not again inside the route, which runs its search without
        find_zero_divisor's subfield layer; factor hands on the factors
        rp_factor has proved irreducible and tests none of them."""
        seen = []
        real = numberfield.rp_is_irreducible

        def spy(f):
            seen.append(f)
            return real(f)

        def no_cert_call(*args, cert=None, **kwargs):
            assert cert is not None, "subfield layer re-run"
            return quadform.find_zero_divisor(*args, cert=cert, **kwargs)

        for module in (numberfield, qpoly):
            monkeypatch.setattr(module, "rp_is_irreducible", spy)
        monkeypatch.setattr(qpoly, "find_zero_divisor", no_cert_call)
        # subfield route, search route (no splitting subfield, seed 1
        # succeeds), certificate route
        cases = ((from_int_list([1, 0, 0, 0, 1]), None),
                 (from_int_list([6, 2, 9, -4, 1]), None),
                 (QUARTIC_MIN, quartic_cert()))
        for p, cert in cases:
            seen.clear()
            L = NumberField(p)
            out = factor_central_irreducible(L, H, cert=cert, seed=1)
            assert len(out.factors) == 2
            assert seen == [p], p
            seen.clear()
            certs = {p: cert} if cert is not None else None
            out = factor(QPoly.from_ratpoly(H, p), certs=certs, seed=1)
            assert len(out.factors) == 2
            assert seen == [], p


def spy_calls(monkeypatch, module, name):
    """The list of argument tuples of module.name, filled in by a spy put
    in its place in every quatpoly module that binds it."""
    real = getattr(module, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("quatpoly")
                and getattr(mod, name, None) is real):
            monkeypatch.setattr(mod, name, spy)
    return calls


def norm_cert(A, seed):
    """The certificate of N(q) for a random monic quadratic q over A with
    a non-central x-coefficient and an irreducible norm: N(q) is a central
    quartic that splits A, and the coordinates of q are a zero divisor of
    A (x) Q[x]/(N(q))."""
    rng = random.Random(seed)
    while True:
        a0, a1 = rnd_q(rng, A, 3), rnd_q(rng, A, 3)
        if not any(a1.coords[1:]):
            continue
        q = QPoly(A, [a0, a1, A.one()])
        n = qp_norm(q)
        if rp_is_irreducible(n):
            return ZeroDivisorCertificate(A.alpha, A.beta, n,
                                          q.coordinates())


def readme_cert_json():
    """The certificate JSON of the README, verbatim."""
    return re.search(r"```json\n(.*?)```", README.read_text(),
                     re.S).group(1)


def rescaled(cert, s, t):
    """cert moved to (s^2 alpha, t^2 beta), the same algebra with i and j
    scaled by s and t: q1/s, q2/t and q3/(st) keep the norm."""
    q0, q1, q2, q3 = cert.q
    return ZeroDivisorCertificate(s * s * cert.alpha, t * t * cert.beta,
                                  cert.minpoly,
                                  (q0, q1 * Fr(1, s), q2 * Fr(1, t),
                                   q3 * Fr(1, s * t)))


H25 = QuaternionAlgebra(-2, -5)
DEGREE8 = "(1+k)(x - i)(x - 2 - j)(x^2 + ix - 2 - k)(x^4 + 11x^2 + 16x + 6)"
# a quadratic field that splits (-1,-3) and not (-1,-1): 2 splits in it
NOT_H = from_int_list([2, -1, 1])


class TestCertifiedRouteSkipsSplittingTest:
    """A matching certificate is the proof that A (x) L splits, so the
    certified route runs no nf_splits_quaternion and no p-maximal order;
    without a certificate, or with one for other data, the test runs as
    before."""

    @staticmethod
    def spies(monkeypatch):
        return (spy_calls(monkeypatch, numberfield, "nf_splits_quaternion"),
                spy_calls(monkeypatch, maxorder, "splitting_type"))

    def test_no_splitting_test_on_the_certificate_route(self, monkeypatch):
        tests, orders = self.spies(monkeypatch)
        out = factor_central_irreducible(NumberField(QUARTIC_MIN), H,
                                         cert=quartic_cert())
        assert out.first_quotient == from_int_list([5989, -742, 530])
        out = factor(P(DEGREE8), certs={QUARTIC_MIN: quartic_cert()})
        assert len(out.factors) == 5
        for A in (H, H13):
            cert = norm_cert(A, 0)
            L = NumberField(cert.minpoly)
            assert subfield_factor(L, A) is None
            out = factor_central_irreducible(L, A, cert=cert)
            assert out.first_quotient is not None
            out = factor(QPoly.from_ratpoly(A, cert.minpoly),
                         certs={cert.minpoly: cert})
            assert len(out.factors) == 2
        assert tests == [] and orders == []

    def test_no_splitting_test_through_the_cli(self, monkeypatch, tmp_path,
                                               capsys):
        tests, orders = self.spies(monkeypatch)
        path = tmp_path / "readme.json"
        path.write_text(readme_cert_json())
        runs = [["factor", DEGREE8, "--alpha", "-1", "--beta", "-1",
                 "--certificate", str(path), "--verify", "--json"]]
        for t, A in enumerate((H, H13)):
            cert = norm_cert(A, 0)
            cert.save(tmp_path / ("n%d.json" % t))
            runs.append(["factor", str(QPoly.from_ratpoly(A, cert.minpoly)),
                         "--alpha", str(A.alpha), "--beta", str(A.beta),
                         "--certificate", str(tmp_path / ("n%d.json" % t)),
                         "--verify", "--json"])
        for argv in runs:
            assert cli.run(argv) == 0
            assert json.loads(capsys.readouterr().out)["verified"] is True
        assert tests == [] and orders == []

    def test_splitting_test_runs_without_a_certificate(self, monkeypatch,
                                                      capsys):
        """One test and one p-maximal order (at the algebra's finite
        ramified prime) per split quartic, as before; the search then
        gives up."""
        tests, orders = self.spies(monkeypatch)
        cases = [(H, QUARTIC_MIN)] + [(A, norm_cert(A, 0).minpoly)
                                      for A in (H, H13)]
        for A, p in cases:
            del tests[:], orders[:]
            with pytest.raises(SearchExhausted):
                factor_central_irreducible(NumberField(p), A, max_height=1)
            assert len(tests) == 1 and len(orders) == 1
            del tests[:], orders[:]
            assert cli.run(["factor", str(QPoly.from_ratpoly(A, p)),
                            "--alpha", str(A.alpha), "--beta", str(A.beta),
                            "--max-height", "1"]) == 3
            assert len(tests) == 1 and len(orders) == 1
        capsys.readouterr()

    def test_every_certificate_is_a_splitting_proof(self, tmp_path):
        """The premise of the skip: nf_splits_quaternion is True for each
        certificate built, loaded or found here."""
        certs = [quartic_cert(),
                 ZeroDivisorCertificate.from_dict(
                     json.loads(readme_cert_json()))]
        for A in (H, H13, H25):
            for seed in range(4):
                certs.append(norm_cert(A, seed))
            path = tmp_path / "c.json"
            certs[-1].save(path)
            certs.append(ZeroDivisorCertificate.load(path))
        # subfield-made: quadratics and quartics with a splitting subfield
        for A, c in ((H, [1, 0, 1]), (H, [1, 0, 0, 0, 1]), (H13, [1, 1, 1]),
                     (H13, NOT_H.coeffs), (H25, [3, 0, 1])):
            L = NumberField(from_int_list(c))
            certs.append(quadform.subfield_zero_divisor(A.alpha, A.beta, L))
        # search-made: seed 1 finds one for this quartic over (-1,-1)
        L = NumberField(from_int_list([6, 2, 9, -4, 1]))
        certs.append(quadform.search_zero_divisor(-1, -1, L, seed=1))
        certs.append(quadform.find_zero_divisor(-1, -1, L, seed=1))
        assert all(c is not None for c in certs)
        for cert in certs:
            L = NumberField.unchecked(cert.minpoly)
            assert numberfield.nf_splits_quaternion(cert.alpha, cert.beta, L)

    def test_mismatched_certificate_where_the_algebra_splits(self,
                                                            monkeypatch):
        """A certificate for (-4,-1) or (-1,-4), the same algebra as H
        presented otherwise, does not match H: the test runs, H splits over
        the quartic field, no subfield does, and find_zero_divisor rejects
        the certificate."""
        tests, orders = self.spies(monkeypatch)
        for s, t in ((2, 1), (1, 2)):
            cert = rescaled(quartic_cert(), s, t)
            assert not cert.matches(-1, -1, QUARTIC_MIN)
            del tests[:]
            with pytest.raises(InvalidCertificate, match="different data"):
                factor_central_irreducible(NumberField(QUARTIC_MIN), H,
                                           cert=cert)
            assert len(tests) == 1
        # the quadratic-subfield route comes first and reads no
        # certificate: x^4 + 1 over H, handed the README's certificate
        # for x^4 + 11x^2 + 16x + 6, splits into its subfield halves
        cert = ZeroDivisorCertificate.from_dict(json.loads(readme_cert_json()))
        p = from_int_list([1, 0, 0, 0, 1])
        del tests[:]
        out = factor_central_irreducible(NumberField(p), H, cert=cert)
        assert [f.degree for f in out.factors] == [2, 2]
        assert out.expand() == QPoly.from_ratpoly(H, p)
        assert len(tests) == 1

    def test_mismatched_certificate_where_the_algebra_does_not_split(
            self, monkeypatch):
        """Over Q[x]/(x^2 - x + 2), (-1,-3) and (-3,-1) split and H does
        not: their certificates do not match H, the test runs and p stays
        irreducible, as without a certificate."""
        tests, orders = self.spies(monkeypatch)
        L = NumberField(NOT_H)
        for alpha, beta in ((-1, -3), (-3, -1)):
            cert = quadform.find_zero_divisor(alpha, beta, L)
            del tests[:]
            out = factor_central_irreducible(L, H, cert=cert)
            assert out.factors == [QPoly.from_ratpoly(H, NOT_H)]
            assert len(tests) == 1



class TestSwapFactors:
    def test_basic_swap(self):
        p, q = P("x - i"), P("x - 2 - j")
        q1, p1 = swap_factors(p, q)
        assert q1 * p1 == p * q
        assert qp_norm(p1) == qp_norm(p)
        assert qp_norm(q1) == qp_norm(q)
        # the swap genuinely moves a conjugate of q in front
        assert q1.degree == 1 and p1.degree == 1

    def test_central_shortcut(self):
        p, q = P("x^2 + 3"), P("x - i")
        q1, p1 = swap_factors(p, q)
        assert (q1, p1) == (q, p)

    def test_common_norm_rejected(self):
        with pytest.raises(PreconditionViolation):
            swap_factors(P("x - i"), P("x - j"))

    def test_non_monic_rejected(self):
        with pytest.raises(PreconditionViolation):
            swap_factors(P("2x - i"), P("x - j"))

    def test_random_swaps(self):
        rng = random.Random(49)
        done = 0
        while done < 60:
            a, b = rnd_q(rng, H), rnd_q(rng, H)
            p = QPoly.x(H) - QPoly(H, [a])
            q = QPoly.x(H) - QPoly(H, [b])
            from quatpoly.ratpoly import rp_gcd
            if rp_gcd(qp_norm(p), qp_norm(q)).degree > 0:
                continue
            q1, p1 = swap_factors(p, q)
            assert q1 * p1 == p * q
            assert qp_norm(q1) == qp_norm(q) and qp_norm(p1) == qp_norm(p)
            done += 1


class TestFactor:
    def test_worked_example(self):
        p = P("(1+k)") * P("x - i") * P("x - 2 - j") * \
            P("x^2 + ix - 2 - k") * P("x^2 + 1") * \
            P("x^4 + 11x^2 + 16x + 6")
        certs = {QUARTIC_MIN: quartic_cert()}
        out = factor(p, certs=certs)
        assert out.expand() == p
        assert out.leading == H.element([1, 0, 0, 1])
        assert len(out.factors) == 7  # 3 central-free + 2 + 2 central
        for f in out.factors:
            assert f.is_monic
            assert is_irreducible(f)

    def test_central_free_ordering_matches_norm(self):
        # factors q_1 ... q_r of the central-free part are produced so
        # that norms come in the sorted order of the norm factorization
        p = P("x - i") * P("x - 2 - j")
        out = factor(p)
        assert out.expand() == p
        norms = [str(qp_norm(f)) for f in out.factors]
        want = sorted(str(g) for g, _ in
                      rp_factor(qp_norm(p)).factors)
        assert sorted(norms) == want

    def test_random_products(self):
        rng = random.Random(50)
        for trial in range(60):
            A = H if trial % 2 == 0 else H13
            p = QPoly(A, [rnd_q(rng, A)])
            while p.lc.is_zero:
                p = QPoly(A, [rnd_q(rng, A)])
            for _ in range(rng.randint(1, 3)):
                a = rnd_q(rng, A, 3)
                p = p * (QPoly.x(A) - QPoly(A, [a]))
            out = factor(p)
            assert out.expand() == p
            assert len(out.factors) == p.degree
            for f in out.factors:
                assert f.degree == 1 and f.is_monic

    def test_factor_counts_conjugation_invariant(self):
        rng = random.Random(51)
        for _ in range(25):
            p = rnd_poly(rng, H, rng.randint(1, 4)).monic()
            n1 = len(factor(p).factors)
            u = rnd_q(rng, H)
            while u.is_zero:
                u = rnd_q(rng, H)
            from quatpoly.quatalg import q_inv
            conj_p = QPoly(H, [q_inv(u)]) * p * QPoly(H, [u])
            assert len(factor(conj_p).factors) == n1

    def test_central_factors_are_not_retested(self, monkeypatch):
        """factor and roots hand the irreducible factors of rp_factor on
        with their fields: no irreducibility test runs on them again."""
        seen = []
        real = numberfield.rp_is_irreducible

        def spy(f):
            seen.append(f)
            return real(f)

        for module in (numberfield, qpoly):
            monkeypatch.setattr(module, "rp_is_irreducible", spy)
        x4 = from_int_list([1, 0, 0, 0, 1])
        assert len(factor(QPoly.from_ratpoly(H, x4))) == 2
        out = factor(QPoly.from_ratpoly(H, QUARTIC_MIN),
                     certs={QUARTIC_MIN: quartic_cert()})
        assert len(out) == 2
        x2 = from_int_list([1, 0, 1])
        assert len(roots(QPoly.from_ratpoly(H, x2))) == 1
        for p in (x4, QUARTIC_MIN, x2):
            assert seen.count(p) == 0, p

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            factor(QPoly(H, []))


class TestLadder:
    """Products of many linear factors: factor divides them by the monic
    divisors the GCRD returns, and a step of that division must not
    scale by den^2."""

    def test_sixteen_linear_factors(self):
        for A in (H, H13):
            rng = random.Random(16)
            p = QPoly(A, [A.one()])
            for _ in range(16):
                p = p * (QPoly.x(A) - QPoly(A, [rnd_q(rng, A, 3)]))
            out = factor(p)
            assert out.expand() == p
            assert len(out.factors) == 16
            assert all(f.degree == 1 and f.is_monic for f in out.factors)

    def test_monic_division_scales_by_a_divisor_of_den_per_step(self):
        """A monic divisor over den has lc (den, 0, 0, 0), and each step of
        cp_pseudo_rem scales by a divisor of den: s divides den^steps."""
        rng = random.Random(17)
        scaled = 0
        for A in (H, H13):
            al, be = kernel_ab(A)
            for _ in range(40):
                d = QPoly(A, [A.element([Fr(rng.randint(-5, 5),
                                            rng.randint(1, 6))
                                         for _ in range(4)])
                              for _ in range(rng.randint(1, 3))]
                          + [A.one()])
                p = rnd_poly(rng, A, rng.randint(3, 8))
                assert d.num[-1] == (d.den, 0, 0, 0)
                steps = []
                s, _ = cp_pseudo_rem(al, be, p.num, d.num, steps)
                assert d.den ** len(steps) % s == 0
                scaled += d.den > 1 and len(steps) > 0
        assert scaled > 40


class TestRoots:
    @pytest.mark.parametrize("ab, text, want", [
        ((-1, -1), "(x^2 + 2x + 3)*(x^2 + 1/4)*(x - i - j)",
         ["1/2i", "-1-j+k", "i+j"]),
        ((-1, 3), "(x^2 - 3)*(x^2 + x + 1)*(x^2 - 6)*(x - 2i + j)",
         ["-j-k", "-j", "-1/2+3/2i+1/2j-1/2k", "2i-j"]),
        ((-1, -3), "(x^2 + x + 1)*(4x^2 - 4x + 7)*(x^2 + 2)",
         ["-1/2+1/2j", "1/2-1/2j+1/2k"]),
    ])
    def test_quadratic_central_factors(self, ab, text, want):
        """Roots from quadratic irreducible central factors, some of which
        do not split the algebra, keep their representatives."""
        A = QuaternionAlgebra(*ab)
        assert [str(r) for r in roots(P(text, A))] == want

    def test_central_quadratic(self):
        rs = roots(P("x^2 + 1"))
        assert len(rs) == 1
        rep = rs.representatives[0]
        assert is_conjugate(rep, H.i)

    def test_rational_roots(self):
        rs = roots(P("x^2 - 3x + 2"))
        vals = sorted(r.coords[0] for r in rs)
        assert vals == [1, 2]

    def test_planted_roots(self):
        rng = random.Random(52)
        for _ in range(60):
            planted = [rnd_q(rng, H, 3) for _ in range(rng.randint(1, 3))]
            p = QPoly(H, [H.one()])
            for a in planted:
                p = p * (QPoly.x(H) - QPoly(H, [a]))
            rs = roots(p)
            # the rightmost planted root must appear up to conjugacy
            assert any(is_conjugate(r, planted[-1])
                       for r in rs.representatives)
            for r in rs.representatives:
                assert qp_evaluate(p, r).is_zero

    def test_no_roots(self):
        # x^2 - 2 has no quaternion roots over (-1, -1)
        assert len(roots(P("x^2 - 2"))) == 0
        assert len(roots(P("x^4 - 2"))) == 0

    def test_spherical_class(self):
        # (x - i)(x + i) = x^2 + 1 : every conjugate of i is a root but
        # only one class is reported
        p = P("x - i") * P("x + i")
        rs = roots(p)
        assert len(rs) == 1 and is_conjugate(rs.representatives[0], H.j)

    def test_mixed(self):
        p = P("x - 2") * P("x - i") * P("x^2 + 3")
        rs = roots(p)
        classes = rs.representatives
        assert any(r.is_central and r.coords[0] == 2 for r in classes)
        assert any(is_conjugate(r, H.i) for r in classes)
        root3 = H.element([0, 1, 1, 1])  # norm 3, trace 0
        assert any(is_conjugate(r, root3) for r in classes)
