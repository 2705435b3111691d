import random
from fractions import Fraction as Fr

import pytest

from quatpoly.errors import (DegenerateInput, DivisionByZero,
                             PreconditionViolation)
from quatpoly.parser import parse_poly
from quatpoly.qpoly import (QPoly, beck_decompose, factor,
                            factor_central_irreducible, is_irreducible,
                            qp_conj, qp_evaluate, qp_gcrd, qp_gcrd_bezout,
                            qp_lclm, qp_norm, qp_right_divmod, roots,
                            subfield_factor, swap_factors)
from quatpoly.quadform import ZeroDivisorCertificate
from quatpoly.quatalg import QuaternionAlgebra, is_conjugate, q_inv
from quatpoly.ratpoly import from_int_list, rp_factor

H = QuaternionAlgebra(-1, -1)
H13 = QuaternionAlgebra(-1, -3)
# a division algebra with a non-integral parameter
HQ = QuaternionAlgebra(Fr(-1, 2), -3)


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

    def test_gcrd_equals_bezout_gcrd(self):
        rng = random.Random(54)
        for A in (H, H13, HQ):
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

    def test_gcrd_of_zero_pair(self):
        with pytest.raises(DegenerateInput):
            qp_gcrd(QPoly(H, []), QPoly(H, []))


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


QUARTIC_MIN = from_int_list([6, 16, 11, 0, 1])


def quartic_cert():
    return ZeroDivisorCertificate(
        -1, -1, QUARTIC_MIN,
        (from_int_list([0]),
         from_int_list([154, 211, -12, 19]),
         from_int_list([97, 136, -11, 13]), from_int_list([53])))


class TestSubfieldFactor:
    def test_x2_plus_1(self):
        pair = subfield_factor(from_int_list([1, 0, 1]), H)
        assert pair is not None
        q, qbar = pair
        assert q * qbar == P("x^2 + 1")
        assert {str(q), str(qbar)} == {"x + (-i)", "x + i"} or \
            q * qbar == P("x^2 + 1")

    def test_no_subfield(self):
        # x^4+11x^2+16x+6 generates a quartic field with no quadratic
        # subfield, so the subfield route must give up
        assert subfield_factor(QUARTIC_MIN, H) is None

    def test_rejects_bad_input(self):
        with pytest.raises(PreconditionViolation):
            subfield_factor(from_int_list([1, 2, 1]), H)
        with pytest.raises(PreconditionViolation):
            subfield_factor(P("x^2 + 1"), H)


class TestFactorCentralIrreducible:
    def test_certificate_reduction_replay(self):
        out = factor_central_irreducible(QUARTIC_MIN, H, cert=quartic_cert())
        assert len(out.factors) == 2
        f, fbar = out.factors
        assert f * fbar == QPoly.from_ratpoly(H, QUARTIC_MIN)
        assert out.first_quotient == from_int_list([5989, -742, 530])
        assert f.is_monic and fbar.is_monic
        assert qp_norm(f) == QUARTIC_MIN

    def test_odd_degree_stays(self):
        out = factor_central_irreducible(from_int_list([-2, 0, 0, 1]), H)
        assert len(out.factors) == 1

    def test_nonsplitting_quartic_stays(self):
        # x^4 + 1 generates Q(zeta_8) whose quadratic subfields include
        # sqrt 2 ... the field splits (-1,-1)? zeta_8 field contains
        # sqrt(-1), so it does split and the factor pair must appear
        out = factor_central_irreducible(from_int_list([1, 0, 0, 0, 1]), H)
        assert len(out.factors) == 2
        f, fbar = out.factors
        assert f * fbar == QPoly.from_ratpoly(H, from_int_list([1, 0, 0, 0, 1]))

    def test_real_quartic_stays(self):
        # x^4 - 2: field has real embeddings, cannot split (-1,-1)
        out = factor_central_irreducible(from_int_list([-2, 0, 0, 0, 1]), H)
        assert len(out.factors) == 1


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

    def test_zero_rejected(self):
        with pytest.raises(DegenerateInput):
            factor(QPoly(H, []))


class TestRoots:
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
