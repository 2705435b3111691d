import random
from fractions import Fraction as Fr

import pytest

from quatpoly.errors import (AlgebraMismatch, DivisionByZero,
                             EmbeddingObstructed, SplitAlgebra,
                             ZeroDivisorEncountered)
from quatpoly.numberfield import NumberField
from quatpoly.quatalg import (QuaternionAlgebra, charpoly, coord_mul,
                              embed_quadratic, is_conjugate, q_inv)
from quatpoly.ratpoly import from_int_list

H = QuaternionAlgebra(-1, -1)
H13 = QuaternionAlgebra(-1, -3)
H25 = QuaternionAlgebra(-2, -5)


def rnd_q(rng, A, height=8):
    return A.element([Fr(rng.randint(-height, height),
                         rng.randint(1, 3)) for _ in range(4)])


class TestConstruction:
    def test_split_rejected(self):
        with pytest.raises(SplitAlgebra):
            QuaternionAlgebra(-1, 2)
        with pytest.raises(SplitAlgebra):
            QuaternionAlgebra(1, -1)
        with pytest.raises(SplitAlgebra):
            QuaternionAlgebra(2, 2)

    def test_unchecked(self):
        A = QuaternionAlgebra.unchecked(-1, 2)
        assert A.alpha == -1 and A.beta == 2

    def test_ramified(self):
        assert set(H.ramified.places()) == {2, "oo"}
        assert set(H13.ramified.places()) == {3, "oo"}


class TestMultiplicationTable:
    def test_hamilton_relations(self):
        i, j, k = H.i, H.j, H.k
        assert i * i == H.scalar(-1)
        assert j * j == H.scalar(-1)
        assert i * j == k and j * i == -k
        assert j * k == i and k * j == -i
        assert k * i == j and i * k == -j

    def test_general_relations(self):
        for A in (H13, H25):
            i, j, k = A.i, A.j, A.k
            assert i * i == A.scalar(A.alpha)
            assert j * j == A.scalar(A.beta)
            assert i * j == k and j * i == -k
            assert k * k == A.scalar(-A.alpha * A.beta)

    def test_coordinate_product_types(self):
        # one formula for int, Fraction and number-field coordinates
        rng = random.Random(35)
        L = NumberField(from_int_list([-2, 0, 1]))
        for A in (H, H13, H25):
            al, be = int(A.alpha), int(A.beta)
            for _ in range(20):
                a, b = ([rng.randint(-8, 8) for _ in range(4)]
                        for _ in range(2))
                want = (A.element(a) * A.element(b)).coords
                got = coord_mul(al, be, a, b)
                assert got == want and all(type(c) is int for c in got)
                a, b, want = ([L.from_rational(c) for c in q]
                              for q in (a, b, want))
                assert list(coord_mul(A.alpha, A.beta, a, b)) == want

    def test_known_product(self):
        # (1 + i)(j + k) = j + k + ij + ik = j + k + k - j = 2k
        assert (H.one() + H.i) * (H.j + H.k) == H.k * 2


class TestRingAxioms:
    def test_random_identities(self):
        rng = random.Random(31)
        for A in (H, H13, H25):
            for _ in range(300):
                a, b, c = (rnd_q(rng, A) for _ in range(3))
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c

    def test_norm_trace_conj(self):
        rng = random.Random(32)
        for A in (H, H13, H25):
            for _ in range(200):
                a, b = rnd_q(rng, A), rnd_q(rng, A)
                assert a * a.conj() == A.scalar(a.norm())
                assert (a * b).norm() == a.norm() * b.norm()
                assert (a * b).conj() == b.conj() * a.conj()
                assert a.trace() == 2 * a.coords[0]
                # a satisfies its own characteristic polynomial
                assert a * a - a * a.trace() + A.scalar(a.norm()) == A.zero()

    def test_norm_positive_definite(self):
        rng = random.Random(33)
        for A in (H, H13, H25):
            for _ in range(100):
                a = rnd_q(rng, A)
                if not a.is_zero:
                    assert a.norm() > 0


class TestInverses:
    def test_random_inverses(self):
        rng = random.Random(34)
        for A in (H, H13):
            for _ in range(100):
                a = rnd_q(rng, A)
                if a.is_zero:
                    continue
                assert a * q_inv(a) == A.one()
                assert q_inv(a) * a == A.one()

    def test_zero_rejected(self):
        with pytest.raises(DivisionByZero):
            q_inv(H.zero())

    def test_zero_divisor_witnessed(self):
        # over L = Q(theta) with theta^2 = -1 the algebra (-1,-1) splits
        L = NumberField(from_int_list([1, 0, 1]))
        A = QuaternionAlgebra.unchecked(-1, -1)
        th = L.gen()
        a = A.element([th, L.one(), L.zero(), L.zero()])  # theta + i
        with pytest.raises(ZeroDivisorEncountered) as ei:
            q_inv(a)
        w = ei.value.witness
        assert not w.is_zero
        assert (w * w.conj()).is_zero


class TestCharPoly:
    def test_values(self):
        a = H.element([3, -1, 1, 0])
        cp = charpoly(a)
        assert cp.trace == 6 and cp.norm == 11
        assert str(cp.as_ratpoly()) == "x^2 - 6*x + 11"
        assert charpoly(H.scalar(Fr(5, 2))).as_ratpoly()(Fr(5, 2)) == 0

    def test_root_of_own_charpoly(self):
        rng = random.Random(35)
        for _ in range(50):
            a = rnd_q(rng, H13)
            cp = charpoly(a).as_ratpoly()
            acc = H13.zero()
            for c in reversed(cp.coeffs):
                acc = acc * a + H13.scalar(c)
            assert acc.is_zero


class TestConjugacy:
    def test_same_class(self):
        # i and -i are conjugate (by j); i and j are conjugate in (-1,-1)
        assert is_conjugate(H.i, -H.i)
        assert is_conjugate(H.i, H.j)
        assert is_conjugate(H.i, H.k)
        j, i = H.j, H.i
        assert q_inv(j) * i * j == -i

    def test_distinct_class(self):
        assert not is_conjugate(H.i, H.i * 2)
        assert not is_conjugate(H.one() + H.i, H.i)
        assert not is_conjugate(H.scalar(2), H.scalar(-2))

    def test_central_elements(self):
        assert is_conjugate(H.scalar(3), H.scalar(3))
        assert not is_conjugate(H.scalar(1), H.scalar(2))

    def test_conjugation_invariance(self):
        rng = random.Random(36)
        for _ in range(100):
            a = rnd_q(rng, H)
            u = rnd_q(rng, H)
            if u.is_zero:
                continue
            assert is_conjugate(a, q_inv(u) * a * u)

    def test_mismatched_algebras(self):
        with pytest.raises(AlgebraMismatch):
            is_conjugate(H.i, H13.i)


class TestEmbedQuadratic:
    def test_known_embeddings(self):
        for A, d in ((H, -1), (H, -2), (H, -3), (H13, -3), (H25, -10)):
            a = embed_quadratic(A, d)
            assert a * a == A.scalar(d)
            assert a.coords[0] == 0

    def test_obstructed(self):
        with pytest.raises(EmbeddingObstructed):
            embed_quadratic(H, 2)
        with pytest.raises(EmbeddingObstructed):
            embed_quadratic(H, 5)

    def test_fraction_d(self):
        a = embed_quadratic(H, Fr(-2, 3))
        assert a * a == H.scalar(Fr(-2, 3))
        # -5/3 ~ -15 is a square in Q_2, so the field splits at 2
        with pytest.raises(EmbeddingObstructed):
            embed_quadratic(H, Fr(-5, 3))


class TestPrinting:
    def test_known_forms(self):
        assert str(H.element([-2, 1, -1, -2])) == "-2+i-j-2k"
        assert str(H.zero()) == "0"
        assert str(H.i) == "i"
        assert str(-H.k) == "-k"
        assert str(H.element([Fr(1, 2), 0, Fr(-3, 2), 0])) == "1/2-3/2j"
        assert str(H.scalar(7)) == "7"
