import random
from fractions import Fraction as Fr

import pytest

from quatpoly.errors import AlgebraMismatch, DivisionByZero, SplitAlgebra
from quatpoly.numberfield import NumberField, ramified_places
from quatpoly.quadform import represent_pure, splits_in_quadratic
from quatpoly.quatalg import QuaternionAlgebra, coord_mul, is_conjugate, q_inv
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

    def test_ramified(self):
        assert set(ramified_places(H.alpha, H.beta)) == {2, "oo"}
        assert set(ramified_places(H13.alpha, H13.beta)) == \
            {3, "oo"}


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


class TestOperators:
    """Powers, division and subtraction from a number, each against the
    product, inverse or negation it stands for."""

    def test_powers(self):
        rng = random.Random(37)
        for A in (H, H13, H25):
            for _ in range(30):
                a = rnd_q(rng, A)
                if a.is_zero:
                    continue
                inv = q_inv(a)
                assert a ** 0 == A.one()
                assert a ** 1 == a and a ** 3 == a * a * a
                assert a ** -1 == inv and a * a ** -1 == A.one()
                assert a ** -2 == inv * inv
                assert a ** -3 * (a * a * a) == A.one()
        with pytest.raises(DivisionByZero):
            H.zero() ** -1

    def test_division(self):
        rng = random.Random(38)
        for A in (H, H13, H25):
            for _ in range(30):
                a, b = rnd_q(rng, A), rnd_q(rng, A)
                if b.is_zero:
                    continue
                assert (a / b) * b == a
                assert a / b == a * q_inv(b)
                assert a / 3 == A.element([c / 3 for c in a.coords])
                assert a / Fr(2, 5) * Fr(2, 5) == a
        with pytest.raises(DivisionByZero):
            H.one() / H.zero()
        with pytest.raises(DivisionByZero):
            H.one() / 0

    def test_number_over_a_quaternion(self):
        """c / a is c * a^-1, which is a^-1 * c since c is central."""
        rng = random.Random(40)
        for A in (H, H13, H25):
            for _ in range(30):
                a = rnd_q(rng, A)
                if a.is_zero:
                    continue
                for c in (1, -2, Fr(3, 4)):
                    assert c / a == c * q_inv(a) == q_inv(a) * c
                    assert (c / a) * a == A.scalar(c)
        assert 2 / H.i == H.element([0, -2, 0, 0])
        with pytest.raises(DivisionByZero):
            1 / H.zero()

    def test_subtraction_from_a_number(self):
        rng = random.Random(39)
        for A in (H, H13, H25):
            for _ in range(30):
                a = rnd_q(rng, A)
                t, x, y, z = a.coords
                for c in (0, 5, -2, Fr(1, 2)):
                    assert c - a == A.element([c - t, -x, -y, -z])
                    assert (c - a) + a == A.element([c, 0, 0, 0])


class TestCharPoly:
    """The characteristic polynomial x^2 - Tr(a) x + N(a), read off trace
    and norm."""

    def test_values(self):
        a = H.element([3, -1, 1, 0])
        assert a.trace() == 6 and a.norm() == 11
        c = H.scalar(Fr(5, 2))
        assert c * c - c.trace() * c + c.norm() == 0

    def test_root_of_own_charpoly(self):
        rng = random.Random(35)
        for _ in range(50):
            a = rnd_q(rng, H13)
            assert (a * a - a.trace() * a + a.norm()).is_zero


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
    """Q(sqrt d) embeds in A through the pure quaternion of square d that
    represent_pure finds, exactly when splits_in_quadratic holds."""

    @staticmethod
    def embed(A, d):
        got = represent_pure(A.alpha, A.beta, d)
        assert (got is not None) == splits_in_quadratic(A.alpha, A.beta, d)
        return None if got is None else A.element((0,) + tuple(got))

    def test_known_embeddings(self):
        for A, d in ((H, -1), (H, -2), (H, -3), (H13, -3), (H25, -10)):
            a = self.embed(A, d)
            assert a * a == A.scalar(d)
            assert a.coords[0] == 0

    def test_obstructed(self):
        assert self.embed(H, 2) is None
        assert self.embed(H, 5) is None

    def test_fraction_d(self):
        a = self.embed(H, Fr(-2, 3))
        assert a * a == H.scalar(Fr(-2, 3))
        # -5/3 ~ -15 is a square in Q_2, so the field splits at 2
        assert self.embed(H, Fr(-5, 3)) is None


class TestPrinting:
    def test_known_forms(self):
        assert str(H.element([-2, 1, -1, -2])) == "-2+i-j-2k"
        assert str(H.zero()) == "0"
        assert str(H.i) == "i"
        assert str(-H.k) == "-k"
        assert str(H.element([Fr(1, 2), 0, Fr(-3, 2), 0])) == "1/2-3/2j"
        assert str(H.scalar(7)) == "7"

