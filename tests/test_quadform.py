import random
from fractions import Fraction as Fr

import pytest

from quatpoly.errors import (DegenerateInput, InvalidCertificate,
                             PreconditionViolation, SearchExhausted,
                             SplitAlgebra)
from quatpoly.intarith import squarefree_part
from quatpoly.numberfield import (INFINITE_PLACE, NumberField,
                                  nf_splits_quaternion)
from quatpoly.quadform import (ZeroDivisorCertificate, find_zero_divisor,
                               hilbert_symbol, is_division, is_local_square,
                               quaternary_isotropic, ramified_places,
                               represent_pure, splits_in_quadratic,
                               ternary_isotropic, ternary_local_obstruction)
from quatpoly.ratpoly import RatPoly, from_int_list


def _squares_mod(m):
    return {x * x % m for x in range(m)}


def padic_solvable_bruteforce(a, b, p):
    """Oracle for the Hilbert symbol (a,b)_p: decide whether
    z^2 = a x^2 + b y^2 has a nontrivial p-adic solution by exhausting
    representatives of (x, y) up to unit scaling modulo a power of p
    high enough to apply Hensel's lemma.  a, b must be squarefree.

    A primitive solution can be scaled so that either y is a unit or
    (y = p*y', x a unit); valuations of a x^2 + b y^2 stay below 3 for
    squarefree a, b, so squareness mod p^3 (odd p) or 2^8 is decisive.
    """
    if p == 2:
        mod = 2 ** 8
    else:
        mod = p ** 3
    squares = _squares_mod(mod)
    if a % mod in squares or b % mod in squares:   # y = 0 or x = 0
        return True
    # include 0: a x^2 + b y^2 = 0 means -ab is a square, z = 0 works
    for x in range(1, mod):
        if p == 2 and x % 2 == 0:
            continue
        if p != 2 and x % p == 0:
            continue
        if (a * x * x + b) % mod in squares:       # y = 1
            return True
        if (a + b * x * x) % mod in squares:       # x = 1, swap roles
            return True
        if (a * x * x + b * p * p) % mod in squares:   # y = p, x unit
            return True
        if (a * p * p + b * x * x) % mod in squares:   # x = p, y unit
            return True
    if squarefree_part(-a * b) == 1 or is_local_square(Fr(-a, b), p):
        return True
    return False


def real_solvable(a, b):
    return a > 0 or b > 0


class TestHilbertSymbol:
    def test_against_padic_oracle(self):
        rng = random.Random(21)
        pairs = set()
        for v in range(-10, 11):
            if squarefree_part(v) == v and v != 0:
                pairs.add(v)
        vals = sorted(pairs)
        for p in (2, 3, 5, 7, 11, 13):
            for a in vals:
                for b in vals:
                    want = padic_solvable_bruteforce(a, b, p)
                    got = hilbert_symbol(a, b, p) == 1
                    assert got == want, (a, b, p)

    def test_infinite_place(self):
        for a in (-7, -2, -1, 1, 3, 10):
            for b in (-5, -1, 2, 6):
                assert (hilbert_symbol(a, b, INFINITE_PLACE) == 1) == \
                    real_solvable(a, b)

    def test_scaling_invariance(self):
        rng = random.Random(22)
        for _ in range(200):
            a = rng.choice([-1, 1]) * rng.randint(1, 40)
            b = rng.choice([-1, 1]) * rng.randint(1, 40)
            for place in (INFINITE_PLACE, 2, 3, 5, 7):
                s = hilbert_symbol(a, b, place)
                assert hilbert_symbol(a * 4, b, place) == s
                assert hilbert_symbol(a, b * 9, place) == s
                assert hilbert_symbol(b, a, place) == s

    def test_bimultiplicative(self):
        rng = random.Random(23)
        for _ in range(200):
            a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 30)
                       for _ in range(3))
            for place in (INFINITE_PLACE, 2, 3, 5):
                assert hilbert_symbol(a * b, c, place) == \
                    hilbert_symbol(a, c, place) * hilbert_symbol(b, c, place)

    def test_reciprocity(self):
        rng = random.Random(24)
        for _ in range(500):
            a = rng.choice([-1, 1]) * rng.randint(1, 200)
            b = rng.choice([-1, 1]) * rng.randint(1, 200)
            prod = 1
            for place in ramified_places(a, b).places():
                prod *= hilbert_symbol(a, b, place)
            assert prod == 1
            assert len(ramified_places(a, b)) % 2 == 0


class TestLocalSquares:
    def test_odd_p(self):
        assert is_local_square(Fr(4), 7)
        assert is_local_square(Fr(2), 7)
        assert not is_local_square(Fr(3), 7)
        assert not is_local_square(Fr(7), 7)
        assert is_local_square(Fr(49), 7)
        assert is_local_square(Fr(1, 4), 3)

    def test_two(self):
        assert is_local_square(Fr(1), 2)
        assert is_local_square(Fr(17), 2)
        assert not is_local_square(Fr(3), 2)
        assert not is_local_square(Fr(5), 2)
        assert not is_local_square(Fr(2), 2)
        assert is_local_square(Fr(8, 2), 2)

    def test_infinity(self):
        assert is_local_square(Fr(5), INFINITE_PLACE)
        assert not is_local_square(Fr(-5), INFINITE_PLACE)


class TestTernary:
    def test_isotropic_solutions_verify(self):
        rng = random.Random(25)
        found = 0
        tried = 0
        while found < 200 and tried < 4000:
            tried += 1
            a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 60)
                       for _ in range(3))
            sol = ternary_isotropic([a, b, c])
            if sol is None:
                continue
            x, y, z = sol
            assert a * x * x + b * y * y + c * z * z == 0
            assert (x, y, z) != (0, 0, 0)
            from math import gcd
            assert gcd(gcd(abs(x), abs(y)), abs(z)) == 1
            found += 1
        assert found == 200

    def test_anisotropic_certified(self):
        rng = random.Random(26)
        checked = 0
        while checked < 60:
            a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 40)
                       for _ in range(3))
            sol = ternary_isotropic([a, b, c])
            if sol is not None:
                continue
            place = ternary_local_obstruction([a, b, c])
            assert place is not None
            # cross-check the failing place with the brute-force oracle:
            # a x^2 + b y^2 + c z^2 = 0 solvable iff z^2 = (-a/c) x^2
            # + (-b/c) y^2 is
            A = squarefree_part(-a * c)
            B = squarefree_part(-b * c)
            if place == INFINITE_PLACE:
                assert not real_solvable(A, B)
            else:
                assert not padic_solvable_bruteforce(A, B, place)
            checked += 1

    def test_definite_has_real_obstruction(self):
        assert ternary_isotropic([1, 1, 1]) is None
        assert ternary_local_obstruction([1, 1, 1]) is not None
        assert ternary_isotropic([-2, -3, -5]) is None

    def test_rational_and_common_factor_inputs(self):
        sol = ternary_isotropic([Fr(1, 2), Fr(1, 3), Fr(-5, 6)])
        assert sol is not None
        x, y, z = sol
        assert Fr(1, 2) * x * x + Fr(1, 3) * y * y - Fr(5, 6) * z * z == 0
        sol = ternary_isotropic([6, 10, -15])
        if sol is not None:
            x, y, z = sol
            assert 6 * x * x + 10 * y * y - 15 * z * z == 0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            ternary_isotropic([0, 1, 1])


class TestQuaternary:
    def test_solutions_verify(self):
        rng = random.Random(27)
        found = 0
        tried = 0
        while found < 150 and tried < 2000:
            tried += 1
            a = [rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(4)]
            sol = quaternary_isotropic(a)
            if sol is None:
                continue
            vals = list(sol)
            assert sum(c * v * v for c, v in zip(a, vals)) == 0
            assert any(v != 0 for v in vals)
            found += 1
        assert found == 150

    def test_indefinite_squarefree_diagonal(self):
        # an indefinite quaternary form over Q is isotropic unless a
        # 2-adic or odd-p obstruction survives; spot-check some families
        assert quaternary_isotropic([1, 1, 1, -6]) is not None
        assert quaternary_isotropic([1, -1, 5, 11]) is not None
        # -7 is a 2-adic square and the Hasse condition fails at 2
        assert quaternary_isotropic([1, 1, 1, -7]) is None

    def test_definite_anisotropic(self):
        assert quaternary_isotropic([1, 1, 1, 1]) is None
        assert quaternary_isotropic([-1, -2, -3, -4]) is None

    def test_norm_form_anisotropic_for_division_algebra(self):
        # <1, -alpha, -beta, alpha*beta> is the quaternion norm form
        for alpha, beta in ((-1, -1), (-1, -3), (-2, -5), (-1, -7)):
            assert is_division(alpha, beta)
            assert quaternary_isotropic(
                [1, -alpha, -beta, alpha * beta]) is None
        assert not is_division(-1, 2)
        assert quaternary_isotropic([1, 1, -2, -2]) is not None


class TestRepresentPure:
    def test_known_values(self):
        for (alpha, beta), d in (((-1, -1), -2), ((-1, -1), -5),
                                 ((-1, -3), -3), ((-2, -5), -10),
                                 ((-1, -1), Fr(-5, 3))):
            got = represent_pure(alpha, beta, d)
            if got is None:
                continue
            x, y, z = got
            assert alpha * x * x + beta * y * y - alpha * beta * z * z == d

    def test_obstructed(self):
        # 2 is not represented by -x^2 - y^2 - z^2
        assert represent_pure(-1, -1, 2) is None

    def test_random_verify(self):
        rng = random.Random(28)
        hits = 0
        for _ in range(150):
            alpha, beta = rng.choice([(-1, -1), (-1, -3), (-2, -5)])
            d = Fr(rng.randint(-30, -1), rng.randint(1, 5))
            got = represent_pure(alpha, beta, d)
            if got is None:
                continue
            x, y, z = got
            assert alpha * x * x + beta * y * y - alpha * beta * z * z == d
            hits += 1
        assert hits > 50


class TestCertificate:
    def _quartic_cert(self):
        return ZeroDivisorCertificate(
            -1, -1, from_int_list([6, 16, 11, 0, 1]),
            (from_int_list([0]),
             from_int_list([154, 211, -12, 19]),
             from_int_list([97, 136, -11, 13]), from_int_list([53])))

    def test_validate_and_norm(self):
        cert = self._quartic_cert()
        cert.validate()
        n = cert.norm_poly()
        assert (n % cert.minpoly).is_zero

    def test_rejects_zero(self):
        z = from_int_list([0])
        cert = ZeroDivisorCertificate(-1, -1, from_int_list([1, 0, 1]),
                                      (z, z, z, z))
        with pytest.raises(InvalidCertificate):
            cert.validate()

    def test_rejects_nonzero_norm(self):
        cert = ZeroDivisorCertificate(
            -1, -1, from_int_list([1, 0, 1]),
            (from_int_list([1]), from_int_list([0]),
             from_int_list([0]), from_int_list([0])))
        with pytest.raises(InvalidCertificate):
            cert.validate()

    def test_json_round_trip(self, tmp_path):
        cert = self._quartic_cert()
        path = tmp_path / "cert.json"
        cert.save(path)
        back = ZeroDivisorCertificate.load(path)
        assert back == cert
        back.validate()

    def test_fraction_round_trip(self):
        cert = ZeroDivisorCertificate(
            -1, -1, from_int_list([2, 0, 1]),
            (RatPoly([Fr(1, 3), Fr(2)]), RatPoly([Fr(-5, 7)]),
             from_int_list([1]), from_int_list([0])))
        assert ZeroDivisorCertificate.from_dict(cert.to_dict()) == cert


class TestFindZeroDivisor:
    def test_supplied_certificate(self):
        L = NumberField(from_int_list([6, 16, 11, 0, 1]))
        cert = TestCertificate()._quartic_cert()
        got = find_zero_divisor(-1, -1, L, cert=cert)
        assert got == cert

    def test_supplied_certificate_mismatch(self):
        L = NumberField(from_int_list([1, 0, 1]))
        cert = TestCertificate()._quartic_cert()
        with pytest.raises(InvalidCertificate):
            find_zero_divisor(-1, -1, L, cert=cert)

    def test_quadratic_subfield_route(self):
        rng = random.Random(29)
        hits = 0
        tried = 0
        while hits < 20 and tried < 200:
            tried += 1
            d = rng.choice([-1, 1]) * rng.randint(2, 60)
            if squarefree_part(d) != d or d == 1:
                continue
            alpha, beta = rng.choice([(-1, -1), (-1, -3), (-2, -5)])
            if not splits_in_quadratic(alpha, beta, d):
                continue
            L = NumberField(from_int_list([-d, 0, 1]))
            cert = find_zero_divisor(alpha, beta, L, seed=rng.randint(0, 99))
            cert.validate()
            assert cert.alpha == alpha and cert.beta == beta
            assert cert.minpoly == L.minpoly
            hits += 1
        assert hits == 20

    def test_split_detected(self):
        L = NumberField(from_int_list([-2, 0, 1]))
        with pytest.raises(SplitAlgebra):
            find_zero_divisor(-1, 2, L)

    def test_exhaustion_names_central_factor(self):
        L = NumberField(from_int_list([6, 16, 11, 0, 1]))
        with pytest.raises(SearchExhausted) as ei:
            find_zero_divisor(-1, -1, L, max_height=2)
        assert ei.value.central_factor == L.minpoly

    def test_max_height_counts_trials_from_one(self):
        L = NumberField(from_int_list([6, 16, 11, 0, 1]))
        for bad in (0, -3):
            with pytest.raises(PreconditionViolation):
                find_zero_divisor(-1, -1, L, max_height=bad)
        with pytest.raises(SearchExhausted):
            find_zero_divisor(-1, -1, L, max_height=1)

    def test_splits_in_quadratic_consistency(self):
        # d must be a nonsquare locally at every ramified place
        assert splits_in_quadratic(-1, -1, -1)
        assert splits_in_quadratic(-1, -1, -2)
        assert not splits_in_quadratic(-1, -1, 2)
        assert not splits_in_quadratic(-1, -1, 5)
