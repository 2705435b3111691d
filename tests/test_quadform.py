import math
import random
from fractions import Fraction as Fr

import pytest

from quatpoly import intarith, maxorder, numberfield, quadform
from quatpoly.errors import (DegenerateInput, InternalInvariantViolation,
                             InvalidCertificate, PreconditionViolation,
                             SearchExhausted, SplitAlgebra)
from quatpoly.intarith import (crt, legendre, square_class,
                               sqrt_mod_squarefree, squarefree_kernel)
from quatpoly.numberfield import (INFINITE_PLACE, NumberField,
                                  hilbert_symbol, is_division,
                                  is_local_square, nf_quadratic_subfields,
                                  nf_splits_quaternion, nf_sqrt,
                                  ramified_places)
from quatpoly.quadform import (ZeroDivisorCertificate, find_zero_divisor,
                               quaternary_isotropic, represent_pure,
                               search_zero_divisor, splits_in_quadratic,
                               ternary_isotropic, ternary_local_obstruction)
from quatpoly.qpoly import subfield_factor
from quatpoly.quatalg import QuaternionAlgebra
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
    if squarefree_kernel(-a * b) == 1 or is_local_square(Fr(-a, b), p):
        return True
    return False


def real_solvable(a, b):
    return a > 0 or b > 0


class TestHilbertSymbol:
    def test_against_padic_oracle(self):
        rng = random.Random(21)
        pairs = set()
        for v in range(-10, 11):
            if v != 0 and squarefree_kernel(v) == v:
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


def kernel_hilbert_symbol(a, b, place, kernel=squarefree_kernel):
    """(a, b)_v from the squarefree kernels of a and b: the formula
    hilbert_symbol used before it read valuations directly."""
    if place == INFINITE_PLACE:
        return -1 if a < 0 and b < 0 else 1
    p = place
    sa, sb = kernel(Fr(a)), kernel(Fr(b))
    al, u = numberfield._val_unit(sa, p)
    be, v = numberfield._val_unit(sb, p)
    if p == 2:
        eps_u, eps_v = ((u - 1) // 2) % 2, ((v - 1) // 2) % 2
        om_u, om_v = ((u * u - 1) // 8) % 2, ((v * v - 1) // 8) % 2
        return -1 if (eps_u * eps_v + al * om_v + be * om_u) % 2 else 1
    sym = -1 if (al * be * ((p - 1) // 2)) % 2 else 1
    if be % 2:
        sym *= legendre(u, p)
    if al % 2:
        sym *= legendre(v, p)
    return sym


def kernel_is_local_square(d, place, kernel=squarefree_kernel):
    """Squareness of d at the place from its squarefree kernel."""
    s = kernel(Fr(d))
    if place == INFINITE_PLACE:
        return s > 0
    if place == 2:
        return s % 8 == 1 if s % 2 else False
    return s % place != 0 and legendre(s, place) == 1


class TestLocalSymbolsByValuation:
    PLACES = (INFINITE_PLACE, 2, 3, 5, 7, 11)

    @staticmethod
    def rationals(rng, count):
        """Signed rationals whose numerators and denominators carry
        powers of the primes up to 13 and a random cofactor."""
        def part():
            out = rng.choice((1, 1, rng.randint(1, 10 ** 4)))
            for p in (2, 3, 5, 7, 11, 13):
                out *= p ** rng.choice((0, 0, 1, 2, 3))
            return out
        return [rng.choice((1, -1)) * Fr(part(), part())
                for _ in range(count)]

    def test_matches_the_kernel_formula(self):
        rng = random.Random(61)
        values = self.rationals(rng, 120)
        for p in self.PLACES:
            for d in values:
                assert is_local_square(d, p) == kernel_is_local_square(d, p)
            for a, b in zip(values, values[1:] + values[:1]):
                assert hilbert_symbol(a, b, p) == \
                    kernel_hilbert_symbol(a, b, p), (a, b, p)

    def test_nothing_is_factored(self, monkeypatch):
        """A product of two primes above 10^12 is as cheap as a small
        number: neither function factors anything."""
        pq = 1000000000039 * 1000000000061

        def forbidden(n):
            raise AssertionError("factorint(%d) called" % n)

        monkeypatch.setattr(intarith, "factorint", forbidden)
        monkeypatch.setattr(numberfield, "factorint", forbidden)
        # pq, -3 pq and 2/pq are squarefree kernels up to a square, so the
        # reference needs no factorization either
        identity = {pq: pq, -3: -3, -3 * pq: -3 * pq, Fr(2, pq): 2 * pq,
                    7: 7}
        kernel = identity.__getitem__
        for p in self.PLACES + (1000000000039,):
            for d in (pq, -3 * pq, Fr(2, pq)):
                assert is_local_square(d, p) == \
                    kernel_is_local_square(d, p, kernel), (d, p)
            for a, b in ((pq, -3), (Fr(2, pq), 7), (-3 * pq, pq)):
                assert hilbert_symbol(a, b, p) == \
                    kernel_hilbert_symbol(a, b, p, kernel), (a, b, p)


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
            A = squarefree_kernel(-a * c)
            B = squarefree_kernel(-b * c)
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


    def test_height_cap_is_a_search_budget(self, monkeypatch):
        # -14 = -(x^2 + y^2 + z^2) needs height 2 and more
        monkeypatch.setattr(quadform, "_QUATERNARY_HEIGHT_CAP", 1)
        for call in (lambda: quaternary_isotropic([-1, -1, -1, 14]),
                     lambda: represent_pure(-1, -1, -14)):
            with pytest.raises(SearchExhausted, match="height cap of 1") as ei:
                call()
            assert ei.value.central_factor is None
        monkeypatch.undo()
        x, y, z = represent_pure(-1, -1, -14)
        assert -x * x - y * y - z * z == -14


class TestRepresentPure:
    def test_known_values(self):
        """Each Q(sqrt d) here embeds: a pure quaternion of square d."""
        for (alpha, beta), d in (((-1, -1), -1), ((-1, -1), -2),
                                 ((-1, -1), -3), ((-1, -1), -5),
                                 ((-1, -1), Fr(-2, 3)), ((-1, -3), -3),
                                 ((-2, -5), -10)):
            x, y, z = represent_pure(alpha, beta, d)
            assert alpha * x * x + beta * y * y - alpha * beta * z * z == d
            a = QuaternionAlgebra(alpha, beta).element((0, x, y, z))
            assert a * a == d

    def test_obstructed(self):
        # 2 is not represented by -x^2 - y^2 - z^2; Q(sqrt 2) and
        # Q(sqrt 5) are real, and 2 splits in Q(sqrt -15) (-5/3 ~ -15):
        # each has a place of local degree 1 where (-1, -1) ramifies
        for d in (2, 5, Fr(-5, 3)):
            assert not splits_in_quadratic(-1, -1, d)
            assert represent_pure(-1, -1, d) is None

    def test_pure_square_exactly_when_the_field_splits(self):
        """represent_pure finds a pure quaternion of square d exactly
        when Q(sqrt d) splits A, for squarefree d in [-60, 60]."""
        embedded = 0
        for alpha, beta in ((-1, -1), (-1, -3), (-2, -5)):
            A = QuaternionAlgebra(alpha, beta)
            for d in range(-60, 61):
                if d == 0 or squarefree_kernel(d) != d:
                    continue
                got = represent_pure(alpha, beta, d)
                assert (got is not None) == splits_in_quadratic(alpha, beta,
                                                                d), (A, d)
                if got is not None:
                    a = A.element((0,) + got)
                    assert a * a == d
                    embedded += 1
        assert embedded > 20

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
        # the constructor validates, so no invalid certificate exists
        z = from_int_list([0])
        with pytest.raises(InvalidCertificate, match="is zero"):
            ZeroDivisorCertificate(-1, -1, from_int_list([1, 0, 1]),
                                   (z, z, z, z))

    def test_rejects_nonzero_norm(self):
        with pytest.raises(InvalidCertificate, match="does not vanish"):
            ZeroDivisorCertificate(
                -1, -1, from_int_list([1, 0, 1]),
                (from_int_list([1]), from_int_list([0]),
                 from_int_list([0]), from_int_list([0])))

    def test_json_round_trip(self, tmp_path):
        cert = self._quartic_cert()
        path = tmp_path / "cert.json"
        cert.save(path)
        back = ZeroDivisorCertificate.load(path)
        assert back == cert
        back.validate()

    def test_fraction_round_trip(self):
        # 2/3 times the quartic certificate: its norm (4/9) N is still 0
        quartic = self._quartic_cert()
        cert = ZeroDivisorCertificate(
            -1, -1, quartic.minpoly, [qi * Fr(2, 3) for qi in quartic.q])
        assert any(c.denominator == 3 for qi in cert.q for c in qi.coeffs)
        assert ZeroDivisorCertificate.from_dict(cert.to_dict()) == cert

    def test_minpoly_must_be_monic_nonconstant(self):
        """NumberField's rule: factor looks certificates up by the monic
        factors of rp_factor, so a rational multiple of the factor, a
        constant or the zero polynomial is no certificate."""
        quartic = self._quartic_cert()
        for bad in (quartic.minpoly * 2, quartic.minpoly * Fr(-1, 3),
                    from_int_list([1]), from_int_list([5]),
                    from_int_list([])):
            with pytest.raises(InvalidCertificate, match="monic"):
                ZeroDivisorCertificate(-1, -1, bad, quartic.q)

    def test_matches(self):
        """matches compares alpha, beta (as rationals) and the minpoly."""
        cert = self._quartic_cert()
        assert cert.matches(-1, -1, from_int_list([6, 16, 11, 0, 1]))
        assert cert.matches(Fr(-1), Fr(-2, 2), cert.minpoly)
        for data in ((-1, -3, cert.minpoly), (-3, -1, cert.minpoly),
                     (-1, -1, from_int_list([1, 0, 0, 0, 1])),
                     (-1, -1, cert.minpoly * 2)):
            assert not cert.matches(*data), data

    @pytest.mark.parametrize("key, value", [
        ("alpha", "1/0"), ("q0", 5), ("q1", [1.5]), ("minpoly", None),
        ("beta", "x"), ("q3", None), ("q3", "53"), ("minpoly", "61611")])
    def test_malformed_dict_rejected(self, key, value):
        data = self._quartic_cert().to_dict()
        data[key] = value
        with pytest.raises(InvalidCertificate, match="malformed"):
            ZeroDivisorCertificate.from_dict(data)
        with pytest.raises(InvalidCertificate, match="malformed"):
            ZeroDivisorCertificate.from_dict([data])


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
            if squarefree_kernel(d) != d or d == 1:
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
        assert "in 2 trials (largest height 1)" in str(ei.value)
        with pytest.raises(SearchExhausted) as ei:
            find_zero_divisor(-1, -1, L, max_height=17)
        assert "in 17 trials (largest height 3)" in str(ei.value)

    def test_subfield_layer_takes_first_splitting_subfield(self):
        fields = ([1, 0, 1], [1, 0, 0, 0, 1], [-2, 0, 0, 0, 1],
                  [1, 0, -10, 0, 1], [6, 16, 11, 0, 1], [-2, 0, 0, 1])
        hits = 0
        for c in fields:
            L = NumberField(from_int_list(c))
            for alpha, beta in ((-1, -1), (-1, -3), (-2, -5)):
                ds = [d for d in nf_quadratic_subfields(L)
                      if splits_in_quadratic(alpha, beta, d)]
                if not ds or not nf_splits_quaternion(alpha, beta, L):
                    continue
                pair = subfield_factor(L, QuaternionAlgebra(alpha, beta))
                want = ZeroDivisorCertificate(alpha, beta, L.minpoly,
                                              pair[0].coordinates())
                assert find_zero_divisor(alpha, beta, L) == want
                hits += 1
        assert hits >= 4

    def test_max_height_counts_trials_from_one(self):
        L = NumberField(from_int_list([6, 16, 11, 0, 1]))
        for bad in (0, -3):
            with pytest.raises(PreconditionViolation):
                find_zero_divisor(-1, -1, L, max_height=bad)
        with pytest.raises(SearchExhausted):
            find_zero_divisor(-1, -1, L, max_height=1)

    def test_search_layer_alone(self):
        # neither field has a quadratic subfield that splits (-1, -1), so
        # find_zero_divisor goes straight to its search layer
        found = NumberField(from_int_list([6, 2, 9, -4, 1]))
        exhausted = NumberField(from_int_list([6, 16, 11, 0, 1]))
        for L in (found, exhausted):
            assert not [d for d in nf_quadratic_subfields(L)
                        if splits_in_quadratic(-1, -1, d)]
        want = find_zero_divisor(-1, -1, found, seed=1)
        assert search_zero_divisor(-1, -1, found, seed=1) == want
        messages = []
        for search in (find_zero_divisor, search_zero_divisor):
            with pytest.raises(SearchExhausted) as ei:
                search(-1, -1, exhausted, max_height=9)
            assert ei.value.central_factor == exhausted.minpoly
            messages.append(str(ei.value))
            with pytest.raises(PreconditionViolation) as ei:
                search(-1, -1, exhausted, max_height=0)
            messages.append(str(ei.value))
        assert messages[:2] == messages[2:]

    def test_search_trials_need_no_trager(self, monkeypatch):
        """On the criterion-1 quartic the local pre-test of nf_sqrt
        settles all 20 trials: no Trager factorization runs."""
        L = NumberField(from_int_list([6, 16, 11, 0, 1]))
        calls = []
        trager = numberfield.nf_factor_squarefree
        monkeypatch.setattr(numberfield, "nf_factor_squarefree",
                            lambda f, K: calls.append(f) or trager(f, K))
        with pytest.raises(SearchExhausted) as ei:
            search_zero_divisor(-1, -1, L, max_height=20)
        assert str(ei.value) == ("no zero divisor found in 20 trials "
                                 "(largest height 3)")
        assert calls == []

    def test_search_answers_do_not_depend_on_the_local_test(
            self, monkeypatch):
        """Seeds 0-39 on a field where the search can succeed give the
        same certificates and exhaustions whether or not the local
        pre-test of nf_sqrt runs."""
        L = NumberField(from_int_list([6, 2, 9, -4, 1]))

        def answers():
            out = []
            for seed in range(40):
                try:
                    out.append(search_zero_divisor(-1, -1, L, seed=seed))
                except SearchExhausted as exc:
                    out.append(str(exc))
            return out

        with_test = answers()
        monkeypatch.setattr(numberfield, "_local_nonsquare", lambda el: False)
        assert answers() == with_test
        assert [seed for seed, a in enumerate(with_test)
                if not isinstance(a, str)] == [1, 38]

    @staticmethod
    def element_trial_search(alpha, beta, L, seed, max_height=20):
        """search_zero_divisor with each trial computed in NFElement
        arithmetic, one product at a time: the reference for the integer
        trial polynomial."""
        alpha, beta = Fr(alpha), Fr(beta)
        rng = random.Random(seed)
        n = L.degree
        for trial in range(max_height):
            h = 1 + trial // 8
            a1, a2, a3 = [L.element([rng.randint(-h, h) for _ in range(n)])
                          for _ in range(3)]
            t = alpha * a1 * a1 + beta * a2 * a2 - alpha * beta * a3 * a3
            if t.is_zero:
                if a1.is_zero and a2.is_zero and a3.is_zero:
                    continue
                q0 = RatPoly()
            else:
                s = nf_sqrt(t, L)
                if s is None:
                    continue
                q0 = s.poly
            return ZeroDivisorCertificate(
                alpha, beta, L.minpoly,
                (q0, a1.poly, a2.poly, a3.poly))
        return ("no zero divisor found in %d trials (largest height %d)"
                % (max_height, 1 + (max_height - 1) // 8))

    # (alpha, beta, minimal polynomial, seeds where the search succeeds):
    # an integral quartic, a monic quartic with non-integral coefficients,
    # and an algebra with non-integral alpha
    TRIAL_CASES = [
        (-1, -1, from_int_list([6, 2, 9, -4, 1]), [1, 38]),
        (-1, -1, RatPoly([Fr(5, 4), 1, 4, -1, 1]), [18, 23]),
        (Fr(-1, 2), -3, from_int_list([6, -6, 3, 0, 1]), [9]),
    ]

    @pytest.mark.parametrize("alpha, beta, minpoly, found", TRIAL_CASES)
    def test_integer_trials_match_element_trials(self, alpha, beta,
                                                 minpoly, found):
        """Seeds 0-39 give the same certificates and the same exhaustion
        messages as trials computed product by product in L."""
        L = NumberField(minpoly)
        got, want = [], []
        for seed in range(40):
            try:
                got.append(search_zero_divisor(alpha, beta, L, seed=seed))
            except SearchExhausted as exc:
                got.append(str(exc))
            want.append(self.element_trial_search(alpha, beta, L, seed))
        assert got == want
        assert [seed for seed, a in enumerate(got)
                if not isinstance(a, str)] == found

    def test_local_roots_found_once_per_field(self, monkeypatch):
        """A 20-trial search scans the minimal polynomial for its simple
        roots mod the small primes once, not once per trial."""
        calls = []
        scan = numberfield._local_roots
        monkeypatch.setattr(numberfield, "_local_roots",
                            lambda m: calls.append(m) or scan(m))
        L = NumberField(from_int_list([6, 16, 11, 0, 1]))
        with pytest.raises(SearchExhausted):
            search_zero_divisor(-1, -1, L, max_height=20)
        assert calls == [L.minpoly]

    def test_ramified_places_are_remembered(self, monkeypatch):
        """Asking again for the places of an algebra factors nothing."""
        want = ramified_places(Fr(-7, 3), -11)

        def forbidden(n):
            raise AssertionError("factorint(%d) called" % n)

        monkeypatch.setattr(numberfield, "factorint", forbidden)
        monkeypatch.setattr(intarith, "factorint", forbidden)
        assert ramified_places(Fr(-7, 3), -11) == want
        with pytest.raises(AttributeError):
            want.infinite = not want.infinite
        assert splits_in_quadratic(Fr(-7, 3), -11, -1) == \
            all(not is_local_square(-1, v) for v in want.places())

    def test_splits_in_quadratic_consistency(self):
        # d must be a nonsquare locally at every ramified place
        assert splits_in_quadratic(-1, -1, -1)
        assert splits_in_quadratic(-1, -1, -2)
        assert not splits_in_quadratic(-1, -1, 2)
        assert not splits_in_quadratic(-1, -1, 5)


class TestFactorint:
    @staticmethod
    def prime(rng, digits):
        while True:
            n = rng.randrange(10 ** (digits - 1), 10 ** digits)
            if intarith.is_prime(n):
                return n

    def test_products_of_two_primes(self):
        """200 products of two primes of 6 to 12 digits: every one past
        trial division, so Pollard rho splits each."""
        rng = random.Random(2029)
        for _ in range(200):
            p = self.prime(rng, rng.randint(6, 12))
            q = self.prime(rng, rng.randint(6, 12))
            want = {p: 2} if p == q else {p: 1, q: 1}
            assert intarith.factorint(-p * q) == want

    def test_prime_powers_and_repeated_primes(self):
        """Primes above the trial divisors, squared, cubed and mixed, and
        100 products of two primes of 3 to 5 digits."""
        cases = {41 ** 2: {41: 2}, 97 ** 3: {97: 3}, 99991 ** 2: {99991: 2},
                 41 ** 2 * 43: {41: 2, 43: 1},
                 2 ** 5 * 41 ** 3 * 99991: {2: 5, 41: 3, 99991: 1}}
        rng = random.Random(2030)
        for _ in range(100):
            p = self.prime(rng, rng.randint(3, 5))
            q = self.prime(rng, rng.randint(3, 5))
            cases[p * q] = {p: 2} if p == q else {p: 1, q: 1}
        for n, want in cases.items():
            assert intarith.factorint(n) == want, n


class TestCrt:
    def test_combines_coprime_residues(self):
        x = crt([2, 3, 1], [3, 5, 7])
        assert (x % 3, x % 5, x % 7) == (2, 3, 1) and 0 <= x < 105

    def test_rejects_moduli_with_a_common_factor(self):
        with pytest.raises(InternalInvariantViolation):
            crt([0, 1], [2, 4])


class TestSquareClass:
    def test_rational_is_s_r_squared(self):
        rng = random.Random(71)
        for _ in range(300):
            q = Fr(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6),
                   rng.randint(1, 10 ** 4))
            s, r, primes = square_class(q)
            assert q == s * r * r and r > 0
            assert primes == tuple(sorted(set(primes)))
            assert abs(s) == math.prod(primes)

    def test_zero_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            square_class(0)


class TestSqrtModSquarefree:
    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 1000003)

    def test_edge_cases(self):
        assert sqrt_mod_squarefree(5, ()) == 0
        assert sqrt_mod_squarefree(3, (2,)) == 1
        assert sqrt_mod_squarefree(2, (2, 7)) ** 2 % 14 == 2
        assert sqrt_mod_squarefree(3, (7,)) is None    # 3 is no square mod 7
        assert sqrt_mod_squarefree(2, (3, 7)) is None  # nor 2 mod 3

    def test_roots_square_back(self):
        rng = random.Random(73)
        for _ in range(200):
            primes = rng.sample(self.PRIMES, rng.randint(1, 5))
            n = math.prod(primes)
            a = rng.randrange(n) ** 2 % n if rng.random() < 0.7 \
                else rng.randrange(n)
            r = sqrt_mod_squarefree(a, primes)
            if r is None:
                assert any(p != 2 and legendre(a, p) == -1 for p in primes)
            else:
                assert r * r % n == a % n


class TestFactorOnce:
    """Each number of the quadratic-form layer is factored once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = intarith.factorint

        def spy(n):
            seen.append(n)
            return real(n)

        for module in (intarith, numberfield, maxorder):
            monkeypatch.setattr(module, "factorint", spy)
        return seen

    def test_ramified_places_factors_each_parameter_once(self, calls):
        ramified_places.cache_clear()
        alpha, beta = Fr(-21, 5), 33
        places = ramified_places(alpha, beta)
        assert len(calls) == 2
        assert list(places.finite_primes) == [
            p for p in (2, 3, 5, 7, 11) if hilbert_symbol(alpha, beta, p) < 0]

    def test_sqrt_mod_squarefree_factors_nothing(self, calls):
        n = 7 * 17 * 1000003
        assert sqrt_mod_squarefree(4, (7, 17, 1000003)) ** 2 % n == 4
        assert calls == []

    def test_represent_pure_factors_little(self, calls):
        x, y, z = represent_pure(-1, -1, -59)
        assert -x * x - y * y - z * z == -59
        assert len(calls) <= 10

    def test_represent_pure_factors_beta_once(self, calls):
        """-alpha beta = beta for alpha = -1: its square class comes from
        those of alpha and beta, so |beta| is factored once."""
        big = 100000007 * 100000037
        x, y, z = represent_pure(-1, -big, -1)
        assert -x * x - big * y * y - big * z * z == -1
        assert [n for n in calls if abs(n) == big] == [-big]


@pytest.mark.parametrize("place", [1, 0, -3, 4, "x"])
def test_local_symbols_reject_non_places(monkeypatch, place):
    """A non-place raises before any local arithmetic: place 1 used to
    loop forever in _val_unit, 0 divided by zero, "x" raised TypeError and
    4 returned a value."""
    def forbidden(*args):
        raise AssertionError("local arithmetic at a non-place")

    monkeypatch.setattr(numberfield, "_local_class", forbidden)
    with pytest.raises(PreconditionViolation):
        hilbert_symbol(2, 3, place)
    with pytest.raises(PreconditionViolation):
        is_local_square(2, place)
