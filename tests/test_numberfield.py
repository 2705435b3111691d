import gc
import math
import random
import sys
import weakref
from fractions import Fraction as Fr

import pytest

from quatpoly import dense, maxorder, numberfield
from quatpoly.errors import (DegenerateInput, DivisionByZero,
                             PreconditionViolation)
from quatpoly.intarith import factorint
from quatpoly.maxorder import (_component_split, disc_of_int_poly,
                               maximal_order, splitting_type)
from quatpoly.numberfield import (INFINITE_PLACE, NFElement, NumberField,
                                  nf_factor, nf_local_splitting,
                                  nf_quadratic_candidates,
                                  nf_quadratic_subfields,
                                  nf_quartic_subfields, nf_sqrt,
                                  nf_splits_quaternion)
from quatpoly.ratpoly import RatPoly, from_int_list, rp_is_irreducible
from test_folds import nf_factor_over_quadratic, ref_gfp_factor


QI = NumberField(from_int_list([1, 0, 1]))          # Q(i)
QS2 = NumberField(from_int_list([-2, 0, 1]))        # Q(sqrt 2)
Q8 = NumberField(from_int_list([1, 0, 0, 0, 1]))    # Q(zeta_8)
CUBIC = NumberField(from_int_list([-2, 0, 0, 1]))   # Q(cbrt 2)
QUARTIC = NumberField(from_int_list([6, 16, 11, 0, 1]))


def _trager_sqrt(el, L):
    """The root of the first linear factor of y^2 - el over L, or None."""
    f = [-el, L.zero(), L.one()]
    for h, _ in nf_factor(f, L):
        if len(h) == 2:
            return -h[0]
    return None


class TestElementArithmetic:
    def test_inverses(self):
        rng = random.Random(9)
        for L in (QI, QS2, Q8, CUBIC, QUARTIC):
            for _ in range(30):
                a = L.element([rng.randint(-5, 5) for _ in range(L.degree)])
                if a.is_zero:
                    continue
                assert (a * a.inv()).poly == 1

    def test_constructor_pads_and_reduces(self):
        # NFElement(L, coords) is L.element(coords): padded with zeros and
        # reduced mod the minimal polynomial
        assert NFElement(QI, [1]) == QI.one()
        assert NFElement(QI, [0, 0, 1]) == -1
        assert NFElement(QI, [0, 0, 1]).coords == (-1, 0)
        assert NFElement(QI, [1]).coords == QI.element([1]).coords == (1, 0)

    def test_minpoly_relation(self):
        th = Q8.gen()
        assert (th ** 4).poly == -1
        assert (QS2.gen() ** 2).poly == 2

    def test_power_and_division(self):
        th = QI.gen()
        assert ((1 + th) ** 2) == th * 2
        assert (th / th).poly == 1


class TestElementOperators:
    """The operators of NFElement against coordinate arithmetic over Q or
    the product and inverse they stand for."""

    def test_operators_against_coordinates(self):
        rng = random.Random(11)
        for L in (QI, QS2, CUBIC, QUARTIC):
            one = L.one()
            for _ in range(20):
                e = L.element([Fr(rng.randint(-5, 5), rng.randint(1, 3))
                               for _ in range(L.degree)])
                t, *rest = e.coords
                for c in (0, 5, -2, Fr(1, 2)):
                    assert c - e == L.element([c - t] + [-a for a in rest])
                    assert e - c == L.element([t - c] + rest)
                    assert c * e == L.element([c * a for a in e.coords])
                assert e ** 0 == one
                assert e ** 1 == e
                assert e ** 3 == e * e * e
                assert e / 3 == L.element([a / 3 for a in e.coords])
                f = L.element([rng.randint(-5, 5) for _ in range(L.degree)])
                if f.is_zero:
                    continue
                assert e / f == e * f.inv()
                assert (e / f) * f == e
                assert ((e / f) * f).poly == e.poly

    def test_operator_errors(self):
        """Negative powers are DegenerateInput, a number over an element
        is the number times its inverse, division by zero is
        DivisionByZero, and arithmetic across fields is DegenerateInput."""
        e = QI.gen() + 1
        with pytest.raises(DegenerateInput):
            e ** -1
        for c in (1, Fr(1, 2), -3):
            assert c / e == c * e.inv() == QI.element([c]) / e
            assert (c / e) * e == c
        assert 2 / QI.gen() == QI.element([0, -2])
        with pytest.raises(DivisionByZero):
            1 / QI.zero()
        for zero in (0, QI.zero()):
            with pytest.raises(DivisionByZero):
                e / zero
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, lambda a, b: a / b):
            with pytest.raises(DegenerateInput):
                op(e, QS2.gen())


class TestMaximalOrder:
    def test_gaussian_integers(self):
        _, disc, index = maximal_order([1, 0, 1])
        assert disc == -4 and index == 1

    def test_sqrt5(self):
        # Z[sqrt 5] has index 2 in Z[(1+sqrt 5)/2]
        _, disc, index = maximal_order([-5, 0, 1])
        assert disc == 5 and index == 2

    def test_dedekind_cubic(self):
        # the classic example where 2 divides the index
        _, disc, index = maximal_order([-8, -2, -1, 1])
        assert index % 2 == 0
        st = splitting_type([-8, -2, -1, 1], 2)
        assert sorted(st) == [(1, 1), (1, 1), (1, 1)]

    def test_cyclotomic8(self):
        _, disc, index = maximal_order([1, 0, 0, 0, 1])
        assert disc == 256 and index == 1
        assert splitting_type([1, 0, 0, 0, 1], 2) == [(4, 1)]
        assert sorted(splitting_type([1, 0, 0, 0, 1], 3)) == [(1, 2), (1, 2)]
        assert sorted(splitting_type([1, 0, 0, 0, 1], 17)) == [(1, 1)] * 4

    def test_ramification_degree_sum(self):
        rng = random.Random(11)
        for _ in range(25):
            deg = rng.randint(2, 4)
            coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [1]
            p = RatPoly([Fr(c) for c in coeffs])
            if not rp_is_irreducible(p):
                continue
            for q in (2, 3, 5, 7):
                st = splitting_type(coeffs, q)
                assert sum(e * f for e, f in st) == deg


def _index_primes(m):
    """The primes p with p^2 | disc(m)."""
    return [p for p, e in factorint(abs(disc_of_int_poly(m))).items()
            if e >= 2]


class TestSplittingType:
    @staticmethod
    def reference(m, p):
        """Splitting above p read off the whole maximal order, which
        _p_maximalize returns as it is, with its radical at p."""
        order, radical = maxorder._p_maximalize(maximal_order(m)[0], p)
        return sorted(_component_split(order.table, order.unit, p, radical))

    def cases(self):
        # p divides the index of Z[theta] in both fixed cases
        yield [-8, -2, -1, 1], 2
        yield [-5, 0, 1], 2
        rng = random.Random(61)
        done = 0
        # 39 draws give the 24 fields; the cap makes a broken order fail
        # the count below instead of drawing forever
        for _ in range(80):
            if done == 24:
                break
            deg = rng.randint(2, 5)
            m = [rng.randint(-12, 12) for _ in range(deg)] + [1]
            if not m[0] or not rp_is_irreducible(from_int_list(m)):
                continue
            primes = _index_primes(m)
            if primes:
                done += 1
            for p in primes:
                yield m, p
        assert done == 24

    def test_matches_maximal_order(self):
        for m, p in self.cases():
            assert splitting_type(m, p) == self.reference(m, p), (m, p)

    def test_split_matches_dedekind_kummer(self):
        """Where Z[theta] is p-maximal, splitting_type must give what
        m mod p factors into, ramified primes included."""
        rng = random.Random(67)
        checked = ramified = 0
        # 57 draws reach 300 checks; the cap makes a _p_maximalize that
        # never returns Z[theta] itself fail the count below, not spin
        for _ in range(120):
            if checked >= 300:
                break
            deg = rng.randint(2, 6)
            m = [rng.randint(-20, 20) for _ in range(deg)] + [1]
            if not m[0] or not rp_is_irreducible(from_int_list(m)):
                continue
            disc = abs(disc_of_int_poly(m))
            ztheta = maxorder._ztheta(m)
            for p in (2, 3, 5, 7, 11, 13):
                if maxorder._p_maximalize(ztheta, p)[0] is not ztheta:
                    continue
                want = sorted((mult, len(g) - 1) for g, mult in
                              ref_gfp_factor(m, p))
                assert splitting_type(m, p) == want, (m, p)
                checked += 1
                ramified += disc % p == 0
        assert checked >= 300 and ramified > 20

    def test_pinned_cases(self):
        # Q(sqrt 17, sqrt -7): 2 is a common index divisor, so no single
        # element of the maximal order separates its four primes
        m = [576, 0, -20, 0, 1]
        _, disc, index = maximal_order(m)
        assert (disc, index) == (14161, 1536)
        assert splitting_type(m, 2) == [(1, 1)] * 4
        # index 202, with p large inside the Frobenius
        assert maximal_order([-51005, 0, 1])[2] == 202
        assert splitting_type([-51005, 0, 1], 101) == [(1, 1), (1, 1)]
        assert splitting_type([101 ** 3, 0, 0, 0, 1], 101) == [(4, 1)]

    def test_radical_computed_once(self, monkeypatch):
        """_p_maximalize hands on the radical of the p-maximal order it
        returns, so _component_split computes none of its own."""
        callers = []
        radical_basis = maxorder._radical_basis

        def spy(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return radical_basis(*args)

        monkeypatch.setattr(maxorder, "_radical_basis", spy)
        for m, p in self.cases():
            splitting_type(m, p)
        assert set(callers) == {"_p_maximalize"}

    def test_no_maximal_order_on_the_way(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("called")

        cases = list(self.cases())
        monkeypatch.setattr(maxorder, "maximal_order", forbidden)
        monkeypatch.setattr(maxorder, "factorint", forbidden)
        for m, p in cases:
            assert sum(e * f for e, f in splitting_type(m, p)) == len(m) - 1


class TestSqrtAndSubfields:
    def test_sqrt_in_field(self):
        s = nf_sqrt(Fr(-1), QI)
        assert (s * s).poly == -1
        s = nf_sqrt(Fr(2), QS2)
        assert (s * s).poly == 2
        assert nf_sqrt(Fr(2), QI) is None
        assert nf_sqrt(Fr(3), CUBIC) is None

    def test_sqrt_of_field_element(self):
        th = QI.gen()
        s = nf_sqrt(th * 2, QI)  # (1+i)^2 = 2i
        assert s is not None and s * s == th * 2

    def test_subfields(self):
        assert nf_quadratic_subfields(QI) == [-1]
        assert nf_quadratic_subfields(QS2) == [2]
        assert set(nf_quadratic_subfields(Q8)) == {-1, 2, -2}
        assert nf_quadratic_subfields(CUBIC) == []
        assert nf_quadratic_subfields(QUARTIC) == []

    def test_subfields_split_minpoly(self):
        for L in (QI, QS2, Q8):
            for d in nf_quadratic_subfields(L):
                _L2, parts = nf_factor_over_quadratic(L.minpoly, d)
                assert len(parts) >= 2
                assert all(len(g) - 1 == L.degree // 2 for g in parts) or \
                    L.degree == 2

    FIELDS = [QI, Q8, NumberField(from_int_list([-2, 0, 0, 0, 1])),
              NumberField(from_int_list([1, 0, -10, 0, 1])), QUARTIC, CUBIC]
    SUBFIELDS = [[-1], [-1, 2, -2], [2], [2, 3, 6], [], []]

    def test_subfields_are_candidates_in_order(self):
        """The subfields are candidates, in their order; a quartic reads
        the same list off its resolvent cubic, and no other degree can."""
        for L, want in zip(self.FIELDS, self.SUBFIELDS):
            candidates = nf_quadratic_candidates(L)
            subfields = nf_quadratic_subfields(L)
            assert subfields == want
            it = iter(candidates)
            assert all(d in it for d in subfields)  # a subsequence
            if L.degree == 4:
                assert nf_quartic_subfields(L) == want
        assert nf_quadratic_candidates(self.FIELDS[-1]) == []
        for L in (QI, CUBIC):
            with pytest.raises(PreconditionViolation, match="degree 4"):
                nf_quartic_subfields(L)

    def test_candidates_pass_the_local_screen(self):
        """nf_quadratic_candidates keeps exactly the divisors of 4 disc
        that the local test does not prove to be non-squares; on the
        even-degree fields here that leaves the subfields alone."""
        for L, want in zip(self.FIELDS[:-1], self.SUBFIELDS):
            kept = [d for d in self.signed_squarefree_divisors(L) if d != 1
                    and not numberfield._local_nonsquare(L.from_rational(d))]
            candidates = nf_quadratic_candidates(L)
            assert sorted(candidates) == sorted(kept), L
            assert candidates == want, L

    @staticmethod
    def signed_squarefree_divisors(L):
        """The signed squarefree divisors of 4 disc: the candidates of
        nf_quadratic_candidates before its local screen."""
        divisors = [1]
        for p in factorint(4 * abs(disc_of_int_poly(L.integral_model()))):
            divisors += [d * p for d in divisors]
        return [s for d in divisors for s in (d, -d)]

    def test_sqrt_is_first_linear_trager_factor(self):
        """nf_sqrt gives the root of the first linear factor of the full
        factorization of y^2 - d, also on the divisors of 4 disc that the
        local screen of nf_quadratic_candidates drops."""
        rng = random.Random(41)
        for L in self.FIELDS:
            values = [L.from_rational(d)
                      for d in self.signed_squarefree_divisors(L)]
            values += [L.from_rational(d) for d in (2, -3, Fr(9, 4), -7)]
            for _ in range(3):
                a = L.element([rng.randint(-3, 3) for _ in range(L.degree)])
                values += [a * a, a * a * 5]
            for el in values:
                if el.is_zero:
                    continue
                assert nf_sqrt(el, L) == _trager_sqrt(el, L), (L, el)

    # x^4 + 1 has no simple root mod an odd prime below 17, and the cubic
    # has a minimal polynomial with denominators 2 and 3
    LOCAL_FIELDS = [QI, Q8, QUARTIC,
                    NumberField(from_int_list([2, -1, 0, 3, 0, 0, 1])),
                    NumberField(RatPoly([Fr(1, 3), Fr(-1, 2), 0, 1])),
                    NumberField(from_int_list([0, 1]))]

    def test_local_test_only_rejects_non_squares(self):
        """nf_sqrt with its local pre-test agrees with the Trager
        factorization of y^2 - d, on squares, on 5 times a square, on
        rationals and on random elements."""
        rng = random.Random(43)
        for L in self.LOCAL_FIELDS:
            settled = 0
            for _ in range(12):
                a, b = [L.element([Fr(rng.randint(-3, 3), rng.randint(1, 3))
                                   for _ in range(L.degree)])
                        for _ in range(2)]
                d = Fr(rng.randint(-30, 30), rng.randint(1, 4))
                for el in (a * a, a * a * 5, L.from_rational(d), b):
                    if el.is_zero:
                        continue
                    want = _trager_sqrt(el, L)
                    got = nf_sqrt(el, L)
                    assert (got is None) == (want is None), (L, el)
                    if got is not None:
                        assert got in (want, -want) and got * got == el
                    elif numberfield._local_nonsquare(el):
                        settled += 1
            assert settled > 0 or L.degree == 1
        # x^4 + 1 has simple roots mod 17 and 41 only, and 21 and -33 are
        # residues at all of them: the pre-test passes them on to Trager
        for d in (21, -33):
            el = Q8.from_rational(d)
            assert not numberfield._local_nonsquare(el)
            assert nf_sqrt(el, Q8) is None and _trager_sqrt(el, Q8) is None

    def test_local_test_needs_a_simple_root(self):
        """0 is a double root of x^2 - 45 mod 3, where 5 is a non-residue,
        yet 5 = (theta/3)^2: a multiple root must not reject."""
        L = NumberField(from_int_list([-45, 0, 1]))
        third = L.gen() / 3
        assert nf_sqrt(Fr(5), L) in (third, -third)

    def test_factor_over_quadratic_rejects_square(self):
        with pytest.raises(DegenerateInput):
            nf_factor_over_quadratic(from_int_list([1, 0, 1]), 4)
        with pytest.raises(PreconditionViolation):
            nf_factor_over_quadratic(RatPoly([Fr(1), Fr(0), Fr(2)]), -1)


class TestTragerFactor:
    def test_multiply_back(self):
        rng = random.Random(13)
        for L in (QI, QS2):
            th = L.gen()
            for _ in range(20):
                def rnd_lin():
                    return [L.element([rng.randint(-3, 3), rng.randint(-3, 3)]),
                            L.one()]
                f = rnd_lin()
                for _ in range(rng.randint(0, 2)):
                    f = dense.mul(f, rnd_lin(), L.field)
                fac = nf_factor(f, L)
                rebuilt = [L.one()]
                for g, m in fac:
                    for _ in range(m):
                        rebuilt = dense.mul(rebuilt, g, L.field)
                assert rebuilt == f

    def test_known_splittings(self):
        f = [QI.from_rational(Fr(1)), QI.zero(), QI.one()]  # y^2 + 1
        fac = nf_factor(f, QI)
        assert len(fac) == 2
        f = [QS2.from_rational(Fr(1)), QS2.zero(), QS2.one()]
        fac = nf_factor(f, QS2)
        assert len(fac) == 1  # stays irreducible over a real field

    def test_no_unshifted_norm_of_rational_input(self, monkeypatch):
        """Over a field of degree n > 1 the norm of a polynomial over Q is
        its n-th power, never squarefree, so Trager shifts before the
        first norm; over a field of degree 1 the first norm is that of
        the input itself."""
        seen = []
        real = numberfield.nf_poly_norm

        def spy(f, L):
            seen.append((f, L))
            return real(f, L)

        monkeypatch.setattr(numberfield, "nf_poly_norm", spy)
        monkeypatch.setattr(numberfield, "_local_nonsquare", lambda el: False)
        for L in (QI, QS2, Q8, CUBIC, QUARTIC):
            for d in (-1, 2, 5):
                nf_sqrt(d, L)
            assert len(nf_factor([L.from_rational(c)
                                  for c in L.minpoly.coeffs], L)) > 1
        assert seen
        assert [f for f, L in seen
                if all(c.is_rational for c in f)] == []
        seen.clear()
        L1 = NumberField(from_int_list([-3, 1]))
        f = [L1.from_rational(-4), L1.zero(), L1.one()]  # y^2 - 4
        assert len(nf_factor(f, L1)) == 2
        assert seen[0] == (f, L1)


class TestLocalSplitting:
    def test_infinite_place(self):
        assert nf_local_splitting(QI, INFINITE_PLACE) == [(1, 2)]
        assert nf_local_splitting(QS2, INFINITE_PLACE) == [(1, 1), (1, 1)]
        assert sorted(nf_local_splitting(CUBIC, INFINITE_PLACE)) == \
            [(1, 1), (1, 2)]

    def test_finite_places(self):
        assert nf_local_splitting(QI, 2) == [(2, 1)]
        assert sorted(nf_local_splitting(QI, 5)) == [(1, 1), (1, 1)]
        assert nf_local_splitting(QI, 3) == [(1, 2)]

    @pytest.mark.parametrize("place", [1, 0, 4, 9, -3])
    def test_rejects_non_places(self, place):
        with pytest.raises(PreconditionViolation):
            nf_local_splitting(Q8, place)


class TestSplitsQuaternion:
    def test_known_examples(self):
        assert nf_splits_quaternion(-1, -1, QI) is True
        assert nf_splits_quaternion(-1, -1, CUBIC) is False
        assert nf_splits_quaternion(-1, -1, QUARTIC) is True

    def test_real_quadratic_does_not_split_definite(self):
        assert nf_splits_quaternion(-1, -1, QS2) is False

    def test_infinite_place_first(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("finite place checked")

        # x^4 - 2 has a real root: the infinite place decides alone
        L = NumberField(from_int_list([-2, 0, 0, 0, 1]))
        monkeypatch.setattr(maxorder, "splitting_type", forbidden)
        assert nf_splits_quaternion(-1, -1, L) is False


def rational_sqrt_reference(q):
    """The degree-1 branch nf_sqrt had: the positive rational square root
    of q, or None."""
    num, den = q.numerator, q.denominator
    if num < 0:
        return None
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fr(rn, rd)
    return None


def test_sqrt_over_degree_one_fields_matches_the_rational_branch():
    """Over Q[x]/(x - c) the local test and Trager give the positive
    rational root or None, as the deleted degree-1 branch did."""
    rng = random.Random(31)
    squares = 0
    for _ in range(200):
        L = NumberField(RatPoly([-Fr(rng.randint(-50, 50),
                                     rng.randint(1, 9)), 1]))
        for _ in range(10):
            if rng.random() < 0.5:
                d = Fr(rng.randint(1, 40), rng.randint(1, 40)) ** 2
            else:
                d = Fr(rng.randint(-300, 300), rng.randint(1, 30))
            want = rational_sqrt_reference(d)
            squares += want is not None
            got = nf_sqrt(d, L)
            if want is None:
                assert got is None, (L, d)
            else:
                assert got == L.from_rational(want), (L, d)
    assert 900 < squares < 1100


def test_dropped_fields_are_freed_without_the_cyclic_collector():
    """A field holds no reference back to itself, so it is freed when the
    last reference goes, also after nf_sqrt has filled its local_roots
    and run Trager over its field object."""
    refs = []
    gc.disable()
    try:
        for k in range(20):
            L = NumberField(from_int_list([6, 16, 11, 0, 1]))
            el = L.gen() + k
            if k % 2:
                assert nf_sqrt(el, L) is None
                assert L.local_roots is not None
            else:
                assert nf_sqrt(el * el, L) in (el, -el)
            refs.append(weakref.ref(L))
            del L, el
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()
