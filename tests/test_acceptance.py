"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion; a criterion
passes only if every assertion inside it holds within its time budget.
"""

import random
import time
from fractions import Fraction as Fr

from quatpoly.errors import SearchExhausted
from quatpoly.numberfield import (NumberField, hilbert_symbol,
                                  nf_splits_quaternion, ramified_places)
from quatpoly.parser import parse_poly
from quatpoly.qpoly import (QPoly, beck_decompose, factor,
                            factor_central_irreducible, is_irreducible,
                            qp_evaluate, qp_norm, roots, subfield_factor)
from quatpoly.quadform import (ZeroDivisorCertificate, find_zero_divisor,
                               splits_in_quadratic, ternary_isotropic,
                               ternary_local_obstruction)
from quatpoly.quatalg import QuaternionAlgebra, is_conjugate, q_inv
from quatpoly.ratpoly import (from_int_list, rp_factor, rp_gcd,
                              rp_is_irreducible)

from test_quadform import padic_solvable_bruteforce, real_solvable

H = QuaternionAlgebra(-1, -1)
H13 = QuaternionAlgebra(-1, -3)

QUARTIC_MIN = from_int_list([6, 16, 11, 0, 1])


def quartic_cert():
    return ZeroDivisorCertificate(
        -1, -1, QUARTIC_MIN,
        (from_int_list([0]),
         from_int_list([154, 211, -12, 19]),
         from_int_list([97, 136, -11, 13]), from_int_list([53])))


def P(text, A=H):
    return parse_poly(text, A)


def worked_degree8():
    return P("(1+k)") * P("x - i") * P("x - 2 - j") * \
        P("x^2 + ix - 2 - k") * P("x^4 + 11x^2 + 16x + 6")


def report(n, label, ok):
    print("criterion %2d [%s]: %s" % (n, label, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_1_certificate_replay():
    t0 = time.monotonic()
    out = factor_central_irreducible(NumberField(QUARTIC_MIN), H,
                                     cert=quartic_cert())
    elapsed = time.monotonic() - t0
    ok = out.first_quotient == from_int_list([5989, -742, 530])
    q0 = P("x^2 - (3i - j + k)x - 2i + j - k")
    ok = ok and list(out.factors) == [q0, P("x^2 + (3i - j + k)x + 2i - j + k")]
    ok = ok and out.factors[0] * out.factors[1] == \
        QPoly.from_ratpoly(H, QUARTIC_MIN)
    ok = ok and elapsed < 10
    report(1, "certificate replay", ok)


def test_criterion_2_degree8_replay():
    t0 = time.monotonic()
    p = worked_degree8()
    out = factor(p, certs={QUARTIC_MIN: quartic_cert()})
    elapsed = time.monotonic() - t0
    ok = out.leading == H.element([1, 0, 0, 1])
    ok = ok and out.factors[:3] == [P("x - i"), P("x - 2 - j"),
                                    P("x^2 + ix - 2 - k")]
    q0 = P("x^2 - (3i - j + k)x - 2i + j - k")
    ok = ok and out.factors[3:] == [q0, P("x^2 + (3i - j + k)x + 2i - j + k")]
    ok = ok and out.expand() == p
    ok = ok and elapsed < 30
    report(2, "degree-8 replay", ok)


def test_criterion_3_central_recovery():
    b = beck_decompose(worked_degree8())
    ok = b.central == QUARTIC_MIN
    ok = ok and b.leading == H.element([1, 0, 0, 1])
    report(3, "central-part recovery", ok)


def test_criterion_4_norm_factorization():
    q = beck_decompose(worked_degree8()).central_free
    fac = rp_factor(qp_norm(q))
    got = sorted((str(g), e) for g, e in fac.factors)
    ok = got == [("x^2 + 1", 1), ("x^2 - 4*x + 5", 1),
                 ("x^4 - 3*x^2 + 5", 1)]
    report(4, "norm factorization", ok)


def test_criterion_5_irreducibility():
    ok = True
    for text, want in (("x^3 - 2", True), ("x^2 + 1", False),
                       ("x^2 + ix - 2 - k", True)):
        t0 = time.monotonic()
        got = is_irreducible(P(text))
        ok = ok and got is want and time.monotonic() - t0 < 1
    pair = subfield_factor(NumberField(from_int_list([1, 0, 1])), H)
    ok = ok and pair == (P("x - i"), P("x + i"))
    report(5, "irreducibility suite", ok)


def test_criterion_6_property_suite():
    t0 = time.monotonic()
    rng = random.Random(100)
    ok = True
    for A in (H, H13):
        for _ in range(100):
            p = QPoly(A, [A.one()])
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.5:
                    a = A.element([rng.randint(-5, 5) for _ in range(4)])
                    f = QPoly.x(A) - QPoly(A, [a])
                else:
                    b = A.element([rng.randint(-5, 5) for _ in range(4)])
                    c = A.element([rng.randint(-5, 5) for _ in range(4)])
                    f = QPoly(A, [c, b, A.one()])
                p = p * f
            out = factor(p)
            ok = ok and out.expand() == p
            ok = ok and all(is_irreducible(f) for f in out.factors)
            n = len(out.factors)
            for _ in range(5):
                u = A.element([rng.randint(-3, 3) for _ in range(4)])
                while u.is_zero:
                    u = A.element([rng.randint(-3, 3) for _ in range(4)])
                conj_p = QPoly(A, [q_inv(u)]) * p * QPoly(A, [u])
                ok = ok and len(factor(conj_p).factors) == n
            if not ok:
                break
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300
    report(6, "property suite", ok)


def test_criterion_7_roots_suite():
    p = P("x - i") * P("x - j")
    rs = roots(p)
    ok = len(rs) == 1
    rep = rs[0]
    ok = ok and rep.trace() == 0 and rep.norm() == 1
    ok = ok and qp_evaluate(p, rep).is_zero
    ok = ok and len(roots(P("x^2 - 2"))) == 0
    rng = random.Random(101)
    for _ in range(100):
        planted = [H.element([rng.randint(-4, 4) for _ in range(4)])
                   for _ in range(rng.randint(1, 3))]
        q = QPoly(H, [H.one()])
        for a in planted:
            q = q * (QPoly.x(H) - QPoly(H, [a]))
        reps = roots(q)
        ok = ok and any(is_conjugate(r, planted[-1]) for r in reps)
        ok = ok and all(qp_evaluate(q, r).is_zero for r in reps)
        ok = ok and all(not is_conjugate(reps[i], reps[j])
                        for i in range(len(reps))
                        for j in range(i + 1, len(reps)))
        if not ok:
            break
    report(7, "roots suite", ok)


def test_criterion_8_local_global():
    ok = True
    rng = random.Random(102)
    for _ in range(500):
        a = rng.choice([-1, 1]) * rng.randint(1, 200)
        b = rng.choice([-1, 1]) * rng.randint(1, 200)
        ram = ramified_places(a, b)
        ok = ok and len(ram) % 2 == 0
        prod = 1
        for v in ram:
            prod *= hilbert_symbol(a, b, v)
        ok = ok and prod == 1
        if not ok:
            break
    from quatpoly.intarith import squarefree_kernel
    grid = [v for v in range(-20, 21)
            if v != 0 and squarefree_kernel(v) == v]
    for p in (2, 3, 5, 7, 11, 13):
        for a in grid:
            for b in grid:
                want = padic_solvable_bruteforce(a, b, p)
                ok = ok and (hilbert_symbol(a, b, p) == 1) == want
        if not ok:
            break
    found = 0
    anis = 0
    while found < 200 or anis < 20:
        a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 50)
                   for _ in range(3))
        sol = ternary_isotropic([a, b, c])
        if sol is not None:
            if found >= 200:
                continue
            x, y, z = sol
            ok = ok and a * x * x + b * y * y + c * z * z == 0 \
                and (x, y, z) != (0, 0, 0)
            found += 1
        else:
            if anis >= 20:
                continue
            place = ternary_local_obstruction([a, b, c])
            ok = ok and place is not None
            A1 = squarefree_kernel(-a * c)
            B1 = squarefree_kernel(-b * c)
            if place == "oo":
                ok = ok and not real_solvable(A1, B1)
            else:
                ok = ok and not padic_solvable_bruteforce(A1, B1, place)
            anis += 1
        if not ok:
            break
    report(8, "local-global suite", ok)


def test_criterion_9_splitting_crosscheck():
    rng = random.Random(103)
    ok = True
    done = 0
    while done < 50:
        b = rng.randint(-9, 9)
        c = rng.randint(-9, 9)
        p = from_int_list([c, b, 1])
        if not rp_is_irreducible(p):
            continue
        L = NumberField(p)
        splits = nf_splits_quaternion(-1, -1, L)
        pair = subfield_factor(L, H)
        ok = ok and splits == (pair is not None)
        if pair is not None:
            q, qbar = pair
            ok = ok and q * qbar == QPoly.from_ratpoly(H, p)
        done += 1
        if not ok:
            break
    report(9, "splitting cross-check", ok)


def test_criterion_10_search_layers():
    L = NumberField(QUARTIC_MIN)
    ok = True
    try:
        cert = find_zero_divisor(-1, -1, L)
        cert.validate()  # finding one anyway is also acceptable
    except SearchExhausted as exc:
        ok = ok and exc.central_factor == QUARTIC_MIN
    rng = random.Random(104)
    done = 0
    while done < 20:
        d = rng.choice([-1, 1]) * rng.randint(1, 80)
        from quatpoly.intarith import squarefree_kernel
        if squarefree_kernel(d) != d or d == 1:
            continue
        alpha, beta = rng.choice([(-1, -1), (-1, -3), (-2, -5)])
        if not splits_in_quadratic(alpha, beta, d):
            continue
        L2 = NumberField(from_int_list([-d, 0, 1]))
        cert = find_zero_divisor(alpha, beta, L2, seed=rng.randint(0, 999))
        cert.validate()
        ok = ok and cert.minpoly == L2.minpoly
        done += 1
        if not ok:
            break
    report(10, "zero-divisor search layers", ok)
