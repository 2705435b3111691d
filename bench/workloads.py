"""Seeded inputs for the three benchmark workloads, with an independent
check of every answer.

A workload's batch is a few rounds.  Each round is a fixed mix of
operations (stratified by the input properties that drive their cost)
whose inputs come from a `random.Random(seed)`, so the same seed gives
the same batch.

An `Op` holds a library call and a check.  The call is what the
benchmark times; it looks the library function up at call time (as
`qpoly.factor`, `cli.run`), so the layer tracer's wrappers are used when
installed.  The check works only with `oracle`, never with quatpoly.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import oracle as O

WORKLOADS = ("property", "central", "cli")

# The algebras (alpha, beta) every workload uses; setup_s constructs
# exactly these.
ALGEBRAS = ((-1, -1), (-1, -3))

# The finite prime at which each algebra of ALGEBRAS ramifies.
RAMIFIED_PRIME = (2, 3)

# Rounds per batch.  One pass over a batch costs 2300-3600 ref: 3-4 s on
# a quiet 2-core x86 host under Python 3.11, about twice that on a busy
# one, so a 30 s run repeats it 3-9 times.
BATCH_ROUNDS = {"property": 1, "central": 2, "cli": 5}

# Operations of each kind per algebra and round of `central`.  The costs
# of the not-split quartics spread 2-4x with no input property to
# stratify by, and the median of the batch is the median of the
# quartics, so there are many of them.  The split quartics N(q) cost
# most and set the throughput; a few of them split through a quadratic
# subfield, at a third of the cost of an exhausted search.
CENTRAL_MIX = {"cubic": 4, "quartic": 24, "quadratic": 3, "norm": 2}

DEGREE8 = "(1+k)(x - i)(x - 2 - j)(x^2 + ix - 2 - k)(x^4 + 11x^2 + 16x + 6)"
QUARTIC_MIN = (6, 16, 11, 0, 1)
QUARTIC_CERT = ((0,), (154, 211, -12, 19), (97, 136, -11, 13), (53,))


class Op:
    """One operation: `call()` is timed, `check(result, error)` returns
    (ok, canonical text of the answer)."""

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


class Env:
    """The library modules and algebras a batch builds on."""

    def __init__(self, workdir):
        import quatpoly.cli
        import quatpoly.qpoly
        from quatpoly.errors import QuatpolyError, SearchExhausted
        from quatpoly.quatalg import QuaternionAlgebra
        self.qpoly = quatpoly.qpoly
        self.cli = quatpoly.cli
        self.QuatpolyError = QuatpolyError
        self.SearchExhausted = SearchExhausted
        self.algebras = [QuaternionAlgebra(a, b) for a, b in ALGEBRAS]
        self.workdir = workdir

    def qpoly_of(self, A, p):
        return self.qpoly.QPoly(A, [A.element(c) for c in p])


def batch(workload, seed, env):
    """The operations of `workload` for `seed`: BATCH_ROUNDS[workload]
    rounds, each shuffled."""
    rng = random.Random("%s/%d" % (workload, seed))
    make = {"property": _property_round, "central": _central_round,
            "cli": _cli_round}[workload]
    ops = []
    for r in range(BATCH_ROUNDS[workload]):
        round_ops = make(rng, env, r)
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


# -- shared helpers ---------------------------------------------------------

def _rq(rng, h):
    return O.quat(rng.randint(-h, h) for _ in range(4))


def _rq_noncentral(rng, h):
    while True:
        a = _rq(rng, h)
        if any(a[1:]):
            return a


def _linear(rng, h):
    return [O.qsub(O.ZERO, _rq(rng, h)), O.ONE]


def _quadratic(rng, h):
    return [_rq(rng, h), _rq(rng, h), O.ONE]


def _coords(q):
    return tuple(O.quat(q.coords))


def _poly_coords(f):
    return [_coords(c) for c in f.coeffs]


def _factor_check(p, A, exhaustible=False, env=None):
    """Check a Factorization of p: leading * factors == p, every factor
    monic.  With exhaustible, SearchExhausted naming p as its central
    factor is an accepted answer."""
    al, be = A.alpha, A.beta

    def check(res, err):
        if err is not None:
            if exhaustible and isinstance(err, env.SearchExhausted):
                named = list(err.central_factor.coeffs)
                return (named == [c[0] for c in p],
                        "exhausted:" + ",".join(O.fr(c) for c in named))
            return False, "error:%s" % type(err).__name__
        lead = _coords(res.leading)
        factors = [_poly_coords(f) for f in res.factors]
        ok = O.pprod([[lead]] + factors, al, be) == p
        ok = ok and all(O.is_monic(f) for f in factors)
        return ok, "factor:" + O.qtext(lead) + "".join(O.ptext(f)
                                                       for f in factors)
    return check


def _factor_op(kind, env, A, p, **kw):
    qp = env.qpoly_of(A, p)
    return Op(kind, lambda: env.qpoly.factor(qp),
              _factor_check(p, A, env=env, **kw))


# -- property: criterion-6 shape --------------------------------------------

def _property_round(rng, env, r):
    """Every mix of 1-5 factors (j quadratic, k - j linear) over both
    algebras but a lone linear factor, each product together with a
    conjugate u^-1 p u.

    A lone linear factor is already factored.  Leaving it out also moves
    the median of the batch from the edge between two shapes of degree
    5 into the middle of the dearest one."""
    ops = []
    for A in env.algebras:
        al, be = A.alpha, A.beta
        for k in range(1, 6):
            for j in range(k + 1):
                if k == 1 and j == 0:
                    continue
                fs = [_quadratic(rng, 5) for _ in range(j)] + \
                    [_linear(rng, 5) for _ in range(k - j)]
                rng.shuffle(fs)
                p = O.pprod(fs, al, be)
                u = _rq(rng, 3)
                while O.is_zero(u):
                    u = _rq(rng, 3)
                ui = O.qinv(u, al, be)
                cp = [O.qmul(O.qmul(ui, c, al, be), u, al, be) for c in p]
                ops.append(_factor_op("product", env, A, p))
                ops.append(_factor_op("conjugate", env, A, cp))
    return ops


# -- central: one input per route of factor_central_irreducible -------------

def _monic_int(rng, degree):
    return [rng.randint(-5, 5) for _ in range(degree)] + [1]


def _norm_quartic(rng, A, primes):
    """(q, N(q)) for a random non-central monic quadratic q whose norm is
    irreducible over Q; N(q) is then a central irreducible quartic that
    splits the algebra.  4 * disc N(q) has exactly `primes` prime
    divisors.  The quadratic-subfield search tries a square root for each
    of the 2^(primes+1) - 1 candidate subfields these give, so this count
    sets most of the cost of factoring N(q)."""
    while True:
        q = [_rq(rng, 3), _rq_noncentral(rng, 3), O.ONE]
        n = O.coords_norm(q, A.alpha, A.beta)
        if O.monic_int_irreducible(n) and \
                O.prime_count(int(4 * O.discriminant(n))) == primes:
            return q, n


def _central_round(rng, env, r):
    """Per algebra, CENTRAL_MIX of: cubics (odd-degree exit), quartics
    with a real root (not split), characteristic polynomials of
    quaternions (subfield route) and split quartics N(q) with 3 prime
    divisors of 4 disc (search route).

    Each group is drawn from one cost class, and the group sizes put the
    median in the middle of the quartics and the tail among the
    quadratics, away from the edges between groups."""
    ops = []
    for A, p in zip(env.algebras, RAMIFIED_PRIME):
        for _ in range(CENTRAL_MIX["cubic"]):
            while True:
                f = _monic_int(rng, 3)
                if O.monic_int_irreducible(f):
                    break
            ops.append(_factor_op("cubic", env, A, O.central(f)))
        for _ in range(CENTRAL_MIX["quartic"]):
            # negative constant term: a real root, so L has a real place
            # and cannot split a definite algebra; p^2 | disc, so the
            # splitting type at the ramified prime p needs a maximal order
            while True:
                f = [rng.randint(-5, -1)] + _monic_int(rng, 4)[1:]
                if O.monic_int_irreducible(f) and \
                        O.discriminant(f) % (p * p) == 0:
                    break
            ops.append(_factor_op("quartic", env, A, O.central(f)))
        for _ in range(CENTRAL_MIX["quadratic"]):
            # x^2 - t x + n for a non-central a of trace t and norm n:
            # irreducible (A is definite) and Q(a) lies in A, so it
            # splits; two prime divisors of disc keep the cost class
            while True:
                a = _rq_noncentral(rng, 5)
                f = [O.qnorm(a, A.alpha, A.beta), -2 * a[0], 1]
                if O.prime_count(int(f[1] * f[1] - 4 * f[0])) == 2:
                    break
            ops.append(_factor_op("quadratic", env, A, O.central(f)))
        for _ in range(CENTRAL_MIX["norm"]):
            _, n = _norm_quartic(rng, A, 3)
            ops.append(_factor_op("norm", env, A, O.central(n),
                                  exhaustible=True))
    return ops


# -- cli: README commands through quatpoly.cli.run ---------------------------

def _write_cert(path, alpha, beta, minpoly, q):
    """A certificate file in the q0..q3 layout the loader reads."""
    if not O.certificate_norm_vanishes(alpha, beta, minpoly, q):
        raise AssertionError("benchmark built an invalid certificate")
    data = {"alpha": O.fr(alpha), "beta": O.fr(beta),
            "minpoly": [O.fr(c) for c in minpoly]}
    for t, g in enumerate(q):
        data["q%d" % t] = [O.fr(c) for c in g]
    with open(path, "w") as fh:
        json.dump(data, fh)


def _cli_op(kind, env, argv, check):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = env.cli.run(argv)
        return rc, out.getvalue()

    def checked(res, error):
        if error is not None:
            return False, "error:%s" % type(error).__name__
        rc, text = res
        if rc != 0:
            return False, "exit:%d" % rc
        try:
            report = json.loads(text)
        except ValueError:
            return False, "unparsable"
        report.pop("time", None)
        ok = report.get("verified", True) is True and check(report)
        return ok, json.dumps(report, sort_keys=True)

    return Op(kind, call, checked)


def _parse_p(p):
    return O.trim(O.quat(c) for c in p)


def _algebra_args(alpha, beta):
    return ["--alpha", str(alpha), "--beta", str(beta), "--json"]


def _product_expr(factors):
    return "".join("(" + O.pexpr(f) + ")" for f in factors)


def _cli_round(rng, env, r):
    al, be = Fraction(-1), Fraction(-1)
    H = _algebra_args(-1, -1)
    ops = []

    def factor_check(p, a, b):
        def check(rep):
            lead = O.quat(rep["leading"])
            fs = [_parse_p(f) for f in rep["factors"]]
            return (O.pprod([[lead]] + fs, a, b) == p
                    and all(O.is_monic(f) for f in fs))
        return check

    # the worked degree-8 example with the README certificate
    path = os.path.join(env.workdir, "cert-%d-8.json" % r)
    _write_cert(path, al, be, QUARTIC_MIN, QUARTIC_CERT)
    p8 = O.pprod([[O.quat((1, 0, 0, 1))], [O.quat((0, -1, 0, 0)), O.ONE],
                  [O.quat((-2, 0, -1, 0)), O.ONE],
                  [O.quat((-2, 0, 0, -1)), O.quat((0, 1, 0, 0)), O.ONE],
                  O.central(QUARTIC_MIN)], al, be)
    ops.append(_cli_op("factor-degree8", env,
                       ["factor", DEGREE8, "--certificate", path,
                        "--verify"] + H, factor_check(p8, al, be)))

    # split quartics N(q), certified by q's own coordinates; two per
    # algebra, so that the tail of the batch falls inside the group of
    # certified factorizations
    for t, (a, b) in enumerate(2 * ALGEBRAS):
        A = env.algebras[t % 2]
        q, n = _norm_quartic(rng, A, 3)
        path = os.path.join(env.workdir, "cert-%d-%d.json" % (r, t))
        _write_cert(path, A.alpha, A.beta, n,
                    [[c[s] for c in q] for s in range(4)])
        ops.append(_cli_op("factor-certified", env,
                           ["factor", O.pexpr(O.central(n)), "--certificate",
                            path, "--verify"] + _algebra_args(a, b),
                           factor_check(O.central(n), A.alpha, A.beta)))

    # roots of products of 2 and of 3 planted linear factors
    # (criterion-7 shape)
    for count in (2, 3):
        planted = [_rq(rng, 4) for _ in range(count)]
        fs = [[O.qsub(O.ZERO, a), O.ONE] for a in planted]
        p = O.pprod(fs, al, be)

        def roots_check(rep, p=p, last=planted[-1]):
            rs = [O.quat(c) for c in rep["roots"]]
            return (all(O.is_zero(O.peval(p, a, al, be)) for a in rs)
                    and not any(O.conjugate(rs[s], rs[t], al, be)
                                for s in range(len(rs))
                                for t in range(s + 1, len(rs)))
                    and any(O.conjugate(a, last, al, be) for a in rs))
        ops.append(_cli_op("roots", env,
                           ["roots", _product_expr(fs), "--verify"] + H,
                           roots_check))

    # irreducible: x^3 - m (m not a cube) is, a product of two linears is not
    m = rng.randint(2, 40)
    while O.is_cube(m):
        m = rng.randint(2, 40)
    ops.append(_cli_op("irreducible", env,
                       ["irreducible", "x^3 - %d" % m] + H,
                       lambda rep: rep["irreducible"] is True))
    fs = [_linear(rng, 4), _linear(rng, 4)]
    ops.append(_cli_op("irreducible", env,
                       ["irreducible", _product_expr(fs)] + H,
                       lambda rep: rep["irreducible"] is False))

    # beck: c (x - a) (x^2 + s x + t) with a non-central
    for _ in range(2):
        c = _rq(rng, 3)
        while O.is_zero(c):
            c = _rq(rng, 3)
        a = _rq_noncentral(rng, 3)
        cen = _monic_int(rng, 2)
        fs = [[c], [O.qsub(O.ZERO, a), O.ONE], O.central(cen)]
        p = O.pprod(fs, al, be)

        def beck_check(rep, p=p, cen=cen):
            central = [Fraction(s) for s in rep["central"]]
            parts = [[O.quat(rep["leading"])],
                     _parse_p(rep["central_free"]), O.central(central)]
            return O.pprod(parts, al, be) == p and central == cen
        ops.append(_cli_op("beck", env,
                           ["beck", _product_expr(fs), "--verify"] + H,
                           beck_check))

    # gcrd of (x - a)(x - r) and (x - b)(x - r); as many cheaper calls
    # come before this group as dearer ones after it, so that the median
    # of the batch falls in the middle of these like costs
    for _ in range(3):
        rr = [O.qsub(O.ZERO, _rq(rng, 3)), O.ONE]
        p1 = O.pmul(_linear(rng, 3), rr, al, be)
        p2 = O.pmul(_linear(rng, 3), rr, al, be)

        def gcrd_check(rep, p1=p1, p2=p2, rr=rr):
            g = _parse_p(rep["gcrd"])
            return (O.is_monic(g)
                    and not O.right_rem_monic(p1, g, al, be)
                    and not O.right_rem_monic(p2, g, al, be)
                    and not O.right_rem_monic(g, rr, al, be))
        ops.append(_cli_op("gcrd", env,
                           ["gcrd", O.pexpr(p1), O.pexpr(p2)] + H,
                           gcrd_check))

    # eval of a random cubic at a random point
    for _ in range(3):
        p = [_rq(rng, 5) for _ in range(3)] + [_rq_noncentral(rng, 5)]
        at = _rq(rng, 5)
        ops.append(_cli_op("eval", env,
                           ["eval", O.pexpr(p), O.pexpr([at])] + H,
                           lambda rep, p=p, at=at:
                           O.quat(rep["value"]) == O.peval(p, at, al, be)))
    return ops
