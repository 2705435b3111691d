"""Command-line interface.

Subcommands: factor, roots, irreducible, beck, gcrd, eval.  Polynomials
are given as expressions ("(1+k)*x^2 - 3i*x + 1/2"); the algebra via
--alpha/--beta.  Exit codes: 0 success, 1 parse or usage error, 2 split
algebra, 3 exhausted zero-divisor search, 4 internal invariant violation.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .errors import (InternalInvariantViolation, InvalidCertificate,
                     PolyParseError, QuatpolyError, SearchExhausted,
                     SplitAlgebra)
from .parser import parse_poly
from .qpoly import (QPoly, beck_decompose, factor, is_irreducible,
                    qp_evaluate, qp_gcrd, roots)
from .quadform import ZeroDivisorCertificate
from .quatalg import QuaternionAlgebra

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SPLIT = 2
EXIT_SEARCH = 3
EXIT_INTERNAL = 4


def _fr(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational number: %r" % s)


def _trials(s):
    try:
        n = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % s)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def build_parser():
    ap = argparse.ArgumentParser(
        prog="quatpoly",
        description="Factor and find roots of polynomials over a division "
                    "quaternion algebra (alpha, beta / Q).")
    ap.add_argument("command",
                    choices=["factor", "roots", "irreducible", "beck",
                             "gcrd", "eval"])
    ap.add_argument("polys", nargs="+", metavar="POLY",
                    help="polynomial expression(s); gcrd and eval take two")
    ap.add_argument("--alpha", type=_fr, required=True)
    ap.add_argument("--beta", type=_fr, required=True)
    ap.add_argument("--json", action="store_true", dest="as_json")
    ap.add_argument("--verify", action="store_true")
    ap.add_argument("--certificate", action="append", default=[],
                    metavar="FILE",
                    help="zero-divisor certificate JSON (repeatable)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-height", type=_trials, default=20, metavar="N",
                    help="zero-divisor search budget: N random trials, "
                         "trial t drawing coefficients of height "
                         "1 + t//8 (default 20, so heights 1 to 3)")
    return ap


def _fr_str(q):
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def _quat_tuple(a):
    return [_fr_str(c) for c in a.coords]


def _qpoly_tuples(p):
    return [_quat_tuple(c) for c in p.coeffs]


def _load_certs(paths, A):
    store = {}
    for path in paths:
        cert = ZeroDivisorCertificate.load(path).validate()
        if cert.alpha != A.alpha or cert.beta != A.beta:
            raise InvalidCertificate(
                "certificate %s is for algebra (%s, %s)"
                % (path, cert.alpha, cert.beta))
        store[cert.minpoly] = cert
    return store


def _expect_arity(args, n):
    if len(args.polys) != n:
        raise PolyParseError(
            "command %r expects %d polynomial argument(s), got %d"
            % (args.command, n, len(args.polys)))


def run(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    t0 = time.monotonic()
    try:
        A = QuaternionAlgebra(args.alpha, args.beta)
        report = _dispatch(args, A)
    except SplitAlgebra as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_SPLIT
    except SearchExhausted as exc:
        msg = str(exc)
        if getattr(exc, "central_factor", None) is not None:
            msg += " (central factor %s needs a certificate)" \
                % exc.central_factor
        print("error: %s" % msg, file=sys.stderr)
        return EXIT_SEARCH
    except InternalInvariantViolation as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except (PolyParseError, InvalidCertificate, OSError,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except QuatpolyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    report["algebra"] = {"alpha": _fr_str(A.alpha), "beta": _fr_str(A.beta)}
    report["seed"] = args.seed
    report["time"] = round(time.monotonic() - t0, 6)
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        _print_human(report)
    return EXIT_OK


def _dispatch(args, A):
    cmd = args.command
    if cmd in ("gcrd", "eval"):
        _expect_arity(args, 2)
    else:
        _expect_arity(args, 1)
    p = parse_poly(args.polys[0], A)
    report = {"command": cmd, "input": str(p)}

    if cmd == "factor":
        certs = _load_certs(args.certificate, A)
        res = factor(p, certs=certs, seed=args.seed,
                     max_height=args.max_height)
        report["leading"] = _quat_tuple(res.leading)
        report["factors"] = [_qpoly_tuples(f) for f in res.factors]
        report["factors_display"] = [str(f) for f in res.factors]
        if args.verify:
            report["verified"] = res.expand() == p
    elif cmd == "roots":
        res = roots(p)
        report["roots"] = [_quat_tuple(a) for a in res]
        report["roots_display"] = [str(a) for a in res]
        if args.verify:
            report["verified"] = all(qp_evaluate(p, a).is_zero for a in res)
    elif cmd == "irreducible":
        report["irreducible"] = is_irreducible(p)
    elif cmd == "beck":
        b = beck_decompose(p)
        report["leading"] = _quat_tuple(b.leading)
        report["central"] = [_fr_str(c) for c in b.central.coeffs]
        report["central_display"] = str(b.central)
        report["central_free"] = _qpoly_tuples(b.central_free)
        report["central_free_display"] = str(b.central_free)
        if args.verify:
            lead = QPoly(A, [b.leading])
            report["verified"] = \
                lead * b.central_free * b.central == p
    elif cmd == "gcrd":
        q = parse_poly(args.polys[1], A)
        report["input2"] = str(q)
        g = qp_gcrd(p, q)
        report["gcrd"] = _qpoly_tuples(g)
        report["gcrd_display"] = str(g)
    elif cmd == "eval":
        at = parse_poly(args.polys[1], A)
        if at.degree > 0:
            raise PolyParseError("evaluation point must be a constant")
        a = at[0]
        report["input2"] = str(a)
        val = qp_evaluate(p, a)
        report["value"] = _quat_tuple(val)
        report["value_display"] = str(val)
    return report


def _print_human(report):
    print("input: %s" % report["input"])
    if "input2" in report:
        print("second: %s" % report["input2"])
    if "factors_display" in report:
        lead = report["leading"]
        print("leading: (%s)" % ", ".join(lead))
        for f in report["factors_display"]:
            print("factor: %s" % f)
    if "roots_display" in report:
        if report["roots_display"]:
            for r in report["roots_display"]:
                print("root: %s" % r)
        else:
            print("no roots")
    if "irreducible" in report:
        print("irreducible: %s" % report["irreducible"])
    if "central_display" in report:
        print("leading: (%s)" % ", ".join(report["leading"]))
        print("central: %s" % report["central_display"])
        print("central-free: %s" % report["central_free_display"])
    if "gcrd_display" in report:
        print("gcrd: %s" % report["gcrd_display"])
    if "value_display" in report:
        print("value: %s" % report["value_display"])
    if "verified" in report:
        print("verified: %s" % ("PASS" if report["verified"] else "FAIL"))


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
