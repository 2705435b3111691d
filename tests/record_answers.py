"""The answer records that tests/test_answers.py compares against.

Two kinds of record live in tests/answer_records.json:

- the sha256 answer digest (`Pass.digest` of bench/worker.py) of each
  benchmark batch of bench/workloads.py, for the workloads `property`,
  `central` and `cli` at seeds 1-5;
- one sha256 over the outcomes of a fixed, seeded list of `cli.run`
  calls: for each call its exit code, its stdout with the JSON `time`
  field dropped, and its stderr, but for a usage error that argparse
  reports only the exit code, as argparse's wording varies with the
  Python version.

Run from the root of the repository:

    PYTHONPATH=src python3 tests/record_answers.py           # rewrite
    PYTHONPATH=src python3 tests/record_answers.py --check   # compare
    PYTHONPATH=src python3 tests/record_answers.py --outcomes FILE

--check exits 1 and names each record that differs.  --outcomes also
writes every fuzz call with its outcome, one per line, so that two
checkouts can be compared call by call.  A change that alters an answer
on purpose rewrites the records and lists every changed outcome in
CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "bench"
sys.path[:0] = [str(HERE.parent / "src"), str(BENCH)]

import worker  # noqa: E402
import workloads  # noqa: E402

from quatpoly import cli  # noqa: E402

RECORDS = HERE / "answer_records.json"
SEEDS = (1, 2, 3, 4, 5)

FUZZ_SEED = 19
FUZZ_CALLS = 300
H = ["--alpha", "-1", "--beta", "-1"]
# first the integer-size inputs (a 31067-bit answer to print, twice, and a
# constant past the parser's bit cap), then an exhausted search (exit 3),
# a wrong arity and an argument argparse rejects (exit 1); last, two
# inputs within the bit cap: alpha^2 i for a 14001-bit alpha (28001
# bits), and 2^40000 over 2^40000 (40001 bits)
FIXED = (["factor", "x - (9^99)^99"] + H, ["eval", "(9^99)^99", "0"] + H,
         ["factor", "((9^99)^99)^99"] + H,
         ["factor", "x^4 + 11x^2 + 16x + 6", "--max-height", "3"] + H,
         ["gcrd", "x"] + H,
         ["roots", "x^2 + 1", "--alpha", "1.5", "--beta", "-1"],
         ["eval", "i^5", "0", "--alpha", "-%d" % 2 ** 14000, "--beta", "-1"],
         ["eval", "((2^1000)^40)((1/2^1000)^40)", "0"] + H)
COMMANDS = ("factor", "roots", "irreducible", "beck", "gcrd", "eval")
# constant powers, as coefficients; the last one is over the parser's bit
# cap, a parse error
POWERS = ("(9^99)^99", "2^64", "(3/2)^40", "(7^50)^20", "(2^10)^10",
          "(1+i)^8", "-(5^9)^9", "((9^99)^99)^99")
JUNK = "0123456789ijkx()+-*/^ "
# the JSON report's "time" line: the one field that changes run to run
_TIME = re.compile(r'\n *"time": [-+.0-9e]+')


def batch_digest(workload, seed, workdir):
    """(digest, failures) of one pass over the benchmark batch.  The pass
    times no reference loop around each call, as the digest reads only
    the answers."""
    env = workloads.Env(workdir)
    with mock.patch.object(worker, "_time_reference", lambda: 0.0):
        done = worker.Pass().run_all(workloads.batch(workload, seed, env),
                                     env)
    return done.digest, done.failed


def _rational(rng):
    n = rng.randint(-9, 9)
    return str(n) if rng.random() < 0.7 else "%d/%d" % (n, rng.randint(1, 9))


def _parameter(rng):
    """alpha or beta: mostly negative, so that most algebras are division
    algebras, and never 10^4 or more in size."""
    r = rng.random()
    if r < 0.6:
        return str(-rng.randint(1, 9))
    return _rational(rng) if r < 0.8 else str(rng.randint(1, 9))


def _quaternion(rng, powers=True):
    """A constant: a small quaternion, a rational or a constant power."""
    r = rng.random()
    if r < 0.15 and powers:
        return rng.choice(POWERS)
    if r < 0.35:
        return _rational(rng)
    terms = ["%d%s" % (rng.randint(-5, 5), u) for u in ("", "i", "j", "k")]
    return "(" + " + ".join(terms) + ")"


def _central(rng):
    """A central polynomial of degree 2 to 4 with small coefficients."""
    deg = rng.randint(2, 4)
    terms = ["x^%d" % deg] + ["%d*x^%d" % (rng.randint(-6, 6), e)
                              for e in range(deg - 1, 0, -1)]
    return " + ".join(terms) + " + %d" % rng.randint(-9, 9)


def _poly(rng, powers=True):
    """A polynomial text of degree at most 4, or random characters.  The
    remainders of a GCRD of polynomials with 31067-bit coefficients take
    about 0.5 s, so gcrd asks for none (powers=False)."""
    kind = rng.randrange(6)
    if kind == 0:
        return "".join(rng.choice(JUNK) for _ in range(rng.randint(1, 12)))
    if kind == 1:
        return _quaternion(rng, powers)
    if kind == 2:
        return _central(rng)
    deg = rng.randint(1, 2 if kind == 3 else 4)
    lead = _quaternion(rng, powers) if rng.random() < 0.2 else ""
    return lead + "".join("(x - %s)" % _quaternion(rng, powers)
                          for _ in range(deg))


def _argv(rng):
    cmd = rng.choice(COMMANDS)
    argv = [cmd, _poly(rng, cmd != "gcrd")]
    if cmd == "gcrd":
        argv.append(_poly(rng, False))
    elif cmd == "eval":
        argv.append(_quaternion(rng))
    argv += ["--alpha", _parameter(rng), "--beta", _parameter(rng)]
    for flag in ("--json", "--verify"):
        if rng.random() < 0.5:
            argv.append(flag)
    if rng.random() < 0.3:
        argv += ["--max-height", str(rng.randint(1, 30))]
    return argv


def fuzz_argvs():
    rng = random.Random(FUZZ_SEED)
    return list(FIXED) + [_argv(rng) for _ in range(FUZZ_CALLS)]


def outcome(argv):
    """(exit code, stdout without the JSON time, stderr) of cli.run(argv);
    an exception that escapes is reported as the exit code "escaped
    <type>", and argparse's usage and error text as "usage"."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # the fuzz reports it; nothing may escape
            code = "escaped %s" % type(exc).__name__
    err = err.getvalue()
    return (code, _TIME.sub("", out.getvalue()),
            "usage" if err.startswith("usage:") else err)


def fuzz_digest(outcomes):
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps(o).encode() + b"\n")
    return h.hexdigest()


def compute():
    """The records as a dict, and the fuzz calls with their outcomes."""
    batches = {}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                digest, failed = batch_digest(workload, seed, workdir)
                if failed:
                    raise SystemExit("%s seed %d: %s"
                                     % (workload, seed, failed[:3]))
                batches["%s-%d" % (workload, seed)] = digest
    calls = [(argv, outcome(argv)) for argv in fuzz_argvs()]
    records = {"batches": batches,
               "fuzz": fuzz_digest([o for _, o in calls])}
    return records, calls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the records instead of rewriting")
    ap.add_argument("--outcomes", metavar="FILE",
                    help="also write each fuzz call and its outcome")
    args = ap.parse_args(argv)
    records, calls = compute()
    if args.outcomes:
        with open(args.outcomes, "w") as fh:
            for call in calls:
                fh.write(json.dumps(call) + "\n")
    if not args.check:
        RECORDS.write_text(json.dumps(records, indent=2, sort_keys=True)
                           + "\n")
        print("wrote %s" % RECORDS)
        return 0
    old = json.loads(RECORDS.read_text())
    changed = [k for k, v in old["batches"].items()
               if records["batches"].get(k) != v]
    if records["fuzz"] != old["fuzz"]:
        changed.append("fuzz")
    for name in changed:
        print("changed: %s" % name)
    print("records %s" % ("differ" if changed else "unchanged"))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
