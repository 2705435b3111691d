"""One workload in one fresh process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The workload's batch of operations for the seed is run in a closed loop:
one client, one thread, the next call only after the previous returned.
Untraced, the whole batch is run again and again for about S seconds (at
least MIN_PASSES times), with set-up probes in fresh interpreters
before each pass.  Every answer of every pass is checked, and the last
line of output is a JSON summary.  Traced, the batch runs once to warm
up, then twice plain and twice under the layer tracer, alternating, and
then under cProfile for at most S/3 seconds; the summary holds the
per-layer metrics.

Operation costs are given in reference units (`ref`): an operation's
time divided by the time of `reference()`, a fixed loop of exact
rational arithmetic timed just before and just after the operation.
The speed of a shared host changes by up to 1.8x within seconds, and
every kind of operation and the reference slow down together, so the
quotient stays put where the seconds do not.  An operation's cost is the
median of its quotients over the passes.
"""

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402

MIN_PASSES = 3
# set-up probes in fresh interpreters before each pass; set-up time is
# their median
PROBES_PER_PASS = 6

# the source files whose self-time share the profile pass reports
PROFILED = ("fractions", "intarith", "ratpoly", "numberfield", "maxorder",
            "quadform", "quatalg", "qpoly", "parser", "cli")


def reference():
    """The reference unit of work: exact rational arithmetic, where the
    library spends about half its time.  About 1.2 ms on a 2-core x86
    host under Python 3.11."""
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i + 1) * Fraction(3, 7)
    return s


def _time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Pass:
    """Times, answers and failures of one pass over operations, and the
    reference time before each operation and after the last."""

    def __init__(self):
        self.times = []
        self.refs = []
        self.texts = []
        self.failed = []

    def run(self, op, env):
        self.refs.append(_time_reference())
        t0 = time.perf_counter()
        try:
            res, err = op.call(), None
        except env.QuatpolyError as exc:
            res, err = None, exc
        dt = time.perf_counter() - t0
        ok, text = op.check(res, err)
        self.times.append(dt)
        self.texts.append(text)
        if not ok:
            self.failed.append("%s: %s" % (op.kind, text[:200]))

    def run_all(self, ops, env):
        for op in ops:
            self.run(op, env)
        self.refs.append(_time_reference())
        return self

    def costs(self):
        """Each operation's time over the mean reference time around it."""
        return [t / ((a + b) / 2.0)
                for t, a, b in zip(self.times, self.refs, self.refs[1:])]

    @property
    def digest(self):
        return hashlib.sha256("\n".join(self.texts).encode()).hexdigest()


def setup_probe(workload):
    """Set-up seconds of `workload` in a fresh interpreter."""
    args = [sys.executable, os.path.join(HERE, "probe.py"), workload]
    args += ["%d,%d" % pair for pair in workloads.ALGEBRAS]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def repeat_passes(ops, env, seconds, workload):
    """Passes over the whole batch, one after another, for about
    `seconds` and at least MIN_PASSES of them, each after PROBES_PER_PASS
    set-up probes.  Returns the passes and the probes' set-up times."""
    passes, setups = [], []
    start = time.perf_counter()
    while True:
        setups += [setup_probe(workload) for _ in range(PROBES_PER_PASS)]
        passes.append(Pass().run_all(ops, env))
        elapsed = time.perf_counter() - start
        n = len(passes)
        if n >= MIN_PASSES and elapsed * (n + 1) / n > seconds:
            return passes, setups


def op_costs(passes):
    """Each operation's median cost over the passes."""
    return [statistics.median(c) for c in zip(*(p.costs() for p in passes))]


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples)."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes, setups, ops):
    costs = op_costs(passes)
    value, pct, n = tail(costs)
    wall = [statistics.median(t) for t in zip(*(p.times for p in passes))]
    return {
        "ops_per_kref": 1000.0 * len(costs) / sum(costs),
        "op_p50_ref": statistics.median(costs),
        "op_tail_ref": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(setups),
        "tail_percentile": pct,
        "samples": n,
        "passes": len(passes),
        "setup_probes": setups,
        "wall_p50_s": statistics.median(wall),
        "reference_s": statistics.median(r for p in passes for r in p.refs),
        "costs": [[op.kind, c] for op, c in zip(ops, costs)],
    }


def profile_shares(ops, env, seconds):
    """Self-time share of each PROFILED file, profiling ops for at most
    `seconds`; also returns the number of ops profiled."""
    prof = cProfile.Profile()
    start = time.perf_counter()
    done = 0
    for op in ops:
        prof.enable()
        try:
            op.call()
        except env.QuatpolyError:
            pass
        finally:
            prof.disable()
        done += 1
        if time.perf_counter() - start >= seconds:
            break
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values())
    by_file = dict.fromkeys(PROFILED, 0.0)
    for (path, _line, _func), v in stats.items():
        base = os.path.splitext(os.path.basename(path))[0]
        package = os.path.basename(os.path.dirname(path))
        if base in by_file and (base == "fractions" or package == "quatpoly"):
            by_file[base] += v[2]
    return {"profile.%s.self_share" % k: (v / total if total else 0.0,
                                         "share")
            for k, v in by_file.items()}, done


def traced_pass(ops, env):
    """One pass under a fresh LayerTracer: (pass, tracer)."""
    tracer = LayerTracer()
    p = Pass()
    with tracer:
        for idx, op in enumerate(ops):
            tracer.op_id = idx
            p.run(op, env)
    p.refs.append(_time_reference())
    return p, tracer


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix=".bench-work-",
                                     dir=ROOT) as workdir:
        env = workloads.Env(workdir)
        ops = workloads.batch(args.workload, args.seed, env)
        if not args.trace:
            passes, setups = repeat_passes(ops, env, args.seconds,
                                           args.workload)
            out = end_to_end(passes, setups, ops)
            failed = [f for p in passes for f in p.failed]
            digests = {p.digest for p in passes}
            exhausted = sum(t.startswith("exhausted:")
                            for t in passes[0].texts)
            out.update(attempted=len(ops) * len(passes), failed=len(failed),
                       failures=failed[:5], digest=passes[0].digest,
                       repeatable=len(digests) == 1, exhausted=exhausted)
            print(json.dumps(out))
            return 0

        # warm up, then alternate plain and traced passes, so that both
        # sides are measured warm and in the same spells of the host
        warm = Pass().run_all(ops, env)
        plain, traced, tracers = [], [], []
        for _ in range(2):
            plain.append(Pass().run_all(ops, env))
            p, t = traced_pass(ops, env)
            traced.append(p)
            tracers.append(t)
        tracer = tracers[0]
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (
            sum(op_costs(plain)) / sum(op_costs(traced)), "ratio")
        shares, profiled = profile_shares(ops, env, args.seconds / 3.0)
        metrics.update(shares)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(
            OUT, "spans-%s-seed%d.csv" % (args.workload, args.seed)))
        untraced = [warm] + plain
        print(json.dumps({
            "attempted": len(ops) * len(untraced),
            "failed": sum(len(p.failed) for p in untraced),
            "traced_failed": sum(len(p.failed) for p in traced),
            "failures": [f for p in untraced + traced for f in p.failed][:5],
            "digest": warm.digest,
            "repeatable": len({p.digest for p in untraced}) == 1,
            "traced_digest_same": all(p.digest == warm.digest
                                      for p in traced),
            "spans": len(tracer.spans),
            "profiled_ops": profiled,
            "metrics": metrics,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
