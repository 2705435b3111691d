"""quatpoly benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of property, central, cli, or `all` for the three in turn.
Each workload runs in its own fresh process (bench/worker.py): one
client in a closed loop, one thread.  With --trace 0 the last line of
output is a JSON object with the end-to-end metrics; with --trace 1 it
holds the per-layer metrics of a separate traced run.  Every answer is
checked against bench/oracle.py, and the sha256 digest of the batch's
answers is printed, so that any changed answer shows.  Run records and
span files go to .bench_out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("property", "central", "cli")
TIMEOUT_S = 170

UNITS = {"ops_per_kref": "1/kref", "op_p50_ref": "ref", "op_tail_ref": "ref",
         "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    pass


def run_worker(workload, seed, seconds, trace):
    args = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(args, cwd=ROOT, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out after %ds" % TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker exited %d:\n%s"
                         % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(workload, seed, seconds, trace):
    """(correct, attempted, failed, {metric: (value, unit)}) of one run."""
    res = run_worker(workload, seed, seconds, trace)
    correct = res["failed"] == 0 and res["repeatable"]
    if trace:
        metrics = {k: tuple(v) for k, v in res["metrics"].items()}
        same = res["traced_digest_same"]
        correct = correct and same and res["traced_failed"] == 0
        print("%-8s traced %d ops, %d spans; digest %s tracing"
              % (workload, res["attempted"], res["spans"],
                 "unchanged by" if same else "CHANGED by"))
    else:
        metrics = {k: (res[k], u) for k, u in UNITS.items()}
        for name, (value, unit) in metrics.items():
            note = ""
            if name == "op_tail_ref":
                note = "  (p%.1f of %d operations)" % (
                    res["tail_percentile"], res["samples"])
            elif name == "setup_s":
                note = "  (median of %d fresh interpreters)" % len(
                    res["setup_probes"])
            print("%-8s %-12s %12.6g %s%s" % (workload, name, value, unit,
                                             note))
        print("%-8s %-12s %12.6g  (%d of %d calls in %d passes failed%s)"
              % (workload, "fail_ratio", res["failed"] / res["attempted"],
                 res["failed"], res["attempted"], res["passes"],
                 "" if res["repeatable"] else "; answers CHANGED between "
                 "passes"))
        print("%-8s %d of %d answers are SearchExhausted (default budget)"
              % (workload, res["exhausted"], res["samples"]))
        print("%-8s 1 ref = %.4g ms here; wall-clock median operation "
              "%.4g ms" % (workload, 1e3 * res["reference_s"],
                           1e3 * res["wall_p50_s"]))
    print("%-8s digest seed %d: %s" % (workload, seed, res["digest"]))
    for line in res["failures"]:
        print("%-8s FAILED %s" % (workload, line))
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, "%s-seed%d-trace%d.json"
                          % (workload, seed, trace))
    with open(record, "w") as fh:
        json.dump(res, fh, indent=1)
    return correct, res["attempted"], res["failed"], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quatpoly",
                                       "__init__.py")):
        print("error: quatpoly sources not found under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            c, a, f, m = bench(name, args.seed, args.seconds, args.trace)
            correct, attempted, failed = correct and c, attempted + a, \
                failed + f
            prefix = name + "." if len(names) > 1 else ""
            metrics.update((prefix + k, v) for k, v in m.items())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
