"""The layer tracer must not change any answer, and must put every
original binding back; the benchmark's oracle must agree with quatpoly's
own quaternion product."""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerTracer  # noqa: E402
from worker import Pass, traced_pass  # noqa: E402

# a short prefix of each batch keeps the test quick
PREFIX = {"property": 12, "central": 14, "cli": 10}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_digest_unchanged(workload, tmp_path):
    env = workloads.Env(str(tmp_path))
    ops = workloads.batch(workload, 7, env)[:PREFIX[workload]]
    plain = Pass().run_all(ops, env)
    traced, tracer = traced_pass(ops, env)
    assert plain.failed == [] and traced.failed == []
    assert traced.digest == plain.digest
    entry = "cli.run" if workload == "cli" else "qpoly.factor"
    assert tracer.calls[entry] == len(ops)
    if workload == "central":
        # one route per central factor; SearchExhausted answers are
        # counted apart from searches that found a zero divisor
        assert sum(tracer.routes.values()) == len(ops)
        exhausted = sum(t.startswith("exhausted:") for t in traced.texts)
        assert exhausted > 0
        assert tracer.routes["exhausted"] == exhausted
    assert all(span is not None and span[2] >= span[1]
               for span in tracer.spans)


def _bindings():
    from quatpoly.qpoly import Factorization
    from quatpoly.quadform import ZeroDivisorCertificate
    from quatpoly.quatalg import Quaternion
    from quatpoly.ratpoly import RatPoly
    owners = [m for n, m in sys.modules.items()
              if n == "quatpoly" or n.startswith("quatpoly.")]
    owners += [Factorization, ZeroDivisorCertificate, Quaternion, RatPoly]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_uninstall_restores_every_binding():
    import quatpoly.numberfield
    import quatpoly.qpoly
    import quatpoly.ratpoly
    before = _bindings()
    orig = quatpoly.ratpoly.rp_factor
    with LayerTracer():
        # the copies left by `from .ratpoly import rp_factor` are wrapped too
        assert quatpoly.ratpoly.rp_factor is not orig
        assert quatpoly.qpoly.rp_factor is quatpoly.ratpoly.rp_factor
        assert quatpoly.numberfield.rp_factor is quatpoly.ratpoly.rp_factor
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_oracle_product_matches_library():
    from quatpoly.quatalg import QuaternionAlgebra
    rng = random.Random(5)
    for alpha, beta in ((-1, -1), (-1, -3), (-2, -5)):
        A = QuaternionAlgebra(alpha, beta)
        for _ in range(50):
            a = [rng.randint(-9, 9) for _ in range(4)]
            b = [rng.randint(-9, 9) for _ in range(4)]
            want = (A.element(a) * A.element(b)).coords
            assert oracle.qmul(oracle.quat(a), oracle.quat(b),
                               alpha, beta) == tuple(want)
