"""Every answer of the benchmark batches at seeds 1-5, and the outcomes
of a seeded list of CLI calls, against the records in
answer_records.json; record_answers.py rebuilds and checks them.  Also
the calls of the general path that the integer witnesses of the central
route save, on the `central` batch at seed 1."""

import importlib
import json

import pytest

import record_answers as R

RECORDS = json.loads(R.RECORDS.read_text())


@pytest.mark.parametrize("seed", R.SEEDS)
@pytest.mark.parametrize("workload", R.workloads.WORKLOADS)
def test_bench_batch_answers_match_the_record(workload, seed, tmp_path):
    """One pass over the batch: every answer checks out, and the sha256
    of the answer texts is the recorded one."""
    digest, failed = R.batch_digest(workload, seed, str(tmp_path))
    assert failed == []
    assert digest == RECORDS["batches"]["%s-%d" % (workload, seed)]


def test_cli_fuzz_outcomes_match_the_record():
    """No exception escapes cli.run, every exit code is in 0-4, and the
    exit codes and outputs are the recorded ones."""
    argvs = R.fuzz_argvs()
    outcomes = [R.outcome(argv) for argv in argvs]
    assert [(a, o[0]) for a, o in zip(argvs, outcomes)
            if o[0] not in range(5)] == []
    assert {o[0] for o in outcomes} == {0, 1, 2, 3}
    assert R.fuzz_digest(outcomes) == RECORDS["fuzz"]


# The witness in front of each general step of the central route, with
# a stand-in that never fires: the Beck decomposition read off the
# scalar column, the sign change at infinity and the local screen of
# each search trial.
WITNESSES = (("qpoly", "_scalar_beck", lambda p: None),
             ("numberfield", "_sign_change", lambda f: False),
             ("quadform", "_trial_nonsquare", lambda *args: False))
# The general steps behind them, where the central route calls them, and
# their calls on the `central` seed-1 batch without and with the
# witnesses.  The 132 factor calls each take one Beck decomposition; the
# 96 not-split quartics have a negative constant term, so only the 12
# subfield quadratics and the 8 norm quartics count real roots; all 160
# trials of the 8 exhausted searches are non-residues at a local root.
GENERAL_CALLS = {("qpoly", "primitive_gcd_cofactors"): (132, 0),
                 ("numberfield", "rp_real_root_count"): (116, 20),
                 ("quadform", "_trial_value"): (160, 0),
                 ("quadform", "nf_sqrt"): (160, 0)}


def _spied_central_pass(mp, tmp_path):
    """(calls of each GENERAL_CALLS step, digest, failures) of one pass
    over the `central` seed-1 batch."""
    calls = dict.fromkeys(GENERAL_CALLS, 0)
    for key in GENERAL_CALLS:
        module = importlib.import_module("quatpoly." + key[0])
        real = getattr(module, key[1])

        def spy(*args, _key=key, _real=real):
            calls[_key] += 1
            return _real(*args)

        mp.setattr(module, key[1], spy)
    digest, failed = R.batch_digest("central", 1, str(tmp_path))
    return calls, digest, failed


def test_central_witnesses_save_the_general_steps(tmp_path):
    """With each witness stood down, the central batch takes the general
    steps as often as before the witnesses; with them, the general Beck
    path, the Sturm counts of the not-split quartics and every trial
    value and square root of the exhausted searches go, and the answers
    are the recorded ones both ways."""
    runs = []
    for stand_down in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            if stand_down:
                for module, name, never in WITNESSES:
                    mp.setattr(importlib.import_module("quatpoly." + module),
                               name, never)
            runs.append(_spied_central_pass(mp, tmp_path))
    record = RECORDS["batches"]["central-1"]
    for (calls, digest, failed), k in zip(runs, (0, 1)):
        assert calls == {key: n[k] for key, n in GENERAL_CALLS.items()}
        assert failed == [] and digest == record
