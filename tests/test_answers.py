"""Every answer of the benchmark batches at seeds 1-5, and the outcomes
of a seeded list of CLI calls, against the records in
answer_records.json; record_answers.py rebuilds and checks them."""

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
