"""One pass of each benchmark workload, checked answer by answer.

The benchmark checks every answer it times against the committed corpus
references (``bench/workloads.py``); running one untimed pass here makes a
changed answer fail the test suite rather than only the benchmark.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["duality", "minrank", "witness"])
def test_one_pass_has_no_failure(workloads, name):
    workload = workloads.load(name)
    results = [op.call() for op in workload.ops]
    failures = {
        op.key: found
        for op, result in zip(workload.ops, results)
        if (found := workloads.check(op, result))
    }
    assert failures == {}
    if name == "minrank":
        assert workloads.check_cli(workload, results[0]) == []
        # the ladder is exact on all of the corpus but the sparse 10x10
        exact = [op.key for op, result in zip(workload.ops, results) if result.exact]
        assert len(exact) >= 14, exact
