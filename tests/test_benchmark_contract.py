"""The benchmark's workloads run against the library as it is: one pass of
each workload (``lib-gf32``, ``axioms-suite``, ``hadamard-gf729``) with its
output checks, so a change to an object, a manifest or a report the
benchmark reads fails here rather than only when the benchmark runs."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["lib-gf32", "axioms-suite", "hadamard-gf729"])
def test_workload_pass_has_no_failed_operation(tmp_path, name):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    workload.prepare()
    ops = workload.operations()
    outcome, results = workloads.run_pass(ops)
    workloads.check_pass(ops, outcome, results)
    assert outcome.failed == 0, [(o.name, o.problems) for o in outcome.outcomes if o.problems]
