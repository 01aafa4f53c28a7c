"""Round 0 of the benchmark's workloads must pass the benchmark's own checks.

``benchmarks/workloads.py`` drives the program through its public entry
points and checks every output: the tuned step sizes and tail errors against
``benchmarks/reference.json``, each record read back and rerun, and each
``netdrift audit`` exit code against the library's verdict. A refactor that
breaks one of the calls it makes (``audit_recursions(..., strict=False)``,
``run_single``, or ``AuditEntry.enforced``, a class constant now that every
inequality is enforced, kept because ``audit_verdict`` still reads it) or
moves a pinned figure would otherwise pass the tests and fail only when the
benchmark runs.
``rotation_p1000`` is the one workload on an irregular random graph whose
beta comes from ARPACK; its round checks the full-scale (2,001-agent) suite
run on that weight matrix against ``reference.json``.
"""

import json
from pathlib import Path

import pytest

REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


@pytest.mark.parametrize("name", ["audit_replay", "lsq_tune", "rotation_p1000"])
def test_round_zero_passes_every_benchmark_check(name, tmp_path, benchmark_module):
    workload = benchmark_module("workloads").WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())[name]
    rnd = workload.new_round(0, 0, tmp_path)
    out_root = rnd.workdir / "out"
    workload.setup(rnd)
    workload.suite(rnd, out_root)
    outcome = workload.check(rnd, out_root, round_trip=True)
    workload.compare(rnd, outcome, reference[0])
    rnd.audit_pass(out_root)
    workload.check_audit_ops(rnd, outcome)
    assert [message for _, message in rnd.failures] == []
