"""Every workload BENCHMARK.json declares, one job at ``DEFAULT_SEED``: its
answer checks with no problem and no failed operation, and every ceiling
holds, so a change that would fail the benchmark's run fails here first;
and the benchmark's own self-tests pass.  ``benchmarks/`` is imported and
run read-only: no bytecode is written there."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "benchmarks"))
        mp.setattr(sys, "dont_write_bytecode", True)
        import workloads
    return workloads


@pytest.mark.parametrize("name", DECLARED)
def test_workload_passes_its_checks(workloads, name):
    wl = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    text = wl.inputs(seed)
    checked = wl.check(text, wl.job(wl.prepare(text, seed)), seed)
    assert checked.problems == []
    assert checked.ops > 0
    assert checked.failed == 0
    for metric, ceiling in wl.ceilings.items():
        assert checked.values[metric] <= ceiling, metric


def test_benchmark_selftests_pass():
    done = subprocess.run(
        [sys.executable, "-B", str(ROOT / "benchmarks" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.rstrip().endswith("OK"), done.stderr
