"""Smoke test: every workload at tiny sizes, with every output check on.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs one round untraced and one traced.  The only command
expected to fail is `sandwich --preset sturmian-product` (exit 1).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import E2E_UNITS, PER_LAYER, WORKLOADS  # noqa: E402

FAILING = {"enum-sturmian": 1}


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny(workload):
    res = run_bench(workload, 0)
    assert res["correct"], res
    assert set(res["metrics"]) == set(E2E_UNITS)
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["failed"] == FAILING.get(workload, 0)

    traced = run_bench(workload, 1)
    assert traced["correct"], traced
    assert set(PER_LAYER) <= set(traced["metrics"])
    # one untraced and one traced round
    assert traced["failed"] == 2 * FAILING.get(workload, 0)
