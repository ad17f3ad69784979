"""The benchmark still runs against the package.

``bench/run.py`` reads ``ctransform._kernel_cache``, and its traced mode wraps
``ctransform.kernel_for``, the ``SupportKernel`` methods and other entry points
by name and reads fields of ``SolveReport``.  A rename or deletion under
``src/`` breaks it without any other test noticing, so one short round of the
cheapest workload runs here, plain and traced, and one plain round each of
the m=2 round trips, the admissibility checks and the forward checks.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_round(workload: str, trace: str) -> None:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_roundtrip_m1_runs_and_checks_out(trace):
    _run_round("roundtrip_m1", trace)


def test_roundtrip_m2_runs_and_checks_out():
    # the m=2 round trips are where hull construction and exterior angles
    # take most of the time
    _run_round("roundtrip_m2", "0")


def test_admissibility_m2_runs_and_checks_out():
    # the only tier-1 run of the benchmark's admissibility checks
    _run_round("admissibility_m2", "0")


def test_forward_runs_and_checks_out():
    # the only tier-1 run of the benchmark's forward and Crofton checks
    _run_round("forward", "0")
