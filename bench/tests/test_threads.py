"""Self-test: the behaviour fingerprint does not depend on SISYNTH_THREADS.

Runs every workload at its short size in worker processes with
``SISYNTH_THREADS=1`` and ``=2`` (BLAS pinned to one thread in both) and
requires identical fingerprints: restart ``k`` and ``lambda_min`` values,
counterexample counts and the simulation verdicts.  From the root of a
checkout::

    python3 -m pytest bench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def short_run(workload: str, threads: int) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", SISYNTH_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--size", "short"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_independent_of_threads(workload):
    one = short_run(workload, 1)
    two = short_run(workload, 2)
    assert one["manifest"]["threads"]["SISYNTH_THREADS"] == "1"
    assert two["manifest"]["threads"]["SISYNTH_THREADS"] == "2"
    assert one["fingerprint"] == two["fingerprint"]
