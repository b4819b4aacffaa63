"""sisynth benchmark: run one workload and print its metrics.

Run from the root of a checkout::

    python3 bench/run.py --workload synth-restricted --seed 0 --seconds 45 --trace 0

Workloads, metrics and bounds are listed in ``BENCHMARK.json`` at the root;
``bench/README.md`` says why each was chosen.  This script stays free of
numpy: it times fresh ``bench/worker.py --setup-only`` processes for
``setup_s``, runs the workload in one more single-threaded worker process,
and prints one JSON line of context (fingerprint, drift, run manifest,
stage times) followed by the result line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` ones, measured
untraced; with ``--trace 1`` they are the ``per_layer`` ones from a traced
pass.  Full results and spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
SETUP_PROBES = 3
TIME_LIMIT = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def time_setup(workload: str, seed: int, deadline: float) -> float:
    """Seconds from starting a worker process until it has built the problem."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe exited with code {proc.returncode}")
    return elapsed


def run_worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload did not finish in time") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def stage_median(passes: list[dict], key: str) -> float | None:
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else None


def end_to_end(result: dict, setups: list[float]) -> dict:
    passes = result["passes"]
    stages = ("synth_s", "verify_s", "simulate_s")
    totals = [sum(p[s] for s in stages if s in p) for p in passes]
    return {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(totals),
        "verify_s": stage_median(passes, "verify_s"),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="sisynth benchmark")
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sisynth" / "__init__.py").is_file():
        print("bench: no sisynth sources under src/; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    try:
        # set-up probes on both sides of the workload sample two speed states
        probes = 0 if args.trace else SETUP_PROBES
        setups = [time_setup(args.workload, args.seed, deadline)
                  for _ in range(probes - probes // 2)]
        result = run_worker(args, deadline)
        setups += [time_setup(args.workload, args.seed, deadline) for _ in range(probes // 2)]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result["per_layer"] if args.trace else end_to_end(result, setups)
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"bench: workload produced no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    # a traced run's second pass is the traced one; stage times come from the first
    passes = result["passes"][:1] if args.trace else result["passes"]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(result["passes"]),
        "setup_samples_s": setups,
        "stages": {key: stage_median(passes, key)
                   for key in ("synth_s", "verify_s", "simulate_s", "steps",
                               "sim_steps_per_s", "pass_s")
                   if stage_median(passes, key) is not None},
        "fail_frac": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "fingerprint": result["fingerprint"],
        "drift": result["drift"],
        "manifest": result["manifest"],
    }
    if args.trace:
        context["trace_file"] = result["trace_file"]
    OUT.mkdir(exist_ok=True)
    record = dict(result, setup_samples_s=setups, metrics=metrics, context=context)
    (OUT / f"result-{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(context))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
