"""One benchmark workload, run in its own single-threaded process.

Usage (normally started by ``bench/run.py``, from the root of a checkout)::

    python3 bench/worker.py --workload synth-restricted --seed 0 --seconds 45 --trace 0
    python3 bench/worker.py --workload simulate-restricted --setup-only

The worker imports ``sisynth`` from ``src/`` of the checkout it lives in,
builds the workload's problem from a config generated from ``--seed``, then
repeats whole passes of the workload while the next pass is expected to end
within ``--seconds`` (always at least one).  It checks every output, and
prints one JSON object on its last line of standard output.  With
``--trace 1`` it makes one untraced pass and one pass under
:class:`tracer.Tracer`, and adds the per-layer metrics.  ``--setup-only``
stops after ``build_problem`` and prints ``ready``; ``run.py`` times such
processes for ``setup_s``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

THREAD_VARS = ("SISYNTH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Seed 0's best restart on the restricted instance, kept as data so the
# simulation workload never calls the solver.
K_PINNED = 0.012032149952463394

# Work in one pass.  Each pass is split into chunks, with verify repeats
# between them, so that verify samples are spread over the whole pass: the
# reference machine switches between speed states that last from seconds
# to minutes, and samples taken back to back all land in one.  Stage times are
# sums over chunks and means over verify samples, which follow the mix of
# states smoothly where a median would jump between them.  Verify calls are
# short, so each chunk repeats them: a pass takes 20 or 48 verify samples.
#
# synth-restricted runs 1-restart solves at the pinned solver seeds 0 and 1.
# Restarts of this instance are bimodal in cost: seed 0's certifies in DR
# round 0 (about 7 s) and seed 1's needs the penalty round (about 33 s), so
# every run times both solver paths once instead of a seed-dependent mix.
# simulate-restricted derives chunk j's sim seed from --seed.
SIZES = {
    "full": {
        "synth-restricted": {"solver_seeds": [0, 1], "restarts": 1, "repeats": 10},
        "simulate-restricted": {"chunks": 16, "trials": 5, "repeats": 3},
    },
    # a few seconds of each threaded path, for the thread-agreement self-test
    "short": {
        "synth-restricted": {"solver_seeds": [0], "restarts": 2, "repeats": 1,
                             "iterations": 2000},
        "simulate-restricted": {"chunks": 1, "trials": 4, "repeats": 1, "horizon": 4.0},
    },
}
WORKLOADS = tuple(SIZES["full"])


def fail(msg: str) -> None:
    print(f"bench worker: {msg}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> None:
    """Pin threads before numpy loads and import sisynth from this checkout."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "sisynth" / "__init__.py").is_file():
        fail(f"no sisynth sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import sisynth
    if Path(sisynth.__file__).resolve().parent != (SRC / "sisynth").resolve():
        fail(f"imported sisynth from {sisynth.__file__}, not from {SRC}")


# --------------------------------------------------------------------------
# configs and passes


def restricted_raw() -> dict:
    from importlib import resources
    return json.loads((resources.files("sisynth") / "configs" /
                       "unicycle_restricted.json").read_text())


def make_config(seed: int, size: dict):
    from sisynth import config
    raw = restricted_raw()
    for key in ("restarts", "iterations"):
        if key in size:
            raw["solver"][key] = size[key]
    raw["falsifier"]["seed"] = seed
    raw["sim"]["trials"] = size.get("trials", raw["sim"]["trials"])
    if "horizon" in size:
        raw["sim"]["horizon"] = size["horizon"]
    return config.RunConfig.from_dict(raw)


def chunk_seeds(seed: int, size: dict) -> list[int]:
    """Solver or sim seed of each chunk of a pass."""
    if "solver_seeds" in size:
        return size["solver_seeds"]
    n = size["chunks"]
    return [seed * n + j for j in range(n)]


def restart_fingerprint(cert) -> list[dict]:
    return [{"k": r["k"], "lambda_min": min(r["lambda_mins"]), "valid": r["valid"]}
            for r in cert.restarts]


def timed(fn, *args):
    """Call ``fn`` and time it, after a full collection so that garbage left
    by earlier calls is not charged to this one."""
    gc.collect()
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def solve_chunk(problem, solver_seed: int):
    """One ``solve`` call; returns (certificate, raised SolverFailure, seconds)."""
    from sisynth import feasibility
    cfg = dataclasses.replace(problem.solver_config, seed=solver_seed)
    gc.collect()
    t0 = time.perf_counter()
    try:
        cert = feasibility.solve(problem.specs, problem.layout, cfg)
        raised = False
    except feasibility.SolverFailure as exc:
        cert, raised = exc.certificate, True
    return cert, raised, time.perf_counter() - t0


def pass_synth_restricted(problem, seed, size):
    from sisynth import falsifier, feasibility
    fcfg = problem.config.falsifier_config()
    solves, verifies, restarts, certs, ops = [], [], [], [], []

    def verify(cert, params):
        ok, _ = feasibility.check_certificate(problem.specs, problem.layout, cert,
                                              k_min=problem.solver_config.k_min)
        return ok, falsifier.falsify(problem.family, params, problem.system, fcfg)

    for solver_seed in chunk_seeds(seed, size):
        cert, raised, dt = solve_chunk(problem, solver_seed)
        solves.append(dt)
        found = restart_fingerprint(cert)
        restarts += found
        ops += [(f"solver seed {solver_seed} restart {i} valid", r["valid"])
                for i, r in enumerate(found)]
        params = problem.params(cert.theta(problem.layout))
        for _ in range(size["repeats"]):
            (ok, cexs), dt = timed(verify, cert, params)
            verifies.append(dt)
            ops.append((f"solver seed {solver_seed} certificate checks and has no "
                        "counterexample", ok and not raised and not cexs))
        certs.append({"solver_seed": solver_seed, "k": cert.theta(problem.layout).tolist(),
                      "lambda_min": float(cert.lambda_mins.min()),
                      "certificate_check": bool(ok), "counterexamples": len(cexs)})
    fp = {
        "restarts": restarts,
        "restarts_valid": f"{sum(r['valid'] for r in restarts)}/{len(restarts)}",
        "worst_lambda_min": min(r["lambda_min"] for r in restarts),
        "certificates": certs,
        "counterexamples": sum(c["counterexamples"] for c in certs),
    }
    stages = {"synth_s": sum(solves), "verify_s": statistics.fmean(verifies),
              "samples": {"solve_s": solves, "verify_s": verifies}}
    return stages, fp, ops


def pass_simulate_restricted(problem, seed, size):
    from sisynth import falsifier, sim
    params = problem.params([K_PINNED])
    fcfg = problem.config.falsifier_config()
    task = problem.config.task_config()
    batches, verifies, reports, ops = [], [], [], []
    steps = StepCounter(sim)
    try:
        for sim_seed in chunk_seeds(seed, size):
            for _ in range(size["repeats"]):
                cexs, dt = timed(falsifier.falsify, problem.family, params, problem.system,
                                 fcfg)
                verifies.append(dt)
                ops.append(("pinned k has no counterexample", not cexs))
            batch, dt = timed(sim.run_batch, problem.family, params,
                              dataclasses.replace(task, seed=sim_seed))
            batches.append(dt)
            reports += batch.reports
            ops += [(f"sim seed {sim_seed} trial {r.trial} ok", r.ok) for r in batch.reports]
    finally:
        steps.restore()
    batch = sim.BatchReport(reports=reports)
    fp = {
        "k": [K_PINNED],
        "counterexamples": len(cexs),
        "trials": len(reports),
        "safe_pct": batch.safe_pct,
        "started_in_safe_set": sum(r.first_entry_time == 0.0 for r in reports),
        "violations_after_entry": batch.total_violations,
        "monitor_failures": batch.monitor_failures,
        "goals_reached": sum(r.reached_goal for r in reports),
        "controller_failures": sum(r.failure is not None for r in reports),
        "steps": steps.count,
        "trials_sha256": trials_digest(reports),
    }
    simulate_s = sum(batches)
    stages = {"verify_s": statistics.fmean(verifies), "simulate_s": simulate_s,
              "steps": steps.count, "sim_steps_per_s": steps.count / simulate_s,
              "samples": {"run_batch_s": batches, "verify_s": verifies}}
    return stages, fp, ops


def warm_up(problem, workload: str) -> None:
    """One untimed falsify, and on simulate-restricted one short trial, so
    that lazy set-up is not charged to the first timed sample."""
    from sisynth import falsifier, sim
    params = problem.params([K_PINNED])
    falsifier.falsify(problem.family, params, problem.system,
                      problem.config.falsifier_config())
    if workload == "simulate-restricted":
        task = dataclasses.replace(problem.config.task_config(), trials=1, horizon=1.0)
        sim.run_batch(problem.family, params, task)


def trials_digest(reports) -> str:
    """Digest of per-trial values that follow each trajectory, in run order."""
    rows = [[r.trial, r.eps_disc, r.max_overshoot, r.first_entry_time, r.ftc_bound]
            for r in reports]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


PASSES = {
    "synth-restricted": pass_synth_restricted,
    "simulate-restricted": pass_simulate_restricted,
}


class StepCounter:
    """Counts simulator steps; ``TrialReport`` does not record them.

    A bare counter around ``sim.step`` (one call per filter step) is all the
    untraced run adds to the program.  Under the tracer the step wrapper is
    already installed and this counter wraps it in turn.
    """

    def __init__(self, sim_module):
        self.module = sim_module
        self.original = sim_module.step
        self.count = 0
        original = self.original

        def counted(*args, **kwargs):
            self.count += 1
            return original(*args, **kwargs)

        sim_module.step = counted

    def restore(self) -> None:
        self.module.step = self.original


# --------------------------------------------------------------------------
# tracing


def install_tracer(tracer) -> None:
    import numpy as np
    from sisynth import falsifier, feasibility, poly, sim, system

    def eig_counts(args, kwargs, result, dt):
        tracer.add("eig.matrices", len(args[0]))

    def falsify_counts(args, kwargs, result, dt):
        cfg = args[3]
        tracer.add("falsify.points", cfg.samples + math.prod(a.resolution for a in cfg.axes))
        tracer.add("falsify.counterexamples", len(result))

    def safe_control_times(args, kwargs, result, dt):
        tracer.sample("safe_control.active" if result.constraint_active
                      else "safe_control.inactive", dt)

    def trial_times(args, kwargs, result, dt):
        tracer.sample("run_trial", dt)

    wrap = tracer.wrap
    wrap(feasibility, "solve", "solve")
    wrap(feasibility, "check_certificate", "check_certificate")
    wrap(feasibility.AffineGramMap, "__init__", "amap")
    wrap(feasibility.AffineGramMap, "refine", "refine")
    wrap(feasibility.AffineGramMap, "candidate", "candidate")
    wrap(feasibility, "jacobi_eigh_batch", "eig", on_exit=eig_counts)
    wrap(feasibility, "penalty", "penalty")
    wrap(feasibility, "minimize", "lbfgs")
    wrap(np.linalg, "pinv", "pinv")
    wrap(falsifier, "falsify", "falsify", on_exit=falsify_counts)
    wrap(sim, "run_batch", "run_batch")
    wrap(sim, "run_trial", "run_trial", on_exit=trial_times)
    wrap(sim, "safe_control", "safe_control", span=False, on_exit=safe_control_times)
    wrap(sim, "nominal_control", "nominal_control", span=False)
    wrap(sim, "step", "step", span=False)
    wrap(system.SymbolicSystem, "control_box", "control_box", span=False)
    wrap(poly.Polynomial, "evaluate", "evaluate", span=False)


def restart_times(tracer) -> list[tuple[float, int]]:
    """(seconds, rounds) of each restart, from the direct children of solve.

    A restart opens with an ``AffineGramMap`` set-up (one per round) and
    ends with the penalty that scores it, called by ``solve`` itself rather
    than by L-BFGS.  Valid only for a single-threaded solve.
    """
    out = []
    for solve_span in tracer.span_list("solve"):
        kids = sorted((s for s in tracer.spans if s[2] == solve_span[0]),
                      key=lambda s: s[3])
        start, rounds = None, 0
        for _, name, _, t0, t1 in kids:
            if name == "amap":
                start = t0 if start is None else start
                rounds += 1
            elif name == "penalty" and start is not None:
                out.append((t1 - start, rounds))
                start, rounds = None, 0
    return out


def quantile(values, q: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def layer_metrics(tracer, problem, fp, build_s: float, overhead_s: float) -> dict:
    t = tracer
    active = t.durations.get("safe_control.active", [])
    inactive = t.durations.get("safe_control.inactive", [])
    restarts = restart_times(t)
    rounds = [r for _, r in restarts]
    fp_restarts = fp.get("restarts", [])
    sc_calls = t.calls("safe_control")
    falsify_s = t.seconds("falsify")
    return {
        "config.build_problem.s": build_s,
        "refute.cases": len(problem.cases),
        "refute.gram_size.max": max(spec.size for spec in problem.specs),
        "feasibility.layout.size": problem.layout.size,
        "feasibility.solve.s": t.seconds("solve"),
        "feasibility.solve.self_s": t.self_seconds("solve"),
        "feasibility.eig.calls": t.calls("eig"),
        "feasibility.eig.s": t.seconds("eig"),
        "feasibility.eig.matrices": t.counts.get("eig.matrices", 0),
        "feasibility.penalty.calls": t.calls("penalty"),
        "feasibility.penalty.s": t.seconds("penalty"),
        "feasibility.lbfgs.calls": t.calls("lbfgs"),
        "feasibility.lbfgs.s": t.seconds("lbfgs"),
        "feasibility.lbfgs.self_s": t.self_seconds("lbfgs"),
        "feasibility.refine.calls": t.calls("refine"),
        "feasibility.refine.s": t.seconds("refine"),
        "feasibility.refine.self_s": t.self_seconds("refine"),
        "feasibility.dr_iters": t.children("refine", "eig"),
        "feasibility.candidate.calls": t.calls("candidate"),
        "feasibility.amap.calls": t.calls("amap"),
        "feasibility.amap.s": t.seconds("amap"),
        "feasibility.pinv.s": t.seconds("pinv"),
        "feasibility.restart.s.p50": quantile([s for s, _ in restarts], 0.5),
        "feasibility.restart.s.max": max((s for s, _ in restarts), default=0.0),
        "feasibility.restart.rounds.mean": statistics.fmean(rounds) if rounds else 0.0,
        "feasibility.restart.rounds.max": max(rounds, default=0),
        "feasibility.restarts.valid": sum(r["valid"] for r in fp_restarts),
        "feasibility.restarts.attempted": len(fp_restarts),
        "feasibility.check_certificate.s": t.seconds("check_certificate"),
        "falsifier.falsify.calls": t.calls("falsify"),
        "falsifier.falsify.s": falsify_s,
        "falsifier.points": t.counts.get("falsify.points", 0),
        "falsifier.counterexamples": t.counts.get("falsify.counterexamples", 0),
        "falsifier.points_per_s": (t.counts.get("falsify.points", 0) / falsify_s
                                   if falsify_s else 0.0),
        "controller.safe_control.calls": sc_calls,
        "controller.safe_control.s": t.seconds("safe_control"),
        "controller.safe_control.self_s": t.self_seconds("safe_control"),
        "controller.safe_control.active_frac": len(active) / sc_calls if sc_calls else 0.0,
        "controller.safe_control.active.us.p50": 1e6 * quantile(active, 0.5),
        "controller.safe_control.active.us.p99": 1e6 * quantile(active, 0.99),
        "controller.safe_control.inactive.us.p50": 1e6 * quantile(inactive, 0.5),
        "controller.safe_control.inactive.us.p99": 1e6 * quantile(inactive, 0.99),
        "controller.nominal_control.calls": t.calls("nominal_control"),
        "controller.nominal_control.s": t.seconds("nominal_control"),
        "sim.run_batch.s": t.seconds("run_batch"),
        "sim.run_trial.s.p50": quantile(t.durations.get("run_trial", []), 0.5),
        "sim.run_trial.s.p80": quantile(t.durations.get("run_trial", []), 0.8),
        "sim.step.calls": t.calls("step"),
        "sim.step.s": t.seconds("step"),
        "sim.self.s": t.self_seconds("run_trial"),
        "poly.evaluate.calls": t.calls("evaluate"),
        "poly.evaluate.s": t.seconds("evaluate"),
        "system.control_box.calls": t.calls("control_box"),
        "system.control_box.s": t.seconds("control_box"),
        "trace.calls": sum(c for c, _, _ in t.totals.values()),
        "trace.overhead_s": overhead_s,
    }


# --------------------------------------------------------------------------
# fingerprint drift and manifest


def drift(workload: str, seed: int, fp: dict, size_name: str) -> dict:
    """Differences from the fingerprint recorded for this workload and seed."""
    path = BENCH / "fingerprints.json"
    recorded = json.loads(path.read_text()).get(size_name, {}).get(workload, {})
    ref = recorded.get(str(seed))
    if ref is None:
        return {"recorded": False, "changed": {}}
    keys = sorted(set(ref) | set(fp))
    changed = {k: {"recorded": ref.get(k), "now": fp.get(k)}
               for k in keys if ref.get(k) != fp.get(k)}
    return {"recorded": True, "changed": changed}


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sisynth").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def manifest(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    bootstrap()
    from sisynth import config
    size = SIZES[args.size][args.workload]
    cfg = make_config(args.seed, size)
    problem, build_s = timed(config.build_problem, cfg)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print("ready", flush=True)
        return 0

    def one_pass(tracer=None):
        if tracer is not None:
            install_tracer(tracer)
        t0 = time.perf_counter()
        try:
            stages, fp, pass_ops = PASSES[args.workload](problem, args.seed, size)
        finally:
            if tracer is not None:
                tracer.restore()
        stages["pass_s"] = time.perf_counter() - t0
        passes.append(stages)
        fingerprints.append(fp)
        ops.extend(pass_ops)

    passes, fingerprints, ops = [], [], []
    warm_up(problem, args.workload)
    if args.trace:
        # an untraced pass, then a traced one: their difference is the overhead
        import tracer as tracing
        tracer = tracing.Tracer()
        one_pass()
        one_pass(tracer)
    else:
        begin = time.perf_counter()
        one_pass()
        while time.perf_counter() - begin + passes[-1]["pass_s"] <= args.seconds:
            one_pass()

    fp = fingerprints[0]
    repeatable = all(f == fp for f in fingerprints[1:])
    failures = [name for name, ok in ops if not ok]
    if not repeatable:
        failures.append("fingerprint changed between passes of one run")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "setup_s": setup_s,
        "passes": passes,
        "attempted": len(ops) + (0 if repeatable else 1),
        "failed": len(failures),
        "failures": failures,
        "fingerprint": fp,
        "drift": drift(args.workload, args.seed, fp, args.size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "manifest": manifest(args.seed),
    }
    if args.trace:
        overhead_s = passes[1]["pass_s"] - passes[0]["pass_s"]
        result["per_layer"] = layer_metrics(tracer, problem, fp, build_s, overhead_s)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()))
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
