"""Command-line front end: synth, verify, simulate, report.

Exit codes: 0 success, 2 safety failure or counterexample found, 3 solver
failed to certify, 4 configuration error.  All artifacts land in an output
directory named by config hash and seed, so reruns with identical inputs
overwrite identical paths.
"""

from __future__ import annotations

import json
import sys as _sys
import time
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from .config import ConfigError, Problem, RunConfig, build_problem
from .falsifier import counterexamples_csv, falsify
from .feasibility import Certificate, SolverFailure, check_certificate, layout_mismatch, solve
from .index import IndexParams
from .sim import STATE_VARS, markdown_report, run_batch, trajectory_csv

EXIT_OK = 0
EXIT_SAFETY = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


def _config_error(exc, kind: str = "config") -> NoReturn:
    click.echo(f"{kind} error: {exc}", err=True)
    _sys.exit(EXIT_CONFIG)


def _load(config_path: str) -> tuple[RunConfig, Problem]:
    try:
        cfg = RunConfig.load(config_path)
        return cfg, build_problem(cfg)
    except ValueError as exc:   # ConfigError, RelativeDegreeError, DegreeOverflowError
        _config_error(exc)


def _certificate(path: str, problem: Problem) -> Certificate:
    """The certificate file at ``path``; exits 4 if it does not parse or its
    decision variables are not ``problem``'s."""
    try:
        with open(path) as fh:
            cert = Certificate.from_dict(json.load(fh))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:   # JSONDecodeError too
        _config_error(f"cannot read {path}: {exc!r}", "certificate")
    if mismatch := layout_mismatch(cert, problem.layout):
        _config_error(f"not made for this config: {mismatch}", "certificate")
    return cert


def _check(cert: Certificate, problem: Problem) -> bool:
    """Re-check ``cert`` from its decision vector at the config's k floor,
    echoing the verdict and its diagnostics; True on pass."""
    ok, diagnostics = check_certificate(problem.specs, problem.layout, cert,
                                        k_min=problem.solver_config.k_min)
    click.echo(f"certificate check: {'pass' if ok else 'FAIL'}")
    for line in diagnostics:
        click.echo(f"  {line}", err=True)
    return ok


def _outdir(cfg: RunConfig, seed: int, override: str | None) -> Path:
    path = Path(override) if override else Path("runs") / f"{cfg.digest()}-{seed}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _ks(k) -> str:
    return "[" + ", ".join(f"{v:.6g}" for v in k) + "]"


def _restart_lines(r: dict) -> list[str]:
    """A solver restart: verdict, k and worst lambda_min, the (k, lambda*)
    samples of its search grid if it searched, and per DR run its k,
    iteration count, stop reason, lambda_min and the kept blocks' lambda_min
    on the zero face."""
    lines = [f"  restart {r['restart']}: {'valid' if r['valid'] else 'invalid'}, "
             f"k = {_ks(r['k'])}, lambda_min {min(r['lambda_mins']):.3e}"]
    if r.get("grid"):
        lines.append("    grid (k, lambda*): "
                     + " ".join(f"({k:.3g}, {lam:.3e})" for k, lam in r["grid"]))
    for x in r.get("runs", []):
        lines.append(f"    DR at k = {_ks(x['k'])}: {x['dr_iters']} DR iterations, "
                     f"stop {x['stop']}, lambda_min {x['lambda_min']:.3e}, "
                     f"reduced lambda_min {x['reduced_lambda_min']:.3e}")
    return lines


@click.group()
def main():
    """Safety index synthesis and safe-control validation toolkit."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the solver seed.")
@click.option("--output", type=click.Path(file_okay=False), default=None)
def synth(config_path, seed, output):
    """Synthesize index parameters and write a certificate JSON."""
    cfg, problem = _load(config_path)
    solver_cfg = problem.solver_config
    if seed is not None:
        solver_cfg.seed = seed
    outdir = _outdir(cfg, solver_cfg.seed, output)

    start = time.perf_counter()
    try:
        cert = solve(problem.specs, problem.layout, solver_cfg)
        failure = None
    except SolverFailure as exc:
        cert = exc.certificate
        failure = exc
    elapsed = time.perf_counter() - start

    cert_path = outdir / "certificate.json"
    with open(cert_path, "w") as fh:
        json.dump(cert.to_dict(), fh, indent=2)

    ks = np.array([r["k"] for r in cert.restarts if r["valid"]])
    click.echo(f"solve time: {elapsed:.1f} s; restarts valid: "
               f"{sum(r['valid'] for r in cert.restarts)}/{len(cert.restarts)}")
    if len(ks):
        click.echo(f"k over valid restarts: mean {np.mean(ks, axis=0)}, std {np.std(ks, axis=0)}")
    click.echo("per-case lambda_min: " + ", ".join(f"{v:.3e}" for v in cert.lambda_mins))
    click.echo(f"certificate written to {cert_path}")
    if failure is not None:
        click.echo(f"no valid certificate; best residual {failure.residual:.3e}", err=True)
        _sys.exit(EXIT_SOLVER)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", "cert_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Certificate JSON to re-check.")
@click.option("--k", "k_values", type=float, multiple=True,
              help="Raw index parameters to falsify without a certificate.")
@click.option("--output", type=click.Path(file_okay=False), default=None)
def verify(config_path, cert_path, k_values, output):
    """Re-check a certificate and run the sampling falsifier."""
    if cert_path is not None and k_values:
        _config_error("verify takes --certificate or --k, not both")
    cfg, problem = _load(config_path)
    try:
        fcfg = cfg.falsifier_config()
    except ConfigError as exc:
        _config_error(exc)
    outdir = _outdir(cfg, problem.solver_config.seed, output)
    clean = True

    if cert_path is not None:
        cert = _certificate(cert_path, problem)
        clean &= _check(cert, problem)
        k = cert.theta(problem.layout)
        enforce_min = True
    elif k_values:
        # raw parameters are a falsification probe, so the k floor is not
        # enforced: k = 0 is a legitimate query and must produce its
        # counterexample rather than a config error
        k = np.array(k_values)
        enforce_min = False
    else:
        _config_error("verify needs --certificate or --k")

    try:
        params = IndexParams(k=k, eta=cfg.eta, enforce_min=enforce_min)
        cexs = falsify(problem.family, params, problem.system, fcfg)
    except ValueError as exc:   # k below the floor, axes that miss a state variable, inverted box
        _config_error(exc)
    click.echo(f"falsifier: {len(cexs)} counterexample(s)")
    if cexs:
        csv_path = outdir / "counterexamples.csv"
        counterexamples_csv(cexs, problem.system, str(csv_path))
        click.echo(f"  worst: state {cexs.states[0]}, phidot {cexs.worst_phidot[0]:.6g}"
                   f" (written to {csv_path})")
        clean = False
    _sys.exit(EXIT_OK if clean else EXIT_SAFETY)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", "cert_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--trials", type=click.IntRange(min=0), default=None,
              help="Override the trial count.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the simulation seed.")
@click.option("--trajectories", is_flag=True, help="Write per-trial trajectory CSVs.")
@click.option("--output", type=click.Path(file_okay=False), default=None)
def simulate(config_path, cert_path, trials, seed, trajectories, output):
    """Run the navigation trial batch under the safety filter."""
    cfg, problem = _load(config_path)
    task = cfg.task_config()   # checked when the config loaded
    names = tuple(v.name for v in problem.system.state_vars)
    if names != STATE_VARS:
        _config_error(f"simulate drives only the unicycle model, whose state variables are "
                      f"{', '.join(STATE_VARS)}; this model has {', '.join(names)}")
    cert = _certificate(cert_path, problem)
    if not cert.valid:
        click.echo("certificate is not valid; refusing to simulate", err=True)
        _sys.exit(EXIT_SAFETY)
    if not _check(cert, problem):
        _sys.exit(EXIT_SAFETY)

    if trials is not None:
        task.trials = trials
    if seed is not None:
        task.seed = seed
    outdir = _outdir(cfg, task.seed, output)

    k = cert.theta(problem.layout)
    params = problem.params(k)
    start = time.perf_counter()
    batch = run_batch(problem.family, params, task, record=trajectories)
    report = markdown_report(batch, k, sim_time=time.perf_counter() - start)
    report_path = outdir / "report.md"
    report_path.write_text(report)
    if trajectories:
        for r in batch.reports:
            trajectory_csv(r, str(outdir / f"trajectory_{r.trial:03d}.csv"),
                           order=problem.family.order)
    click.echo(report)
    click.echo(f"report written to {report_path}")
    if task.trials == 0:
        click.echo("warning: zero trials requested; report is vacuous", err=True)
        _sys.exit(EXIT_OK)
    _sys.exit(EXIT_OK if batch.all_ok else EXIT_SAFETY)


@main.command()
@click.argument("output_dir", type=click.Path(exists=True, file_okay=False))
def report(output_dir):
    """Print the artifacts summary for an output directory."""
    outdir = Path(output_dir)
    cert_path = outdir / "certificate.json"
    if cert_path.exists():
        with open(cert_path) as fh:
            data = json.load(fh)
        click.echo(f"certificate: valid={data['valid']}, seed={data['seed']}, "
                   f"config={data['config_hash']}")
        click.echo("  lambda_mins: " + ", ".join(f"{v:.3e}" for v in data["lambda_mins"]))
        for r in data.get("restarts", []):
            for line in _restart_lines(r):
                click.echo(line)
    cex_path = outdir / "counterexamples.csv"
    if cex_path.exists():
        lines = cex_path.read_text().strip().splitlines()
        click.echo(f"counterexamples: {max(0, len(lines) - 1)} (see {cex_path})")
    report_path = outdir / "report.md"
    if report_path.exists():
        click.echo(report_path.read_text())
    if not any(p.exists() for p in (cert_path, cex_path, report_path)):
        click.echo("no artifacts found", err=True)


if __name__ == "__main__":
    main()
