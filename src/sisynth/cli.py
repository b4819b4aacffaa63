"""Command-line front end: synth, verify, simulate, report.

Exit codes: 0 success, 2 safety failure or counterexample found, 3 solver
failed to certify, 4 configuration error.  The config file sets every seed
and trial count, and its hash covers them all, so ``synth``, ``verify`` and
``simulate`` of one config write to one default output directory,
``runs/<config hash>``, and reruns with identical inputs overwrite identical
paths.  The older ``runs/<config hash>-<seed>`` directories are not read.
A certificate's ``config_hash`` is that config hash, whatever ``--output``
says.  ``verify`` removes the directory's ``counterexamples.csv`` on every
run and writes a new one only when it finds counterexamples.
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
from .feasibility import Certificate, SolverFailure, check_certificate, layout_mismatch, solve

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
    except ValueError as exc:   # ConfigError, RelativeDegreeError
        _config_error(exc)


def _certificate(path: str, problem: Problem | None = None) -> Certificate:
    """The certificate file at ``path``; exits 4 if it does not parse or,
    given ``problem``, its decision variables are not ``problem``'s."""
    try:
        with open(path) as fh:
            cert = Certificate.from_dict(json.load(fh))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:   # JSONDecodeError too
        _config_error(f"cannot read {path}: {exc!r}", "certificate")
    if problem is not None and (mismatch := layout_mismatch(cert, problem.layout)):
        _config_error(f"not made for this config: {mismatch}", "certificate")
    return cert


def _check(cert: Certificate, problem: Problem) -> bool:
    """Re-check ``cert`` from its decision vector, not its ``lambda_mins``,
    echoing the verdict and its diagnostics; True on pass."""
    ok, diagnostics = check_certificate(problem.specs, problem.layout, cert)
    click.echo(f"certificate check: {'pass' if ok else 'FAIL'}")
    for line in diagnostics:
        click.echo(f"  {line}", err=True)
    return ok


def _outdir(cfg: RunConfig, override: str | None) -> Path:
    path = Path(override) if override else Path("runs") / cfg.digest()
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


def _mirror_line(cert: Certificate) -> str:
    """How many refute cases DR solved, and the mirror pairs whose partner
    was filled in from its representative, by flipped state variable."""
    n = len(cert.lambda_mins)
    solved = n - sum(len(pairs) for pairs in cert.mirror_pairs.values())
    return f"  solved {solved} of {n} cases; " + "; ".join(
        f"mirror {s} → −{s}: " + ", ".join(f"{a}↔{b}" for a, b in pairs)
        for s, pairs in cert.mirror_pairs.items())


@click.group()
def main():
    """Safety index synthesis and safe-control validation toolkit."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(file_okay=False), default=None)
def synth(config_path, output):
    """Synthesize index parameters and write a certificate JSON."""
    cfg, problem = _load(config_path)
    outdir = _outdir(cfg, output)

    start = time.perf_counter()
    try:
        cert = solve(problem.specs, problem.layout, problem.solver_config)
        failure = None
    except SolverFailure as exc:
        cert = exc.certificate
        failure = exc
    elapsed = time.perf_counter() - start

    cert.config_hash = cfg.digest()
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
        click.echo(str(failure), err=True)
        _sys.exit(EXIT_SOLVER)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", "cert_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Certificate JSON to re-check.")
@click.option("--k", "k_values", type=float, multiple=True,
              help="Raw index parameters to falsify without a certificate.")
@click.option("--output", type=click.Path(file_okay=False), default=None)
def verify(config_path, cert_path, k_values, output):
    """Re-check a certificate and, if it passes, run the sampling falsifier."""
    from .falsifier import counterexamples_csv, falsify
    if cert_path is not None and k_values:
        _config_error("verify takes --certificate or --k, not both")
    cfg, problem = _load(config_path)
    try:
        fcfg = cfg.falsifier_config()
    except ConfigError as exc:
        _config_error(exc)
    outdir = _outdir(cfg, output)
    csv_path = outdir / "counterexamples.csv"
    csv_path.unlink(missing_ok=True)   # a clean or failed re-check leaves no older rows

    if cert_path is not None:
        cert = _certificate(cert_path, problem)
        if not _check(cert, problem):   # its k may have no real chain to falsify
            _sys.exit(EXIT_SAFETY)
        k = cert.theta(problem.layout)
    elif k_values:
        n = problem.family.order
        if len(k_values) != n:
            _config_error(f"--k takes {n} value{'s' * (n > 1)} for this config's index, "
                          f"got {len(k_values)}")
        k = np.array(k_values)
    else:
        _config_error("verify needs --certificate or --k")

    try:
        cexs = falsify(problem.family, problem.params(k), problem.system, fcfg)
    except ValueError as exc:   # a --k with roots not real and positive, axes that
        # miss a state variable, inverted box
        _config_error(exc)
    click.echo(f"falsifier: {len(cexs)} counterexample(s)")
    if cexs:
        counterexamples_csv(cexs, problem.system, str(csv_path))
        click.echo(f"  worst: state {cexs.states[0]}, phidot {cexs.worst_phidot[0]:.6g}"
                   f" (written to {csv_path})")
    _sys.exit(EXIT_SAFETY if cexs else EXIT_OK)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", "cert_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--trajectories", is_flag=True, help="Write per-trial trajectory CSVs.")
@click.option("--output", type=click.Path(file_okay=False), default=None)
def simulate(config_path, cert_path, trajectories, output):
    """Run the navigation trial batch under the safety filter."""
    from .sim import STATE_VARS, markdown_report, run_batch, trajectory_csv
    cfg, problem = _load(config_path)
    task = cfg.task_config()   # checked when the config loaded
    names = tuple(v.name for v in problem.system.state_vars)
    if names != STATE_VARS:
        _config_error(f"simulate drives only the unicycle model, whose state variables are "
                      f"{', '.join(STATE_VARS)}; this model has {', '.join(names)}")
    cert = _certificate(cert_path, problem)
    if not _check(cert, problem):
        _sys.exit(EXIT_SAFETY)

    outdir = _outdir(cfg, output)

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
        cert = _certificate(str(cert_path))
        try:
            restarts = [line for r in cert.restarts for line in _restart_lines(r)]
            mirror = [_mirror_line(cert)] if cert.mirror_pairs else []
        except (KeyError, ValueError, TypeError, AttributeError) as exc:   # an entry it cannot read
            _config_error(f"cannot read {cert_path}: {exc!r}", "certificate")
        click.echo(f"certificate: valid={cert.valid}, seed={cert.seed}, "
                   f"config={cert.config_hash}")
        click.echo("  lambda_mins: " + ", ".join(f"{v:.3e}" for v in cert.lambda_mins))
        for line in mirror + restarts:
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
