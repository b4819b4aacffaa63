"""Acceptance gate: one test per criterion, each emitting a PASS/FAIL line.

The per-criterion verdict lines are collected by the terminal-summary hook
in conftest so they appear in the normal pytest output.
"""

import numpy as np
import pytest

from sisynth.config import RunConfig, build_problem, default_unicycle_config
from sisynth.falsifier import SLACK, falsify
from sisynth.feasibility import TOLERANCE, SolverFailure, jacobi_eigh_batch, solve
from sisynth.index import IndexParams
from sisynth.sim import run_batch

from conftest import ACCEPTANCE_RESULTS, gram_reconstruct, worst_case_phidot
from test_controller import kkt_residual


def record(criterion: int, name: str, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def test_criterion_1_synthesis_reproduction(unicycle_problem):
    """Full-state-space instance, eigenvalue tolerance 1e-6, 10 restarts."""
    p = unicycle_problem
    assert p.solver_config.restarts == 10
    assert TOLERANCE == 1e-6
    try:
        cert = solve(p.specs, p.layout, p.solver_config)
        restarts = cert.restarts
    except SolverFailure as exc:
        cert = exc.certificate
        restarts = cert.restarts
    n_valid = sum(r["valid"] for r in restarts)
    all_valid = n_valid == len(restarts) == 10
    ks = np.array([r["k"] for r in restarts if r["valid"]], dtype=float)
    mean_ok = len(ks) > 0 and 0.009 <= float(np.mean(ks)) <= 0.02
    clean = False
    if cert.valid:
        params = p.params(cert.theta(p.layout))
        clean = not falsify(p.family, params, p.system, p.config.falsifier_config())
    ok = all_valid and mean_ok and clean
    record(1, "synthesis reproduction", ok,
           f"valid restarts {n_valid}/{len(restarts)}, "
           f"worst lambda_min {float(cert.lambda_mins.min()):.3e} "
           f"(needs >= -1e-06); no parameter value certifies on the "
           f"unrestricted state space" if not ok else
           f"valid restarts {n_valid}/{len(restarts)}, mean k {float(np.mean(ks)):.4e}")


def test_criterion_2_certificate_implies_feasibility(restricted_problem,
                                                     restricted_certificate):
    """A valid certificate survives the 100^3-grid falsifier with slack 1e-6."""
    p, cert = restricted_problem, restricted_certificate
    assert cert.valid
    fcfg = p.config.falsifier_config()
    assert [a.resolution for a in fcfg.axes] == [100, 100, 100]
    assert SLACK == 1e-6
    params = p.params(cert.theta(p.layout))
    cexs = falsify(p.family, params, p.system, fcfg)
    ok = len(cexs) == 0
    record(2, "certificate implies feasibility", ok,
           f"k = {params.k[0]:.4e}, counterexamples on the 100x100x100 grid "
           f"+ 10000 samples: {len(cexs)}")


def test_criterion_3_infeasibility_detection(unicycle_problem):
    """k = 0 must be falsified at (d=1, alpha=0, v=1) where phidot = 1."""
    p = unicycle_problem
    params = IndexParams(k=[0.0], eta=p.config.eta)
    direct = worst_case_phidot(p.family, params, [1.0, 0.0, 1.0, 1.0])
    cexs = falsify(p.family, params, p.system, p.config.falsifier_config())
    found = cexs.worst_phidot[0] if cexs else float("-inf")
    # the sampled optimum must be within grid resolution of the analytic 1
    ok = direct == 1.0 and found >= 0.999 and found > -p.config.eta
    record(3, "infeasibility detection", ok,
           f"analytic worst phidot at (1,0,1) = {direct:.6g}, "
           f"falsifier best = {found:.6g} > -eta = {-p.config.eta}")


def test_criterion_4_behavioral_reproduction(restricted_problem,
                                             restricted_certificate):
    """50 trials: 100% safe-set landing, 0 violations, monitors clean."""
    p, cert = restricted_problem, restricted_certificate
    task = p.config.task_config()
    assert task.trials == 50
    batch = run_batch(p.family, p.params(cert.theta(p.layout)), task)
    fi = sum(len(r.fi_failures) for r in batch.reports)
    ftc = sum(0 if r.ftc_ok else 1 for r in batch.reports)
    ok = (batch.safe_pct == 100.0 and batch.total_violations == 0
          and fi == 0 and ftc == 0)
    record(4, "behavioral reproduction", ok,
           f"safe-set landing {batch.safe_pct:.1f}%, post-entry violations "
           f"{batch.total_violations}, invariance monitor failures {fi}, "
           f"convergence monitor failures {ftc} over {task.trials} trials")


def test_criterion_5_gram_identity(unicycle_problem, restricted_problem):
    """x^T Q x == p0 term-wise to 1e-10 for 100 random decision draws/case."""
    rng = np.random.default_rng(0)
    worst = 0.0
    cases = 0
    for p in (unicycle_problem, restricted_problem):
        for spec in p.specs:
            cases += 1
            diff = gram_reconstruct(spec) - spec.p0
            for _ in range(100):
                draw = {v: float(rng.uniform(-2, 2)) for v in p.layout.variables}
                residue = diff.subs(draw)
                if not residue.is_zero():
                    worst = max(worst, max(abs(c) for c in residue.terms.values()))
    ok = worst <= 1e-10
    record(5, "Gram identity", ok,
           f"worst term-wise residual {worst:.2e} over {cases} cases x 100 draws "
           f"(bound 1e-10)")


def test_criterion_6_delta_rule_equivalence(unicycle_problem):
    """worst_case_phidot == vertex brute force exactly; grid min within resolution."""
    p = unicycle_problem
    fam, sys = p.family, p.system
    params = p.params([0.0139])
    rng = np.random.default_rng(1)
    exact, within = True, True
    for _ in range(1000):
        alpha = rng.uniform(-np.pi, np.pi)
        state = [rng.uniform(0.05, 3.0), np.sin(alpha), np.cos(alpha),
                 rng.uniform(-1.0, 1.0)]
        a = sys.assignment(state)
        a.update(dict(zip(fam.theta, params.k)))
        lf = float(fam.Lf_phi.evaluate(a))
        c = np.array([float(lg.evaluate(a)) for lg in fam.Lg_phi])
        lower, upper = sys.control_box(state)
        got = worst_case_phidot(fam, params, state)
        # brute force over the four box vertices, accumulating coordinate by
        # coordinate so the comparison is exact in floating point
        vertices = [(lf + c[0] * u0) + c[1] * u1 for u0 in (lower[0], upper[0])
                    for u1 in (lower[1], upper[1])]
        if got != min(vertices):
            exact = False
        # 50x50 control grid: the linear form's grid minimum cannot be more
        # than one grid cell of slope below the true box minimum
        g0 = np.linspace(lower[0], upper[0], 50)
        g1 = np.linspace(lower[1], upper[1], 50)
        grid_min = float(np.min(lf + c[0] * g0[:, None] + c[1] * g1[None, :]))
        res = (abs(c[0]) * (upper[0] - lower[0]) + abs(c[1]) * (upper[1] - lower[1])) / 49
        if not got <= grid_min <= got + res + 1e-9:
            within = False
    ok = exact and within
    record(6, "delta-rule equivalence", ok,
           f"1000 random states: vertex minimum exact = {exact}, "
           f"50x50 grid within resolution = {within}")


def test_criterion_7_projection_optimality(unicycle_problem):
    """1000 active projections beat 10^4 random candidates; KKT <= 1e-6."""
    from sisynth.controller import safe_control
    p = unicycle_problem
    fam, sys = p.family, p.system
    params = p.params([0.0139])
    rng = np.random.default_rng(2)
    checked, kkt_worst, beaten = 0, 0.0, True
    while checked < 1000:
        alpha = rng.uniform(-np.pi, np.pi)
        state = [rng.uniform(0.3, 1.2), np.sin(alpha), np.cos(alpha),
                 rng.uniform(-1.0, 1.0)]
        a = sys.assignment(state)
        a.update(dict(zip(fam.theta, params.k)))
        if float(fam.phi_theta.evaluate(a)) < 0.0:
            continue
        lf = float(fam.Lf_phi.evaluate(a))
        c = np.array([float(lg.evaluate(a)) for lg in fam.Lg_phi])
        b = -params.eta - lf
        lower, upper = sys.control_box(state)
        if float(np.sum(np.where(c >= 0, c * lower, c * upper))) > b - 1e-6:
            continue
        u_ref = rng.uniform(lower - 1.0, upper + 1.0)
        res = safe_control(fam, params, state, u_ref)
        kkt_worst = max(kkt_worst, kkt_residual(res.u, u_ref, c, b, lower, upper))
        cand = rng.uniform(lower, upper, size=(10000, 2))
        feas = cand[cand @ c <= b]
        if len(feas):
            best = float(np.min(np.sum((feas - u_ref) ** 2, axis=1)))
            if float(np.sum((res.u - u_ref) ** 2)) > best + 1e-9:
                beaten = False
        checked += 1
    ok = beaten and kkt_worst <= 1e-6
    record(7, "projection optimality", ok,
           f"1000 instances x 10^4 candidates: never beaten = {beaten}, "
           f"worst KKT residual {kkt_worst:.2e} (bound 1e-6)")


def test_criterion_8_eigensolver():
    """Random symmetric matrices up to 12x12: relative Frobenius <= 1e-8."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in range(1, 13):
        for _ in range(50):
            M = rng.normal(size=(n, n))
            M = 0.5 * (M + M.T)
            (w,), (V,) = jacobi_eigh_batch(M[None])
            assert np.all(np.diff(w) >= 0)
            rel = np.linalg.norm(V @ np.diag(w) @ V.T - M) / max(np.linalg.norm(M), 1e-30)
            worst = max(worst, float(rel))
    ok = worst <= 1e-8
    record(8, "eigensolver reconstruction", ok,
           f"600 matrices up to 12x12: worst relative Frobenius residual "
           f"{worst:.2e} (bound 1e-8)")
