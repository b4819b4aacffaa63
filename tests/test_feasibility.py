import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sisynth.feasibility import (
    AffineGramMap,
    Certificate,
    DecisionLayout,
    GramStack,
    SolverFailure,
    check_certificate,
    jacobi_eigh,
    jacobi_eigh_batch,
    min_eigenvalue,
    penalty,
    solve,
)
import sisynth
from sisynth.poly import Polynomial, VarId, VarKind
from sisynth.refute import GramSpec


def random_symmetric(rng, n):
    M = rng.normal(size=(n, n))
    return 0.5 * (M + M.T)


class TestJacobiEigensolver:
    def test_analytic_2x2(self):
        # [[a, b], [b, c]] has eigenvalues (a+c)/2 -/+ sqrt(((a-c)/2)^2 + b^2)
        a, b, c = 2.0, 1.5, -1.0
        w, V = jacobi_eigh(np.array([[a, b], [b, c]]))
        mid, rad = (a + c) / 2.0, np.hypot((a - c) / 2.0, b)
        assert np.allclose(w, [mid - rad, mid + rad], atol=1e-12)
        assert np.allclose(V @ np.diag(w) @ V.T, [[a, b], [b, c]], atol=1e-12)

    def test_diagonal_passthrough(self):
        w, V = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_reconstruction_and_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            M = random_symmetric(rng, n)
            w, V = jacobi_eigh(M)
            assert np.all(np.diff(w) >= 0), "eigenvalues must be ascending"
            rel = np.linalg.norm(V @ np.diag(w) @ V.T - M) / max(np.linalg.norm(M), 1e-30)
            assert rel <= 1e-8
            assert np.allclose(V.T @ V, np.eye(n), atol=1e-10)
            assert np.allclose(w, np.linalg.eigvalsh(M), atol=1e-9 * max(1.0, np.abs(M).max()))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        mats = np.stack([random_symmetric(rng, 5) for _ in range(6)])
        wb, Vb = jacobi_eigh_batch(mats)
        for i in range(6):
            w, _ = jacobi_eigh(mats[i])
            assert np.allclose(wb[i], w, atol=1e-10)
            assert np.allclose(Vb[i] @ np.diag(wb[i]) @ Vb[i].T, mats[i], atol=1e-10)

    def test_min_eigenvalue_vector(self):
        rng = np.random.default_rng(11)
        M = random_symmetric(rng, 8)
        lam, v = min_eigenvalue(M)
        assert np.isclose(lam, np.linalg.eigvalsh(M)[0], atol=1e-10)
        assert np.allclose(M @ v, lam * v, atol=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((2, 3)))


class TestCompiledGram:
    def test_matrix_matches_symbolic_entries(self, braking_problem):
        p = braking_problem
        grams = GramStack(p.specs, p.layout)
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = rng.uniform(-2, 2, size=p.layout.size)
            assignment = dict(zip(p.layout.variables, d))
            for Q, spec in zip(grams.matrices(d), p.specs):
                for i in range(spec.size):
                    for j in range(spec.size):
                        want = spec.entries[min(i, j)][max(i, j)].evaluate(assignment)
                        assert abs(Q[i, j] - want) <= 1e-12 * max(1.0, abs(want))

    def test_matrix_matches_symbolic_entries_restricted(self, restricted_problem):
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        rng = np.random.default_rng(1)
        d = rng.uniform(-1, 1, size=p.layout.size)
        assignment = dict(zip(p.layout.variables, d))
        for Q, spec in zip(grams.matrices(d), p.specs):
            assert np.array_equal(Q, Q.T)
            for i in range(spec.size):
                for j in range(i, spec.size):
                    want = spec.entries[i][j].evaluate(assignment)
                    assert abs(Q[i, j] - want) <= 1e-10 * max(1.0, abs(want))

    def test_split_groups_cases_by_size(self, restricted_problem):
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        d = np.random.default_rng(2).uniform(-1, 1, size=p.layout.size)
        per_case = grams.matrices(d)
        seen = []
        for members, stack in grams.split(grams.flat(d)):
            for c, Q in zip(members, stack):
                assert np.array_equal(Q, per_case[c])
                seen.append(int(c))
        assert sorted(seen) == list(range(len(p.specs)))

    @staticmethod
    def _check_penalty_gradient(grams, d, margin, coords):
        val, grad, lams = penalty(grams, d, margin)
        assert val > 0.0
        assert len(lams) == len(grams.sizes)
        eps = 1e-6
        for i in coords:
            dp, dm = d.copy(), d.copy()
            dp[i] += eps
            dm[i] -= eps
            fd = (penalty(grams, dp, margin)[0] - penalty(grams, dm, margin)[0]) / (2 * eps)
            assert abs(grad[i] - fd) <= 1e-4 * max(1.0, abs(fd)), i

    def test_penalty_gradient_finite_difference(self, braking_problem):
        p = braking_problem
        grams = GramStack(p.specs, p.layout)
        d = np.random.default_rng(3).uniform(-1, 1, size=p.layout.size)
        self._check_penalty_gradient(grams, d, 0.1, range(len(d)))

    def test_penalty_gradient_finite_difference_restricted(self, restricted_problem):
        # width-3 terms (k * multiplier products) across eight 10x10 cases
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        assert grams.factors.shape[1] == 3 and len(grams.sizes) == 8
        rng = np.random.default_rng(4)
        d = rng.uniform(-1, 1, size=p.layout.size)
        d[p.layout.theta_idx] = 0.0125
        coords = np.concatenate([p.layout.theta_idx,
                                 rng.choice(p.layout.size, size=40, replace=False)])
        self._check_penalty_gradient(grams, d, 0.1, coords)

    def test_penalty_zero_when_clear(self, braking_problem, braking_certificate):
        p = braking_problem
        grams = GramStack(p.specs, p.layout)
        val, grad, lams = penalty(grams, braking_certificate.decision, margin=-1.0)
        # every eigenvalue clears a margin of -1, so the hinge is inactive
        assert val == 0.0
        assert np.allclose(grad, 0.0)
        assert np.all(lams >= -1e-6)


class TestSolverAndCheckerEigensolvers:
    """The solver runs LAPACK; the checker runs the in-repo Jacobi."""

    @staticmethod
    def _assert_agree(amap, v):
        for (w, _), (_, mats) in zip(amap._eig(v), amap.grams.split(v)):
            wj, _ = jacobi_eigh_batch(0.5 * (mats + mats.transpose(0, 2, 1)))
            scale = np.abs(mats).max(axis=(1, 2))[:, None]
            assert np.all(np.abs(w - wj) <= 1e-12 * scale)

    def test_agree_at_random_decision(self, restricted_problem):
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        d = np.random.default_rng(6).uniform(-1, 1, size=p.layout.size)
        d[p.layout.theta_idx] = 0.0125
        amap = AffineGramMap(grams, p.layout, d[p.layout.theta_idx])
        self._assert_agree(amap, grams.flat(d))
        lams = penalty(grams, d, 0.0)[2]
        jac = [jacobi_eigh(Q)[0][0] for Q in grams.matrices(d)]
        assert np.allclose(lams, jac, rtol=0.0, atol=1e-12 * np.abs(grams.flat(d)).max())

    def test_agree_at_dr_iterate(self, restricted_problem):
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout, np.array([0.0125]))
        rng = np.random.default_rng(7)
        y, _, _ = amap.refine(rng.uniform(-1, 1, size=len(amap.free_idx)),
                              iterations=60, tolerance=1e-12)
        self._assert_agree(amap, amap.apply(y))


def dense_affine_map(amap):
    """``A`` and ``b`` of ``apply(y) = A y + b``, read back column by column."""
    b = amap.apply(np.zeros(len(amap.free_idx)))
    return np.stack([amap.apply(e) - b for e in np.eye(len(amap.free_idx))], axis=1), b


class TestAffineGramMap:
    def test_affine_map_matches_matrices(self, request):
        rng = np.random.default_rng(5)
        for instance, (lo, hi) in [("braking_problem", (0.5, 2.0)),
                                   ("unicycle_problem", (0.01, 0.02)),
                                   ("restricted_problem", (0.011, 0.0138))]:
            p = request.getfixturevalue(instance)
            grams = GramStack(p.specs, p.layout)
            theta = rng.uniform(lo, hi, size=len(p.layout.theta_idx))
            amap = AffineGramMap(grams, p.layout, theta)
            for _ in range(5):
                x = rng.uniform(-1, 1, size=p.layout.size)
                x[p.layout.theta_idx] = theta
                y = x[amap.free_idx]
                stacked, flat = amap.apply(y), grams.flat(x)
                assert np.allclose(stacked[:amap.rows_gram], flat, rtol=0.0,
                                   atol=1e-12 * max(1.0, np.abs(flat).max())), instance
                assert np.array_equal(stacked[amap.rows_gram:], y[amap.gamma_pos]), instance

    @pytest.mark.parametrize("instance", ["restricted_problem", "unicycle_problem",
                                          "braking_problem"])
    def test_projection_matches_lstsq(self, instance, request):
        p = request.getfixturevalue(instance)
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout, np.array([0.0125]))
        A, b = dense_affine_map(amap)
        rng = np.random.default_rng(8)
        for _ in range(3):
            v = rng.normal(size=len(b))
            want = np.linalg.lstsq(A, v - b, rcond=None)[0]
            assert np.allclose(amap.project(v), want, rtol=0.0,
                               atol=1e-12 * max(1.0, np.abs(want).max()))

    def test_shared_multiplier_rejected(self):
        k = VarId(0, "k", VarKind.DECISION)
        a, b = VarId(1, "a", VarKind.DECISION), VarId(2, "b", VarKind.DECISION)
        # two 1x1 cases, a and a + b: the multiplier a enters both
        specs = [GramSpec(basis=[()], entries=[[entry]], p0=Polynomial.zero())
                 for entry in (Polynomial({((a, 1),): 1.0}),
                               Polynomial({((a, 1),): 1.0, ((b, 1),): 1.0}))]
        layout = DecisionLayout(variables=[k, a, b], theta_idx=np.array([0]),
                                gamma_idx=np.array([], dtype=int),
                                zeta_idx=np.array([1, 2]), kernel_idx=np.array([], dtype=int))
        with pytest.raises(ValueError, match="a enters the Gram matrices of more than one"):
            AffineGramMap(GramStack(specs, layout), layout, np.array([1.0]))

    def test_dependent_columns_rejected(self):
        k = VarId(0, "k", VarKind.DECISION)
        a, b = VarId(1, "a", VarKind.DECISION), VarId(2, "b", VarKind.DECISION)
        # one 1x1 Gram entry a + b: the two multiplier columns coincide
        spec = GramSpec(basis=[()], entries=[[Polynomial({((a, 1),): 1.0, ((b, 1),): 1.0})]],
                        p0=Polynomial.zero())
        layout = DecisionLayout(variables=[k, a, b], theta_idx=np.array([0]),
                                gamma_idx=np.array([], dtype=int),
                                zeta_idx=np.array([1, 2]), kernel_idx=np.array([], dtype=int))
        with pytest.raises(ValueError, match="linearly dependent"):
            AffineGramMap(GramStack([spec], layout), layout, np.array([1.0]))

    def test_unused_multiplier_rejected(self):
        k = VarId(0, "k", VarKind.DECISION)
        a, b = VarId(1, "a", VarKind.DECISION), VarId(2, "b", VarKind.DECISION)
        # b has a column of its own but enters no Gram entry, so no case owns it
        spec = GramSpec(basis=[()], entries=[[Polynomial({((a, 1),): 1.0})]],
                        p0=Polynomial.zero())
        layout = DecisionLayout(variables=[k, a, b], theta_idx=np.array([0]),
                                gamma_idx=np.array([2]), zeta_idx=np.array([1]),
                                kernel_idx=np.array([], dtype=int))
        with pytest.raises(ValueError, match="b enters no Gram matrix"):
            AffineGramMap(GramStack([spec], layout), layout, np.array([1.0]))

    def test_candidate_clips_sign_constraints(self, braking_problem):
        p = braking_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout, np.array([1.5]))
        y = -np.ones(len(amap.free_idx))
        y_clipped, lam = amap.candidate(y)
        assert np.all(y_clipped[amap.gamma_pos] >= 0.0)
        assert np.isfinite(lam)

    def test_refine_certifies_feasible_instance(self, braking_problem):
        p = braking_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout, np.array([2.0]))
        rng = np.random.default_rng(9)
        y, lam, record = amap.refine(rng.uniform(-1, 1, size=len(amap.free_idx)),
                                     iterations=2000, tolerance=1e-8)
        assert lam >= -1e-8
        assert np.all(y[amap.gamma_pos] >= 0.0)
        assert record["stop"] == "tolerance" and record["lambda_min"] == lam
        assert 0 <= record["dr_iters"] < 2000


class TestSolve:
    def test_braking_instance_certifies(self, braking_problem, braking_certificate):
        p, cert = braking_problem, braking_certificate
        assert cert.valid
        k = cert.theta(p.layout)
        # the instance is feasible exactly for k > 1 + eta = 1.1
        assert k[0] > 1.1
        assert np.all(cert.lambda_mins >= -p.solver_config.tolerance)
        ok, diagnostics = check_certificate(p.specs, p.layout, cert)
        assert ok, diagnostics

    def test_deterministic(self, braking_problem):
        p = braking_problem
        a = solve(p.specs, p.layout, p.solver_config)
        b = solve(p.specs, p.layout, p.solver_config)
        assert np.array_equal(a.decision, b.decision)
        assert np.array_equal(a.lambda_mins, b.lambda_mins)
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_search(self, braking_problem):
        p = braking_problem
        a = solve(p.specs, p.layout, p.solver_config)
        b = solve(p.specs, p.layout, replace(p.solver_config, seed=1))
        assert not np.array_equal(a.decision, b.decision)

    def test_failure_carries_best_attempt(self, unicycle_problem):
        p = unicycle_problem
        cfg = replace(p.solver_config, restarts=1, iterations=200, rounds=1)
        with pytest.raises(SolverFailure) as exc_info:
            solve(p.specs, p.layout, cfg)
        failure = exc_info.value
        assert failure.residual > 0.0
        assert not failure.certificate.valid
        assert len(failure.certificate.restarts) == 1

    def test_braking_rounds_stop_on_tolerance(self, braking_certificate):
        for r in braking_certificate.restarts:
            rounds = r["rounds"]
            assert rounds and all(x["stop"] in ("tolerance", "patience", "budget")
                                  for x in rounds)
            if r["valid"]:
                assert rounds[-1]["stop"] == "tolerance"
        assert any(r["valid"] for r in braking_certificate.restarts)

    def test_short_budget_stops_on_budget(self, restricted_problem):
        p = restricted_problem
        # 500 DR iterations: below the 500-iteration patience window, and too
        # few for solver seed 1 to certify in round 0
        cfg = replace(p.solver_config, restarts=1, rounds=1, iterations=500, seed=1)
        with pytest.raises(SolverFailure) as exc_info:
            solve(p.specs, p.layout, cfg)
        [restart] = exc_info.value.certificate.restarts
        [record] = restart["rounds"]
        assert record["dr_iters"] == 500 and record["stop"] == "budget"
        assert record["lambda_min"] < -cfg.tolerance

    def test_restart_logs_independent_of_blas_threads(self):
        # solver seed 0, 2 restarts: one DR-only restart, one with a penalty round
        script = ("import json; from dataclasses import replace; "
                  "from importlib import resources; "
                  "from sisynth.config import RunConfig, build_problem; "
                  "from sisynth.feasibility import solve; "
                  "p = build_problem(RunConfig.load(str(resources.files('sisynth') / "
                  "'configs' / 'unicycle_restricted.json'))); "
                  "cert = solve(p.specs, p.layout, replace(p.solver_config, restarts=2)); "
                  "print(json.dumps(cert.restarts))")
        src = str(Path(sisynth.__file__).resolve().parents[1])
        procs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            procs.append(subprocess.Popen([sys.executable, "-c", script], env=env,
                                          stdout=subprocess.PIPE, text=True))
        logs = [json.loads(proc.communicate(timeout=300)[0]) for proc in procs]
        assert all(proc.returncode == 0 for proc in procs)
        assert any(len(r["rounds"]) > 1 for r in logs[0])
        assert logs[0] == logs[1]

    def test_empty_specs_rejected(self, braking_problem):
        with pytest.raises(ValueError):
            solve([], braking_problem.layout, braking_problem.solver_config)


class TestCertificate:
    def test_round_trip(self, braking_problem, braking_certificate):
        p, cert = braking_problem, braking_certificate
        loaded = Certificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        assert loaded.valid
        assert np.allclose(loaded.decision, cert.decision)
        assert np.allclose(loaded.lambda_mins, cert.lambda_mins)
        ok, _ = check_certificate(p.specs, p.layout, loaded)
        assert ok

    def test_tampered_certificate_fails_check(self, braking_problem, braking_certificate):
        p, cert = braking_problem, braking_certificate
        tampered = Certificate.from_dict(cert.to_dict())
        tampered.decision = tampered.decision.copy()
        tampered.decision[p.layout.theta_idx[0]] = 0.01   # inside the infeasible band
        ok, diagnostics = check_certificate(p.specs, p.layout, tampered)
        assert not ok
        assert any("lambda_min" in line for line in diagnostics)

    def test_negative_multiplier_flagged(self, braking_problem, braking_certificate):
        p, cert = braking_problem, braking_certificate
        tampered = Certificate.from_dict(cert.to_dict())
        tampered.decision = tampered.decision.copy()
        tampered.decision[p.layout.gamma_idx[0]] = -1.0
        ok, diagnostics = check_certificate(p.specs, p.layout, tampered)
        assert not ok
        assert any("negative" in line for line in diagnostics)

    def test_eval_grams_matches_certificate_matrices(self, braking_problem, braking_certificate):
        p, cert = braking_problem, braking_certificate
        grams = GramStack(p.specs, p.layout)
        for recorded, recomputed in zip(cert.matrices, grams.matrices(cert.decision)):
            assert np.allclose(recorded, recomputed, atol=1e-12)


class TestDecisionLayout:
    def test_bounds(self, braking_problem):
        layout = braking_problem.layout
        bounds = layout.bounds(k_min=1e-4)
        for i in layout.theta_idx:
            assert bounds[i] == (1e-4, None)
        for i in layout.gamma_idx:
            assert bounds[i] == (0.0, None)
        for i in layout.zeta_idx:
            assert bounds[i] == (None, None)

    def test_variable_partition(self, restricted_problem):
        layout = restricted_problem.layout
        parts = np.concatenate([layout.theta_idx, layout.gamma_idx,
                                layout.zeta_idx, layout.kernel_idx])
        assert sorted(parts.tolist()) == list(range(layout.size))
