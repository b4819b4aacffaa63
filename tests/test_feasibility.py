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
    _mono_repr,
    check_certificate,
    jacobi_eigh,
    jacobi_eigh_batch,
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
        self._assert_agree(amap, amap.evaluate(y))


def dense_affine_map(amap):
    """``A`` and ``b`` of the face map ``apply(w) = A w + b``, read back column
    by column."""
    b = amap.apply(np.zeros(amap.face_dim))
    return np.stack([amap.apply(e) - b for e in np.eye(amap.face_dim)], axis=1), b


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
                stacked, flat = amap.evaluate(y), grams.flat(x)
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
        y_clipped, lams = amap.candidate(y)
        assert np.all(y_clipped[amap.gamma_pos] >= 0.0)
        assert np.all(np.isfinite(lams))

    def test_refine_certifies_feasible_instance(self, braking_problem):
        p = braking_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout, np.array([2.0]))
        rng = np.random.default_rng(9)
        y, lams, record = amap.refine(rng.uniform(-1, 1, size=len(amap.free_idx)),
                                      iterations=2000, tolerance=1e-8)
        lam = lams.min()
        assert lam >= -1e-8
        assert np.all(y[amap.gamma_pos] >= 0.0)
        assert record["stop"] == "tolerance" and record["lambda_min"] == lam
        assert 0 <= record["dr_iters"] < 2000


class TestZeroFace:
    """DR runs on the face where the zero-diagonal Gram rows vanish; the
    full matrices still judge validity."""

    K_CERTIFIABLE = 0.012783492724500072   # solver seed 0's sampled k

    def test_pruned_rows(self, restricted_problem, unicycle_problem):
        for spec, pruned in zip(restricted_problem.specs,
                                GramStack(restricted_problem.specs,
                                          restricted_problem.layout).pruned):
            assert sorted(_mono_repr(spec.basis[i]) for i in pruned) == \
                ["x*y", "x^2", "y^2", "z^2"]
        p = unicycle_problem
        grams = GramStack(p.specs, p.layout)
        assert all(len(pruned) == 0 for pruned in grams.pruned)
        # nothing pruned: the face is the whole space, y = 0 + I w
        amap = AffineGramMap(grams, p.layout, np.array([0.0125]))
        for blk in amap._blocks:
            assert np.array_equal(blk.N, np.broadcast_to(np.eye(blk.N.shape[1]), blk.N.shape))
            assert np.array_equal(blk.yp, np.zeros_like(blk.yp))
            assert np.array_equal(blk.Af, blk.A) and np.array_equal(blk.bf, blk.b)

    def test_restricted_face_dimension(self, restricted_problem):
        p = restricted_problem
        amap = AffineGramMap(GramStack(p.specs, p.layout), p.layout,
                             np.array([self.K_CERTIFIABLE]))
        # 56 free columns per case, 22 independent face equalities
        assert [(blk.A.shape, blk.Af.shape, blk.k) for blk in amap._blocks] == \
            [((8, 136, 56), (8, 72, 34), 6)]

    @pytest.fixture(scope="class")
    def refined(self, restricted_problem):
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout, np.array([self.K_CERTIFIABLE]))
        rng = np.random.default_rng(10)
        y, lams, record = amap.refine(rng.uniform(-1, 1, size=len(amap.free_idx)),
                                      iterations=3000, tolerance=1e-6)
        return p, grams, amap, y, lams.min(), record

    @staticmethod
    def matrices(grams, amap, y):
        """Every case's full Gram matrix at free decision ``y``."""
        x = np.empty(grams.nvars)
        x[amap.free_idx] = y
        x[np.setdiff1d(np.arange(grams.nvars), amap.free_idx)] = amap.theta
        return grams.matrices(x)

    def pruned_entries(self, grams, amap, y):
        """Every pruned row and column of every case's full Gram matrix."""
        return np.concatenate([np.concatenate([Q[pruned].ravel(), Q[:, pruned].ravel()])
                               for Q, pruned in zip(self.matrices(grams, amap, y),
                                                    grams.pruned)])

    def test_lift_lies_on_face(self, refined):
        _, grams, amap, *_ = refined
        rng = np.random.default_rng(12)
        for _ in range(5):
            y = amap.lift(rng.uniform(-1, 1, size=amap.face_dim))
            assert np.abs(self.pruned_entries(grams, amap, y)).max() <= 1e-12

    def test_refine_output_lies_on_face(self, refined):
        _, grams, amap, y, lam, record = refined
        assert record["stop"] == "tolerance" and lam >= -1e-6
        # candidate clips negative gammas of the lifted face point to zero,
        # so the pruned entries vanish once some clipped-to-zero gammas take
        # their lifted values back: the residual lies in the span of those
        # columns
        residual = self.pruned_entries(grams, amap, y)
        zero = amap.gamma_pos[y[amap.gamma_pos] == 0.0]
        cols = np.stack([self.pruned_entries(grams, amap, y + np.eye(len(y))[j]) - residual
                         for j in zero], axis=1)
        shift = np.linalg.lstsq(cols, -residual, rcond=None)[0]
        assert np.abs(residual + cols @ shift).max() <= 1e-12
        assert np.abs(shift).max() <= 1e-6
        mats = self.matrices(grams, amap, y)
        assert jacobi_eigh_batch(np.stack(mats))[0][:, 0].min() >= -1e-6
        kept = [np.delete(np.delete(Q, pruned, 0), pruned, 1)
                for Q, pruned in zip(mats, grams.pruned)]
        assert np.isclose(record["reduced_lambda_min"],
                          min(np.linalg.eigvalsh(K)[0] for K in kept), rtol=0.0, atol=1e-12)

    def test_off_face_entry_fails_full_check(self, refined):
        _, _, amap, y, _, _ = refined
        # move a free column that feeds pruned entries of the block's first
        # case but no kept entry: the kept 6x6 blocks do not change, the
        # full Gram matrix leaves the face and fails
        blk = amap._blocks[0]
        face = np.setdiff1d(np.arange(len(blk.R[0])), blk.kept)
        feeds_face = np.abs(blk.A[0, face]).max(axis=0) > 0.0
        feeds_kept = np.abs(blk.A[0, blk.kept]).max(axis=0) > 0.0
        moved = y.copy()
        moved[blk.C[0, np.flatnonzero(feeds_face & ~feeds_kept)[0]]] += 1.0
        assert amap.reduced_lambda_min(moved) == amap.reduced_lambda_min(y)
        assert amap.candidate(moved)[1].min() < -1e-6

    def test_unrestricted_reduced_equals_full(self, unicycle_problem):
        p = unicycle_problem
        amap = AffineGramMap(GramStack(p.specs, p.layout), p.layout, np.array([0.0125]))
        rng = np.random.default_rng(11)
        _, lams, record = amap.refine(rng.uniform(-1, 1, size=len(amap.free_idx)),
                                      iterations=50, tolerance=1e-6)
        assert record["reduced_lambda_min"] == lams.min()


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
        cert = failure.certificate
        assert failure.residual == float(np.sum(np.maximum(0.0, -cert.lambda_mins
                                                           - cert.tolerance) ** 2))

    @staticmethod
    def rank(restart):
        return restart["valid"], restart["rounds"][-1]["reduced_lambda_min"]

    def test_returns_best_valid_reduced_margin(self, restricted_problem, restricted_certificate):
        cert = restricted_certificate
        k = cert.theta(restricted_problem.layout).tolist()
        [chosen] = [r for r in cert.restarts
                    if r["k"] == k and r["lambda_mins"] == cert.lambda_mins.tolist()]
        assert all(self.rank(r) <= self.rank(chosen) for r in cert.restarts)
        assert all(self.rank(r) < self.rank(chosen) for r in cert.restarts[:chosen["restart"]])
        assert all("residual" not in r for r in cert.restarts)

    def test_unrestricted_tie_goes_to_restart_zero(self, unicycle_problem):
        # every restart ends its last round at the same lambda_min -0.66667
        p = unicycle_problem
        with pytest.raises(SolverFailure) as exc_info:
            solve(p.specs, p.layout, replace(p.solver_config, restarts=3))
        cert = exc_info.value.certificate
        assert len({self.rank(r) for r in cert.restarts}) == 1
        assert cert.theta(p.layout).tolist() == cert.restarts[0]["k"]
        assert cert.lambda_mins.tolist() == cert.restarts[0]["lambda_mins"]

    @pytest.mark.parametrize("instance, overrides", [
        ("braking_problem", {}),
        ("restricted_problem", {"restarts": 1, "seed": 1}),
        # a budget-bound first round, then an L-BFGS round
        ("unicycle_problem", {"restarts": 2, "rounds": 2, "iterations": 1000})])
    def test_logged_lambda_mins_match_full_grams(self, instance, overrides, request,
                                                 monkeypatch):
        p = request.getfixturevalue(instance)
        outputs = []
        refine = AffineGramMap.refine

        def recording(amap, *args, **kwargs):
            y, lams, record = refine(amap, *args, **kwargs)
            x = np.empty(p.layout.size)
            x[p.layout.theta_idx] = amap.theta
            x[amap.free_idx] = y
            outputs.append(x)
            return y, lams, record

        monkeypatch.setattr(AffineGramMap, "refine", recording)
        try:
            cert = solve(p.specs, p.layout, replace(p.solver_config, **overrides))
        except SolverFailure as exc:
            cert = exc.certificate
        grams = GramStack(p.specs, p.layout)
        assert len(outputs) == sum(len(r["rounds"]) for r in cert.restarts)
        for r in cert.restarts:
            x = outputs[len(r["rounds"]) - 1]
            del outputs[:len(r["rounds"])]
            assert x[p.layout.theta_idx].tolist() == r["k"]
            for lam, Q in zip(r["lambda_mins"], grams.matrices(x), strict=True):
                assert abs(lam - jacobi_eigh_batch(Q[None])[0][0, 0]) <= 1e-12 * np.abs(Q).max()

    def test_braking_rounds_stop_on_tolerance(self, braking_certificate):
        for r in braking_certificate.restarts:
            rounds = r["rounds"]
            assert rounds and all(x["stop"] in ("tolerance", "budget")
                                  for x in rounds)
            if r["valid"]:
                assert rounds[-1]["stop"] == "tolerance"
        assert any(r["valid"] for r in braking_certificate.restarts)

    def test_short_budget_stops_on_budget(self, restricted_problem):
        p = restricted_problem
        # k in [0.02, 0.021], above the certifiable band: 500 DR iterations
        # end on the budget
        cfg = replace(p.solver_config, restarts=1, rounds=1, iterations=500, seed=1,
                      k_init=(0.02, 0.021))
        with pytest.raises(SolverFailure) as exc_info:
            solve(p.specs, p.layout, cfg)
        [restart] = exc_info.value.certificate.restarts
        [record] = restart["rounds"]
        assert record["dr_iters"] == 500 and record["stop"] == "budget"
        assert record["lambda_min"] < -cfg.tolerance

    def test_certifiable_restart_certifies_in_round_zero(self, restricted_problem):
        # solver seed 1's sampled k certifies in DR round 0 after about 280
        # of its 6000 iterations; DR must not stop early and hand the restart
        # to a penalty round
        p = restricted_problem
        cert = solve(p.specs, p.layout, replace(p.solver_config, restarts=1, seed=1))
        [restart] = cert.restarts
        [record] = restart["rounds"]
        assert record["stop"] == "tolerance"

    def test_restart_logs_independent_of_blas_threads(self):
        # solver seed 1, 1 restart, 500 DR iterations per round, k in
        # [0.02, 0.021] above the certifiable band: round 0 spends its budget,
        # so the restart runs a penalty round
        script = ("import json; from dataclasses import replace; "
                  "from importlib import resources; "
                  "from sisynth.config import RunConfig, build_problem; "
                  "from sisynth.feasibility import SolverFailure, solve; "
                  "p = build_problem(RunConfig.load(str(resources.files('sisynth') / "
                  "'configs' / 'unicycle_restricted.json'))); "
                  "cfg = replace(p.solver_config, restarts=1, seed=1, iterations=1000, "
                  "k_init=(0.02, 0.021))\n"
                  "try:\n    cert = solve(p.specs, p.layout, cfg)\n"
                  "except SolverFailure as exc:\n    cert = exc.certificate\n"
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
