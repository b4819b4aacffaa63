import hashlib
import json
import warnings
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from sisynth.config import RunConfig, build_problem
from sisynth import feasibility
from sisynth.feasibility import (
    DR_CHECK_EVERY,
    DR_RELAXATION,
    GRID_ITERATIONS,
    GRID_POINTS,
    JACOBI_TOL,
    MAX_SWEEPS,
    AffineGramMap,
    Certificate,
    DecisionLayout,
    TOLERANCE,
    GramStack,
    SolverConfig,
    SolverFailure,
    _Block,
    _face_solutions,
    _lower_inverse,
    _mono_repr,
    _round_robin_rounds,
    _sym,
    check_certificate,
    jacobi_eigh_batch,
    mirror_signs,
    penalty,
    solve,
)
from sisynth.poly import Polynomial, VarId, VarKind
from sisynth.refute import GramSpec

from conftest import braking_config_dict, fresh_python, triple_integrator_config_dict


def representatives(p):
    """The cases of ``p`` that are no mirror partner, ascending."""
    return [c for c in range(len(p.specs)) if c not in p.layout.mirror.partners]


def random_symmetric(rng, n):
    M = rng.normal(size=(n, n))
    return 0.5 * (M + M.T)


def jacobi_reference(mats):
    """An oracle for :func:`jacobi_eigh_batch`: the same round-robin Jacobi
    sweeps, with each round's rotations applied elementwise to the rotated
    columns, then rows, of ``A`` and the columns of ``V``."""
    A = np.array(mats, dtype=float)
    nb, n, _ = A.shape
    V = np.broadcast_to(np.eye(n), A.shape).copy()
    if n == 1:
        return A[:, :, 0], V
    scale = np.maximum(np.max(np.abs(A), axis=(1, 2)), 1e-300)
    rounds = _round_robin_rounds(n)
    tril = np.tril_indices(n, -1)
    for _ in range(MAX_SWEEPS):
        off = np.sqrt(np.sum(A[:, tril[0], tril[1]] ** 2, axis=1))
        if np.all(off <= JACOBI_TOL * scale):
            break
        for ps, qs in rounds:
            apq = A[:, ps, qs]
            active = np.abs(apq) > 1e-300
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                theta = (A[:, qs, qs] - A[:, ps, ps]) / np.where(active, 2.0 * apq, 1.0)
                t = np.where(theta == 0.0, 1.0,
                             np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)))
            t = np.where(active, t, 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            cb, sb = c[:, None, :], s[:, None, :]
            Ap, Aq = A[:, :, ps], A[:, :, qs]
            A[:, :, ps] = cb * Ap - sb * Aq
            A[:, :, qs] = sb * Ap + cb * Aq
            cb, sb = c[:, :, None], s[:, :, None]
            Ap, Aq = A[:, ps, :], A[:, qs, :]
            A[:, ps, :] = cb * Ap - sb * Aq
            A[:, qs, :] = sb * Ap + cb * Aq
            A[:, ps, qs] = np.where(active, 0.0, A[:, ps, qs])
            A[:, qs, ps] = np.where(active, 0.0, A[:, qs, ps])
            cb, sb = c[:, None, :], s[:, None, :]
            Vp, Vq = V[:, :, ps], V[:, :, qs]
            V[:, :, ps] = cb * Vp - sb * Vq
            V[:, :, qs] = sb * Vp + cb * Vq
    w = np.diagonal(A, axis1=1, axis2=2).copy()
    order = np.argsort(w, axis=1, kind="stable")
    return (np.take_along_axis(w, order, axis=1),
            np.take_along_axis(V, order[:, None, :], axis=2))


class TestJacobiEigensolver:
    def test_analytic_2x2(self):
        # [[a, b], [b, c]] has eigenvalues (a+c)/2 -/+ sqrt(((a-c)/2)^2 + b^2)
        a, b, c = 2.0, 1.5, -1.0
        (w,), (V,) = jacobi_eigh_batch(np.array([[[a, b], [b, c]]]))
        mid, rad = (a + c) / 2.0, np.hypot((a - c) / 2.0, b)
        assert np.allclose(w, [mid - rad, mid + rad], atol=1e-12)
        assert np.allclose(V @ np.diag(w) @ V.T, [[a, b], [b, c]], atol=1e-12)

    def test_diagonal_passthrough(self):
        (w,), (V,) = jacobi_eigh_batch(np.diag([3.0, -1.0, 2.0])[None])
        assert np.allclose(w, [-1.0, 2.0, 3.0])
        assert np.allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_reconstruction_and_reference(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            M = random_symmetric(rng, n)
            (w,), (V,) = jacobi_eigh_batch(M[None])
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
            (w,), _ = jacobi_eigh_batch(mats[i][None])
            assert np.allclose(wb[i], w, atol=1e-10)
            assert np.allclose(Vb[i] @ np.diag(wb[i]) @ Vb[i].T, mats[i], atol=1e-10)

    @staticmethod
    def reference_stacks(restricted_problem, braking_problem, braking_certificate):
        """(name, stack) pairs: certificate Gram stacks of the shipped
        instances, random matrices of every size up to 12 and edge cases."""
        stacks = []
        for seed in (0, 1):
            p = restricted_problem
            cert = solve(p.specs, p.layout, replace(p.solver_config, seed=seed, restarts=1))
            grams = GramStack(p.specs, p.layout)
            stacks += [(f"restricted seed {seed}", mats)
                       for _, mats in grams.split(grams.flat(cert.decision))]
        grams = GramStack(braking_problem.specs, braking_problem.layout)
        stacks += [("braking", mats)
                   for _, mats in grams.split(grams.flat(braking_certificate.decision))]
        p = build_problem(RunConfig.from_dict(triple_integrator_config_dict()))
        grams = GramStack(p.specs, p.layout)
        d = np.random.default_rng(9).uniform(-1.0, 1.0, size=p.layout.size)
        d[p.layout.theta_idx] = 2.0
        stacks += [("triple integrator", mats) for _, mats in grams.split(grams.flat(d))]
        rng = np.random.default_rng(21)
        stacks += [(f"random n={n}", np.stack([random_symmetric(rng, n) for _ in range(5)]))
                   for n in range(1, 13)]
        pruned = random_symmetric(rng, 7)
        pruned[3, :] = pruned[:, 3] = 0.0   # a pruned basis monomial's row
        stacks += [("zero", np.zeros((2, 6, 6))),
                   ("diagonal", np.diag([3.0, -1.0, 0.0, 2.0])[None]),
                   ("zero row", pruned[None])]
        return stacks

    def test_matches_elementwise_reference(self, restricted_problem, braking_problem,
                                           braking_certificate):
        # the matmul rounds sum in another order than the elementwise ones,
        # so eigenvalues agree to rounding, not bit for bit
        for name, mats in self.reference_stacks(restricted_problem, braking_problem,
                                                braking_certificate):
            w, V = jacobi_eigh_batch(mats)
            w_ref, _ = jacobi_reference(mats)
            scale = np.abs(mats).max(axis=(1, 2))
            assert np.all(np.abs(w - w_ref) <= 1e-12 * scale[:, None]), name
            for M, wi, Vi in zip(mats, w, V):
                rel = np.linalg.norm(Vi @ np.diag(wi) @ Vi.T - M) / max(np.linalg.norm(M), 1e-30)
                assert rel <= 1e-8, name

    def test_overflow_reads_nan_in_both_kernels(self, braking_problem, braking_certificate):
        p, cert = braking_problem, braking_certificate
        d = cert.decision.copy()
        d[cert.variable_names.index("pg_p_1")] = 1e308
        grams = GramStack(p.specs, p.layout)
        with np.errstate(over="ignore", invalid="ignore"):
            [(members, mats)] = [(m, q) for m, q in grams.split(grams.flat(d)) if 0 in m]
            w, _ = jacobi_eigh_batch(mats)
            w_ref, _ = jacobi_reference(mats)
        row = list(members).index(0)
        assert np.all(np.isnan(w[row])) and np.all(np.isnan(w_ref[row]))

    def test_overflowing_angle_still_rotates(self):
        # 2·a_pq overflows, so theta reads 0; the rotation must be the 45° one,
        # since a zero rotation would zero a_pq and leave a PSD diagonal
        mats = np.array([[[1.0, 1e308], [1e308, 1.0]]])
        with np.errstate(over="ignore"):   # the reference's off-diagonal norm
            results = (jacobi_eigh_batch(mats), jacobi_reference(mats))
        for w, _ in results:
            assert w[0] == pytest.approx([-1e308, 1e308])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_eigh_batch(np.zeros((1, 2, 3)))
        with pytest.raises(ValueError):
            jacobi_eigh_batch(np.zeros((2, 2)))


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
    def _assert_agree(amap, y):
        y, lams = amap.candidate(y)
        for blk in amap._blocks:
            mats = blk.matrices(y)
            w, _ = np.linalg.eigh(_sym(mats))
            wj, _ = jacobi_eigh_batch(_sym(mats))
            scale = np.abs(mats).max(axis=(1, 2))[:, None]
            assert np.all(np.abs(w - wj) <= 1e-12 * scale)
            # the candidate checks read eigvalsh's minimum eigenvalue
            assert np.all(np.abs(lams[blk.cases] - wj[:, 0]) <= 1e-12 * scale[:, 0])

    def test_agree_at_random_decision(self, restricted_problem):
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        d = np.random.default_rng(6).uniform(-1, 1, size=p.layout.size)
        d[p.layout.theta_idx] = 0.0125
        amap = AffineGramMap(grams, p.layout).at(d[p.layout.theta_idx])
        self._assert_agree(amap, d[amap.free_idx])
        lams = penalty(grams, d, 0.0)[2]
        jac = [jacobi_eigh_batch(Q[None])[0][0, 0] for Q in grams.matrices(d)]
        assert np.allclose(lams, jac, rtol=0.0, atol=1e-12 * np.abs(grams.flat(d)).max())

    def test_agree_at_dr_iterate(self, restricted_problem):
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout).at(np.array([0.0125]))
        rng = np.random.default_rng(7)
        y, _, _ = amap.refine(rng.uniform(-1, 1, size=len(amap.free_idx)),
                              iterations=60, tolerance=1e-12)
        self._assert_agree(amap, y)


def packed_refine_reference(amap, y, iterations):
    """An oracle for :meth:`AffineGramMap.refine` at a tolerance of -inf:
    the DR loop on one face-packed vector, every block's kept rows end to
    end, with the candidates judged by ``eigh``.  Returns ``(decision,
    lambda_mins)`` of every candidate check, the starting ``y`` first."""
    blocks = amap._blocks
    rows = np.cumsum([0] + [blk.Af.shape[0] * blk.Af.shape[1] for blk in blocks])
    cols = np.cumsum([0] + [blk.Af.shape[0] * blk.Af.shape[2] for blk in blocks])
    vs = [slice(a, b) for a, b in zip(rows, rows[1:])]
    ws = [slice(a, b) for a, b in zip(cols, cols[1:])]

    def apply(w):
        out = np.empty(rows[-1])
        for blk, v, wb in zip(blocks, vs, ws):
            out[v] = (np.matmul(blk.Af, w[wb].reshape(len(blk.C), -1, 1))[..., 0]
                      + blk.bf[..., 0]).ravel()
        return out

    def project(v):
        w = np.empty(cols[-1])
        for blk, vb, wb in zip(blocks, vs, ws):
            vv = v[vb].reshape(len(blk.C), -1)
            w[wb] = np.matmul(blk.P, (vv - blk.bf[..., 0])[..., None]).ravel()
        return w

    def lift(w):
        out = np.zeros(len(amap.free_idx))
        for blk, wb in zip(blocks, ws):
            out[blk.C] = blk.yp + np.matmul(blk.N, w[wb].reshape(len(blk.C), -1, 1))[..., 0]
        return out

    def restrict(y):
        w = np.empty(cols[-1])
        for blk, wb in zip(blocks, ws):
            w[wb] = np.matmul(blk.N.transpose(0, 2, 1), (y[blk.C] - blk.yp)[..., None]).ravel()
        return w

    def cone(z):
        out = np.empty_like(z)
        for blk, v in zip(blocks, vs):
            kk = blk.k * blk.k
            zb, xb = z[v].reshape(len(blk.C), -1), out[v].reshape(len(blk.C), -1)
            w, V = np.linalg.eigh(_sym(zb[:, :kk].reshape(-1, blk.k, blk.k)))
            xb[:, :kk] = np.einsum("bij,bj,bkj->bik", V, np.maximum(w, 0.0), V).reshape(-1, kk)
            xb[:, kk:] = np.maximum(zb[:, kk:], 0.0)
        return out

    def candidate(y):
        y = y.copy()
        y[amap.gamma_pos] = np.maximum(y[amap.gamma_pos], 0.0)
        lams = np.full(amap.ncases, np.inf)
        for blk in blocks:
            lams[blk.cases] = np.linalg.eigh(_sym(blk.matrices(y)))[0][:, 0]
        return y, lams

    checks = [candidate(y)]
    z = apply(restrict(y))
    for it in range(iterations):
        xc = cone(z)
        xl = apply(project(2.0 * xc - z))
        z = z + DR_RELAXATION * (xl - xc)
        if it % DR_CHECK_EVERY == 0 or it == iterations - 1:
            checks.append(candidate(lift(project(xc))))
    return checks


def affine_map_reference(grams, layout, theta, cases):
    """An oracle for :meth:`AffineGramMap.at`: the blocks of the map over
    ``cases`` at ``theta``, built in one pass at ``theta`` that scatters
    ``A`` and ``b`` by separate ``bincount`` calls and sets the sign rows'
    ones by assignment."""
    nv = layout.size
    ncases = len(grams.sizes)
    pinned = np.zeros(nv + 1, dtype=bool)
    pinned[layout.theta_idx] = True
    pinned[nv] = True
    free_idx = np.flatnonzero(~pinned)
    free_pos = np.full(nv + 1, -1, dtype=np.intp)
    free_pos[free_idx] = np.arange(len(free_idx))
    gamma_pos = free_pos[layout.gamma_idx]
    pin = np.zeros(nv + 1)
    pin[nv] = 1.0
    pin[layout.theta_idx] = theta
    free = ~pinned[grams.factors]
    cval = grams.coeffs * np.prod(np.where(free, 1.0, pin[grams.factors]), axis=1)
    col = np.max(np.where(free, free_pos[grams.factors], -1), axis=1)
    case, row = grams.term_case[grams.source], grams.slot_entry
    col, cval = col[grams.source], cval[grams.source]
    nfree, linear = len(free_idx), col >= 0
    owner = np.full(nfree, -1, dtype=np.intp)
    owner[col[linear]] = case[linear]
    gamma_case = owner[gamma_pos]
    shapes = {}
    for c in cases:
        n, cols = grams.sizes[c], np.flatnonzero(owner == c)
        nr = n * n + np.count_nonzero(gamma_case == c)
        shapes.setdefault((n, nr, len(cols), tuple(grams.pruned[c].tolist())),
                          []).append((c, cols))
    case_slot = np.empty(ncases, dtype=np.intp)
    col_slot = np.empty(nfree, dtype=np.intp)
    blocks = []
    for (n, nr, nc, pruned), members in sorted(shapes.items()):
        cs = np.array([c for c, _ in members], dtype=np.intp)
        C = np.array([cols for _, cols in members], dtype=np.intp).reshape(len(cs), nc)
        case_slot[cs] = np.arange(len(cs))
        col_slot[C] = np.arange(nc)
        mine = np.isin(case, cs)
        lin, const = mine & linear, mine & ~linear
        A = np.bincount((case_slot[case[lin]] * nr + row[lin]) * nc + col_slot[col[lin]],
                        weights=cval[lin], minlength=len(cs) * nr * nc).reshape(len(cs), nr, nc)
        sc, j = np.nonzero(np.isin(C, gamma_pos))
        A[sc, n * n + np.tile(np.arange(nr - n * n), len(cs)), j] = 1.0
        b = np.bincount(case_slot[case[const]] * nr + row[const], weights=cval[const],
                        minlength=len(cs) * nr).reshape(len(cs), nr)
        on_face = np.zeros((n, n), dtype=bool)
        on_face[list(pruned)] = True
        on_face[:, list(pruned)] = True
        kept = np.concatenate([np.flatnonzero(~on_face), np.arange(n * n, nr)])
        face = np.flatnonzero(np.triu(on_face))
        face = face[np.any(A[:, face] != 0.0, axis=(0, 2)) | np.any(b[:, face] != 0.0, axis=0)]
        for sel, N, yp in _face_solutions(A[:, face], -b[:, face]):
            Ak = A[sel][:, kept]
            Af = np.matmul(Ak, N)
            Li = _lower_inverse(np.linalg.cholesky(np.matmul(Af.transpose(0, 2, 1), Af)))
            P = np.matmul(Li.transpose(0, 2, 1), np.matmul(Li, Af.transpose(0, 2, 1)))
            bf = b[sel][:, kept, None] + np.matmul(Ak, yp[..., None])
            blocks.append(_Block(cases=cs[sel], C=C[sel], A=A[sel], b=b[sel], n=n, kept=kept,
                                 k=n - len(pruned), N=N, yp=yp, Af=Af, bf=bf, P=P))
    return blocks


class TestAffineGramMap:
    def test_affine_map_matches_matrices(self, request):
        rng = np.random.default_rng(5)
        for instance, (lo, hi) in [("braking_problem", (0.5, 2.0)),
                                   ("unicycle_problem", (0.01, 0.02)),
                                   ("restricted_problem", (0.011, 0.0138))]:
            p = request.getfixturevalue(instance)
            grams = GramStack(p.specs, p.layout)
            theta = rng.uniform(lo, hi, size=len(p.layout.theta_idx))
            amap = AffineGramMap(grams, p.layout).at(theta)
            for _ in range(5):
                x = rng.uniform(-1, 1, size=p.layout.size)
                x[p.layout.theta_idx] = theta
                y = x[amap.free_idx]
                want = grams.matrices(x)
                scale = max(1.0, max(np.abs(Q).max() for Q in want))
                seen = []
                for blk in amap._blocks:
                    rows = np.matmul(blk.A, y[blk.C][..., None])[..., 0] + blk.b
                    for c, Q, r, cols in zip(blk.cases, blk.matrices(y), rows, blk.C):
                        assert np.allclose(Q, want[c], rtol=0.0, atol=1e-12 * scale), instance
                        # the sign rows are the case's own gammas, in layout order
                        assert np.array_equal(r[blk.n ** 2:],
                                              y[np.intersect1d(cols, amap.gamma_pos)]), instance
                        seen.append(int(c))
                assert sorted(seen) == list(range(len(p.specs))), instance

    @pytest.mark.parametrize("instance", ["restricted_problem", "unicycle_problem",
                                          "braking_problem"])
    def test_projection_matches_lstsq(self, instance, request):
        p = request.getfixturevalue(instance)
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout).at(np.array([0.0125]))
        rng = np.random.default_rng(8)
        for blk in amap._blocks:
            for _ in range(3):
                v = rng.normal(size=blk.bf.shape)
                want = np.stack([np.linalg.lstsq(Af, r, rcond=None)[0]
                                 for Af, r in zip(blk.Af, v - blk.bf)])
                assert np.allclose(np.matmul(blk.P, v - blk.bf), want, rtol=0.0,
                                   atol=1e-12 * max(1.0, np.abs(want).max()))
                # the affine side of a DR step lands on Af w + bf at those w
                image = np.matmul(blk.Af, want) + blk.bf
                assert np.allclose(blk.affine(v), image, rtol=0.0,
                                   atol=1e-12 * max(1.0, np.abs(image).max()))

    @pytest.mark.parametrize("instance, k", [("restricted_problem", 0.012783492724500072),
                                             ("unicycle_problem", 0.0125),
                                             ("braking_problem", 1.5),
                                             ("triple_integrator", 2.0)])
    def test_refine_matches_packed_reference(self, instance, k, request, monkeypatch):
        # each block iterates its own arrays with the reference's operations,
        # so every candidate decision is bit-equal; only the eigensolver of
        # the check differs (eigvalsh against eigh)
        p = build_problem(RunConfig.from_dict(triple_integrator_config_dict())) \
            if instance == "triple_integrator" else request.getfixturevalue(instance)
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout, representatives(p)).at(np.array([k]))
        y = np.random.default_rng(4).uniform(0.0, 1.0, size=len(amap.free_idx))
        checked = []
        candidate = AffineGramMap.candidate

        def recording(amap, y):
            checked.append(candidate(amap, y))
            return checked[-1]

        monkeypatch.setattr(AffineGramMap, "candidate", recording)
        record = amap.refine(y, 300, -np.inf)[2]
        reference = packed_refine_reference(amap, y, 300)
        assert record["dr_iters"] == 300 and len(checked) == len(reference) == 1 + 300 // 5 + 1
        for (y_new, lams_new), (y_ref, lams_ref) in zip(checked, reference):
            assert np.array_equal(y_new, y_ref), instance
            assert np.array_equal(np.isinf(lams_new), np.isinf(lams_ref))
            for blk in amap._blocks:
                scale = np.abs(blk.matrices(y_ref)).max(axis=(1, 2))
                assert np.all(np.abs(lams_new[blk.cases] - lams_ref[blk.cases]) <= 1e-12 * scale)

    @pytest.mark.parametrize("instance, overrides", [
        # a budget-bound first run, then the grid and the search over k
        ("restricted_problem", {"restarts": 1, "iterations": 500, "seed": 1,
                                "k_init": (0.02, 0.021)}),
        ("unicycle_problem", {"restarts": 2, "iterations": 500}),
        ("braking_problem", {}),
        ("triple_integrator", {})])
    def test_blocks_match_per_theta_reference(self, instance, overrides, request, monkeypatch):
        # the map built once per solve, pinned at each k a solve visits,
        # holds the blocks that a constructor at that k builds, bit for bit
        p = build_problem(RunConfig.from_dict(triple_integrator_config_dict())) \
            if instance == "triple_integrator" else request.getfixturevalue(instance)
        grams = GramStack(p.specs, p.layout)
        reps = representatives(p)
        thetas = []
        at = AffineGramMap.at

        def compared(amap, theta):
            at(amap, theta)
            thetas.append(amap.theta.tolist())
            reference = affine_map_reference(grams, p.layout, amap.theta, reps)
            assert len(amap._blocks) == len(reference)
            for blk, ref in zip(amap._blocks, reference):
                for name, value, want in zip(_Block._fields, blk, ref):
                    assert np.array_equal(value, want), (instance, thetas[-1], name)
            return amap

        monkeypatch.setattr(AffineGramMap, "at", compared)
        try:
            cert = solve(p.specs, p.layout, replace(p.solver_config, **overrides))
        except SolverFailure as exc:
            cert = exc.certificate
        # each restart's runs, and the grid once
        grid = next(([k for k, _ in r["grid"]] for r in cert.restarts if r["grid"]), [])
        assert len(thetas) == len(grid) + sum(len(r["runs"]) for r in cert.restarts)
        assert len(grid) == GRID_POINTS
        assert all([k] * len(p.layout.theta_idx) in thetas for k in grid)

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
            AffineGramMap(GramStack(specs, layout), layout).at(np.array([1.0]))

    def test_product_of_multipliers_rejected(self):
        k = VarId(0, "k", VarKind.DECISION)
        a, b = VarId(1, "a", VarKind.DECISION), VarId(2, "b", VarKind.DECISION)
        # one 1x1 Gram entry a * b: no k makes it affine in the multipliers
        spec = GramSpec(basis=[()], entries=[[Polynomial({((a, 1), (b, 1)): 1.0})]],
                        p0=Polynomial.zero())
        layout = DecisionLayout(variables=[k, a, b], theta_idx=np.array([0]),
                                gamma_idx=np.array([], dtype=int),
                                zeta_idx=np.array([1, 2]), kernel_idx=np.array([], dtype=int))
        assert layout.mirror.pairs == []   # a layout built directly has none
        message = "^Gram entries must be affine in the multipliers$"
        with pytest.raises(ValueError, match=message):
            solve([spec], layout, SolverConfig(restarts=1))
        with pytest.raises(ValueError, match=message):
            AffineGramMap(GramStack([spec], layout), layout)

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
            AffineGramMap(GramStack([spec], layout), layout).at(np.array([1.0]))

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
            AffineGramMap(GramStack([spec], layout), layout).at(np.array([1.0]))

    def test_candidate_clips_sign_constraints(self, braking_problem):
        p = braking_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout).at(np.array([1.5]))
        y = -np.ones(len(amap.free_idx))
        y_clipped, lams = amap.candidate(y)
        assert np.all(y_clipped[amap.gamma_pos] >= 0.0)
        assert np.all(np.isfinite(lams))

    def test_refine_certifies_feasible_instance(self, braking_problem):
        p = braking_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout).at(np.array([2.0]))
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
        amap = AffineGramMap(grams, p.layout).at(np.array([0.0125]))
        for blk in amap._blocks:
            assert np.array_equal(blk.N, np.broadcast_to(np.eye(blk.N.shape[1]), blk.N.shape))
            assert np.array_equal(blk.yp, np.zeros_like(blk.yp))
            assert np.array_equal(blk.Af, blk.A) and np.array_equal(blk.bf[..., 0], blk.b)

    def test_restricted_face_dimension(self, restricted_problem):
        p = restricted_problem
        amap = AffineGramMap(GramStack(p.specs, p.layout), p.layout).at(
            np.array([self.K_CERTIFIABLE]))
        # 56 free columns per case, 22 independent face equalities
        assert [(blk.A.shape, blk.Af.shape, blk.k) for blk in amap._blocks] == \
            [((8, 136, 56), (8, 72, 34), 6)]

    @pytest.fixture(scope="class")
    def refined(self, restricted_problem):
        p = restricted_problem
        grams = GramStack(p.specs, p.layout)
        amap = AffineGramMap(grams, p.layout).at(np.array([self.K_CERTIFIABLE]))
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
            y = np.zeros(len(amap.free_idx))
            for blk in amap._blocks:
                y[blk.C] = blk.lift(rng.uniform(-1, 1, size=blk.bf.shape))
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
        face = np.setdiff1d(np.arange(blk.A.shape[1]), blk.kept)
        feeds_face = np.abs(blk.A[0, face]).max(axis=0) > 0.0
        feeds_kept = np.abs(blk.A[0, blk.kept]).max(axis=0) > 0.0
        moved = y.copy()
        moved[blk.C[0, np.flatnonzero(feeds_face & ~feeds_kept)[0]]] += 1.0
        assert amap.reduced_lambda_min(moved) == amap.reduced_lambda_min(y)
        assert amap.candidate(moved)[1].min() < -1e-6

    def test_unrestricted_reduced_equals_full(self, unicycle_problem):
        p = unicycle_problem
        amap = AffineGramMap(GramStack(p.specs, p.layout), p.layout).at(np.array([0.0125]))
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
        assert np.all(cert.lambda_mins >= -TOLERANCE)
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
        cfg = replace(p.solver_config, restarts=1, iterations=200)
        with pytest.raises(SolverFailure) as exc_info:
            solve(p.specs, p.layout, cfg)
        failure = exc_info.value
        assert not failure.certificate.valid
        assert len(failure.certificate.restarts) == 1
        cert = failure.certificate
        # the message names the worst case, the lowest index on a tie
        case = int(np.argmin(cert.lambda_mins))
        assert str(failure) == (f"feasibility search failed; worst lambda_min "
                                f"{cert.lambda_mins[case]:.3e} in case {case}")

    @staticmethod
    def rank(restart):
        return restart["valid"], restart["runs"][-1]["reduced_lambda_min"]

    def test_returns_best_valid_reduced_margin(self, restricted_problem, restricted_certificate):
        cert = restricted_certificate
        k = cert.theta(restricted_problem.layout).tolist()
        [chosen] = [r for r in cert.restarts
                    if r["k"] == k and r["lambda_mins"] == cert.lambda_mins.tolist()]
        assert all(self.rank(r) <= self.rank(chosen) for r in cert.restarts)
        assert all(self.rank(r) < self.rank(chosen) for r in cert.restarts[:chosen["restart"]])
        assert all("residual" not in r for r in cert.restarts)

    def test_unrestricted_tie_goes_to_restart_zero(self, unicycle_problem):
        # every restart ends its last DR run at the same grid k, with the
        # same lambda_min
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
        # a budget-bound first run, then the search over k
        ("unicycle_problem", {"restarts": 2, "iterations": 500})])
    def test_logged_lambda_mins_match_full_grams(self, instance, overrides, request,
                                                 monkeypatch):
        p = request.getfixturevalue(instance)
        outputs = {}   # refine's decision with the partners filled in, by the id of its record
        refine = AffineGramMap.refine
        grams = GramStack(p.specs, p.layout)

        def recording(amap, *args, **kwargs):
            y, lams, record = refine(amap, *args, **kwargs)
            x = np.empty(p.layout.size)
            x[p.layout.theta_idx] = amap.theta
            x[amap.free_idx] = y
            outputs[id(record)] = p.layout.mirror.fill(x)
            return y, lams, record

        monkeypatch.setattr(AffineGramMap, "refine", recording)
        try:
            cert = solve(p.specs, p.layout, replace(p.solver_config, **overrides))
        except SolverFailure as exc:
            cert = exc.certificate
        assert all(id(record) in outputs for r in cert.restarts for record in r["runs"])
        for r in cert.restarts:
            x = outputs[id(r["runs"][-1])]
            assert x[p.layout.theta_idx].tolist() == r["k"]
            for lam, Q in zip(r["lambda_mins"], grams.matrices(x), strict=True):
                assert abs(lam - jacobi_eigh_batch(Q[None])[0][0, 0]) <= 1e-12 * np.abs(Q).max()

    def test_braking_rounds_stop_on_tolerance(self, braking_certificate):
        for r in braking_certificate.restarts:
            runs = r["runs"]
            assert runs and all(x["stop"] in ("tolerance", "budget")
                                for x in runs)
            if r["valid"]:
                assert runs[-1]["stop"] == "tolerance"
        assert any(r["valid"] for r in braking_certificate.restarts)

    def test_braking_search_certifies_above_band(self, braking_problem, braking_certificate):
        # k_init [0.2, 0.5] lies below the feasible band k > 1 + eta, so only
        # the search over k can certify a restart
        eta = braking_problem.config.eta
        assert braking_problem.solver_config.k_init[1] < 1.0 + eta
        valid = [r for r in braking_certificate.restarts if r["valid"]]
        assert valid
        for r in valid:
            assert r["k"][0] > 1.0 + eta
            assert r["runs"][0]["stop"] == "budget" and r["grid"]
            assert r["runs"][-1]["k"] == r["k"]

    def test_grid_ranking_ignores_rounding_noise(self, braking_problem, braking_certificate,
                                                 monkeypatch):
        # every braking grid point at k >= 1.78 reads lambda_min = 0.0
        # exactly; lowering each by a last-bit amount that shrinks with k
        # must leave them tied, so the search still runs the lowest k first
        refine = AffineGramMap.refine

        def noisy(amap, y, iterations, tolerance):
            y, lams, record = refine(amap, y, iterations, tolerance)
            if iterations == GRID_ITERATIONS:
                record["lambda_min"] -= 1e-15 / (1.0 + amap.theta[0])
            return y, lams, record

        monkeypatch.setattr(AffineGramMap, "refine", noisy)
        p = braking_problem
        cert = solve(p.specs, p.layout, p.solver_config)
        want = braking_certificate.theta(p.layout).tolist()
        assert want == pytest.approx([1.7782794100389228])
        assert cert.theta(p.layout).tolist() == want
        assert cert.restarts[0]["grid"] and all(r["k"] == want for r in cert.restarts
                                                if r["valid"])

    def test_default_k_init_starts_at_k_min(self, braking_problem):
        # with k_min set and no k_init, restarts once drew k from (1e-4, 1)
        p = braking_problem
        cfg = SolverConfig(restarts=3, iterations=666, k_min=0.3)
        assert cfg.k_init == (0.3, 1.0)
        try:
            cert = solve(p.specs, p.layout, cfg)
        except SolverFailure as exc:
            cert = exc.certificate
        assert len(cert.restarts) == 3
        for r in cert.restarts:
            assert min(r["runs"][0]["k"]) >= 0.3

    def test_short_budget_stops_on_budget(self, restricted_problem):
        p = restricted_problem
        # k in [0.02, 0.021], above the certifiable band: the first 500 DR
        # iterations end on the budget, and the search over k certifies
        cfg = replace(p.solver_config, restarts=1, iterations=500, seed=1,
                      k_init=(0.02, 0.021))
        cert = solve(p.specs, p.layout, cfg)
        [restart] = cert.restarts
        record = restart["runs"][0]
        assert record["dr_iters"] == 500 and record["stop"] == "budget"
        assert record["lambda_min"] < -TOLERANCE
        assert restart["valid"] and restart["grid"] and len(restart["runs"]) > 1

    def test_certifiable_restart_certifies_in_round_zero(self, restricted_problem):
        # solver seed 1's sampled k certifies in its first DR run after about
        # 280 of its 6000 iterations; DR must not stop early and hand the
        # restart to the search over k
        p = restricted_problem
        cert = solve(p.specs, p.layout, replace(p.solver_config, restarts=1, seed=1))
        [restart] = cert.restarts
        [record] = restart["runs"]
        assert record["stop"] == "tolerance"

    def test_restart_logs_independent_of_blas_threads(self):
        # solver seed 1, 1 restart, 500 DR iterations per run, k in
        # [0.02, 0.021] above the certifiable band: the first run spends its
        # budget, so the restart searches over k
        script = ("import json; from dataclasses import replace; "
                  "from importlib import resources; "
                  "from sisynth.config import RunConfig, build_problem; "
                  "from sisynth.feasibility import SolverFailure, solve; "
                  "p = build_problem(RunConfig.load(str(resources.files('sisynth') / "
                  "'configs' / 'unicycle_restricted.json'))); "
                  "cfg = replace(p.solver_config, restarts=1, seed=1, iterations=500, "
                  "k_init=(0.02, 0.021))\n"
                  "try:\n    cert = solve(p.specs, p.layout, cfg)\n"
                  "except SolverFailure as exc:\n    cert = exc.certificate\n"
                  "print(json.dumps(cert.restarts))")
        procs = [fresh_python(script, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                              MKL_NUM_THREADS=threads) for threads in ("1", "2")]
        outputs = [proc.communicate(timeout=300) for proc in procs]
        assert all(proc.returncode == 0 for proc in procs), [err for _, err in outputs]
        logs = [json.loads(out) for out, _ in outputs]
        assert any(len(r["runs"]) > 1 for r in logs[0])
        assert logs[0] == logs[1]

    def test_solve_does_not_load_scipy(self):
        # the search over k runs on DR alone, and only minimize imports scipy;
        # set-up and synth load neither the falsifier nor the simulator, which
        # the cli imports only in verify and simulate
        script = ("import json, sys; from importlib import resources; import sisynth.cli; "
                  "from sisynth.config import RunConfig, build_problem; "
                  "from sisynth.feasibility import check_certificate, solve; "
                  "configs = resources.files('sisynth') / 'configs'; "
                  "[build_problem(RunConfig.load(str(configs / name))) "
                  "for name in ('unicycle.json', 'unicycle_restricted.json')]; "
                  f"p = build_problem(RunConfig.from_dict(json.loads({json.dumps(braking_config_dict())!r}))); "
                  "cert = solve(p.specs, p.layout, p.solver_config); "
                  "ok = check_certificate(p.specs, p.layout, cert)[0]; "
                  "print(json.dumps([cert.valid, ok, [m for m in ('scipy', 'sisynth.sim', "
                  "'sisynth.controller', 'sisynth.falsifier') if m in sys.modules]]))")
        proc = fresh_python(script)
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert json.loads(out) == [True, True, []]

    def test_package_import_loads_no_submodule(self):
        # the package once re-exported 40 names from every stage
        proc = fresh_python("import json, sys, sisynth; "
                            "print(json.dumps([m for m in sys.modules if m.startswith('sisynth.')]))")
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert json.loads(out) == []

    def test_empty_specs_rejected(self, braking_problem):
        with pytest.raises(ValueError):
            solve([], braking_problem.layout, braking_problem.solver_config)

    @pytest.mark.parametrize("instance, cases", [("restricted_problem", [0, 1, 4, 5]),
                                                 ("braking_problem", None),
                                                 ("unicycle_problem", [0, 1, 4, 5])])
    def test_one_stack_and_maps_over_the_representatives(self, instance, cases, request,
                                                          monkeypatch):
        # the representatives run on the stack and layout of the whole
        # problem, and a config without pairs takes the same path; one map
        # is built per solve and pinned at the k of each DR run
        p = request.getfixturevalue(instance)
        cases = list(range(len(p.specs))) if cases is None else cases
        stacks, maps, selected, evaluations = [], [], [], []
        stack_init, amap_init, at = GramStack.__init__, AffineGramMap.__init__, AffineGramMap.at
        flat = GramStack.flat

        def counting(grams, *args):
            stacks.append(grams)
            stack_init(grams, *args)

        def counting_maps(amap, *args):
            maps.append(amap)
            amap_init(amap, *args)

        def recording(amap, theta):
            at(amap, theta)
            lams = amap.candidate(np.zeros(len(amap.free_idx)))[1]
            selected.append(np.flatnonzero(np.isfinite(lams)).tolist())
            return amap

        def evaluating(grams, d):
            evaluations.append(d)
            return flat(grams, d)

        monkeypatch.setattr(GramStack, "__init__", counting)
        monkeypatch.setattr(GramStack, "flat", evaluating)
        monkeypatch.setattr(AffineGramMap, "__init__", counting_maps)
        monkeypatch.setattr(AffineGramMap, "at", recording)
        # unicycle.json at 2 restarts x 500 iterations spends the first run's
        # budget, so it also runs the grid and the search over k
        overrides = {"restarts": 2, "iterations": 500} if instance == "unicycle_problem" \
            else {"restarts": 1}
        try:
            cert = solve(p.specs, p.layout, replace(p.solver_config, **overrides))
        except SolverFailure as exc:
            cert = exc.certificate
        assert len(stacks) == len(maps) == 1
        runs = sum(len(r["runs"]) for r in cert.restarts)
        grid = GRID_POINTS if any(r["grid"] for r in cert.restarts) else 0
        assert len(selected) == runs + grid and all(s == cases for s in selected)
        if instance == "unicycle_problem":
            assert grid and len(selected) > 1 + GRID_POINTS
        # each restart evaluates its Gram matrices once, after its last DR
        # run, to judge its partners, and the certificate's matrices once more;
        # grid points and superseded search runs evaluate none
        assert len(evaluations) == len(cert.restarts) + 1


class TestMirrorPairs:
    """Cases that mirror each other under one state variable's sign flip: DR
    solves the representatives, and each partner is filled in as D Q D."""

    PAIRS = [(0, 3, "x"), (1, 2, "x"), (4, 7, "x"), (5, 6, "x")]

    @staticmethod
    def entries(p):
        """The Gram entries ``(case, i, j)`` each decision variable enters,
        by layout index."""
        index, out = p.layout.index_of(), {}
        for c, spec in enumerate(p.specs):
            for i, row in enumerate(spec.entries):
                for j, entry in enumerate(row):
                    for v in entry.variables():
                        out.setdefault(index[v], set()).add((c, i, j))
        return out

    @pytest.mark.parametrize("instance", ["unicycle_problem", "restricted_problem"])
    def test_unicycle_pairs_under_x_only(self, instance, request):
        p = request.getfixturevalue(instance)
        assert p.layout.mirror.pairs == self.PAIRS
        # every ordered pair of cases that mirror each other, under every
        # state variable of the basis
        flips = sorted({v for spec in p.specs for m in spec.basis for v, _ in m})
        assert [s.name for s in flips] == ["x", "y", "z"]
        found = {(a, b, s.name) for s in flips for a, b in permutations(range(len(p.specs)), 2)
                 if (p.cases[b].gammas, p.cases[b].zetas) == p.cases[a].mirrored(s)}
        assert found == {pair for a, b, s in self.PAIRS for pair in ((a, b, s), (b, a, s))}

    @pytest.mark.parametrize("instance", ["unicycle_problem", "restricted_problem"])
    def test_partner_is_d_q_d(self, instance, request):
        p = request.getfixturevalue(instance)
        grams, mirror = GramStack(p.specs, p.layout), p.layout.mirror
        # one-to-one, every gamma onto a gamma at sign +1
        assert len(set(mirror.dst)) == len(mirror.dst)
        gamma = np.isin(mirror.dst, p.layout.gamma_idx)
        assert np.array_equal(gamma, np.isin(mirror.src, p.layout.gamma_idx))
        assert np.all(np.asarray(mirror.sign)[gamma] == 1)
        for seed in range(5):
            x = mirror.fill(np.random.default_rng(seed).uniform(-1, 1, size=p.layout.size))
            Q = grams.matrices(x)
            for a, b, s in mirror.pairs:
                flipped = next(v for m in p.specs[a].basis for v, _ in m if v.name == s)
                d = np.array(mirror_signs(p.specs[a].basis, flipped), dtype=float)
                assert np.array_equal(Q[b], d[:, None] * Q[a] * d[None, :]), (seed, a, b)

    @pytest.mark.parametrize("edit", ["coefficient", "swap", "odd zeta"])
    def test_rule_refuses(self, restricted_problem, edit):
        # case 3 mirrors case 0 until one gamma coefficient changes or two
        # gammas trade places; a zeta odd in x leaves no pair at all
        p = restricted_problem
        cases = [replace(case, gammas=list(case.gammas)) for case in p.cases]
        x = next(v for m in p.specs[0].basis for v, _ in m if v.name == "x")
        if edit == "coefficient":
            g = cases[3].gammas[1]
            m = next(iter(g.terms))
            cases[3].gammas[1] = g + Polynomial({m: 0.5 * g.terms[m]})
        elif edit == "swap":
            gammas = cases[3].gammas
            assert gammas[1] != gammas[2]
            gammas[1], gammas[2] = gammas[2], gammas[1]
        else:
            cases = [replace(case, zetas=case.zetas + [Polynomial.variable(x)]) for case in cases]
        pairs = DecisionLayout.build(p.family.theta, cases, p.specs).mirror.pairs
        assert pairs == ([] if edit == "odd zeta" else self.PAIRS[1:])

    def test_no_pairs_without_a_mirror(self, braking_problem):
        triple = build_problem(RunConfig.from_dict(triple_integrator_config_dict()))
        for p in (braking_problem, triple):
            assert p.layout.mirror.pairs == []

    def test_solve_records_pairs(self, restricted_certificate, braking_certificate):
        pairs = {"x": [[0, 3], [1, 2], [4, 7], [5, 6]]}
        assert restricted_certificate.mirror_pairs == pairs
        data = json.loads(json.dumps(restricted_certificate.to_dict()))
        assert data["mirror_pairs"] == pairs
        assert Certificate.from_dict(data).mirror_pairs == pairs
        # a certificate without pairs writes no field, and one without the
        # field reads as having none
        assert "mirror_pairs" not in braking_certificate.to_dict()
        del data["mirror_pairs"]
        assert Certificate.from_dict(data).mirror_pairs == {}

    @staticmethod
    def check(p, cert, x):
        return check_certificate(p.specs, p.layout, replace(cert, decision=x))

    def test_flipped_sign_of_d_fails_check(self, restricted_problem, restricted_certificate):
        p, cert = restricted_problem, restricted_certificate
        assert self.check(p, cert, cert.decision)[0]
        mirror, entries = p.layout.mirror, self.entries(p)
        for r in range(p.specs[0].size):
            # D with its r-th sign flipped negates every partner variable in
            # an off-diagonal entry of row r
            flip = [any((i == r) != (j == r) for _, i, j in entries[w]) for w in mirror.dst]
            x = cert.decision.copy()
            x[mirror.dst] = np.where(flip, -1.0, 1.0) * mirror.sign * x[mirror.src]
            assert not self.check(p, cert, x)[0], r

    def test_flipped_partner_variable_fails_check(self, restricted_problem,
                                                  restricted_certificate):
        p, cert = restricted_problem, restricted_certificate
        mirror = p.layout.mirror
        owner = {w: {c for c, _, _ in cells} for w, cells in self.entries(p).items()}
        for _, b, _ in mirror.pairs:
            # the partner's largest multiplier or kernel share that is not a gamma
            w = max((w for w in mirror.dst if owner[w] == {b} and w not in p.layout.gamma_idx),
                    key=lambda w: abs(cert.decision[w]))
            x = cert.decision.copy()
            x[w] = -x[w]
            ok, diagnostics = self.check(p, cert, x)
            assert not ok and any(line.startswith(f"case {b}: lambda_min") for line in diagnostics)

    def test_wrong_pair_fails_check(self, restricted_problem, restricted_certificate):
        # fill case 2 from case 0 through the map that pairs 0 with 3
        p, cert = restricted_problem, restricted_certificate
        mirror = p.layout.mirror
        index = {v.name: i for i, v in enumerate(p.layout.variables)}
        three, two = (f"_{p.cases[c].label}_" for c in (3, 2))
        x = cert.decision.copy()
        for v, w, sign in zip(mirror.src, mirror.dst, mirror.sign):
            name = p.layout.variables[w].name
            if three in name:
                x[index[name.replace(three, two)]] = sign * x[v]
        ok, diagnostics = self.check(p, cert, x)
        assert not ok and any(line.startswith("case 2: lambda_min") for line in diagnostics)

    @pytest.mark.parametrize("instance, k", [("unicycle_problem", 0.0125),
                                             ("restricted_problem", TestZeroFace.K_CERTIFIABLE)])
    def test_representatives_iterate_as_in_all_cases_run(self, instance, k, request,
                                                         monkeypatch):
        # at a fixed budget, DR on the representatives alone reaches the
        # all-cases run's values of their variables at every candidate
        # check, bit for bit
        p = request.getfixturevalue(instance)
        grams, mirror, reps = GramStack(p.specs, p.layout), p.layout.mirror, representatives(p)
        x0 = np.random.default_rng(3).uniform(0.0, 1.0, size=p.layout.size)
        checked = []   # (map, free decision, lambda_mins) per candidate check
        candidate = AffineGramMap.candidate

        def recording(amap, y):
            y, lams = candidate(amap, y)
            checked.append((amap, y, lams))
            return y, lams

        monkeypatch.setattr(AffineGramMap, "candidate", recording)
        full = AffineGramMap(grams, p.layout).at(np.array([k]))
        rep = AffineGramMap(grams, p.layout, reps).at(np.array([k]))
        assert np.array_equal(rep.free_idx, full.free_idx)
        for amap in (full, rep):
            # a tolerance of -inf never certifies, so both runs spend the budget
            record = amap.refine(x0[amap.free_idx], 300, -np.inf)[2]
            assert record["dr_iters"] == 300
        runs = [[c for c in checked if c[0] is m] for m in (full, rep)]
        assert len(runs[0]) == len(runs[1]) == 1 + 300 // 5 + 1
        cols = ~np.isin(full.free_idx, mirror.dst)   # the representatives' columns
        for (_, y_full, lams_full), (_, y_rep, lams_rep) in zip(*runs):
            assert np.array_equal(y_full[cols], y_rep[cols])
            assert np.array_equal(lams_full[reps], lams_rep[reps])
            assert np.all(lams_rep[mirror.partners] == np.inf)
        # every iterate after the start is lifted from the face: zero on the
        # partners' columns
        assert all(np.all(y[~cols] == 0.0) for _, y, _ in runs[1][1:])


class TestCertificate:
    def test_round_trip(self, braking_problem, braking_certificate):
        p, cert = braking_problem, braking_certificate
        loaded = Certificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        assert loaded.valid
        assert np.allclose(loaded.decision, cert.decision)
        assert np.allclose(loaded.lambda_mins, cert.lambda_mins)
        ok, _ = check_certificate(p.specs, p.layout, loaded)
        assert ok

    # sha256 prefixes of each certificate's JSON as solve returns it, with an
    # empty config_hash; a change that moves them on purpose updates them and
    # says why
    CERTIFICATE_DIGESTS = {"braking": "dbf9ab2f2e3e0345",
                           "restricted, 4 restarts": "cd4ce6d14fbf6dc7",
                           "triple integrator": "03de4cdb23cee049",
                           "unicycle, 2 restarts x 500": "0248b86a92850989"}

    def test_certificate_bytes(self, braking_certificate, restricted_certificate,
                               unicycle_problem):
        triple = build_problem(RunConfig.from_dict(triple_integrator_config_dict()))
        with pytest.raises(SolverFailure) as triple_failure:
            solve(triple.specs, triple.layout, triple.solver_config)
        # the one pinned solve that runs the grid and the search on a config
        # with mirror pairs
        p = unicycle_problem
        with pytest.raises(SolverFailure) as unicycle_failure:
            solve(p.specs, p.layout, replace(p.solver_config, restarts=2, iterations=500))
        certs = {"braking": braking_certificate, "restricted, 4 restarts": restricted_certificate,
                 "triple integrator": triple_failure.value.certificate,
                 "unicycle, 2 restarts x 500": unicycle_failure.value.certificate}
        digests = {name: hashlib.sha256(json.dumps(cert.to_dict(), indent=2).encode())
                   .hexdigest()[:16] for name, cert in certs.items()}
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert digests == self.CERTIFICATE_DIGESTS, \
            f"numpy {np.__version__} with BLAS {blas.get('name')} {blas.get('version')}"

    def test_tampered_certificate_fails_check(self, braking_problem, braking_certificate):
        p, cert = braking_problem, braking_certificate
        tampered = Certificate.from_dict(cert.to_dict())
        tampered.decision = tampered.decision.copy()
        tampered.decision[p.layout.theta_idx[0]] = 0.01   # inside the infeasible band
        ok, diagnostics = check_certificate(p.specs, p.layout, tampered)
        assert not ok
        assert any("lambda_min" in line for line in diagnostics)

    def test_reordered_names_fail_check(self, braking_problem, braking_certificate):
        # the values stay in place, so only the names tell that they are
        # read against the wrong variables
        p, cert = braking_problem, braking_certificate
        tampered = Certificate.from_dict(cert.to_dict())
        tampered.variable_names = tampered.variable_names[::-1]
        ok, diagnostics = check_certificate(p.specs, p.layout, tampered)
        assert not ok
        first = p.layout.variables[0].name
        assert f"decision variable {tampered.variable_names[0]!r} where the layout has " \
            f"{first!r}" in diagnostics

    @pytest.mark.parametrize("names, value", [(["k"], np.nan), (["k"], np.inf),
                                              (["pg_p_1"], np.nan), (None, np.nan)])
    def test_non_finite_value_fails_check(self, braking_problem, braking_certificate, names,
                                          value):
        # every other test of the re-check is a comparison, and each is false
        # for NaN; an infinite k leaves NaN eigenvalues
        p, cert = braking_problem, braking_certificate
        names = names or cert.variable_names   # None: every value
        d = cert.decision.copy()
        d[[cert.variable_names.index(n) for n in names]] = value
        ok, diagnostics = check_certificate(p.specs, p.layout, replace(cert, decision=d))
        assert not ok
        assert diagnostics == [f"decision variable {n} = {value} is not finite" for n in names]

    def test_nan_lambda_min_fails_check(self, braking_problem, braking_certificate):
        # a finite multiplier whose Gram matrix overflows has no eigenvalues
        # to compare
        p, cert = braking_problem, braking_certificate
        d = cert.decision.copy()
        d[cert.variable_names.index("pg_p_1")] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, diagnostics = check_certificate(p.specs, p.layout, replace(cert, decision=d))
        assert not ok
        assert "case 0: lambda_min = nan is not a number" in diagnostics

    def test_nan_anywhere_in_spectrum_fails_check(self, braking_problem, braking_certificate,
                                                  monkeypatch):
        # the ascending sort puts NaN last, so column 0 alone would read 0
        p, cert = braking_problem, braking_certificate

        def nan_tail(mats):
            w = np.full(mats.shape[:2], np.nan)
            w[:, 0] = 0.0
            return w, np.broadcast_to(np.eye(mats.shape[1]), mats.shape).copy()

        monkeypatch.setattr(feasibility, "jacobi_eigh_batch", nan_tail)
        ok, diagnostics = check_certificate(p.specs, p.layout, cert)
        assert not ok
        assert diagnostics == [f"case {c}: lambda_min = nan is not a number"
                               for c in range(len(p.specs))]

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
    def test_variable_partition(self, restricted_problem):
        layout = restricted_problem.layout
        parts = np.concatenate([layout.theta_idx, layout.gamma_idx,
                                layout.zeta_idx, layout.kernel_idx])
        assert sorted(parts.tolist()) == list(range(layout.size))
