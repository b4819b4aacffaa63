"""Multi-start feasibility solver for the certificate conditions.

Each refute case contributes a Gram matrix whose entries are polynomials in
the decision variables (index parameters, scalar multipliers, and optional
Gram kernel shares).  A decision vector is a certificate when every Gram
matrix is positive semidefinite.  The solver minimizes a smooth penalty on
the minimum eigenvalues over the sign-constrained decision box, restarting
from several random initializations.

The solver's eigendecompositions run on LAPACK (``np.linalg.eigh``).  The
in-repo Jacobi eigensolver (:func:`jacobi_eigh_batch`) serves
:func:`check_certificate`, so a certificate is re-checked by an eigensolver
independent of the one that found it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .poly import VarId
from .refute import GramSpec, RefuteCase

JACOBI_TOL = 1e-13
MAX_SWEEPS = 60


def _round_robin_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition all index pairs of [0, n) into rounds of disjoint pairs.

    Disjoint pairs commute as Jacobi rotations, so each round can be applied
    as one vectorized update (classic circle-method tournament schedule).
    """
    m = n + (n % 2)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a < n and b < n:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.array(ps, dtype=np.intp), np.array(qs, dtype=np.intp)))
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def jacobi_eigh_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a stack of symmetric matrices by Jacobi rotations.

    Applies rounds of disjoint rotation pairs to all matrices at once.
    Returns eigenvalues sorted ascending, shape (B, n), and matching
    orthonormal eigenvector columns, shape (B, n, n).  Deterministic: fixed
    schedule, fixed rotation convention.
    """
    A = np.array(mats, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("expected a stack of square matrices")
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
    w_sorted = np.take_along_axis(w, order, axis=1)
    V_sorted = np.take_along_axis(V, order[:, None, :], axis=2)
    return w_sorted, V_sorted


def jacobi_eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of one symmetric matrix by Jacobi rotations.

    Returns eigenvalues sorted ascending and the matching orthonormal
    eigenvectors as columns.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    w, V = jacobi_eigh_batch(M[None])
    return w[0], V[0]


def min_eigenvalue(M: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of a symmetric matrix."""
    w, V = jacobi_eigh(M)
    return float(w[0]), V[:, 0]


@dataclass
class DecisionLayout:
    """Global ordering of decision variables across all refute cases."""

    variables: list[VarId]
    theta_idx: np.ndarray
    gamma_idx: np.ndarray
    zeta_idx: np.ndarray
    kernel_idx: np.ndarray

    @classmethod
    def build(cls, theta: Sequence[VarId], cases: Sequence[RefuteCase],
              specs: Sequence[GramSpec]) -> "DecisionLayout":
        variables = list(theta)
        zeta, gamma, kernel = [], [], []
        for case, spec in zip(cases, specs):
            for v in case.zeta_multipliers:
                zeta.append(len(variables))
                variables.append(v)
            for v in case.gamma_multipliers:
                gamma.append(len(variables))
                variables.append(v)
            for v in spec.kernel_vars:
                kernel.append(len(variables))
                variables.append(v)
        return cls(variables=variables,
                   theta_idx=np.arange(len(theta)),
                   gamma_idx=np.array(gamma, dtype=int),
                   zeta_idx=np.array(zeta, dtype=int),
                   kernel_idx=np.array(kernel, dtype=int))

    @property
    def size(self) -> int:
        return len(self.variables)

    def index_of(self) -> dict[VarId, int]:
        return {v: i for i, v in enumerate(self.variables)}

    def bounds(self, k_min: float) -> list[tuple[float | None, float | None]]:
        out: list[tuple[float | None, float | None]] = [(None, None)] * self.size
        for i in self.theta_idx:
            out[i] = (k_min, None)
        for i in self.gamma_idx:
            out[i] = (0.0, None)
        return out


class GramStack:
    """Every case's Gram matrix lowered to one term table for numeric evaluation.

    Each monomial of an upper-triangle Gram entry is one term: a coefficient,
    a fixed-width row of decision-variable factor indices (padded with an
    index pointing at a constant 1 slot), and its position in one flat buffer
    that holds all matrices row-major.  Cases of equal Gram size sit next to
    each other in that buffer (ascending size, then case order), so each size
    group reads as one ``(cases, n, n)`` stack.
    """

    def __init__(self, specs: Sequence[GramSpec], layout: DecisionLayout):
        index_of = layout.index_of()
        terms = [(c, i, j, coeff, [index_of[v] for v, e in mono for _ in range(e)])
                 for c, spec in enumerate(specs)
                 for i in range(spec.size) for j in range(i, spec.size)
                 for mono, coeff in spec.entries[i][j].terms.items()]
        width = max([1] + [len(t[4]) for t in terms])
        self.nvars = layout.size   # also the index of the constant-1 slot
        self.sizes = [spec.size for spec in specs]
        self.coeffs = np.array([t[3] for t in terms], dtype=float)
        self.factors = np.array([t[4] + [self.nvars] * (width - len(t[4])) for t in terms],
                                dtype=np.intp).reshape(len(terms), width)
        cases, rows, cols = (np.array([t[k] for t in terms], dtype=np.intp) for k in range(3))

        # (case indices, Gram size, offset into the flat buffer) per size group
        self.groups: list[tuple[np.ndarray, int, int]] = []
        self.case_offsets = np.empty(len(specs), dtype=np.intp)
        off = 0
        for n in sorted(set(self.sizes)):
            members = np.array([c for c, m in enumerate(self.sizes) if m == n], dtype=np.intp)
            self.groups.append((members, n, off))
            self.case_offsets[members] = off + n * n * np.arange(len(members))
            off += n * n * len(members)
        self.length = off
        n_of = np.array(self.sizes, dtype=np.intp)[cases]
        self.positions = self.case_offsets[cases] + rows * n_of + cols
        mirrored = self.case_offsets[cases] + cols * n_of + rows
        off_diag = rows != cols
        self.sym_w = np.where(off_diag, 2.0, 1.0)
        # every term lands at its upper position, off-diagonal terms also at
        # the mirrored one: buffer slot scatter[s] receives term source[s]
        self.scatter = np.concatenate([self.positions, mirrored[off_diag]])
        self.source = np.concatenate([np.arange(len(terms)), np.flatnonzero(off_diag)])
        self._others = np.array([[o for o in range(width) if o != s] for s in range(width)],
                                dtype=np.intp).reshape(width, width - 1)

    def flat(self, d: np.ndarray) -> np.ndarray:
        """All Gram matrices at decision ``d``, packed into the flat buffer."""
        vals = self.coeffs * np.prod(np.append(d, 1.0)[self.factors], axis=1)
        return np.bincount(self.scatter, weights=vals[self.source], minlength=self.length)

    def split(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(case indices, (cases, n, n) stack)`` per size group, as views of
        a packed vector such as :meth:`flat` returns (entries past the
        matrices are ignored)."""
        return [(members, flat[off:off + len(members) * n * n].reshape(-1, n, n))
                for members, n, off in self.groups]

    def matrices(self, d: np.ndarray) -> list[np.ndarray]:
        """Each case's Gram matrix at decision ``d``, in case order."""
        flat = self.flat(d)
        return [flat[o:o + n * n].reshape(n, n).copy()
                for o, n in zip(self.case_offsets, self.sizes)]

    def weighted_gradient(self, d: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Gradient of ``sum(weights * flat(d))`` for a flat buffer of
        symmetric weight matrices."""
        fvals = np.append(d, 1.0)[self.factors]                 # (T, width)
        others = np.prod(fvals[:, self._others], axis=2)        # product of the other slots
        w = self.coeffs * self.sym_w * weights[self.positions]
        g = np.bincount(self.factors.ravel(), weights=(w[:, None] * others).ravel(),
                        minlength=self.nvars + 1)
        return g[:-1]


class AffineGramMap:
    """The Gram stack as an affine function of the non-index decision variables.

    For pinned index parameters every Gram entry is affine in the remaining
    decision coordinates (multipliers and kernel shares), so the packed
    matrices are ``A y + b``, in the layout of :meth:`GramStack.flat`.  Sign
    constraints on the gamma multipliers ride along as extra scalar rows,
    which makes both feasibility projections exact: eigenvalue clipping
    (LAPACK ``eigh``) on the cone side, a least-squares solve on the affine
    side.

    Refute cases share only the index parameters, so once those are pinned
    ``A`` is block diagonal.  It is stored as one dense block per case: the
    case's Gram rows and the sign rows of its gamma multipliers, against the
    free columns that case owns.  Blocks of equal shape are stacked, so
    :meth:`apply` and :meth:`project` are a gather, one batched ``matmul``
    per shape and a scatter, and each block's ``A^T A`` is factored by a
    batched Cholesky.
    """

    def __init__(self, grams: GramStack, layout: DecisionLayout, theta: np.ndarray):
        nv = layout.size
        self.grams = grams
        self.theta = np.asarray(theta, dtype=float)
        pinned = np.zeros(nv + 1, dtype=bool)
        pinned[layout.theta_idx] = True
        pinned[nv] = True   # the constant-1 slot
        self.free_idx = np.flatnonzero(~pinned)
        free_pos = np.full(nv + 1, -1, dtype=np.intp)
        free_pos[self.free_idx] = np.arange(len(self.free_idx))
        self.gamma_pos = free_pos[layout.gamma_idx]

        pin = np.zeros(nv + 1)
        pin[nv] = 1.0
        pin[layout.theta_idx] = self.theta
        free = ~pinned[grams.factors]
        if np.any(free.sum(axis=1) > 1):
            raise ValueError("Gram entries must be affine in the multipliers")
        cval = grams.coeffs * np.prod(np.where(free, 1.0, pin[grams.factors]), axis=1)
        col = np.max(np.where(free, free_pos[grams.factors], -1), axis=1)
        rows, col, cval = grams.scatter, col[grams.source], cval[grams.source]
        nfree, linear = len(self.free_idx), col >= 0
        self.rows_gram = grams.length
        nrows = self.rows_gram + len(self.gamma_pos)
        self.b = np.bincount(rows[~linear], weights=cval[~linear], minlength=nrows)

        # a free column belongs to the one case whose Gram entries it enters
        order = np.argsort(grams.case_offsets)
        slot_case = np.repeat(order, (np.array(grams.sizes, dtype=np.intp) ** 2)[order])
        entry_case = slot_case[rows[linear]]
        owner = np.full(nfree, -1, dtype=np.intp)
        owner[col[linear]] = entry_case
        shared = col[linear][owner[col[linear]] != entry_case]
        if len(shared):
            name = layout.variables[self.free_idx[shared[0]]].name
            raise ValueError(f"decision variable {name} enters the Gram matrices of "
                             "more than one refute case")
        if np.any(owner < 0):
            name = layout.variables[self.free_idx[np.argmax(owner < 0)]].name
            raise ValueError(f"decision variable {name} enters no Gram matrix")

        # rows and columns of each case's block, grouped by block shape
        shapes: dict[tuple[int, int], list[tuple[np.ndarray, np.ndarray]]] = {}
        for c, n in enumerate(grams.sizes):
            r = np.concatenate([grams.case_offsets[c] + np.arange(n * n),
                                self.rows_gram + np.flatnonzero(owner[self.gamma_pos] == c)])
            cols = np.flatnonzero(owner == c)
            shapes.setdefault((len(r), len(cols)), []).append((r, cols))
        entry_rows = np.concatenate([rows[linear], np.arange(self.rows_gram, nrows)])
        entry_cols = np.concatenate([col[linear], self.gamma_pos])
        values = np.concatenate([cval[linear], np.ones(len(self.gamma_pos))])
        row_slot = np.empty(nrows, dtype=np.intp)   # row's offset in its group's stack
        col_slot = np.empty(nfree, dtype=np.intp)   # column's index within its block
        row_group = np.full(nrows, -1, dtype=np.intp)
        self._blocks = []
        for g, ((nr, nc), members) in enumerate(sorted(shapes.items())):
            R = np.array([r for r, _ in members], dtype=np.intp).reshape(len(members), nr)
            C = np.array([c for _, c in members], dtype=np.intp).reshape(len(members), nc)
            row_slot[R] = np.arange(R.size).reshape(R.shape)
            col_slot[C] = np.arange(nc)
            row_group[R] = g
            mine = row_group[entry_rows] == g
            A = np.bincount(row_slot[entry_rows[mine]] * nc + col_slot[entry_cols[mine]],
                            weights=values[mine], minlength=R.size * nc
                            ).reshape(len(members), nr, nc)
            At = A.transpose(0, 2, 1)
            try:
                L = np.linalg.cholesky(np.matmul(At, A))
            except np.linalg.LinAlgError as exc:
                raise ValueError(
                    f"the affine Gram map at theta = {self.theta.tolist()} has linearly "
                    "dependent multiplier columns (A^T A is not positive definite)") from exc
            # (A^T A)^-1 A^T per block, so each projection is one batched matmul
            P = np.linalg.solve(L.transpose(0, 2, 1), np.linalg.solve(L, At))
            self._blocks.append((R, C, A, self.b[R], P))

    def apply(self, y: np.ndarray) -> np.ndarray:
        """The packed Gram matrices and sign rows ``A y + b`` at free decision ``y``."""
        out = np.empty(len(self.b))
        for R, C, A, bR, _ in self._blocks:
            out[R] = np.matmul(A, y[C][..., None])[..., 0] + bR
        return out

    def project(self, v: np.ndarray) -> np.ndarray:
        """The least-squares decision ``argmin_y |A y + b - v|``."""
        y = np.empty(len(self.free_idx))
        for R, C, _, bR, P in self._blocks:
            y[C] = np.matmul(P, (v[R] - bR)[..., None])[..., 0]
        return y

    def _eig(self, v: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Eigenvalues (ascending) and eigenvectors of each size group's
        symmetrized Gram stack in the packed vector ``v``."""
        return [np.linalg.eigh(0.5 * (mats + mats.transpose(0, 2, 1)))
                for _, mats in self.grams.split(v)]

    def candidate(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        """Clip the sign constraints and report the worst minimum eigenvalue."""
        y = y.copy()
        y[self.gamma_pos] = np.maximum(y[self.gamma_pos], 0.0)
        return y, min(float(w[:, 0].min()) for w, _ in self._eig(self.apply(y)))

    def refine(self, y: np.ndarray, iterations: int, tolerance: float,
               relaxation: float = 1.8, check_every: int = 5
               ) -> tuple[np.ndarray, float, dict]:
        """Douglas-Rachford feasibility iteration between the PSD product
        cone and the affine image, keeping the best sign-feasible iterate.

        The splitting handles the boundary-only intersections that arise when
        the certificate set has no strict interior, where plain penalty
        descent slows to a crawl.  Returns the best iterate, its worst
        minimum eigenvalue and a record ``{"dr_iters", "stop", "lambda_min"}``
        whose ``stop`` says what ended the iteration: ``tolerance`` (the
        iterate certifies), ``patience`` (no 1% improvement for the patience
        window) or ``budget`` (``iterations`` ran out).
        """
        y_best, lam_best = self.candidate(y)
        it, stop = -1, "tolerance"
        if lam_best < -tolerance:
            z = self.apply(y)
            last_improvement = 0
            patience = max(500, iterations // 8)
            stop = "budget"
            for it in range(iterations):
                cones = [np.einsum("bij,bj,bkj->bik", V, np.maximum(w, 0.0), V).ravel()
                         for w, V in self._eig(z)]
                xc = np.concatenate(cones + [np.maximum(z[self.rows_gram:], 0.0)])
                xl = self.apply(self.project(2.0 * xc - z))
                z = z + relaxation * (xl - xc)
                if it % check_every == 0 or it == iterations - 1:
                    y_cand, lam = self.candidate(self.project(xc))
                    if lam > lam_best + 0.01 * abs(lam_best):
                        last_improvement = it
                    if lam > lam_best:
                        y_best, lam_best = y_cand, lam
                        if lam_best >= -tolerance:
                            stop = "tolerance"
                            break
                    if it - last_improvement > patience:
                        stop = "patience"
                        break
        return y_best, lam_best, {"dr_iters": it + 1, "stop": stop, "lambda_min": lam_best}


@dataclass
class SolverConfig:
    restarts: int = 10
    iterations: int = 5000
    rounds: int = 4
    tolerance: float = 1e-6
    margin: float = 1e-5
    seed: int = 0
    k_min: float = 1e-4
    k_init: tuple[float, float] = (1e-4, 1.0)
    mult_init: tuple[float, float] = (0.0, 1.0)
    free_init: tuple[float, float] = (-1.0, 1.0)

    def digest(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


@dataclass
class Certificate:
    decision: np.ndarray
    variable_names: list[str]
    lambda_mins: np.ndarray
    tolerance: float
    seed: int
    config_hash: str
    restarts: list[dict] = field(default_factory=list)
    matrices: list[np.ndarray] = field(default_factory=list)
    basis_repr: list[list[str]] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return bool(np.all(self.lambda_mins >= -self.tolerance))

    def theta(self, layout: DecisionLayout) -> np.ndarray:
        return self.decision[layout.theta_idx]

    def to_dict(self) -> dict:
        return {
            "decision": dict(zip(self.variable_names, self.decision.tolist())),
            "lambda_mins": self.lambda_mins.tolist(),
            "tolerance": self.tolerance,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "valid": self.valid,
            "restarts": self.restarts,
            "basis": self.basis_repr,
            "matrices": [m.tolist() for m in self.matrices],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        names = list(data["decision"].keys())
        return cls(decision=np.array(list(data["decision"].values()), dtype=float),
                   variable_names=names,
                   lambda_mins=np.array(data["lambda_mins"], dtype=float),
                   tolerance=float(data["tolerance"]),
                   seed=int(data["seed"]),
                   config_hash=data.get("config_hash", ""),
                   restarts=data.get("restarts", []),
                   matrices=[np.array(m) for m in data.get("matrices", [])],
                   basis_repr=data.get("basis", []))


class SolverFailure(RuntimeError):
    """No restart reached a valid certificate; carries the best attempt."""

    def __init__(self, certificate: Certificate, residual: float):
        super().__init__(f"feasibility search failed; best residual {residual:.3e}")
        self.certificate = certificate
        self.residual = residual


def penalty(grams: GramStack, d: np.ndarray,
            margin: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient, and per-case minimum eigenvalues of the PSD penalty.

    The penalty is the spectral sum ``sum_i max(0, margin - lambda_i)^2``
    over every eigenvalue of every case, which vanishes exactly when all
    minimum eigenvalues clear the margin and, unlike a min-eigenvalue-only
    hinge, stays continuously differentiable through eigenvalue crossings.
    All matrices come from one :meth:`GramStack.flat` evaluation; each size
    group is eigendecomposed in one batched LAPACK ``eigh`` call, and the
    gradient is one :meth:`GramStack.weighted_gradient` pass.
    """
    flat = grams.flat(d)
    weights = np.empty_like(flat)
    lams = np.empty(len(grams.sizes))
    total = 0.0
    for (members, mats), (_, weight) in zip(grams.split(flat), grams.split(weights)):
        w, V = np.linalg.eigh(mats)
        lams[members] = w[:, 0]
        gaps = np.maximum(0.0, margin - w)
        total += float(np.sum(gaps * gaps))
        weight[...] = np.einsum("bij,bj,bkj->bik", V, 2.0 * gaps, V)
    return total, -grams.weighted_gradient(d, weights), lams


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use so that building a
    problem, checking a certificate or simulating never loads scipy."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def solve(specs: Sequence[GramSpec], layout: DecisionLayout,
          config: SolverConfig) -> Certificate:
    """Search for a decision vector making every Gram matrix PSD.

    Each of the ``config.restarts`` seeded restarts alternates a joint
    penalty descent over all decision variables (which steers the index
    parameters) with a Douglas-Rachford feasibility refinement of the
    multipliers at pinned index parameters (exact convex projections, which
    handle the flat tail where gradient descent stalls).  The restart with
    the lowest final penalty wins, ties broken by restart index.  Each
    restart's log entry lists its rounds as :meth:`AffineGramMap.refine`
    records them.  Raises :class:`SolverFailure` with the best attempt when
    no restart certifies.
    """
    if not specs:
        raise ValueError("no Gram specs to solve")
    grams = GramStack(specs, layout)
    bounds = layout.bounds(config.k_min)

    def descend(x, budget, margin):
        def objective(d):
            val, grad, _ = penalty(grams, d, margin)
            return val, grad
        return minimize(objective, x, jac=True, method="L-BFGS-B", bounds=bounds,
                        options={"maxiter": budget, "maxfun": 4 * budget,
                                 "ftol": 1e-18, "gtol": 1e-14}).x

    warmup = max(100, config.iterations // 20)
    dr_budget = max(500, config.iterations // config.rounds)

    def run_restart(r):
        rng = np.random.default_rng([config.seed, r])
        x = np.empty(layout.size)
        x[layout.theta_idx] = rng.uniform(*config.k_init, size=len(layout.theta_idx))
        x[layout.gamma_idx] = rng.uniform(*config.mult_init, size=len(layout.gamma_idx))
        for idx in (layout.zeta_idx, layout.kernel_idx):
            x[idx] = rng.uniform(*config.free_init, size=len(idx))

        rounds = []
        for rnd in range(config.rounds):
            if rnd > 0:
                # the sampled index parameters did not certify: steer them
                # with a joint penalty descent before trying again
                margins = (1e-1, 1e-2, 1e-3, config.margin) if rnd == 1 \
                    else (1e-3, config.margin)
                for margin in margins:
                    x = descend(x, warmup, margin)
            amap = AffineGramMap(grams, layout, x[layout.theta_idx])
            y, lam, record = amap.refine(x[amap.free_idx], dr_budget, config.tolerance)
            rounds.append(record)
            x = x.copy()
            x[amap.free_idx] = y
            if lam >= -config.tolerance:
                break
        val, _, lams = penalty(grams, x, config.margin)
        return x, lams, float(val), rounds

    results = [run_restart(r) for r in range(config.restarts)]

    best = None
    restart_log = []
    for r, (res_x, lams, residual, rounds) in enumerate(results):
        valid = bool(np.all(lams >= -config.tolerance))
        restart_log.append({
            "restart": r,
            "k": res_x[layout.theta_idx].tolist(),
            "lambda_mins": lams.tolist(),
            "residual": residual,
            "valid": valid,
            "rounds": rounds,
        })
        if best is None or residual < best[0]:
            best = (residual, r, res_x.copy(), lams.copy())

    residual, _, x, lams = best
    cert = Certificate(
        decision=x,
        variable_names=[v.name for v in layout.variables],
        lambda_mins=lams,
        tolerance=config.tolerance,
        seed=config.seed,
        config_hash=config.digest(),
        restarts=restart_log,
        matrices=grams.matrices(x),
        basis_repr=[[_mono_repr(m) for m in spec.basis] for spec in specs],
    )
    if not cert.valid:
        raise SolverFailure(cert, residual)
    return cert


def _mono_repr(m) -> str:
    if not m:
        return "1"
    return "*".join(f"{v.name}^{e}" if e > 1 else v.name for v, e in m)


def check_certificate(specs: Sequence[GramSpec], layout: DecisionLayout,
                      cert: Certificate, tolerance: float | None = None,
                      k_min: float = 1e-4) -> tuple[bool, list[str]]:
    """Independent re-check: recompute every Gram matrix and its eigenvalues
    with the in-repo Jacobi eigensolver, not the solver's LAPACK path, in one
    batched call per Gram size.

    Verifies the sign constraints on the decision vector and that each
    case's minimum eigenvalue clears ``-tolerance``.  Returns a pass flag
    and per-violation diagnostics.
    """
    tol = cert.tolerance if tolerance is None else tolerance
    diagnostics: list[str] = []
    d = cert.decision
    if len(d) != layout.size:
        return False, [f"decision dimension {len(d)} != layout size {layout.size}"]
    for i in layout.theta_idx:
        if d[i] < k_min - 1e-12:
            diagnostics.append(f"theta component {layout.variables[i].name} = {d[i]:.3e} below {k_min}")
    for i in layout.gamma_idx:
        if d[i] < -1e-12:
            diagnostics.append(f"multiplier {layout.variables[i].name} = {d[i]:.3e} is negative")
    stack = GramStack(specs, layout)
    lam_min = np.empty(len(specs))
    for members, mats in stack.split(stack.flat(d)):
        lam_min[members] = jacobi_eigh_batch(mats)[0][:, 0]
    for c, lam in enumerate(lam_min):
        if lam < -tol:
            diagnostics.append(f"case {c}: lambda_min = {lam:.3e} < {-tol:.1e} (margin {lam + tol:.3e})")
    return not diagnostics, diagnostics
