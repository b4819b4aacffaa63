"""Multi-start feasibility solver for the certificate conditions.

Each refute case contributes a Gram matrix whose entries are polynomials in
the decision variables (index parameters, scalar multipliers, and optional
Gram kernel shares).  A decision vector is a certificate when every Gram
matrix is positive semidefinite.  Each seeded restart first runs a
Douglas-Rachford (DR) round on the multipliers at its sampled index
parameters.  A DR round stops on ``tolerance`` (it certifies) or on
``budget``; only a round that spends its budget is followed by an L-BFGS
penalty round that steers the index parameters.

A basis monomial whose Gram diagonal is the zero polynomial forces its row
and column of a PSD matrix to zero, so DR runs on that zero face: the
pruned entries become affine equalities on the multipliers, solved once per
round, and DR iterates on the kept blocks only.  Candidates are still
judged on the full Gram matrices.

The solver's eigendecompositions run on LAPACK (``np.linalg.eigh``).  The
in-repo Jacobi eigensolver (:func:`jacobi_eigh_batch`) serves
:func:`check_certificate`, so a certificate is re-checked by an eigensolver
independent of the one that found it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .index import K_MIN
from .poly import VarId
from .refute import GramSpec, RefuteCase

JACOBI_TOL = 1e-13
MAX_SWEEPS = 60

DR_RELAXATION = 1.8     # Douglas-Rachford over-relaxation
DR_CHECK_EVERY = 5      # DR iterations between candidate checks
PENALTY_MARGIN = 1e-5   # eigenvalue margin of the last L-BFGS penalty stage
MULT_INIT = (0.0, 1.0)  # sampling ranges of a restart's gamma multipliers
FREE_INIT = (-1.0, 1.0)  # and of its zeta multipliers and kernel shares


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
        # per case, the basis indices whose Gram diagonal is the zero
        # polynomial: a PSD matrix is zero on their rows and columns
        self.pruned = [np.array([i for i in range(spec.size) if spec.entries[i][i].is_zero()],
                                dtype=np.intp) for spec in specs]
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


def _sym_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigendecomposition of a stack of matrices, symmetrized."""
    return np.linalg.eigh(0.5 * (mats + mats.transpose(0, 2, 1)))


def _face_solutions(E: np.ndarray, e: np.ndarray):
    """Every solution ``y = y_p + N w`` of each stacked system ``E y = e``.

    One batched SVD: ``y_p`` is the least-squares solution of least norm and
    the columns of ``N`` are an orthonormal basis of the null space of
    ``E``.  The rank sets the width of ``N``, so cases are yielded grouped by
    rank as ``(case selection, N, y_p)``.  A system without rows gives
    ``N = I`` and ``y_p = 0`` exactly.
    """
    U, s, Vt = np.linalg.svd(E)
    tol = np.max(s, axis=1, initial=0.0) * max(E.shape[1:]) * np.finfo(float).eps
    rank = np.sum(s > tol[:, None], axis=1)
    for r in np.unique(rank):
        sel = np.flatnonzero(rank == r)
        V = Vt[sel].transpose(0, 2, 1)
        coef = np.matmul(U[sel][:, :, :r].transpose(0, 2, 1), e[sel][..., None])
        yield sel, V[:, :, r:], np.matmul(V[:, :, :r], coef / s[sel][:, :r, None])[..., 0]


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices, by forward substitution."""
    X = np.zeros_like(L)
    for i in range(L.shape[-1]):
        X[:, i, i] = 1.0 / L[:, i, i]
        X[:, i, :i] = -np.matmul(L[:, i, None, :i], X[:, :i, :i])[:, 0] * X[:, i, i, None]
    return X


class _Block(NamedTuple):
    """Cases of one block shape, stacked.

    The full block maps the free columns ``C`` to the packed rows ``R`` (the
    Gram entries row-major, then the sign rows) as ``A y + b``.  On the zero
    face the free decision is ``y = yp + N w``, and the ``kept`` rows of the
    block are ``Af w + bf``, with least-squares projector ``P``.  ``v`` and
    ``w`` are the block's slices of the face-packed vector and of the face
    coordinates; ``k`` is the kept Gram size.
    """
    R: np.ndarray
    C: np.ndarray
    A: np.ndarray
    b: np.ndarray
    kept: np.ndarray
    k: int
    N: np.ndarray
    yp: np.ndarray
    Af: np.ndarray
    bf: np.ndarray
    P: np.ndarray
    v: slice
    w: slice


class AffineGramMap:
    """The Gram stack as an affine function of the non-index decision
    variables, restricted to the zero face.

    For pinned index parameters every Gram entry is affine in the remaining
    decision coordinates (multipliers and kernel shares), so the packed
    matrices are ``A y + b``, in the layout of :meth:`GramStack.flat`, with
    the gamma multipliers' sign constraints as extra scalar rows
    (:meth:`evaluate`).  Refute cases share only the index parameters, so
    once those are pinned ``A`` is block diagonal, one dense block per case;
    blocks of equal shape are stacked.

    A basis monomial whose Gram diagonal is the zero polynomial
    (:attr:`GramStack.pruned`) forces its whole row and column of a PSD
    matrix to zero.  Those entries are affine equalities ``E y = e`` on the
    case's columns, solved by one batched SVD as ``y = y_p + N w``
    (:func:`_face_solutions`); a case with nothing pruned has ``N = I`` and
    ``y_p = 0``.  The Douglas-Rachford iteration of :meth:`refine` runs on
    the face: :meth:`apply` and :meth:`project` map face coordinates ``w``
    to the kept Gram entries and sign rows and back, so both feasibility
    projections stay exact and the cone side eigendecomposes only the kept
    blocks.  :meth:`candidate` still judges the full matrices.
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

        # rows and columns of each case's block, grouped by block shape and
        # pruned basis monomials
        shapes: dict[tuple, list[tuple[np.ndarray, np.ndarray]]] = {}
        for c, n in enumerate(grams.sizes):
            r = np.concatenate([grams.case_offsets[c] + np.arange(n * n),
                                self.rows_gram + np.flatnonzero(owner[self.gamma_pos] == c)])
            cols = np.flatnonzero(owner == c)
            shapes.setdefault((n, len(r), len(cols), tuple(grams.pruned[c].tolist())),
                              []).append((r, cols))
        entry_rows = np.concatenate([rows[linear], np.arange(self.rows_gram, nrows)])
        entry_cols = np.concatenate([col[linear], self.gamma_pos])
        values = np.concatenate([cval[linear], np.ones(len(self.gamma_pos))])
        row_slot = np.empty(nrows, dtype=np.intp)   # row's offset in its group's stack
        col_slot = np.empty(nfree, dtype=np.intp)   # column's index within its block
        row_group = np.full(nrows, -1, dtype=np.intp)
        self._blocks: list[_Block] = []
        v_off = w_off = 0
        for g, ((n, nr, nc, pruned), members) in enumerate(sorted(shapes.items())):
            R = np.array([r for r, _ in members], dtype=np.intp).reshape(len(members), nr)
            C = np.array([c for _, c in members], dtype=np.intp).reshape(len(members), nc)
            row_slot[R] = np.arange(R.size).reshape(R.shape)
            col_slot[C] = np.arange(nc)
            row_group[R] = g
            mine = row_group[entry_rows] == g
            A = np.bincount(row_slot[entry_rows[mine]] * nc + col_slot[entry_cols[mine]],
                            weights=values[mine], minlength=R.size * nc
                            ).reshape(len(members), nr, nc)
            b = self.b[R]
            on_face = np.zeros((n, n), dtype=bool)
            on_face[list(pruned)] = True
            on_face[:, list(pruned)] = True
            kept = np.concatenate([np.flatnonzero(~on_face), np.arange(n * n, nr)])
            # upper-triangle entries on the face; an entry that is zero in
            # every case (such as a pruned diagonal) constrains nothing
            face = np.flatnonzero(np.triu(on_face))
            face = face[np.any(A[:, face] != 0.0, axis=(0, 2)) | np.any(b[:, face] != 0.0, axis=0)]
            for sel, N, yp in _face_solutions(A[:, face], -b[:, face]):
                Ak = A[sel][:, kept]
                Af = np.matmul(Ak, N)
                try:
                    L = np.linalg.cholesky(np.matmul(Af.transpose(0, 2, 1), Af))
                except np.linalg.LinAlgError as exc:
                    raise ValueError(
                        f"the affine Gram map at theta = {self.theta.tolist()} has linearly "
                        "dependent multiplier columns (A^T A is not positive definite)") from exc
                # (Af^T Af)^-1 Af^T = L^-T L^-1 Af^T, so each projection is one matmul
                Li = _lower_inverse(L)
                P = np.matmul(Li.transpose(0, 2, 1), np.matmul(Li, Af.transpose(0, 2, 1)))
                bf = b[sel][:, kept] + np.matmul(Ak, yp[..., None])[..., 0]
                dv, dw = Af.shape[0] * Af.shape[1], Af.shape[0] * Af.shape[2]
                self._blocks.append(_Block(
                    R=R[sel], C=C[sel], A=A[sel], b=b[sel], kept=kept, k=n - len(pruned),
                    N=N, yp=yp, Af=Af, bf=bf, P=P,
                    v=slice(v_off, v_off + dv), w=slice(w_off, w_off + dw)))
                v_off, w_off = v_off + dv, w_off + dw
        self.face_rows, self.face_dim = v_off, w_off

    def evaluate(self, y: np.ndarray) -> np.ndarray:
        """The packed Gram matrices and sign rows ``A y + b`` at free decision ``y``."""
        out = np.empty(len(self.b))
        for blk in self._blocks:
            out[blk.R] = np.matmul(blk.A, y[blk.C][..., None])[..., 0] + blk.b
        return out

    def apply(self, w: np.ndarray) -> np.ndarray:
        """The kept Gram entries and sign rows ``Af w + bf`` at face coordinates
        ``w``, packed block by block."""
        out = np.empty(self.face_rows)
        for blk in self._blocks:
            wb = w[blk.w].reshape(len(blk.C), -1, 1)
            out[blk.v] = (np.matmul(blk.Af, wb)[..., 0] + blk.bf).ravel()
        return out

    def project(self, v: np.ndarray) -> np.ndarray:
        """The least-squares face coordinates ``argmin_w |Af w + bf - v|``."""
        w = np.empty(self.face_dim)
        for blk in self._blocks:
            vb = v[blk.v].reshape(len(blk.C), -1)
            w[blk.w] = np.matmul(blk.P, (vb - blk.bf)[..., None]).ravel()
        return w

    def lift(self, w: np.ndarray) -> np.ndarray:
        """The free decision ``y = y_p + N w`` on the face."""
        y = np.empty(len(self.free_idx))
        for blk in self._blocks:
            wb = w[blk.w].reshape(len(blk.C), -1, 1)
            y[blk.C] = blk.yp + np.matmul(blk.N, wb)[..., 0]
        return y

    def restrict(self, y: np.ndarray) -> np.ndarray:
        """Face coordinates of the point of the face nearest the free decision ``y``."""
        w = np.empty(self.face_dim)
        for blk in self._blocks:
            w[blk.w] = np.matmul(blk.N.transpose(0, 2, 1), (y[blk.C] - blk.yp)[..., None]).ravel()
        return w

    def _eig(self, v: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Eigenvalues (ascending) and eigenvectors of each size group's
        symmetrized Gram stack in the packed vector ``v``."""
        return [_sym_eigh(mats) for _, mats in self.grams.split(v)]

    def _cone(self, z: np.ndarray) -> np.ndarray:
        """Projection of face-packed ``z`` onto the PSD cone of every kept
        block and the nonnegative sign rows."""
        out = np.empty_like(z)
        for blk in self._blocks:
            kk = blk.k * blk.k
            zb, xb = z[blk.v].reshape(len(blk.C), -1), out[blk.v].reshape(len(blk.C), -1)
            w, V = _sym_eigh(zb[:, :kk].reshape(-1, blk.k, blk.k))
            xb[:, :kk] = np.einsum("bij,bj,bkj->bik", V, np.maximum(w, 0.0), V).reshape(-1, kk)
            xb[:, kk:] = np.maximum(zb[:, kk:], 0.0)
        return out

    def candidate(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Clip the sign constraints and report each case's minimum
        eigenvalue of the full Gram matrix."""
        y = y.copy()
        y[self.gamma_pos] = np.maximum(y[self.gamma_pos], 0.0)
        v = self.evaluate(y)
        lams = np.empty(len(self.grams.sizes))
        for (members, _), (w, _) in zip(self.grams.split(v), self._eig(v)):
            lams[members] = w[:, 0]
        return y, lams

    def reduced_lambda_min(self, y: np.ndarray) -> float:
        """The worst minimum eigenvalue over the kept blocks at free decision ``y``."""
        v = self.evaluate(y)
        worst = []
        for blk in self._blocks:
            kept = v[blk.R[:, blk.kept[:blk.k ** 2]]].reshape(-1, blk.k, blk.k)
            worst.append(float(_sym_eigh(kept)[0][:, 0].min()))
        return min(worst)

    def refine(self, y: np.ndarray, iterations: int, tolerance: float
               ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Douglas-Rachford feasibility iteration on the zero face, between
        the PSD cone of the kept blocks (with the nonnegative sign rows) and
        the affine image of the face, keeping the best sign-feasible iterate.

        The iteration starts from the point of the face nearest ``y``.  Every
        ``DR_CHECK_EVERY`` iterations the affine-side point is lifted to a
        free decision and judged by :meth:`candidate`.  Returns the best free
        decision, its per-case minimum eigenvalues and a record ``{"dr_iters",
        "stop", "lambda_min", "reduced_lambda_min"}``: ``stop`` is
        ``tolerance`` (the iterate certifies) or ``budget`` (``iterations``
        ran out), ``lambda_min`` the worst of those eigenvalues, and
        ``reduced_lambda_min`` the kept blocks' worst minimum eigenvalue.
        """
        y_best, lams_best = self.candidate(y)
        lam_best = float(lams_best.min())
        it, stop = -1, "tolerance"
        if lam_best < -tolerance:
            z = self.apply(self.restrict(y))
            stop = "budget"
            for it in range(iterations):
                xc = self._cone(z)
                xl = self.apply(self.project(2.0 * xc - z))
                z = z + DR_RELAXATION * (xl - xc)
                if it % DR_CHECK_EVERY == 0 or it == iterations - 1:
                    y_cand, lams = self.candidate(self.lift(self.project(xc)))
                    if lams.min() > lam_best:
                        y_best, lams_best, lam_best = y_cand, lams, float(lams.min())
                        if lam_best >= -tolerance:
                            stop = "tolerance"
                            break
        return y_best, lams_best, {"dr_iters": it + 1, "stop": stop, "lambda_min": lam_best,
                                   "reduced_lambda_min": self.reduced_lambda_min(y_best)}


@dataclass
class SolverConfig:
    restarts: int = 10
    iterations: int = 5000
    rounds: int = 4
    tolerance: float = 1e-6
    seed: int = 0
    k_min: float = K_MIN
    k_init: tuple[float, float] = (K_MIN, 1.0)

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
    """No restart certified; carries the best attempt and its residual."""

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

    Each of the ``config.restarts`` seeded restarts first runs a
    Douglas-Rachford feasibility refinement of the multipliers at its
    sampled index parameters (exact convex projections, which handle the
    flat tail where gradient descent stalls).  A round stops on
    ``tolerance`` (it certifies, ending the restart) or on ``budget``; only
    a round that spends its budget is followed by a joint L-BFGS penalty
    descent over all decision variables, which steers the index parameters
    before the next DR round.  Each restart's log entry lists its rounds as
    :meth:`AffineGramMap.refine` records them, and its per-case
    ``lambda_mins`` are those of its last round.  The restart returned is
    the best by ``(valid, reduced_lambda_min of its last round)``, ties
    going to the lower restart index.  Raises :class:`SolverFailure` with
    that restart when none certifies.
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
        x[layout.gamma_idx] = rng.uniform(*MULT_INIT, size=len(layout.gamma_idx))
        for idx in (layout.zeta_idx, layout.kernel_idx):
            x[idx] = rng.uniform(*FREE_INIT, size=len(idx))

        rounds = []
        for rnd in range(config.rounds):
            if rnd > 0:
                # the sampled index parameters did not certify: steer them
                # with a joint penalty descent before trying again
                margins = (1e-1, 1e-2, 1e-3, PENALTY_MARGIN) if rnd == 1 \
                    else (1e-3, PENALTY_MARGIN)
                for margin in margins:
                    x = descend(x, warmup, margin)
            amap = AffineGramMap(grams, layout, x[layout.theta_idx])
            y, lams, record = amap.refine(x[amap.free_idx], dr_budget, config.tolerance)
            rounds.append(record)
            x = x.copy()
            x[amap.free_idx] = y
            if record["lambda_min"] >= -config.tolerance:
                break
        return x, {"restart": r, "k": x[layout.theta_idx].tolist(),
                   "lambda_mins": lams.tolist(),
                   "valid": bool(np.all(lams >= -config.tolerance)), "rounds": rounds}

    results = [run_restart(r) for r in range(config.restarts)]
    x, best = max(results, key=lambda res: (res[1]["valid"],
                                            res[1]["rounds"][-1]["reduced_lambda_min"]))
    lams = np.array(best["lambda_mins"])
    cert = Certificate(
        decision=x,
        variable_names=[v.name for v in layout.variables],
        lambda_mins=lams,
        tolerance=config.tolerance,
        seed=config.seed,
        config_hash=config.digest(),
        restarts=[entry for _, entry in results],
        matrices=grams.matrices(x),
        basis_repr=[[_mono_repr(m) for m in spec.basis] for spec in specs],
    )
    if not cert.valid:
        # the residual sum max(0, -lambda_min - tolerance)^2 over the cases
        raise SolverFailure(cert, float(np.sum(np.maximum(0.0, -lams - config.tolerance) ** 2)))
    return cert


def _mono_repr(m) -> str:
    if not m:
        return "1"
    return "*".join(f"{v.name}^{e}" if e > 1 else v.name for v, e in m)


def check_certificate(specs: Sequence[GramSpec], layout: DecisionLayout,
                      cert: Certificate, tolerance: float | None = None,
                      k_min: float = K_MIN) -> tuple[bool, list[str]]:
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
