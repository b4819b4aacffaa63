"""Multi-start feasibility solver for the certificate conditions.

Each refute case contributes a Gram matrix whose entries are polynomials in
the decision variables (index parameters, scalar multipliers, and Gram
kernel shares).  A decision vector is a certificate when every Gram
matrix is positive semidefinite.  With the index parameters pinned the
conditions are convex, so each seeded restart runs Douglas-Rachford (DR)
on the multipliers at its sampled index parameters.  A DR run stops on
``tolerance`` (it certifies) or on ``budget``.  Only a restart whose run
spends its budget searches over the index gain k: ``GRID_POINTS``
log-spaced k over ``[k_min, K_MAX]`` give each point's best ``lambda_min``
after ``GRID_ITERATIONS`` DR iterations, with every index parameter set to
k, and full-budget DR runs at the best of them.

With the index parameters pinned, every Gram entry is affine in the other
decision variables.  :func:`solve` lowers that affine map
(:class:`AffineGramMap`) once, and each DR run evaluates it at its own k.
A basis monomial whose Gram diagonal is the zero polynomial forces its row
and column of a PSD matrix to zero, so DR runs on that zero face: the
pruned entries become affine equalities on the multipliers, solved at each
DR run's k, and DR iterates on the kept blocks only.  Candidates are still
judged on the full Gram matrices.

Refute cases that mirror each other under one state variable's sign flip
(:class:`MirrorPairs`, read off the refute sets where
:meth:`DecisionLayout.build` lays out their variables) are solved once per
pair: DR runs on the representatives, over the one layout and
:class:`GramStack`.  After a restart's last DR run, each partner's
variables are filled in from its representative's, which makes its Gram
matrix ``D Q D``, and the Gram matrices are evaluated once to judge the
partners.  :func:`check_certificate` still re-checks every case.

Each eigensolver runs where its output is read.  The DR cone step needs
eigenvectors, and ``reduced_lambda_min`` ranks the restarts, so both run
LAPACK ``np.linalg.eigh``.  The candidate checks and a mirror partner's
``lambda_min`` read only eigenvalues, so they run ``np.linalg.eigvalsh``.
The in-repo Jacobi eigensolver (:func:`jacobi_eigh_batch`) serves
:func:`check_certificate`, so a certificate is re-checked by an eigensolver
independent of the one that found it.  Each of its rounds rotates disjoint
index pairs, so the round is one rotation matrix applied by ``np.matmul``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .index import K_MIN, chain_roots
from .poly import VarId
from .refute import GramSpec, RefuteCase

TOLERANCE = 1e-6       # a case certifies when its Gram lambda_min >= -TOLERANCE
JACOBI_TOL = 1e-13
MAX_SWEEPS = 60

DR_RELAXATION = 1.8     # Douglas-Rachford over-relaxation
DR_CHECK_EVERY = 5      # DR iterations between candidate checks
K_MAX = 100.0           # top of the search grid over k, which starts at k_min
GRID_POINTS = 25        # log-spaced grid points
GRID_DECIMALS = 12      # grid lambda_min are ranked rounded to this many decimals,
                        # so rounding noise in DR cannot reorder tied points
GRID_ITERATIONS = 200   # DR iterations per grid point
SEARCH_RUNS = 2         # full-budget DR runs at the best grid points
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


def _rotation_plans(nb: int, n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per round-robin round: a ``(nb, n, n)`` rotation matrix ``J`` that is
    zero but for the unpaired diagonal entry (odd ``n``), the flat slots of
    its ``(p,p)``, ``(q,q)``, ``(p,q)``, ``(q,p)`` entries, and the flat
    gather index of ``a_pq``, ``a_pp``, ``a_qq`` in an ``n × n`` matrix."""
    rounds = _round_robin_rounds(n)
    ps, qs = (np.array([r[i] for r in rounds]) for i in (0, 1))   # (rounds, pairs)
    J = np.zeros((len(rounds), nb, n, n))
    if n % 2:
        # the one index each round leaves out: all indices' sum less the paired ones
        unpaired = n * (n - 1) // 2 - ps.sum(axis=1) - qs.sum(axis=1)
        J[np.arange(len(rounds)), :, unpaired, unpaired] = 1.0
    pp, qq, pq, qp = ps * (n + 1), qs * (n + 1), ps * n + qs, qs * n + ps
    return list(zip(J, np.concatenate([pp, qq, pq, qp], axis=1),
                    np.concatenate([pq, pp, qq], axis=1)))


def jacobi_eigh_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a stack of symmetric matrices by Jacobi rotations.

    Each round of a sweep rotates a fixed set of disjoint index pairs (a
    round-robin schedule).  Disjoint rotations commute, so a round is one
    orthogonal matrix ``J`` per stacked matrix, applied to all of them at once
    as ``A ← Jᵀ (A J)`` and ``V ← V J`` by ``np.matmul``; the rotated
    ``(p,q)`` entries are then set to zero.  Sweeps stop once every matrix's
    off-diagonal norm is at most ``JACOBI_TOL`` times its largest entry, or
    after ``MAX_SWEEPS``.  Returns eigenvalues sorted ascending, shape (B,
    n), and matching orthonormal eigenvector columns, shape (B, n, n).
    Deterministic: fixed schedule, fixed rotation convention.
    """
    A = np.array(mats, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("expected a stack of square matrices")
    nb, n, _ = A.shape
    V = np.broadcast_to(np.eye(n), A.shape).copy()
    if n == 1:
        return A[:, :, 0], V
    scale = np.maximum(np.max(np.abs(A), axis=(1, 2)), 1e-300)
    plans = _rotation_plans(nb, n)
    tril = np.tril_indices(n, -1)
    m = n // 2   # pairs per round
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_SWEEPS):
            off = np.sqrt(np.sum(A[:, tril[0], tril[1]] ** 2, axis=1))
            if np.all(off <= JACOBI_TOL * scale):
                break
            for J, slots, gather in plans:
                g = A.reshape(nb, n * n)[:, gather]
                apq, app, aqq = g[:, :m], g[:, m:2 * m], g[:, 2 * m:]
                active = np.abs(apq) > 1e-300
                # keep theta == 0 -> t = 1: when 2·a_pq overflows, theta reads
                # 0, and a zero rotation would let the zeroing below delete a_pq
                theta = (aqq - app) / np.where(active, 2.0 * apq, 1.0)
                t = np.where(theta == 0.0, 1.0,
                             np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)))
                t = np.where(active, t, 0.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                J.reshape(nb, n * n)[:, slots] = np.concatenate([c, c, s, -s], axis=1)
                A = np.matmul(J.transpose(0, 2, 1), np.matmul(A, J))
                V = np.matmul(V, J)
                flat, zeroed = A.reshape(nb, n * n), slots[2 * m:]
                flat[:, zeroed] = np.where(np.concatenate([active, active], axis=1), 0.0,
                                           flat[:, zeroed])
    w = np.diagonal(A, axis1=1, axis2=2).copy()
    order = np.argsort(w, axis=1, kind="stable")
    w_sorted = np.take_along_axis(w, order, axis=1)
    V_sorted = np.take_along_axis(V, order[:, None, :], axis=2)
    return w_sorted, V_sorted


def mirror_signs(monomials: Sequence, s: VarId) -> list[int]:
    """``(-1)^{deg_s m}`` for each monomial ``m``: over a Gram basis, the
    diagonal of ``D``; over a spec's kernel monomials, each share's sign."""
    return [(-1) ** sum(e for v, e in m if v == s) for m in monomials]


@dataclass
class MirrorPairs:
    """Refute cases that map onto each other under one state variable's sign flip.

    Case ``b`` mirrors case ``a`` under ``s -> -s`` when ``b``'s gammas and
    zetas are ``a``'s with ``s`` negated, in order
    (:meth:`~sisynth.refute.RefuteCase.mirrored`).  Then ``p0_b`` is
    ``p0_a`` under ``s -> -s`` with the k-th multiplier of ``a`` renamed to
    the k-th of ``b``, so both have the same Gram basis ``m``, and with
    ``D = diag((-1)^{deg_s m})``, ``Q_b = D Q_a D`` when every multiplier
    maps at sign +1 and every kernel share at ``(-1)^{deg_s m}`` of the
    state monomial ``m`` it splits.  ``Q_b`` is then PSD with ``Q_a`` and
    has its eigenvalues, so :func:`solve` runs DR on the representatives
    ``a`` only and fills each partner ``b`` from the map (Gatermann &
    Parrilo, "Symmetry groups, semidefinite programs, and sums of squares",
    J. Pure Appl. Algebra 2004).  :meth:`DecisionLayout.build` finds the
    pairs; a layout built directly has none.
    """

    # (representative, partner, flipped state variable) per pair
    pairs: list[tuple[int, int, str]] = field(default_factory=list)
    # partner variable dst[i] is sign[i] * variable src[i]
    src: list[int] = field(default_factory=list)
    dst: list[int] = field(default_factory=list)
    sign: list[int] = field(default_factory=list)

    @property
    def partners(self) -> list[int]:
        return [b for _, b, _ in self.pairs]

    def fill(self, x: np.ndarray) -> np.ndarray:
        """``x`` with each partner variable set from its representative's."""
        x[self.dst] = np.multiply(self.sign, x[self.src])
        return x

    def by_variable(self) -> dict[str, list[list[int]]]:
        """``{flipped state variable: [[representative, partner], ...]}``."""
        out: dict[str, list[list[int]]] = {}
        for a, b, s in self.pairs:
            out.setdefault(s, []).append([a, b])
        return out


@dataclass
class DecisionLayout:
    """Global ordering of decision variables across all refute cases, and
    the cases' mirror pairs."""

    variables: list[VarId]
    theta_idx: np.ndarray
    gamma_idx: np.ndarray
    zeta_idx: np.ndarray
    kernel_idx: np.ndarray
    mirror: MirrorPairs = field(default_factory=MirrorPairs)

    @classmethod
    def build(cls, theta: Sequence[VarId], cases: Sequence[RefuteCase],
              specs: Sequence[GramSpec]) -> "DecisionLayout":
        """Each case's zeta multipliers, gamma multipliers and kernel shares
        after the index parameters ``theta``.  The cases pair greedily: state
        variables in registration order, then each unpaired case with the
        first later unpaired case that mirrors it (:class:`MirrorPairs`)."""
        variables = list(theta)
        zeta, gamma, kernel, own = [], [], [], []
        for case, spec in zip(cases, specs):
            start = len(variables)
            for idx, group in ((zeta, case.zeta_multipliers), (gamma, case.gamma_multipliers),
                               (kernel, spec.kernel_vars)):
                idx.extend(range(len(variables), len(variables) + len(group)))
                variables.extend(group)
            own.append(list(range(start, len(variables))))
        mirror, paired = MirrorPairs(), set()
        for s in sorted({v for spec in specs for m in spec.basis for v, _ in m}):
            for a in range(len(cases)):
                if a in paired:
                    continue
                image = cases[a].mirrored(s)
                b = next((b for b in range(a + 1, len(cases)) if b not in paired
                          and (cases[b].gammas, cases[b].zetas) == image), None)
                if b is not None:
                    mirror.pairs.append((a, b, s.name))
                    mirror.src += own[a]
                    mirror.dst += own[b]
                    kernel_signs = mirror_signs(specs[a].kernel_monomials, s)
                    mirror.sign += [1] * (len(own[a]) - len(kernel_signs)) + kernel_signs
                    paired |= {a, b}
        return cls(variables=variables,
                   theta_idx=np.arange(len(theta)),
                   gamma_idx=np.array(gamma, dtype=int),
                   zeta_idx=np.array(zeta, dtype=int),
                   kernel_idx=np.array(kernel, dtype=int),
                   mirror=mirror)

    @property
    def size(self) -> int:
        return len(self.variables)

    def index_of(self) -> dict[VarId, int]:
        return {v: i for i, v in enumerate(self.variables)}


class GramStack:
    """Every case's Gram matrix lowered to one term table for numeric evaluation.

    Each monomial of an upper-triangle Gram entry is one term: a coefficient,
    a fixed-width row of decision-variable factor indices (padded with an
    index pointing at a constant 1 slot), its case (``term_case``) and its
    position in one flat buffer that holds all matrices row-major, cases of
    equal Gram size next to each other (ascending size, then case order).
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
        self.term_case, rows, cols = (np.array([t[k] for t in terms], dtype=np.intp)
                                      for k in range(3))

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
        n_of = np.array(self.sizes, dtype=np.intp)[self.term_case]
        off_diag = rows != cols
        self.sym_w = np.where(off_diag, 2.0, 1.0)
        # every term lands at its upper entry, off-diagonal terms also at the
        # mirrored one: entry slot_entry[s] (row-major in the matrix of case
        # term_case[source[s]]) receives term source[s]
        self.source = np.concatenate([np.arange(len(terms)), np.flatnonzero(off_diag)])
        self.slot_entry = np.concatenate([rows * n_of + cols, (cols * n_of + rows)[off_diag]])
        self.scatter = self.case_offsets[self.term_case[self.source]] + self.slot_entry
        self.positions = self.scatter[:len(terms)]
        self._others = np.array([[o for o in range(width) if o != s] for s in range(width)],
                                dtype=np.intp).reshape(width, width - 1)

    def flat(self, d: np.ndarray) -> np.ndarray:
        """All Gram matrices at decision ``d``, packed into the flat buffer."""
        vals = self.coeffs * np.prod(np.append(d, 1.0)[self.factors], axis=1)
        return np.bincount(self.scatter, weights=vals[self.source], minlength=self.length)

    def split(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(case indices, (cases, n, n) stack)`` per size group, as views of
        a packed vector such as :meth:`flat` returns."""
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


def _own_variables(grams: GramStack, layout: DecisionLayout) -> np.ndarray:
    """Each term's one factor that is no index parameter, as a layout index
    (-1 for none): with the index parameters pinned, every Gram entry must
    be affine in the other decision variables."""
    # a factor that is neither an index parameter nor the constant-1 slot
    own = ~np.isin(grams.factors, np.append(layout.theta_idx, grams.nvars))
    if np.any(own.sum(axis=1) > 1):
        raise ValueError("Gram entries must be affine in the multipliers")
    return np.where(own, grams.factors, -1).max(axis=1)


def _sym(mats: np.ndarray) -> np.ndarray:
    """The symmetric parts of a stack of matrices."""
    return 0.5 * (mats + mats.transpose(0, 2, 1))


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

    Each case's free columns ``C`` map to its rows (its Gram entries
    row-major, then the sign rows of its gamma multipliers) as ``A y + b``;
    ``n`` is the Gram size.  On the zero face the free decision is
    ``y = yp + N w``, and the ``kept`` rows of the block are ``Af w + bf``,
    with least-squares projector ``P``; ``k`` is the kept Gram size.  The
    block's Douglas-Rachford points are its kept rows, ``(cases, rows, 1)``
    like ``bf``.
    """
    cases: np.ndarray
    C: np.ndarray
    A: np.ndarray
    b: np.ndarray
    n: int
    kept: np.ndarray
    k: int
    N: np.ndarray
    yp: np.ndarray
    Af: np.ndarray
    bf: np.ndarray
    P: np.ndarray

    def matrices(self, y: np.ndarray) -> np.ndarray:
        """The cases' full Gram matrices at free decision ``y``, ``(cases, n, n)``."""
        rows = np.matmul(self.A, y[self.C][..., None])[..., 0] + self.b
        return rows[:, :self.n * self.n].reshape(-1, self.n, self.n)

    def restrict(self, y: np.ndarray) -> np.ndarray:
        """The kept rows at the point of the face nearest the free decision ``y``."""
        w = np.matmul(self.N.transpose(0, 2, 1), (y[self.C] - self.yp)[..., None])
        return np.matmul(self.Af, w) + self.bf

    def cone(self, z: np.ndarray) -> np.ndarray:
        """Projection of the kept rows ``z`` onto the PSD cone of the kept
        block and the nonnegative sign rows."""
        kk = self.k * self.k
        w, V = np.linalg.eigh(_sym(z[:, :kk, 0].reshape(-1, self.k, self.k)))
        x = np.maximum(z, 0.0)   # the sign rows; the Gram rows are rebuilt below
        x[:, :kk, 0] = np.einsum("bij,bj,bkj->bik", V, np.maximum(w, 0.0), V).reshape(-1, kk)
        return x

    def affine(self, v: np.ndarray) -> np.ndarray:
        """Projection of the kept rows ``v`` onto the image ``Af w + bf`` of the face."""
        return np.matmul(self.Af, np.matmul(self.P, v - self.bf)) + self.bf

    def lift(self, v: np.ndarray) -> np.ndarray:
        """The cases' free decisions ``yp + N w`` at the least-squares face
        coordinates ``w`` of the kept rows ``v``, ``(cases, columns)``."""
        return self.yp + np.matmul(self.N, np.matmul(self.P, v - self.bf))[..., 0]


class AffineGramMap:
    """The Gram matrices as an affine function of the non-index decision
    variables, one block per refute case, restricted to the zero face.

    For pinned index parameters every Gram entry is affine in the remaining
    decision coordinates (multipliers and kernel shares).  Refute cases
    share only the index parameters, so each case is a block of its own
    (:class:`_Block`) over its own columns; blocks of equal shape are stacked.
    Blocks are built for ``cases`` (every case by default) over the whole
    layout's columns: :meth:`refine` leaves an unselected case's columns at
    0, and :meth:`candidate` reports its ``lambda_min`` as ``+inf``.

    The constructor builds what does not depend on the index parameters:
    the free columns and their owner cases, the block shapes, the kept rows
    and the face entries, and for each Gram entry slot of a block its place
    in ``A`` or ``b`` and its term.  :meth:`at` pins the index parameters:
    it evaluates the terms, scatters them into every block's ``A`` and
    ``b``, and solves the zero face.  :meth:`candidate`, :meth:`refine` and
    :meth:`reduced_lambda_min` read the blocks of the last :meth:`at`.

    A basis monomial whose Gram diagonal is the zero polynomial
    (:attr:`GramStack.pruned`) forces its whole row and column of a PSD
    matrix to zero.  Those entries are affine equalities ``E y = e`` on the
    case's columns, solved by one batched SVD as ``y = y_p + N w``
    (:func:`_face_solutions`); a case with nothing pruned has ``N = I`` and
    ``y_p = 0``.  The Douglas-Rachford iteration of :meth:`refine` runs on
    the face, each block on its own kept Gram entries and sign rows: the
    affine side projects them onto ``Af w + bf``, so both feasibility
    projections stay exact and the cone side eigendecomposes only the kept
    blocks.  :meth:`candidate` still judges the full matrices.
    """

    def __init__(self, grams: GramStack, layout: DecisionLayout,
                 cases: Sequence[int] | None = None):
        nv = layout.size
        self._grams, self._theta_idx = grams, layout.theta_idx
        self.ncases = len(grams.sizes)
        self.free_idx = np.setdiff1d(np.arange(nv), layout.theta_idx)
        free_pos = np.full(nv + 1, -1, dtype=np.intp)
        free_pos[self.free_idx] = np.arange(len(self.free_idx))
        self.gamma_pos = free_pos[layout.gamma_idx]

        # one (case, row, column) per Gram entry slot; a term without an own
        # variable reads -1, and free_pos[-1] (the constant-1 slot's) is -1
        case, row = grams.term_case[grams.source], grams.slot_entry
        col = free_pos[_own_variables(grams, layout)][grams.source]
        nfree, linear = len(self.free_idx), col >= 0

        # a free column belongs to the one case whose Gram entries it enters
        owner = np.full(nfree, -1, dtype=np.intp)
        owner[col[linear]] = case[linear]
        shared = col[linear][owner[col[linear]] != case[linear]]
        if len(shared):
            name = layout.variables[self.free_idx[shared[0]]].name
            raise ValueError(f"decision variable {name} enters the Gram matrices of "
                             "more than one refute case")
        if np.any(owner < 0):
            name = layout.variables[self.free_idx[np.argmax(owner < 0)]].name
            raise ValueError(f"decision variable {name} enters no Gram matrix")

        # per case: its Gram entries row-major, then one sign row per gamma
        gamma_case = owner[self.gamma_pos]
        shapes: dict[tuple, list[tuple[int, np.ndarray]]] = {}
        for c in range(self.ncases) if cases is None else cases:
            n, cols = grams.sizes[c], np.flatnonzero(owner == c)
            nr = n * n + np.count_nonzero(gamma_case == c)
            shapes.setdefault((n, nr, len(cols), tuple(grams.pruned[c].tolist())),
                              []).append((c, cols))
        case_slot = np.empty(self.ncases, dtype=np.intp)   # case's index in its block
        col_slot = np.empty(nfree, dtype=np.intp)          # column's index in its block
        # per block shape: (cases, C, n, kept Gram size, shape of [A | b],
        # kept rows, upper-triangle face entries, flat index into [A | b] and
        # term of each scattered value)
        self._shapes: list[tuple] = []
        for (n, nr, nc, pruned), members in sorted(shapes.items()):
            cases = np.array([c for c, _ in members], dtype=np.intp)
            C = np.array([cols for _, cols in members], dtype=np.intp).reshape(len(cases), nc)
            case_slot[cases] = np.arange(len(cases))
            col_slot[C] = np.arange(nc)
            # [A | b] is (cases, rows, nc + 1): a slot lands in its column, or
            # in b without one, and each sign row reads a 1 at its gamma's
            # column, the value :meth:`at` appends past the term table's end
            mine = np.isin(case, cases)
            scatter = (case_slot[case[mine]] * nr + row[mine]) * (nc + 1) + np.where(
                linear[mine], col_slot[col[mine]], nc)
            s, j = np.nonzero(np.isin(C, self.gamma_pos))
            signs = (s * nr + n * n + np.tile(np.arange(nr - n * n), len(cases))) * (nc + 1) + j
            on_face = np.zeros((n, n), dtype=bool)
            on_face[list(pruned)] = True
            on_face[:, list(pruned)] = True
            kept = np.concatenate([np.flatnonzero(~on_face), np.arange(n * n, nr)])
            term = np.append(grams.source[mine], np.full(len(signs), len(grams.coeffs)))
            self._shapes.append((cases, C, n, n - len(pruned), (len(cases), nr, nc + 1), kept,
                                 np.flatnonzero(np.triu(on_face)), np.append(scatter, signs), term))

    def at(self, theta: np.ndarray) -> "AffineGramMap":
        """Pin the index parameters at ``theta``: evaluate every block's ``A``
        and ``b``, solve its zero face and build its projections.  Returns
        the map."""
        self.theta = np.asarray(theta, dtype=float)
        pin = np.ones(self._grams.nvars + 1)   # 1 at every factor but the index parameters
        pin[self._theta_idx] = self.theta
        vals = np.append(self._grams.coeffs * np.prod(pin[self._grams.factors], axis=1), 1.0)
        self._blocks: list[_Block] = []
        for cases, C, n, k, dims, kept, face, scatter, term in self._shapes:
            Ab = np.bincount(scatter, weights=vals[term], minlength=np.prod(dims)).reshape(dims)
            A, b = Ab[..., :-1], Ab[..., -1]
            # upper-triangle entries on the face; an entry that is zero in
            # every case (such as a pruned diagonal) constrains nothing
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
                bf = b[sel][:, kept, None] + np.matmul(Ak, yp[..., None])
                self._blocks.append(_Block(
                    cases=cases[sel], C=C[sel], A=A[sel], b=b[sel], n=n, kept=kept,
                    k=k, N=N, yp=yp, Af=Af, bf=bf, P=P))
        return self

    def candidate(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Clip the sign constraints and report each selected case's minimum
        eigenvalue of the full Gram matrix, ``+inf`` for the others."""
        y = y.copy()
        y[self.gamma_pos] = np.maximum(y[self.gamma_pos], 0.0)
        lams = np.full(self.ncases, np.inf)
        for blk in self._blocks:
            lams[blk.cases] = np.linalg.eigvalsh(_sym(blk.matrices(y)))[:, 0]
        return y, lams

    def reduced_lambda_min(self, y: np.ndarray) -> float:
        """The worst minimum eigenvalue over the kept blocks at free decision ``y``."""
        worst = []
        for blk in self._blocks:
            kept = blk.matrices(y).reshape(len(blk.C), -1)[:, blk.kept[:blk.k ** 2]]
            w = np.linalg.eigh(_sym(kept.reshape(-1, blk.k, blk.k)))[0]
            worst.append(float(w[:, 0].min()))
        return min(worst)

    def refine(self, y: np.ndarray, iterations: int, tolerance: float
               ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Douglas-Rachford feasibility iteration on the zero face, between
        the PSD cone of the kept blocks (with the nonnegative sign rows) and
        the affine image of the face, keeping the best sign-feasible iterate,
        at the index parameters of the last :meth:`at`.

        Each block iterates its own kept rows: the iteration starts from the
        point of the face nearest ``y`` (:meth:`_Block.restrict`), and a step
        is :meth:`_Block.cone`, then :meth:`_Block.affine` of the reflection.
        Every ``DR_CHECK_EVERY`` iterations the cone-side points are lifted
        to a free decision (:meth:`_Block.lift`, 0 off the selected cases) and
        judged by :meth:`candidate`.  Returns the best free decision, its
        minimum eigenvalues per case (as :meth:`candidate`) and a record
        ``{"k", "dr_iters", "stop", "lambda_min", "reduced_lambda_min"}``:
        ``k`` is the pinned index parameters, ``stop`` is ``tolerance`` (the
        iterate certifies) or ``budget`` (``iterations`` ran out),
        ``lambda_min`` the worst of those eigenvalues, and
        ``reduced_lambda_min`` the kept blocks' worst minimum eigenvalue.
        """
        y_best, lams_best = self.candidate(y)
        lam_best = float(lams_best.min())
        it, stop = -1, "tolerance"
        if lam_best < -tolerance:
            z = [blk.restrict(y) for blk in self._blocks]
            stop = "budget"
            for it in range(iterations):
                check = it % DR_CHECK_EVERY == 0 or it == iterations - 1
                y_cand = np.zeros(len(self.free_idx)) if check else None
                for i, blk in enumerate(self._blocks):
                    xc = blk.cone(z[i])
                    z[i] = z[i] + DR_RELAXATION * (blk.affine(2.0 * xc - z[i]) - xc)
                    if check:
                        y_cand[blk.C] = blk.lift(xc)
                if check:
                    y_cand, lams = self.candidate(y_cand)
                    if lams.min() > lam_best:
                        y_best, lams_best, lam_best = y_cand, lams, float(lams.min())
                        if lam_best >= -tolerance:
                            stop = "tolerance"
                            break
        return y_best, lams_best, {"k": self.theta.tolist(), "dr_iters": it + 1, "stop": stop,
                                   "lambda_min": lam_best,
                                   "reduced_lambda_min": self.reduced_lambda_min(y_best)}


@dataclass
class SolverConfig:
    restarts: int = 10
    iterations: int = 1250
    seed: int = 0
    k_min: float = K_MIN
    k_init: tuple[float, float] | None = None   # default (k_min, max(k_min, 1))

    def __post_init__(self):
        if self.k_init is None:
            self.k_init = (self.k_min, max(self.k_min, 1.0))


@dataclass
class Certificate:
    """A decision vector and each refute case's Gram ``lambda_min`` at it,
    with the solver seed, the restart log, the Gram matrices, their bases and
    the mirror pairs.  ``config_hash`` is empty as :func:`solve` returns it;
    ``sisynth synth`` sets it to the run config's hash, the name of its
    default run directory."""
    decision: np.ndarray
    variable_names: list[str]
    lambda_mins: np.ndarray
    seed: int
    config_hash: str = ""
    restarts: list[dict] = field(default_factory=list)
    matrices: list[np.ndarray] = field(default_factory=list)
    basis_repr: list[list[str]] = field(default_factory=list)
    # {flipped state variable: [[representative, partner], ...]} (see MirrorPairs)
    mirror_pairs: dict[str, list[list[int]]] = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return bool(np.all(self.lambda_mins >= -TOLERANCE))

    def theta(self, layout: DecisionLayout) -> np.ndarray:
        return self.decision[layout.theta_idx]

    def to_dict(self) -> dict:
        return {
            "decision": dict(zip(self.variable_names, self.decision.tolist())),
            "lambda_mins": self.lambda_mins.tolist(),
            "seed": self.seed,
            "config_hash": self.config_hash,
            "valid": self.valid,
            **({"mirror_pairs": self.mirror_pairs} if self.mirror_pairs else {}),
            "restarts": self.restarts,
            "basis": self.basis_repr,
            "matrices": [m.tolist() for m in self.matrices],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        return cls(decision=np.array(list(data["decision"].values()), dtype=float),
                   variable_names=list(data["decision"]),
                   lambda_mins=np.array(data["lambda_mins"], dtype=float),
                   seed=int(data["seed"]),
                   config_hash=data.get("config_hash", ""),
                   restarts=data.get("restarts", []),
                   matrices=[np.array(m) for m in data.get("matrices", [])],
                   basis_repr=data.get("basis", []),
                   mirror_pairs=data.get("mirror_pairs", {}))


class SolverFailure(RuntimeError):
    """No restart certified; carries the best restart's certificate, and the
    message names its worst case (the lowest index on a tie) and that case's
    ``lambda_min``."""

    def __init__(self, certificate: Certificate):
        case = int(np.argmin(certificate.lambda_mins))
        super().__init__(f"feasibility search failed; worst lambda_min "
                         f"{certificate.lambda_mins[case]:.3e} in case {case}")
        self.certificate = certificate


def penalty(grams: GramStack, d: np.ndarray,
            margin: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Value, gradient, and per-case minimum eigenvalues of the PSD penalty.

    The penalty is the spectral sum ``sum_i max(0, margin - lambda_i)^2``
    over every eigenvalue of every case, which vanishes exactly when all
    minimum eigenvalues clear the margin and, unlike a min-eigenvalue-only
    hinge, stays continuously differentiable through eigenvalue crossings.
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
    """``scipy.optimize.minimize``, imported on first use.  :func:`solve` does
    not call it or :func:`penalty`; ``bench/worker.py`` traces both by name."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def solve(specs: Sequence[GramSpec], layout: DecisionLayout,
          config: SolverConfig) -> Certificate:
    """Search for a decision vector making every Gram matrix PSD.

    One :class:`AffineGramMap` is built per solve, over the representatives
    of the mirror pairs the layout records (``layout.mirror``; every case
    when there are none), and each DR run pins it at its k (:meth:`AffineGramMap.at`),
    so DR, the grid and the candidate checks run on the representatives
    only.  A DR run stops, and keeps its best iterate, by the
    representatives' worst ``lambda_min``.  After a restart's last DR run,
    its decision is assembled from that run's k and free decision, every
    partner is filled in from its representative, so its Gram matrix is
    ``D Q D``, and the Gram matrices are evaluated once: a
    representative's ``lambda_min`` is the one DR judged, and a partner's
    is computed from its filled-in Gram matrix.  Grid points and
    superseded search runs fill and judge no partner.

    Each seeded restart runs DR for ``config.iterations`` iterations at its
    sampled index parameters.  If that run ends on ``budget``, it runs DR
    from the same multipliers at the ``SEARCH_RUNS`` best points of the
    grid over k, one at a time until one certifies.  The points rank by
    ``lambda_min`` rounded to ``GRID_DECIMALS``; ties go to the lower k.
    The grid is run once per solve, from the first searching restart's
    multipliers.  A restart's log entry holds the grid samples ``[k,
    lambda_min]`` it read and the record of each of its DR runs.  Its ``k``
    and ``lambda_mins`` come from its last run.  The restart returned ranks
    highest by ``(valid, reduced_lambda_min of its last run)``; ties go to
    the lower index.
    The certificate records the pairs (``mirror_pairs``).  Raises
    :class:`SolverFailure` with that restart when none certifies.
    """
    if not specs:
        raise ValueError("no Gram specs to solve")
    grams = GramStack(specs, layout)
    mirror = layout.mirror
    partners = mirror.partners
    amap = AffineGramMap(grams, layout, [c for c in range(len(specs)) if c not in partners])
    grid: list[list[float]] = []   # [k, lambda_min] per grid point, filled on first use

    def run_dr(y, theta, iterations):
        """DR from free decision ``y`` at index parameters ``theta`` (a k broadcasts)."""
        amap.at(np.full(len(layout.theta_idx), theta))
        return amap.refine(y, iterations, TOLERANCE)

    def run_restart(r):
        rng = np.random.default_rng([config.seed, r])
        x = np.empty(layout.size)
        x[layout.theta_idx] = rng.uniform(*config.k_init, size=len(layout.theta_idx))
        x[layout.gamma_idx] = rng.uniform(*MULT_INIT, size=len(layout.gamma_idx))
        for idx in (layout.zeta_idx, layout.kernel_idx):
            x[idx] = rng.uniform(*FREE_INIT, size=len(idx))

        y0 = x[amap.free_idx]
        y, lams, record = run_dr(y0, x[layout.theta_idx], config.iterations)
        runs, searched = [record], record["stop"] == "budget"
        if searched:
            if not grid:
                grid.extend([float(k), run_dr(y0, k, GRID_ITERATIONS)[2]["lambda_min"]]
                            for k in np.geomspace(config.k_min, K_MAX, GRID_POINTS))
            ranked = sorted(grid, key=lambda sample: -round(sample[1], GRID_DECIMALS))
            for k, _ in ranked[:SEARCH_RUNS]:
                y, lams, record = run_dr(y0, k, config.iterations)
                runs.append(record)
                if record["stop"] == "tolerance":
                    break
        # the last run's decision, whose partners are filled and judged once
        x[layout.theta_idx] = record["k"]
        x[amap.free_idx] = y
        mirror.fill(x)
        for members, mats in grams.split(grams.flat(x)):
            filled = np.isin(members, partners)
            lams[members[filled]] = np.linalg.eigvalsh(mats[filled])[:, 0]
        return x, {"restart": r, "k": x[layout.theta_idx].tolist(),
                   "lambda_mins": lams.tolist(),
                   "valid": bool(np.all(lams >= -TOLERANCE)),
                   "grid": [list(sample) for sample in grid] if searched else [],
                   "runs": runs}

    results = [run_restart(r) for r in range(config.restarts)]
    x, best = max(results, key=lambda res: (res[1]["valid"],
                                            res[1]["runs"][-1]["reduced_lambda_min"]))
    cert = Certificate(
        decision=x,
        variable_names=[v.name for v in layout.variables],
        lambda_mins=np.array(best["lambda_mins"]),
        seed=config.seed,
        restarts=[entry for _, entry in results],
        matrices=grams.matrices(x),
        basis_repr=[[_mono_repr(m) for m in spec.basis] for spec in specs],
        mirror_pairs=mirror.by_variable(),
    )
    if not cert.valid:
        raise SolverFailure(cert)
    return cert


def _mono_repr(m) -> str:
    if not m:
        return "1"
    return "*".join(f"{v.name}^{e}" if e > 1 else v.name for v, e in m)


def layout_mismatch(cert: Certificate, layout: DecisionLayout) -> str | None:
    """Why ``cert``'s decision variables are not ``layout``'s, in order, or None."""
    if len(cert.decision) != layout.size:
        return f"decision dimension {len(cert.decision)} != layout size {layout.size}"
    renamed = [(a, v.name) for a, v in zip(cert.variable_names, layout.variables) if a != v.name]
    return "decision variable %r where the layout has %r" % renamed[0] if renamed else None


def check_certificate(specs: Sequence[GramSpec], layout: DecisionLayout,
                      cert: Certificate, k_min: float = K_MIN) -> tuple[bool, list[str]]:
    """Independent re-check: recompute every Gram matrix and its eigenvalues
    with the in-repo Jacobi eigensolver, not the solver's LAPACK path, in one
    batched call per Gram size.

    Verifies the decision's variable names against the layout, that every
    value is finite, its sign constraints, the real, positive
    :func:`~sisynth.index.chain_roots` of its k and each case's minimum
    eigenvalue against ``-TOLERANCE``; the certificate's own ``lambda_mins``
    are not read.  Returns a pass flag and one diagnostic per violation.
    """
    if mismatch := layout_mismatch(cert, layout):
        return False, [mismatch]
    d = cert.decision
    # every comparison with NaN is false, so each test below would pass it
    diagnostics = [f"decision variable {layout.variables[i].name} = {d[i]} is not finite"
                   for i in np.flatnonzero(~np.isfinite(d))]
    if diagnostics:
        return False, diagnostics
    for i in layout.theta_idx:
        if d[i] < k_min - 1e-12:
            diagnostics.append(f"theta component {layout.variables[i].name} = {d[i]:.3e} below {k_min}")
    try:
        chain_roots(d[layout.theta_idx])
    except ValueError as exc:
        diagnostics.append(str(exc))
    for i in layout.gamma_idx:
        if d[i] < -1e-12:
            diagnostics.append(f"multiplier {layout.variables[i].name} = {d[i]:.3e} is negative")
    stack = GramStack(specs, layout)
    lam_min = np.empty(len(specs))
    # finite values can still overflow a Gram entry; its eigenvalues are then
    # NaN, which the diagnostics below report.  A case with any NaN eigenvalue
    # reads lambda_min = NaN: the ascending sort puts NaN last, so column 0
    # alone could show a number
    with np.errstate(over="ignore", invalid="ignore"):
        for members, mats in stack.split(stack.flat(d)):
            w = jacobi_eigh_batch(mats)[0]
            lam_min[members] = np.where(np.isnan(w).any(axis=1), np.nan, w[:, 0])
    for c, lam in enumerate(lam_min):
        if np.isnan(lam):
            diagnostics.append(f"case {c}: lambda_min = nan is not a number")
        elif lam < -TOLERANCE:
            diagnostics.append(f"case {c}: lambda_min = {lam:.3e} < {-TOLERANCE:.1e} "
                               f"(margin {lam + TOLERANCE:.3e})")
    return not diagnostics, diagnostics
