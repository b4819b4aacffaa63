"""Certificate-free grid/sampling oracle for index feasibility.

Searches the manifold ``{x in X : phi_theta(x) >= 0}`` for states where the
worst-case (box-minimized) index derivative fails to clear ``-eta``.  A
returned counterexample is ground truth against any certificate; an empty
result is evidence at the chosen resolution only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .index import IndexParams, SafetyIndexFamily, box_min
from .system import InvertedBoundError, SymbolicSystem

DEFAULT_SLACK = 1e-6
SPACE_TOL = 1e-9


@dataclass
class Axis:
    """One sampled coordinate: a plain state variable or an angle pair.

    An angle axis samples the raw angle uniformly and assigns its sine and
    cosine to the two named state variables, so the circle identity holds
    exactly by construction.
    """

    names: tuple[str, ...]
    lo: float
    hi: float
    resolution: int = 100
    angle: bool = False

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("axis resolution must be >= 2")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"axis range must be finite, got [{self.lo}, {self.hi}]")
        if self.angle and len(self.names) != 2:
            raise ValueError("angle axis needs (sin, cos) variable names")
        if not self.angle and len(self.names) != 1:
            raise ValueError("linear axis takes one variable name")


@dataclass
class FalsifierConfig:
    axes: list[Axis]
    samples: int = 10000
    slack: float = DEFAULT_SLACK
    seed: int = 0

    def __post_init__(self):
        # a negative or NaN slack would hide counterexamples
        for key in ("samples", "seed", "slack"):
            value = getattr(self, key)
            if not 0 <= value < math.inf:
                raise ValueError(f"falsifier {key} must be >= 0 and finite, got {value}")


@dataclass
class Counterexample:
    state: np.ndarray
    phi_theta: float
    worst_phidot: float


def _blocks(axes: Sequence[Axis], samples: int, seed: int,
            sys: SymbolicSystem) -> list[tuple[tuple[int, ...], tuple]]:
    """The points to search, as ``(shape, x)`` blocks: ``x`` holds one array
    per state variable, each broadcastable to ``shape``.

    The first block is the grid.  Each axis's ``linspace`` sits on its own
    dimension, an angle axis takes its sine and cosine of those values only,
    and the grid's shape has one dimension per axis, so an axis no state
    variable reads still multiplies the points.  The random draws follow as
    a second block of flat columns.
    """
    n = len(axes)
    grid = [np.linspace(a.lo, a.hi, a.resolution).reshape([-1 if j == i else 1 for j in range(n)])
            for i, a in enumerate(axes)]
    blocks = [(tuple(a.resolution for a in axes), grid)]
    if samples > 0:
        rng = np.random.default_rng(seed)
        blocks.append(((samples,), [rng.uniform(a.lo, a.hi, size=samples) for a in axes]))
    out = []
    for shape, coords in blocks:
        by_name = {}
        for a, vals in zip(axes, coords):
            if a.angle:
                by_name[a.names[0]] = np.sin(vals)
                by_name[a.names[1]] = np.cos(vals)
            else:
                by_name[a.names[0]] = vals
        missing = [v.name for v in sys.state_vars if v.name not in by_name]
        if missing:
            raise ValueError(f"falsifier axes do not cover state variables: {missing}")
        out.append((shape, tuple(by_name[v.name] for v in sys.state_vars)))
    return out


def _at(values, shape: tuple[int, ...], where: tuple) -> np.ndarray:
    """``values`` broadcast to ``shape``, read at the multi-index ``where``."""
    return np.broadcast_to(np.asarray(values, dtype=float), shape)[where]


def falsify(fam: SafetyIndexFamily, params: IndexParams, sys: SymbolicSystem,
            cfg: FalsifierConfig) -> list[Counterexample]:
    """All manifold states sampled where the worst-case derivative fails.

    Searches the full grid of ``cfg.axes`` and then ``cfg.samples`` random
    draws, and returns the violations sorted by worst-case derivative, most
    violating first (ties in grid-then-sample order).  The grid is never
    materialized as a mesh: every polynomial, space check and box bound is
    evaluated on per-axis arrays and keeps only the dimensions it depends
    on; only the final masks are broadcast over the whole grid.  Each point
    still sees the same float operations as on a flat list of points.  Also
    audits that the control box never inverts on in-space points, raising
    :class:`InvertedBoundError` at the first one.
    """
    blocks = _blocks(cfg.axes, cfg.samples, cfg.seed, sys)
    lowered = fam.lowered(params, sys)
    h = [p.lower(sys.state_vars) for p in sys.constraints_h]
    zeta = [p.lower(sys.state_vars) for p in sys.identities_zeta]
    boxes = []
    for shape, x in blocks:
        in_space = np.True_
        for p in h:
            in_space = in_space & (p.evaluate(x) >= -SPACE_TOL)
        for p in zeta:
            in_space = in_space & (np.abs(p.evaluate(x)) <= SPACE_TOL)
        boxes.append((in_space, [p.evaluate(x) for p in lowered.lower],
                      [p.evaluate(x) for p in lowered.upper]))

    for i in range(sys.nu):
        for (shape, x), (in_space, lower, upper) in zip(blocks, boxes):
            bad = np.broadcast_to(in_space & (lower[i] > upper[i] + SPACE_TOL), shape)
            if np.any(bad):
                where = np.unravel_index(int(np.argmax(bad)), shape)
                raise InvertedBoundError(i, np.array([_at(v, shape, where) for v in x]))

    found = []
    for (shape, x), (in_space, lower, upper) in zip(blocks, boxes):
        phi = lowered.phi.evaluate(x)
        worst = box_min((lg.evaluate(x) for lg in lowered.lg), lower, upper,
                        lowered.lf.evaluate(x))
        mask = in_space & (phi >= 0.0) & (worst >= -params.eta - cfg.slack)
        where = np.unravel_index(np.flatnonzero(np.broadcast_to(mask, shape)), shape)
        found.append((np.stack([_at(v, shape, where) for v in x], axis=1),
                      _at(phi, shape, where), _at(worst, shape, where)))
    states, phi, worst = (np.concatenate(parts) for parts in zip(*found))
    return [Counterexample(state=states[j], phi_theta=float(phi[j]), worst_phidot=float(worst[j]))
            for j in np.argsort(-worst, kind="stable")]


def counterexamples_csv(cexs: Sequence[Counterexample], sys: SymbolicSystem,
                        path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([v.name for v in sys.state_vars] + ["phi_theta", "worst_phidot"])
        for c in cexs:
            writer.writerow([f"{x:.12g}" for x in c.state]
                            + [f"{c.phi_theta:.12g}", f"{c.worst_phidot:.12g}"])
