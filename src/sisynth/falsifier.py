"""Certificate-free grid/sampling oracle for index feasibility.

Searches the manifold ``{x in X : phi_theta(x) >= 0}`` for states where the
worst-case (box-minimized) index derivative fails to clear ``-eta``.  A
returned counterexample is ground truth against any certificate; an empty
result is evidence at the chosen resolution only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .index import IndexParams, SafetyIndexFamily, box_min
from .poly import LoweredPolynomial
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
    resolution: int
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

    @classmethod
    def from_dict(cls, spec: dict) -> "Axis":
        if "angle" in spec:
            names = tuple(spec["angle"])
            angle = True
        else:
            names = (spec["var"],)
            angle = False
        lo, hi = spec["range"]
        return cls(names=names, lo=float(lo), hi=float(hi),
                   resolution=int(spec.get("resolution", 100)), angle=angle)


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

    @classmethod
    def from_dict(cls, spec: dict) -> "FalsifierConfig":
        return cls(axes=[Axis.from_dict(a) for a in spec["axes"]],
                   samples=int(spec.get("samples", 10000)),
                   slack=float(spec.get("slack", DEFAULT_SLACK)),
                   seed=int(spec.get("seed", 0)))


@dataclass
class Counterexample:
    state: np.ndarray
    phi_theta: float
    worst_phidot: float


def _axis_values(axes: Sequence[Axis], samples: int, seed: int) -> np.ndarray:
    """Stacked coordinate values: full grid cross product plus random draws."""
    grids = [np.linspace(a.lo, a.hi, a.resolution) for a in axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=0)
    if samples > 0:
        rng = np.random.default_rng(seed)
        rand = np.stack([rng.uniform(a.lo, a.hi, size=samples) for a in axes], axis=0)
        coords = np.concatenate([coords, rand], axis=1)
    return coords


def _state_arrays(axes: Sequence[Axis], coords: np.ndarray,
                  sys: SymbolicSystem) -> dict:
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
    return {v: by_name[v.name] for v in sys.state_vars}


def falsify(fam: SafetyIndexFamily, params: IndexParams, sys: SymbolicSystem,
            cfg: FalsifierConfig) -> list[Counterexample]:
    """All manifold states sampled where the worst-case derivative fails.

    Evaluates the grid and random samples vectorized; returns violations
    sorted by worst-case derivative, most violating first.  Also audits that
    the control box never inverts on in-space samples.
    """
    coords = _axis_values(cfg.axes, cfg.samples, cfg.seed)
    assignment = _state_arrays(cfg.axes, coords, sys)
    x = tuple(assignment[v] for v in sys.state_vars)
    n_pts = coords.shape[1]

    def points(p: LoweredPolynomial) -> np.ndarray:
        return np.broadcast_to(np.asarray(p.evaluate(x), dtype=float), (n_pts,))

    in_space = np.ones(n_pts, dtype=bool)
    for h in sys.constraints_h:
        in_space &= np.asarray(h.lower(sys.state_vars).evaluate(x)) >= -SPACE_TOL
    for z in sys.identities_zeta:
        in_space &= np.abs(np.asarray(z.lower(sys.state_vars).evaluate(x))) <= SPACE_TOL

    lowered = fam.lowered(params, sys)
    lower = [points(p) for p in lowered.lower]
    upper = [points(p) for p in lowered.upper]
    for i in range(sys.nu):
        bad = in_space & (lower[i] > upper[i] + SPACE_TOL)
        if np.any(bad):
            j = int(np.argmax(bad))
            state = np.array([assignment[v][j] for v in sys.state_vars])
            raise InvertedBoundError(i, state)

    phi = points(lowered.phi)
    worst = box_min((points(lg) for lg in lowered.lg), lower, upper, points(lowered.lf))

    mask = in_space & (phi >= 0.0) & (worst >= -params.eta - cfg.slack)
    idx = np.nonzero(mask)[0]
    order = idx[np.argsort(-worst[idx], kind="stable")]
    return [Counterexample(state=np.array([assignment[v][j] for v in sys.state_vars]),
                           phi_theta=float(phi[j]), worst_phidot=float(worst[j]))
            for j in order]


def counterexamples_csv(cexs: Sequence[Counterexample], sys: SymbolicSystem,
                        path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([v.name for v in sys.state_vars] + ["phi_theta", "worst_phidot"])
        for c in cexs:
            writer.writerow([f"{x:.12g}" for x in c.state]
                            + [f"{c.phi_theta:.12g}", f"{c.worst_phidot:.12g}"])
