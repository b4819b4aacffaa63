"""Control-affine systems with state-dependent box control limits.

A :class:`SymbolicSystem` holds the drift ``f``, the control matrix ``g``,
per-dimension control bounds as polynomials in the state, inequality
constraints ``h_i(x) >= 0`` carving out the admissible state space, and
algebraic identities ``zeta_l(x) = 0`` (used e.g. to tie sin/cos pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .poly import Polynomial, VarId, VarRegistry, parse_polynomial

STATE_TOL = 1e-9


class InvertedBoundError(ValueError):
    """Raised when a control lower bound exceeds the upper bound."""

    def __init__(self, dim: int, state):
        super().__init__(f"control bounds inverted in dimension {dim} at state {state}")
        self.dim = dim
        self.state = state


@dataclass
class SymbolicSystem:
    registry: VarRegistry
    state_vars: list[VarId]
    f: list[Polynomial]
    g: list[list[Polynomial]]          # |state| x nu
    u_lower: list[Polynomial]
    u_upper: list[Polynomial]
    constraints_h: list[Polynomial] = field(default_factory=list)
    identities_zeta: list[Polynomial] = field(default_factory=list)
    dt: float = 0.01

    def __post_init__(self):
        n = len(self.state_vars)
        if len(self.f) != n:
            raise ValueError("f dimension mismatch")
        if len(self.g) != n:
            raise ValueError("g row count mismatch")
        nu = self.nu
        if any(len(row) != nu for row in self.g):
            raise ValueError("g column count mismatch")
        if len(self.u_lower) != nu or len(self.u_upper) != nu:
            raise ValueError("control bound dimension mismatch")

    @property
    def nu(self) -> int:
        return len(self.u_lower)

    def assignment(self, state: Sequence[float]) -> dict[VarId, float]:
        if len(state) != len(self.state_vars):
            raise ValueError("state dimension mismatch")
        return dict(zip(self.state_vars, state))

    def control_box(self, state: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the per-dimension control bounds at a state."""
        a = self.assignment(state)
        lower = np.array([p.evaluate(a) for p in self.u_lower], dtype=float)
        upper = np.array([p.evaluate(a) for p in self.u_upper], dtype=float)
        for i in range(self.nu):
            if lower[i] > upper[i] + STATE_TOL:
                raise InvertedBoundError(i, np.asarray(state, dtype=float))
        return lower, upper


MODEL_KEYS = {"state_vars", "f", "g", "u_lower", "u_upper", "h", "zeta", "dt"}


def system_from_dict(spec: Mapping, registry: VarRegistry | None = None) -> SymbolicSystem:
    """Build a system from the JSON model schema.

    Schema::

        {"state_vars": ["d", "x", "y", "z"],
         "f": ["-1*z*y", "0", "0", "0"],
         "g": [["0", "0"], ...],
         "u_lower": [...], "u_upper": [...],
         "h": [...], "zeta": [...], "dt": 0.01}
    """
    unknown = set(spec) - MODEL_KEYS
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    registry = registry if registry is not None else VarRegistry()
    state_vars = [registry.state(name) for name in spec["state_vars"]]
    parse = lambda s: parse_polynomial(s, registry)
    return SymbolicSystem(
        registry=registry,
        state_vars=state_vars,
        f=[parse(s) for s in spec["f"]],
        g=[[parse(s) for s in row] for row in spec["g"]],
        u_lower=[parse(s) for s in spec["u_lower"]],
        u_upper=[parse(s) for s in spec["u_upper"]],
        constraints_h=[parse(s) for s in spec.get("h", [])],
        identities_zeta=[parse(s) for s in spec.get("zeta", [])],
        dt=float(spec.get("dt", 0.01)),
    )


def unicycle_model_dict(v_min=-1.0, v_max=1.0, w_min=-1.0, w_max=1.0, dt=0.01,
                        cos_alpha_min: float | None = None) -> dict:
    """Second-order unicycle in relative coordinates.

    State is ``[d, x, y, z] = [distance, sin(alpha), cos(alpha), v]`` with
    controls ``[a, w]``.  Acceleration limits depend on the current speed so
    that v stays in ``[v_min, v_max]`` under a dt-long step.  Passing
    ``cos_alpha_min`` adds the heading restriction ``cos(alpha) >= cos_alpha_min``
    to the admissible state space.
    """
    h = [f"-1*z^2 + {v_min + v_max}*z - {v_min * v_max}"]
    if cos_alpha_min is not None:
        h.append(f"y - {cos_alpha_min}")
    return {
        "state_vars": ["d", "x", "y", "z"],
        "f": ["-1*z*y", "0", "0", "0"],
        "g": [["0", "0"], ["0", "y"], ["0", "-1*x"], ["1", "0"]],
        "u_lower": [f"{v_min / dt} - {1.0 / dt}*z", str(w_min)],
        "u_upper": [f"{v_max / dt} - {1.0 / dt}*z", str(w_max)],
        "h": h,
        "zeta": ["x^2 + y^2 - 1"],
        "dt": dt,
    }
