"""Safe control law: minimal-deviation projection onto the safety halfspace.

When the index is nonnegative, the commanded control is the closest point to
the nominal control inside the state-dependent box intersected with the
halfspace ``L_f phi + L_g phi . u <= -eta``.  The single linear constraint
makes the dual one-dimensional: the constraint value along the dual path is
piecewise linear and monotone in the multiplier, so the exact minimizer is
found by walking its few kinks and solving the one linear piece that
crosses the bound.

:func:`project` is the law itself.  It works on plain floats: the values
it reads at a state, ``L_f phi``, ``L_g phi``, ``phi_theta`` and the control
box, come from the lowered members of
:class:`~sisynth.index.LoweredIndex`, which the simulator's generated trial
loop evaluates inline, so it calls ``project`` without building dicts or
arrays.  :func:`safe_control` is the public wrapper for one state: it reads
the box from :meth:`~sisynth.system.SymbolicSystem.control_box` and the rest
from the lowered members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .index import IndexParams, SafetyIndexFamily, box_min

FEAS_TOL = 1e-9
CRUISE_SPEED = 0.8   # the nominal controller's target speed
SPEED_GAIN = 1.0
HEADING_GAIN = 2.0


class Infeasible(RuntimeError):
    """No box control meets the derivative constraint at this state."""

    def __init__(self, state, required: float, best: float):
        super().__init__(
            f"safety constraint infeasible at state {np.asarray(state)}: "
            f"need phidot <= {required:.6g}, best achievable {best:.6g}")
        self.state = np.asarray(state, dtype=float)
        self.required = required
        self.best = best


@dataclass
class SafeControlResult:
    u: np.ndarray
    constraint_active: bool
    phidot_achieved: float


def safe_control(fam: SafetyIndexFamily, params: IndexParams, state: Sequence[float],
                 u_ref: Sequence[float]) -> SafeControlResult:
    """Project the nominal control onto the safety constraint and box.

    Inactive index (``phi_theta < 0``): the nominal control is clamped to the
    box and returned.  Active index: solves
    ``min ||u - u_ref||^2  s.t.  c.u <= b,  u in box`` exactly, where
    ``c = L_g phi`` and ``b = -eta - L_f phi`` at the current state.
    """
    lowered = fam.lowered(params)
    lower, upper = fam.system.control_box(state)
    u, active, phidot = project(state, u_ref, lower.tolist(), upper.tolist(),
                                lowered.lf.evaluate(state),
                                [p.evaluate(state) for p in lowered.lg],
                                lowered.phi.evaluate(state), lowered.eta)
    return SafeControlResult(u=np.array(u), constraint_active=active, phidot_achieved=phidot)


def _dot(c: Sequence[float], u: Sequence[float]) -> float:
    total = 0.0
    for ci, ui in zip(c, u):
        total = total + ci * ui
    return total


def _clamped(u_ref, mu: float, c, lower, upper) -> list[float]:
    """``clip(u_ref - mu * c, lower, upper)`` coordinate by coordinate."""
    return [min(max(r - mu * ci, lo), hi) for r, ci, lo, hi in zip(u_ref, c, lower, upper)]


def project(x: Sequence[float], u_ref: Sequence[float], lower: Sequence[float],
            upper: Sequence[float], lf: float, c: Sequence[float], phi: float,
            eta: float) -> tuple[list[float], bool, float]:
    """The safe control law of :func:`safe_control`, on plain numbers.

    ``x`` is the state (named in an :class:`Infeasible` error), ``u_ref``
    the nominal control; ``lower``/``upper``, ``lf``, ``c`` (``L_g phi``)
    and ``phi`` (``phi_theta``) are their values at ``x``, and ``eta`` the
    required decay.
    Returns the control, whether the index was active, and the achieved
    ``phidot``.
    """
    u0 = _clamped(u_ref, 0.0, c, lower, upper)
    if phi < 0.0:
        return u0, False, lf + _dot(c, u0)

    b = -eta - lf
    vertex_min = box_min(c, lower, upper)
    if vertex_min > b + FEAS_TOL:
        raise Infeasible(x, required=-eta, best=lf + vertex_min)
    if _dot(c, u0) <= b + FEAS_TOL:
        return u0, True, lf + _dot(c, u0)
    mu = _dual_root(u_ref, c, b, lower, upper)
    if mu is None:
        raise Infeasible(x, required=-eta, best=lf + vertex_min)
    u = _clamped(u_ref, mu, c, lower, upper)
    return u, True, lf + _dot(c, u)


def _dual_root(u_ref, c, b: float, lower, upper) -> float | None:
    """The multiplier ``mu > 0`` at which ``g(mu) <= b`` starts to hold, for
    ``g(mu) = c.clip(u_ref - mu c, lower, upper)``.

    ``g`` is piecewise linear and nonincreasing, with kinks where a
    coordinate meets a bound.  The kinks are visited in increasing order
    until ``g <= b``; on the segment before that kink, ``g`` is linear with
    slope ``-sum c_i^2`` over the coordinates that are free there, and its
    root is solved in closed form (the breakpoint method for the continuous
    quadratic knapsack).  Rounding is corrected by moving ``mu`` up, never
    past that kink, until ``g <= b`` holds in floats.  Returns ``None`` when
    ``g > b`` still holds past the last kink, where ``g`` is constant at the
    box vertex value.  Expects ``g(0) > b``.
    """
    kinks = sorted({mu for r, ci, lo, hi in zip(u_ref, c, lower, upper) if ci != 0.0
                    for mu in ((r - lo) / ci, (r - hi) / ci) if mu > 0.0})
    if kinks:
        # past the last kink every coordinate sits on its bound exactly
        kinks.append(2.0 * kinks[-1])
    mu_lo = 0.0
    for mu_hi in kinks:
        if _dot(c, _clamped(u_ref, mu_hi, c, lower, upper)) <= b:
            break
        mu_lo = mu_hi
    else:
        return None

    # on (mu_lo, mu_hi) each coordinate is either clamped or u_ref_i - mu c_i
    mid = 0.5 * (mu_lo + mu_hi)
    rest, slope = -b, 0.0
    for r, ci, lo, hi in zip(u_ref, c, lower, upper):
        v = r - mid * ci
        if v <= lo:
            rest = rest + ci * lo
        elif v >= hi:
            rest = rest + ci * hi
        else:
            rest = rest + ci * r
            slope = slope + ci * ci
    mu = min(max(rest / slope, mu_lo), mu_hi) if slope > 0.0 else mu_hi
    nudge = math.ulp(mu or mu_hi)
    while mu < mu_hi and _dot(c, _clamped(u_ref, mu, c, lower, upper)) > b:
        mu = min(mu + nudge, mu_hi)
        nudge *= 2.0
    return mu


def wrap_angle(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


def nominal_control(position: Sequence[float], heading: float, speed: float,
                    goal: Sequence[float],
                    box: tuple[Sequence[float], Sequence[float]]) -> tuple[float, float]:
    """Proportional navigation: steer at the goal bearing, hold cruise speed.

    Slows proportionally when closer to the goal than one cruise-speed
    second.  Output ``(a, w)`` is clamped to the state-dependent control box.
    """
    dx = goal[0] - position[0]
    dy = goal[1] - position[1]
    dist = math.hypot(dx, dy)
    heading_err = wrap_angle(math.atan2(dy, dx) - heading)

    v_des = CRUISE_SPEED * min(1.0, dist / CRUISE_SPEED)
    a_cmd = SPEED_GAIN * (v_des - speed)
    w_cmd = HEADING_GAIN * heading_err
    lower, upper = box
    return (min(max(a_cmd, lower[0]), upper[0]), min(max(w_cmd, lower[1]), upper[1]))
