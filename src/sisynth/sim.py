"""Discrete-time navigation trials with the safety filter in the loop.

The world-frame unicycle is the integration source of truth; the relative
state (distance, relative heading, azimuth) is computed from the world pose
once per step, so the sin/cos circle identity holds exactly.  The obstacle
sits at the origin.  Trials start outside its protective radius with the
goal placed beyond it, forcing the nominal path through it, and report
safe-set landing, post-entry violations, and forward-invariance /
finite-time-convergence monitor results.

A trial steps at the model's ``dt``, the period its control box is derived
for; a config's ``sim`` section sets only ``trials``, ``horizon`` and ``seed``.

A trial steps on plain Python floats with ``math``: :func:`run_batch` lowers
the chain members, the control box, ``L_f phi``, ``L_g phi`` and
``phi_theta`` once (:meth:`~sisynth.index.SafetyIndexFamily.lowered`).  Each
step works on float locals: it computes the relative state and the symbolic
state vector inline (the operations of :func:`relative_state` and
:func:`sym_state`, in the same order, without building either object),
reads every value the filter needs from one compiled call
(:meth:`~sisynth.index.LoweredIndex.at`) and forms the nominal control.
:func:`~sisynth.controller.project` runs only when ``phi_theta >= 0``: the
nominal control is already clamped to the control box, and that clamp is
all ``project`` does on an inactive index.  :func:`step` then advances the
float pose ``(px, py, heading, speed)``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .controller import Infeasible, nominal_control, project, wrap_angle
from .controller import safe_control  # noqa: F401  (bench/worker.py traces sim.safe_control)
from .index import IndexParams, LoweredIndex, SafetyIndexFamily
from .system import InvertedBoundError

COLLISION_EPS = 1e-6
GOAL_RADIUS = 0.2
SLACK_FACTOR = 10.0   # FI slack = factor * dt * max |phidot| seen on the trajectory
D_INIT = (1.5, 5.0)     # start distance from the obstacle
GOAL_DIST = (2.0, 5.0)  # goal distance past the obstacle, along the start bearing
LATERAL_OFFSET = 0.8    # max sideways goal shift; keeps the nominal path in the disk
STATE_VARS = ("d", "x", "y", "z")   # the model state run_trial builds: d, sin α, cos α, v


class CollisionError(RuntimeError):
    pass


@dataclass
class WorldState:
    position: tuple[float, float]
    heading: float         # psi, radians
    speed: float


@dataclass
class RelativeState:
    d: float
    v: float
    alpha: float
    beta: float


def relative_state(world: WorldState) -> RelativeState:
    rx, ry = world.position
    beta = math.atan2(ry, rx)
    # bearing of the obstacle from the agent is beta + pi
    alpha = wrap_angle(world.heading - beta - math.pi)
    return RelativeState(d=math.hypot(rx, ry), v=world.speed, alpha=alpha, beta=beta)


def sym_state(rel: RelativeState) -> tuple[float, float, float, float]:
    """State vector in the symbolic coordinates [d, sin(alpha), cos(alpha), v]."""
    return (rel.d, math.sin(rel.alpha), math.cos(rel.alpha), rel.v)


def step(pose: tuple[float, float, float, float], d: float, alpha: float, u,
         dt: float) -> tuple[float, float, float, float]:
    """Semi-implicit Euler update of the pose ``(px, py, heading, speed)``
    with heading rate ``psi_dot = w + beta_dot``.

    ``d`` and ``alpha`` are the distance and relative heading of the pose
    (:func:`relative_state`), which the caller already holds; the azimuth
    rate is ``beta_dot = -speed sin(alpha) / d``.  The speed updates first
    and the position moves with the new speed, so a braking command takes
    effect within the same step; with explicit Euler the stale velocity
    produces one-step overshoots of the safety boundary.
    """
    if d < COLLISION_EPS:
        raise CollisionError(f"agent at the obstacle center (d={d:.2e})")
    px, py, heading, speed = pose
    a, w = float(u[0]), float(u[1])
    beta_dot = -speed * math.sin(alpha) / d
    psi_dot = w + beta_dot
    new_speed = speed + dt * a
    travel = dt * new_speed
    psi = heading + dt * psi_dot
    return (px + travel * math.cos(heading), py + travel * math.sin(heading),
            math.atan2(math.sin(psi), math.cos(psi)), new_speed)


@dataclass
class TaskConfig:
    """The trial batch: ``trials`` trials of ``horizon`` seconds, drawn from
    ``seed``.  The step is the model's ``dt``."""

    trials: int = 50
    horizon: float = 30.0
    seed: int = 0

    @classmethod
    def from_dict(cls, spec: dict) -> "TaskConfig":
        unknown = set(spec) - {"trials", "horizon", "seed"}
        if unknown:
            hint = " (the simulator steps at model.dt)" if "dt" in unknown else ""
            raise ValueError(f"unknown sim keys: {sorted(unknown)}{hint}")
        task = cls(**spec)
        for key in ("trials", "seed"):
            value = getattr(task, key)
            _require(isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                     key, "an integer >= 0", value)
        _require(isinstance(task.horizon, (int, float)) and 0.0 <= task.horizon < math.inf,
                 "horizon", "a finite number >= 0", task.horizon)
        return task


def _require(ok: bool, key: str, expected: str, value) -> None:
    if not ok:
        raise ValueError(f"sim key {key!r} must be {expected}, got {value!r}")


@dataclass
class TrialReport:
    trial: int
    landed_in_safe_set: bool
    first_entry_time: float | None
    violations_after_entry: int
    fi_failures: list
    ftc_ok: bool
    ftc_bound: float | None
    reached_goal: bool
    failure: str | None = None
    max_overshoot: float = 0.0
    eps_disc: float = 0.0
    steps: int = 0          # filter steps taken
    rows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (self.failure is None and self.landed_in_safe_set
                and self.violations_after_entry == 0 and not self.fi_failures
                and self.ftc_ok)


def initial_state(task: TaskConfig, trial: int) -> tuple[WorldState, tuple[float, float]]:
    """Start pose and goal of a trial, drawn from its own RNG stream."""
    rng = np.random.default_rng([task.seed, trial])
    d0 = rng.uniform(*D_INIT)
    beta0 = rng.uniform(-np.pi, np.pi)
    position = d0 * np.array([np.cos(beta0), np.sin(beta0)])
    toward = -position / d0
    perp = np.array([-toward[1], toward[0]])
    goal = (rng.uniform(*GOAL_DIST) * toward
            + rng.uniform(-LATERAL_OFFSET, LATERAL_OFFSET) * perp)
    alpha0 = rng.uniform(-np.pi, np.pi)
    world = WorldState(position=(float(position[0]), float(position[1])),
                       heading=wrap_angle(alpha0 + beta0 + np.pi), speed=0.0)
    return world, (float(goal[0]), float(goal[1]))


def run_trial(fam: SafetyIndexFamily, params: IndexParams, task: TaskConfig,
              trial: int, record: bool = False,
              lowered: LoweredIndex | None = None) -> TrialReport:
    """One trial.  ``lowered`` is ``fam.lowered(params)``; :func:`run_batch`
    builds it once for all its trials."""
    if lowered is None:
        lowered = fam.lowered(params)
    world, goal = initial_state(task, trial)
    (px, py), heading, speed = world.position, world.heading, world.speed
    gx, gy = goal
    dt = fam.system.dt
    steps = int(round(task.horizon / dt))
    at, eta = lowered.at, lowered.eta
    atan2, sin, cos, hypot, pi = math.atan2, math.sin, math.cos, math.hypot, math.pi

    phis = []
    rows = []
    reached_goal = False
    failure = None

    for t in range(steps + 1):
        # relative_state and sym_state on the pose locals
        beta = atan2(py, px)
        rel_heading = heading - beta - pi
        alpha = atan2(sin(rel_heading), cos(rel_heading))
        d = hypot(px, py)
        x = (d, sin(alpha), cos(alpha), speed)
        try:
            phi, lower, upper, lf, c, phi_theta = at(x)
        except InvertedBoundError as exc:
            # keep this state's chain row: _assess reads at least one
            phis.append(lowered.evaluate(x)[0])
            failure = str(exc)
            break
        phis.append(phi)
        if hypot(gx - px, gy - py) < GOAL_RADIUS:
            reached_goal = True
            break
        if t == steps:
            break
        u = nominal_control((px, py), heading, speed, goal, (lower, upper))
        try:
            if phi_theta < 0.0:
                # inactive index: u is already the box clamp project returns
                active = False
            else:
                u, active, _ = project(x, u, lower, upper, lf, c, phi_theta, eta)
            if record:
                rows.append([t * dt, px, py, heading, speed, d, alpha, beta,
                             *u, *phi, int(active)])
            px, py, heading, speed = step((px, py, heading, speed), d, alpha, u, dt)
        except (Infeasible, CollisionError) as exc:
            failure = str(exc)
            break

    return _assess(trial, np.array(phis), params, dt, reached_goal, failure, rows)


def _assess(trial: int, phis: np.ndarray, params: IndexParams, dt: float,
            reached_goal: bool, failure: str | None, rows: list) -> TrialReport:
    n = phis.shape[1] - 1
    if len(phis) > 1:
        eps_disc = SLACK_FACTOR * float(np.max(np.abs(np.diff(phis, axis=0))))
    else:
        eps_disc = SLACK_FACTOR * dt
    in_safe = np.all(phis <= 0.0, axis=1)
    entry_idx = int(np.argmax(in_safe)) if np.any(in_safe) else None
    landed = entry_idx is not None
    first_entry_time = entry_idx * dt if landed else None

    violations = 0
    max_overshoot = 0.0
    if landed:
        post = phis[entry_idx:]
        violations = int(np.sum(post[:, 0] > 0.0))
        max_overshoot = float(np.max(post)) if len(post) else 0.0

    fi_failures = []
    for m in range(n + 1):
        member = np.all(phis[:, n - m:] <= 0.0, axis=1)
        if not np.any(member):
            continue
        e = int(np.argmax(member))
        post = phis[e:, n - m:]
        bad = np.argwhere(post > eps_disc)
        for s, j in bad:
            fi_failures.append({"m": m, "step": int(e + s), "member": int(n - m + j),
                                "value": float(post[s, j])})

    if phis[0, n] > 0.0:
        ftc_bound = phis[0, n] / params.eta + 1.0
        ftc_ok = landed and first_entry_time <= ftc_bound
    else:
        ftc_bound = None
        ftc_ok = landed and entry_idx == 0

    return TrialReport(trial=trial, landed_in_safe_set=landed,
                       first_entry_time=first_entry_time,
                       violations_after_entry=violations, fi_failures=fi_failures,
                       ftc_ok=ftc_ok, ftc_bound=ftc_bound, reached_goal=reached_goal,
                       failure=failure, max_overshoot=max_overshoot,
                       eps_disc=eps_disc, steps=len(phis) - 1, rows=rows)


@dataclass
class BatchReport:
    reports: list[TrialReport]

    @property
    def safe_pct(self) -> float:
        if not self.reports:
            return 100.0
        return 100.0 * sum(r.landed_in_safe_set and r.failure is None
                           for r in self.reports) / len(self.reports)

    @property
    def total_violations(self) -> int:
        return sum(r.violations_after_entry for r in self.reports)

    @property
    def monitor_failures(self) -> int:
        return sum(len(r.fi_failures) + (0 if r.ftc_ok else 1) for r in self.reports)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def steps(self) -> int:
        return sum(r.steps for r in self.reports)


def run_batch(fam: SafetyIndexFamily, params: IndexParams, task: TaskConfig,
              record: bool = False) -> BatchReport:
    """Run ``task.trials`` trials in order, all reading one lowered index.

    Trials run on one thread: the loop is pure Python under the interpreter
    lock, so a thread pool only adds switching."""
    lowered = fam.lowered(params)
    return BatchReport(reports=[run_trial(fam, params, task, i, record, lowered)
                                for i in range(task.trials)])


TRAJECTORY_COLUMNS = ["t", "px", "py", "psi", "v", "d", "alpha", "beta",
                      "a", "w", "phi0", "phi1", "constraint_active"]


def trajectory_csv(report: TrialReport, path: str, order: int = 1) -> None:
    cols = TRAJECTORY_COLUMNS[:10] + [f"phi{j}" for j in range(order + 1)] + \
        [TRAJECTORY_COLUMNS[-1]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in report.rows:
            writer.writerow([f"{x:.9g}" if isinstance(x, float) else x for x in row])


def markdown_report(batch: BatchReport, k, sim_time: float | None = None) -> str:
    """The batch summary; ``sim_time`` is the wall time of the batch in seconds."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    k_str = ", ".join(f"{v:.4e}" for v in k)
    lines = [
        "# Simulation batch report",
        "",
        "| k | Safe Set (%) | Violations |",
        "|---|--------------|------------|",
        f"| {k_str} | {batch.safe_pct:.1f} | {batch.total_violations} |",
        "",
        f"- trials: {len(batch.reports)}",
        f"- goal reached: {sum(r.reached_goal for r in batch.reports)}",
        f"- invariance monitor failures: {sum(len(r.fi_failures) for r in batch.reports)}",
        f"- convergence monitor failures: {sum(0 if r.ftc_ok else 1 for r in batch.reports)}",
        f"- controller/collision failures: {sum(r.failure is not None for r in batch.reports)}",
    ]
    if sim_time is not None:
        rate = f"{batch.steps / sim_time:,.0f}" if sim_time > 0 else "n/a"
        lines.append(f"- simulation wall time: {sim_time:.2f} s for {batch.steps:,} filter steps "
                     f"({rate} steps/s)")
    failed = [r for r in batch.reports if not r.ok]
    if failed:
        lines.append("")
        lines.append("## Failing trials (replay by trial index)")
        for r in failed:
            why = r.failure or (
                f"landed={r.landed_in_safe_set} violations={r.violations_after_entry} "
                f"fi_failures={len(r.fi_failures)} ftc_ok={r.ftc_ok}")
            lines.append(f"- trial {r.trial}: {why}")
    return "\n".join(lines) + "\n"
