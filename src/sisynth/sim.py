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

A trial runs as one generated loop on plain Python floats
(:func:`_trial_loop`).  :func:`run_batch` lowers the chain members, the
control box, ``L_f phi``, ``L_g phi`` and ``phi_theta`` once
(:meth:`~sisynth.index.SafetyIndexFamily.lowered`); the loop's source pastes
each member's own ``source`` in, with ``x[i]`` read from the locals
``x0..x3``, and is compiled once per distinct lowered index.  Each step
computes the relative state and the symbolic state vector inline (the
operations of :func:`relative_state` and :func:`sym_state`, in the same
order, without building either object), the chain and the control box,
checks the box for inversion and forms the nominal control.  ``phi_theta``
decides the rest: when ``phi_theta < 0`` the nominal control is already
clamped to the control box, and that clamp is all
:func:`~sisynth.controller.project` does on an inactive index; otherwise
``L_f phi`` and ``L_g phi`` are evaluated and ``project`` runs.  :func:`step`
then advances the float pose ``(px, py, heading, speed)``.  ``project``,
:func:`~sisynth.controller.nominal_control` and :func:`step` stay calls,
read from this module's globals when a trial starts.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .controller import Infeasible, nominal_control, project, wrap_angle
from .controller import safe_control  # noqa: F401  (bench/worker.py traces sim.safe_control)
from .index import IndexParams, LoweredIndex, SafetyIndexFamily
from .system import STATE_TOL, InvertedBoundError

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
    """One trial, run by the generated loop of ``lowered``.  ``lowered`` is
    ``fam.lowered(params)``; :func:`run_batch` builds it once for all its
    trials.  An inverted control box, an infeasible constraint or a
    collision ends the trial with that failure."""
    if lowered is None:
        lowered = fam.lowered(params)
    world, goal = initial_state(task, trial)
    dt = fam.system.dt
    phis, rows = [], []
    try:
        reached_goal = _trial_loop(lowered)(
            *world.position, world.heading, world.speed, goal,
            int(round(task.horizon / dt)), dt, lowered.eta, record, phis, rows,
            nominal_control, project, step)
        failure = None
    except (InvertedBoundError, Infeasible, CollisionError) as exc:
        reached_goal, failure = False, str(exc)
    return _assess(trial, np.array(phis).reshape(-1, len(lowered.chain)), params, dt,
                   reached_goal, failure, rows)


_TRIAL_SOURCE = """\
def trial(px, py, heading, speed, goal, steps, dt, eta, record, phis, rows,
          nominal_control, project, step):
    gx, gy = goal
    extend = phis.extend
    for t in range(steps + 1):
        beta = atan2(py, px)
        rel_heading = heading - beta - {pi!r}
        alpha = atan2(sin(rel_heading), cos(rel_heading))
        d = x0 = hypot(px, py)
        x1 = sin(alpha)
        x2 = cos(alpha)
        x3 = speed
        phi = {chain}
        # before the box check: _assess reads at least one row
        extend(phi)
{box}
        if hypot(gx - px, gy - py) < {goal_radius!r}:
            return True
        if t == steps:
            return False
        u = nominal_control((px, py), heading, speed, goal, (lower, upper))
        phi_theta = {phi_theta}
        if phi_theta < 0.0:
            active = False
        else:
            u, active, _ = project((x0, x1, x2, x3), u, lower, upper, {lf}, {lg},
                                   phi_theta, eta)
        if record:
            rows.append([t * dt, px, py, heading, speed, d, alpha, beta, *u, *phi,
                         1 if active else 0])
        px, py, heading, speed = step((px, py, heading, speed), d, alpha, u, dt)
    return False
"""


def _trial_loop(lowered: LoweredIndex):
    """The compiled trial loop of ``lowered``.

    It is called as ``trial(px, py, heading, speed, goal, steps, dt, eta,
    record, phis, rows, nominal_control, project, step)``, extends the flat
    list ``phis`` by each visited state's chain values (one list of floats
    converts to an array several times faster than a list of tuples),
    appends each step's row to ``rows`` with ``record``, and returns whether
    the goal was reached.  Its float operations are those of
    :func:`relative_state`, :func:`sym_state`, the members' own ``source``
    and :meth:`~sisynth.system.SymbolicSystem.control_box`'s inversion check,
    in the same order, so a trial's values match theirs bit for bit.  An
    inverted box raises :class:`~sisynth.system.InvertedBoundError` after
    its state's chain values are added to ``phis``.
    """
    if lowered.dim != len(STATE_VARS):
        raise ValueError("state dimension mismatch")
    group = lambda polys: "(" + "".join(p.source + ", " for p in polys) + ")"
    nu = len(lowered.lower)
    box = [f"        lo{i} = {p.source}" for i, p in enumerate(lowered.lower)]
    box += [f"        hi{i} = {p.source}" for i, p in enumerate(lowered.upper)]
    for i in range(nu):
        box += [f"        if lo{i} > hi{i} + {STATE_TOL!r}:",
                f"            inverted_bound({i}, (x0, x1, x2, x3))"]
    box += ["        lower = (" + "".join(f"lo{i}, " for i in range(nu)) + ")",
            "        upper = (" + "".join(f"hi{i}, " for i in range(nu)) + ")"]
    source = _TRIAL_SOURCE.format(
        pi=math.pi, goal_radius=GOAL_RADIUS, chain=group(lowered.chain),
        box="\n".join(box), phi_theta=lowered.phi.source, lf=lowered.lf.source,
        lg=group(lowered.lg))
    for i in range(lowered.dim):
        source = source.replace(f"x[{i}]", f"x{i}")
    return _compile_trial(source)


def _inverted_bound(dim: int, x) -> None:
    raise InvertedBoundError(dim, np.asarray(x, dtype=float))


@functools.lru_cache(maxsize=64)
def _compile_trial(source: str):
    """``source`` compiled with no builtins, shared by identical sources."""
    namespace = {"__builtins__": {}, "range": range, "atan2": math.atan2, "sin": math.sin,
                 "cos": math.cos, "hypot": math.hypot, "inverted_bound": _inverted_bound}
    exec(compile(source, "<lowered trial>", "exec"), namespace)
    return namespace["trial"]


def _assess(trial: int, phis: np.ndarray, params: IndexParams, dt: float,
            reached_goal: bool, failure: str | None, rows: list) -> TrialReport:
    n = phis.shape[1] - 1
    if len(phis) > 1:
        eps_disc = SLACK_FACTOR * float(np.max(np.abs(np.diff(phis, axis=0))))
    else:
        eps_disc = SLACK_FACTOR * dt
    # member[:, j]: members j..n all <= 0, by one reversed running AND
    member = np.logical_and.accumulate((phis <= 0.0)[:, ::-1], axis=1)[:, ::-1]
    in_safe = member[:, 0]
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
        suffix = member[:, n - m]
        if not np.any(suffix):
            continue
        e = int(np.argmax(suffix))
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
