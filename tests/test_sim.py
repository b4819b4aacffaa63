import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sisynth.config import ConfigError, RunConfig
from sisynth.controller import Infeasible, nominal_control, project, wrap_angle
from sisynth.poly import Polynomial
from sisynth.sim import (
    COLLISION_EPS,
    GOAL_RADIUS,
    SLACK_FACTOR,
    BatchReport,
    CollisionError,
    TaskConfig,
    TrialReport,
    WorldState,
    initial_state,
    markdown_report,
    relative_state,
    run_batch,
    run_trial,
    _assess,
    step,
    sym_state,
    trajectory_csv,
)
from sisynth.system import STATE_TOL, InvertedBoundError

from conftest import RESTRICTED_CONFIG_PATH, braking_config_dict, members_at, world_from_relative


def step_world(world, u, dt):
    """:func:`step` on a ``WorldState``, with the relative state it reads."""
    rel = relative_state(world)
    px, py, heading, speed = step((*world.position, world.heading, world.speed),
                                  rel.d, rel.alpha, u, dt)
    return WorldState(position=(px, py), heading=heading, speed=speed)


class TestKinematics:
    def test_hand_checked_step(self):
        # heading straight at the obstacle at speed 1 with zero input:
        # distance shrinks by exactly one step of travel
        world = WorldState(position=np.array([2.0, 0.0]), heading=np.pi, speed=1.0)
        after = step_world(world, [0.0, 0.0], dt=0.01)
        assert relative_state(after).d == pytest.approx(1.99, abs=1e-12)
        assert after.speed == 1.0

    def test_braking_acts_within_step(self):
        # semi-implicit update: the commanded deceleration applies to the
        # position advance of the same step
        world = WorldState(position=np.array([2.0, 0.0]), heading=np.pi, speed=1.0)
        after = step_world(world, [-100.0, 0.0], dt=0.01)
        assert after.speed == pytest.approx(0.0, abs=1e-12)
        assert relative_state(after).d == pytest.approx(2.0, abs=1e-12)

    def test_heading_rate_includes_azimuth_rate(self):
        # circling: at alpha = pi/2 the azimuth rate is -v/d; with w = 0 the
        # relative heading stays constant
        rel0 = relative_state(WorldState(position=np.array([1.0, 0.0]),
                                         heading=np.pi / 2, speed=1.0))
        world = world_from_relative(rel0)
        after = step_world(world, [0.0, 0.0], dt=1e-4)
        rel1 = relative_state(after)
        assert rel1.alpha == pytest.approx(rel0.alpha, abs=1e-6)

    def test_relative_world_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            world = WorldState(position=rng.uniform(-3, 3, size=2),
                               heading=rng.uniform(-np.pi, np.pi),
                               speed=rng.uniform(-1, 1))
            rel = relative_state(world)
            back = relative_state(world_from_relative(rel))
            assert rel.d == pytest.approx(back.d, abs=1e-9)
            assert rel.alpha == pytest.approx(back.alpha, abs=1e-9)
            assert rel.beta == pytest.approx(back.beta, abs=1e-9)

    def test_sym_state_on_circle(self):
        rel = relative_state(WorldState(position=np.array([1.0, 2.0]),
                                        heading=0.3, speed=0.5))
        x = sym_state(rel)
        assert x[1] ** 2 + x[2] ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_collision_guard(self):
        world = WorldState(position=np.array([0.0, 0.0]), heading=0.0, speed=0.0)
        with pytest.raises(CollisionError):
            step_world(world, [0.0, 0.0], dt=0.01)


def task_config(**sim) -> TaskConfig:
    raw = braking_config_dict()
    raw["sim"] = sim
    return RunConfig.from_dict(raw).task_config()


class TestTaskConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="sim key 'trails' must be absent"):
            task_config(trails=10)

    @pytest.mark.parametrize("key", ["dt", "v_max", "d_init", "goal_dist",
                                     "lateral_offset", "gains"])
    def test_retired_keys_rejected(self, key):
        with pytest.raises(ValueError, match=f"sim key '{key}' must be absent"):
            task_config(**{key: 0.01})

    def test_round_trip(self):
        task = task_config(trials=5, horizon=10.0, seed=3)
        assert (task.trials, task.horizon, task.seed) == (5, 10.0, 3)
        assert [f.name for f in dataclasses.fields(TaskConfig)] == ["trials", "horizon", "seed"]

    @pytest.mark.parametrize("key, value", [("horizon", -1), ("horizon", math.inf),
                                            ("trials", -1), ("trials", 2.5),
                                            ("seed", -1), ("seed", 1.5)])
    def test_bad_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"sim key '{key}' must be"):
            task_config(**{key: value})

    def test_bad_value_is_config_error(self):
        raw = json.loads(open(RESTRICTED_CONFIG_PATH).read())
        raw["sim"]["trials"] = -1
        with pytest.raises(ConfigError, match="sim key 'trials'"):
            RunConfig.from_dict(raw)

    def test_zero_horizon_gives_one_row(self, restricted_problem):
        p = restricted_problem
        task = dataclasses.replace(p.config.task_config(), horizon=0)
        report = run_trial(p.family, p.params([K_PINNED]), task, 0, record=True)
        assert report.failure is None
        assert report.steps == 0 and report.rows == []
        assert report.eps_disc == SLACK_FACTOR * p.system.dt


class TestModelStep:
    """The simulator steps at the model's ``dt``."""

    @pytest.fixture(scope="class")
    def coarse(self):
        from conftest import RESTRICTED_CONFIG_PATH
        from sisynth.config import RunConfig, build_problem
        cfg = RunConfig.load(RESTRICTED_CONFIG_PATH)
        # the acceleration box is written for its period: (-1 - z)/0.02, (1 - z)/0.02
        model = {**cfg.model, "dt": 0.02, "u_lower": ["-50.0 - 50.0*z", "-1.0"],
                 "u_upper": ["50.0 - 50.0*z", "1.0"]}
        return build_problem(dataclasses.replace(cfg, model=model))

    def test_steps_follow_model_dt(self, coarse):
        assert coarse.system.dt == 0.02
        task = TaskConfig(trials=1, horizon=2.0)
        report = run_trial(coarse.family, coarse.params([K_PINNED]), task, 0, record=True)
        assert report.failure is None and not report.reached_goal
        assert report.steps == round(2.0 / 0.02) == len(report.rows)
        assert [row[0] for row in report.rows[:3]] == [0.0, 0.02, 0.04]

    def test_zero_horizon_slack_follows_model_dt(self, coarse):
        task = TaskConfig(trials=1, horizon=0.0)
        report = run_trial(coarse.family, coarse.params([K_PINNED]), task, 0)
        assert report.steps == 0
        assert report.eps_disc == SLACK_FACTOR * 0.02


@pytest.fixture(scope="module")
def batch(restricted_problem, restricted_certificate):
    p = restricted_problem
    k = restricted_certificate.theta(p.layout)
    task = p.config.task_config()
    task.trials = 8
    return p, run_batch(p.family, p.params(k), task, record=True)


class TestTrials:
    def test_all_trials_safe(self, batch):
        _, report = batch
        assert report.safe_pct == 100.0
        assert report.total_violations == 0
        assert report.monitor_failures == 0
        assert report.all_ok

    def test_deterministic(self, restricted_problem, restricted_certificate):
        p = restricted_problem
        k = restricted_certificate.theta(p.layout)
        task = p.config.task_config()
        task.trials = 2
        a = run_batch(p.family, p.params(k), task, record=True)
        b = run_batch(p.family, p.params(k), task, record=True)
        for ra, rb in zip(a.reports, b.reports):
            assert ra.rows == rb.rows
            assert ra.first_entry_time == rb.first_entry_time

    def test_ftc_bound_respected(self, batch):
        _, report = batch
        for r in report.reports:
            assert r.landed_in_safe_set
            if r.ftc_bound is not None:
                assert r.first_entry_time <= r.ftc_bound

    def test_trajectory_csv(self, batch, tmp_path):
        p, report = batch
        trial = report.reports[0]
        path = tmp_path / "traj.csv"
        trajectory_csv(trial, str(path), order=p.family.order)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "px", "py", "psi", "v", "d", "alpha", "beta",
                           "a", "w", "phi0", "phi1", "constraint_active"]
        assert len(rows) == len(trial.rows) + 1
        # distance column always positive: no collisions recorded
        assert all(float(r[5]) > 0.0 for r in rows[1:])

    def test_single_trial_report_fields(self, restricted_problem, restricted_certificate):
        p = restricted_problem
        k = restricted_certificate.theta(p.layout)
        task = p.config.task_config()
        r = run_trial(p.family, p.params(k), task, trial=0)
        assert isinstance(r, TrialReport)
        assert r.eps_disc > 0.0
        assert r.violations_after_entry == 0


class TestLoweredLoop:
    """The float-level loop against the symbolic polynomials."""

    def test_recorded_rows_match_symbolic(self, restricted_problem, restricted_certificate):
        from test_controller import kkt_residual
        p = restricted_problem
        fam, sys = p.family, p.system
        params = p.params(restricted_certificate.theta(p.layout))
        task = p.config.task_config()
        chain = fam.chain_numeric(params)
        theta = dict(zip(fam.theta, params.k))
        active_rows = 0
        for trial in range(3):
            report = run_trial(fam, params, task, trial, record=True)
            _, goal = initial_state(task, trial)
            assert len(report.rows) == report.steps > 0
            for row in report.rows:
                _, px, py, psi, v, d, alpha, _, a, w = row[:10]
                x = [d, math.sin(alpha), math.cos(alpha), v]
                asg = sys.assignment(x)
                for got, member in zip(row[10:-1], chain):
                    assert abs(got - member.evaluate(asg)) <= 1e-12
                lower, upper = sys.control_box(x)
                u_ref = np.array(nominal_control((px, py), psi, v, goal, (lower, upper)))
                asg.update(theta)
                active = fam.phi_theta.evaluate(asg) >= 0.0
                assert row[-1] == int(active)
                u = np.array([a, w])
                if not active:
                    np.testing.assert_array_equal(u, np.clip(u_ref, lower, upper))
                    continue
                active_rows += 1
                c = np.array([lg.evaluate(asg) for lg in fam.Lg_phi])
                b = -params.eta - fam.Lf_phi.evaluate(asg)
                assert kkt_residual(u, u_ref, c, b, lower, upper) <= 1e-6
        assert active_rows > 0

    def test_threads_agree(self, restricted_problem, restricted_certificate, monkeypatch):
        p = restricted_problem
        params = p.params(restricted_certificate.theta(p.layout))
        task = dataclasses.replace(p.config.task_config(), trials=3, horizon=5.0)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SISYNTH_THREADS", threads)
            runs.append(run_batch(p.family, params, task, record=True).reports)
        assert runs[0] == runs[1]


K_PINNED = 0.012032149952463394   # a certified k of the restricted instance


def reference_step(world, u, dt):
    """The world update as a function of the pose alone: rebuilds the
    relative state it needs for ``beta_dot``."""
    rel = relative_state(world)
    if rel.d < COLLISION_EPS:
        raise CollisionError(f"agent at the obstacle center (d={rel.d:.2e})")
    a, w = float(u[0]), float(u[1])
    beta_dot = -rel.v * math.sin(rel.alpha) / rel.d
    speed = world.speed + dt * a
    travel = dt * speed
    position = (world.position[0] + travel * math.cos(world.heading),
                world.position[1] + travel * math.sin(world.heading))
    return WorldState(position=position, heading=wrap_angle(world.heading + dt * (w + beta_dot)),
                      speed=speed)


def reference_trial(lowered, params, task, dt, trial):
    """One recorded trial at step ``dt`` that evaluates every lowered
    polynomial on its own, checks the control box separately (an inverted
    box ends the trial, as in the simulator) and lets the world update
    recompute the relative state."""
    world, goal = initial_state(task, trial)
    steps = int(round(task.horizon / dt))
    phis, rows, reached_goal, failure = [], [], False, None
    for t in range(steps + 1):
        rel = relative_state(world)
        x = sym_state(rel)
        phi = [p.evaluate(x) for p in lowered.chain]
        phis.append(phi)
        lower = [p.evaluate(x) for p in lowered.lower]
        upper = [p.evaluate(x) for p in lowered.upper]
        inverted = [i for i, (lo, hi) in enumerate(zip(lower, upper)) if lo > hi + STATE_TOL]
        if inverted:
            failure = str(InvertedBoundError(inverted[0], np.asarray(x, dtype=float)))
            break
        assert all(lo <= hi for lo, hi in zip(lower, upper))
        px, py = world.position
        if math.hypot(goal[0] - px, goal[1] - py) < GOAL_RADIUS:
            reached_goal = True
            break
        if t == steps:
            break
        u_ref = nominal_control(world.position, world.heading, world.speed, goal,
                                (lower, upper))
        try:
            u, active, _ = project(x, u_ref, lower, upper, lowered.lf.evaluate(x),
                                   [p.evaluate(x) for p in lowered.lg],
                                   lowered.phi.evaluate(x), lowered.eta)
            rows.append([t * dt, px, py, world.heading, world.speed,
                         rel.d, rel.alpha, rel.beta, *u, *phi, int(active)])
            world = reference_step(world, u, dt)
        except (Infeasible, CollisionError) as exc:
            failure = str(exc)
            break
    return _assess(trial, np.array(phis), params, dt, reached_goal, failure, rows)


class TestFusedStep:
    """One compiled call and one relative state per step, against the
    per-polynomial loop."""

    def test_batch_matches_reference_loop(self, restricted_problem):
        p = restricted_problem
        params = p.params([K_PINNED])
        task = dataclasses.replace(p.config.task_config(), trials=3, horizon=4.0)
        lowered = p.family.lowered(params)
        batch = run_batch(p.family, params, task, record=True)
        assert len(batch.reports) == 3
        for got in batch.reports:
            want = reference_trial(lowered, params, task, p.system.dt, got.trial)
            for f in dataclasses.fields(TrialReport):
                assert getattr(got, f.name) == getattr(want, f.name), f.name
            # == takes -0.0 for 0.0; repr tells the signs of zero apart
            for t, (row, ref) in enumerate(zip(got.rows, want.rows)):
                assert list(map(repr, row)) == list(map(repr, ref)), t
            assert got.steps == 400 and got.failure is None
        assert any(row[-1] for r in batch.reports for row in r.rows)

    def test_project_runs_only_on_active_steps(self, restricted_problem, monkeypatch):
        from sisynth import sim
        p = restricted_problem
        params = p.params([K_PINNED])
        task = dataclasses.replace(p.config.task_config(), trials=3, horizon=4.0)
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return project(*args)

        monkeypatch.setattr(sim, "project", counted)
        batch = run_batch(p.family, params, task, record=True)
        rows = [row for r in batch.reports for row in r.rows]
        active = sum(row[-1] for row in rows)
        assert 0 < active < len(rows)
        assert calls == active
        # an inactive step applies the nominal control, which is what
        # project returns there, bit for bit
        lowered = p.family.lowered(params)
        for r in batch.reports:
            _, goal = initial_state(task, r.trial)
            for row in r.rows:
                if row[-1]:
                    continue
                _, px, py, psi, v, d, alpha, _, a, w = row[:10]
                x = (d, math.sin(alpha), math.cos(alpha), v)
                _, lower, upper, lf, c, phi_theta = members_at(lowered, x)
                u_ref = nominal_control((px, py), psi, v, goal, (lower, upper))
                u, was_active, _ = project(x, u_ref, lower, upper, lf, c, phi_theta,
                                           lowered.eta)
                assert not was_active
                assert [repr(a), repr(w)] == list(map(repr, u))

    def test_inverted_box_fails_trial(self, restricted_problem):
        p = restricted_problem
        params = p.params([K_PINNED])
        task = dataclasses.replace(p.config.task_config(), trials=1, horizon=1.0)
        lowered = p.family.lowered(params)
        high = Polynomial.constant(1e3).lower(p.system.state_vars)
        inverted = dataclasses.replace(lowered, lower=(high, *lowered.lower[1:]))
        report = run_trial(p.family, params, task, 0, record=True, lowered=inverted)
        assert report.failure.startswith("control bounds inverted in dimension 0")
        assert report.steps == 0 and report.rows == []
        assert not report.ok
        text = markdown_report(BatchReport(reports=[report]), [K_PINNED])
        assert f"trial 0: {report.failure}" in text

    @pytest.mark.parametrize("k", [K_PINNED, 1.0, 5.6234])
    def test_generated_loop_matches_reference_by_repr(self, restricted_problem, k):
        # k = 1.0 runs the filter on many steps and violates after entry
        p = restricted_problem
        params = p.params([k])
        task = dataclasses.replace(p.config.task_config(), trials=3, horizon=10.0)
        lowered = p.family.lowered(params)
        batch = run_batch(p.family, params, task, record=True)
        for got in batch.reports:
            want = reference_trial(lowered, params, task, p.system.dt, got.trial)
            for f in dataclasses.fields(TrialReport):
                assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
        assert any(row[-1] for r in batch.reports for row in r.rows)
        if k == 1.0:
            assert batch.total_violations > 0

    @pytest.mark.parametrize("case, message", [
        ("infeasible", "safety constraint infeasible at state"),
        ("collision", "agent at the obstacle center"),
        ("inverted-box", "control bounds inverted in dimension 0")],
        ids=["infeasible", "collision", "inverted-box"])
    def test_failure_mid_trial_matches_reference(self, restricted_problem, case, message):
        p = restricted_problem
        params = p.params([K_PINNED])
        task = dataclasses.replace(p.config.task_config(), trials=3, horizon=4.0)
        lowered = p.family.lowered(params)
        d, s, _, v = (Polynomial.variable(var) for var in p.system.state_vars)
        low = lambda q: q.lower(p.system.state_vars)
        dt = p.system.dt
        if case == "infeasible":
            # active once d <= 3, with a constraint no control can meet
            zero = low(Polynomial.zero())
            crafted = dataclasses.replace(lowered, phi=low(Polynomial.constant(3.0) - d),
                                          lf=zero, lg=(zero, zero))
        elif case == "collision":
            # turn at the obstacle and halve the distance every step
            a, w = low(d * (0.5 / dt**2) - v * (1.0 / dt)), low(s * (-1.0 / dt))
            crafted = dataclasses.replace(lowered, lower=(a, w), upper=(a, w),
                                          phi=low(Polynomial.constant(-1.0)))
        else:
            # the acceleration floor passes the ceiling once d < 1.5
            crafted = dataclasses.replace(
                lowered, lower=(low(Polynomial.constant(250.0) - d * 100.0 - v * 100.0),
                                *lowered.lower[1:]))
        failed_at = []
        for trial in range(task.trials):
            got = run_trial(p.family, params, task, trial, record=True, lowered=crafted)
            want = reference_trial(crafted, params, task, dt, trial)
            for f in dataclasses.fields(TrialReport):
                assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
            if got.failure is not None:
                assert got.failure.startswith(message)
                failed_at.append(got.steps)
        assert any(steps > 0 for steps in failed_at)

    def test_inverted_box_checked_before_goal(self, restricted_problem):
        # the box is checked before the goal test: a trial that starts on
        # its goal in an inverted box still fails
        from sisynth import sim
        p = restricted_problem
        params = p.params([K_PINNED])
        lowered = p.family.lowered(params)
        high = Polynomial.constant(1e3).lower(p.system.state_vars)
        loop = sim._trial_loop(dataclasses.replace(lowered, lower=(high, *lowered.lower[1:])))
        phis = []
        with pytest.raises(InvertedBoundError, match="control bounds inverted in dimension 0"):
            loop(2.0, 0.0, math.pi, 0.0, (2.0, 0.0), 10, p.system.dt, lowered.eta, False,
                 phis, [], nominal_control, project, step)
        assert len(phis) == len(lowered.chain)

    def test_loop_compiled_once_without_builtins(self, restricted_problem):
        from sisynth import sim
        p = restricted_problem
        loop = sim._trial_loop(p.family.lowered(p.params([K_PINNED])))
        assert loop is sim._trial_loop(p.family.lowered(p.params([K_PINNED])))
        assert loop is not sim._trial_loop(p.family.lowered(p.params([1.0])))
        assert loop.__globals__["__builtins__"] == {}
        assert set(loop.__globals__) == {"__builtins__", "range", "atan2", "sin", "cos", "hypot",
                                         "inverted_bound", "trial"}


class TestBenchmarkHooks:
    """The benchmark counts and times the simulator by patching module
    globals; these are the names and the calling pattern it relies on."""

    def test_hook_points_exist(self):
        from sisynth import falsifier, sim
        for name in ("step", "nominal_control", "safe_control", "run_trial", "run_batch"):
            assert callable(getattr(sim, name))
        assert callable(falsifier.falsify)

    def test_traced_bench_wraps_every_name(self, monkeypatch):
        # bench/worker.py --trace 1 wraps each name it traces by attribute
        # lookup, so a deleted name fails here, not only in a traced bench run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracer
        import worker
        t = tracer.Tracer()
        try:
            worker.install_tracer(t)
            assert len(t._patches) == len(t.totals) == 17
            for owner, attr, fn in t._patches:
                assert getattr(owner, attr).__wrapped__ is fn, attr
        finally:
            t.restore()

    def test_bench_configs_build(self, monkeypatch):
        # the bench reads unicycle_restricted.json from src/, so a key that
        # config.py refuses fails here, not only in a bench run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import worker
        from sisynth.config import build_problem
        for workloads in worker.SIZES.values():
            for size in workloads.values():
                assert build_problem(worker.make_config(0, size)).specs

    def test_bench_short_passes_succeed(self, monkeypatch):
        # the untraced pass reads names such as SolverConfig.k_min, so a
        # deleted name or a failing operation fails here, not only in a
        # bench run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import worker
        from sisynth.config import build_problem
        for workload, size in worker.SIZES["short"].items():
            problem = build_problem(worker.make_config(0, size))
            _, _, ops = worker.PASSES[workload](problem, 0, size)
            assert ops and [name for name, ok in ops if not ok] == [], workload

    def test_patched_step_counts_batch_steps(self, restricted_problem, restricted_certificate,
                                             monkeypatch):
        from sisynth import sim
        p = restricted_problem
        params = p.params(restricted_certificate.theta(p.layout))
        task = dataclasses.replace(p.config.task_config(), trials=3, horizon=4.0)
        counts = {"step": 0, "nominal_control": 0}
        for name in counts:
            original = getattr(sim, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sim, name, counted)
        batch = sim.run_batch(p.family, params, task)
        assert all(r.failure is None for r in batch.reports)
        assert batch.steps > 0
        assert counts == {"step": batch.steps, "nominal_control": batch.steps}


class TestMarkdownReport:
    def test_table_and_summaries(self, restricted_problem, restricted_certificate):
        p = restricted_problem
        k = restricted_certificate.theta(p.layout)
        task = p.config.task_config()
        task.trials = 2
        batch = run_batch(p.family, p.params(k), task)
        text = markdown_report(batch, k)
        assert "| k | Safe Set (%) | Violations |" in text
        assert "100.0 | 0 |" in text
        assert "trials: 2" in text

    def test_wall_time_and_rate(self):
        runs = [TrialReport(trial=i, landed_in_safe_set=True, first_entry_time=0.0,
                            violations_after_entry=0, fi_failures=[], ftc_ok=True,
                            ftc_bound=None, reached_goal=True, steps=1500)
                for i in range(2)]
        text = markdown_report(BatchReport(reports=runs), [0.01], sim_time=2.0)
        assert "2.00 s for 3,000 filter steps (1,500 steps/s)" in text
        assert "steps/s" not in markdown_report(BatchReport(reports=runs), [0.01])

    def test_failing_trials_listed(self):
        bad = TrialReport(trial=3, landed_in_safe_set=False, first_entry_time=None,
                          violations_after_entry=0, fi_failures=[], ftc_ok=False,
                          ftc_bound=None, reached_goal=False)
        text = markdown_report(BatchReport(reports=[bad]), [0.01])
        assert "Failing trials" in text
        assert "trial 3" in text
