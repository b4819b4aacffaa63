import json
from importlib import resources

import numpy as np
import pytest

from sisynth.config import ConfigError, RunConfig, default_unicycle_config
from sisynth.sim import RelativeState, WorldState, relative_state, step
from sisynth.system import STATE_TOL, InvertedBoundError, system_from_dict

from conftest import derivative, world_from_relative


def shipped_models() -> dict[str, dict]:
    """The model section of every packaged config, by file name."""
    configs = resources.files("sisynth") / "configs"
    return {path.name: json.loads(path.read_text())["model"]
            for path in sorted(configs.iterdir(), key=lambda p: p.name)
            if path.name.endswith(".json")}


@pytest.fixture(scope="module")
def uni():
    return system_from_dict(default_unicycle_config()["model"])


def sym_state(d, alpha, v):
    return np.array([d, np.sin(alpha), np.cos(alpha), v])


def in_state_space(sys, state, tol=STATE_TOL):
    """Every constraint h(x) >= 0 and every identity zeta(x) = 0, to within ``tol``."""
    a = sys.assignment(state)
    return (all(h.evaluate(a) >= -tol for h in sys.constraints_h)
            and all(abs(z.evaluate(a)) <= tol for z in sys.identities_zeta))


class TestControlBox:
    def test_accel_bounds_at_top_speed(self, uni):
        lower, upper = uni.control_box(sym_state(2.0, 0.0, 1.0))
        np.testing.assert_allclose([lower[0], upper[0]], [-200.0, 0.0])

    def test_accel_bounds_at_rest(self, uni):
        lower, upper = uni.control_box(sym_state(2.0, 0.0, 0.0))
        np.testing.assert_allclose([lower[0], upper[0]], [-100.0, 100.0])

    def test_steering_bounds_state_independent(self, uni):
        for state in (sym_state(1.0, 0.3, -0.5), sym_state(4.0, -2.0, 0.9)):
            lower, upper = uni.control_box(state)
            np.testing.assert_allclose([lower[1], upper[1]], [-1.0, 1.0])

    def test_inverted_bound_error(self):
        reg_spec = {
            "state_vars": ["x"],
            "f": ["0"], "g": [["1"]],
            "u_lower": ["x"], "u_upper": ["-1*x"],
            "h": [], "zeta": [], "dt": 0.01,
        }
        sys = system_from_dict(reg_spec)
        with pytest.raises(InvertedBoundError) as exc:
            sys.control_box([2.0])
        assert exc.value.dim == 0

    def test_one_step_keeps_speed_in_h(self):
        # one step v + dt * v_dot at either acceleration bound, from any speed
        # that h allows, stays in h: a box left at dt = 0.01 under dt = 0.05
        # takes v = 0 to -5
        for name, model in shipped_models().items():
            sys, dt = system_from_dict(model), model["dt"]
            assert not in_state_space(sys, sym_state(2.0, 0.0, 1.01)), name
            for v in np.linspace(-1.0, 1.0, 201):
                state = sym_state(2.0, 0.0, v)
                assert in_state_space(sys, state), (name, v)
                for u in sys.control_box(state):
                    v_next = v + dt * derivative(sys, state, u)[3]
                    assert in_state_space(sys, sym_state(2.0, 0.0, v_next)), (name, v, u)

    def test_never_inverted_on_random_in_space_states(self, uni):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = sym_state(rng.uniform(0.1, 5), rng.uniform(-np.pi, np.pi),
                              rng.uniform(-1, 1))
            assert in_state_space(uni, state)
            lower, upper = uni.control_box(state)
            assert np.all(lower <= upper)


class TestInStateSpace:
    def test_valid_state(self, uni):
        assert in_state_space(uni, sym_state(2.0, 0.7, 0.5))

    def test_speed_out_of_range(self, uni):
        assert not in_state_space(uni, sym_state(2.0, 0.7, 1.5))

    def test_circle_identity_violated(self, uni):
        assert not in_state_space(uni, np.array([2.0, 0.6, 0.9, 0.5]))

    def test_heading_restriction(self):
        sys = system_from_dict(shipped_models()["unicycle_restricted.json"])
        assert in_state_space(sys, sym_state(2.0, 0.5, 0.5))
        assert not in_state_space(sys, sym_state(2.0, 2.0, 0.5))


class TestSymbolicNumericAgreement:
    """The model section of every packaged config against the simulator and
    the unicycle's box formula at that section's dt."""

    def test_dynamics_match(self):
        # f + g u against a small-dt finite difference of the simulator's
        # world-frame step, read back in relative coordinates
        dt = 1e-8
        for name, model in shipped_models().items():
            sys = system_from_dict(model)
            rng = np.random.default_rng(11)
            for _ in range(1000):
                d = rng.uniform(0.2, 5)
                alpha = rng.uniform(-np.pi, np.pi)
                v = rng.uniform(-1, 1)
                lower, upper = sys.control_box(sym_state(d, alpha, v))
                u = rng.uniform(lower, upper)
                sym = derivative(sys, sym_state(d, alpha, v), u)
                world = world_from_relative(RelativeState(d=d, v=v, alpha=alpha,
                                                          beta=rng.uniform(-np.pi, np.pi)))
                rel0 = relative_state(world)
                px, py, psi, v1 = step((*world.position, world.heading, world.speed),
                                       rel0.d, rel0.alpha, u, dt)
                rel1 = relative_state(WorldState(position=(px, py), heading=psi, speed=v1))
                fd = (np.array(sym_state(rel1.d, rel1.alpha, rel1.v))
                      - np.array(sym_state(rel0.d, rel0.alpha, rel0.v))) / dt
                # [d_dot, sin(alpha)_dot, cos(alpha)_dot, v_dot]; the
                # difference is first order in dt (worst about 4.4e-6 here)
                np.testing.assert_allclose(sym, fd, rtol=0.0, atol=1e-5, err_msg=name)

    def test_control_boxes_match(self):
        # the speed-dependent box that keeps v in [v_min, v_max] over one
        # step of the model's dt: a in [(v_min - v)/dt, (v_max - v)/dt],
        # w in [w_min, w_max]
        v_min, v_max, w_min, w_max = -1.0, 1.0, -1.0, 1.0
        for name, model in shipped_models().items():
            sys, dt = system_from_dict(model), model["dt"]
            rng = np.random.default_rng(13)
            for _ in range(100):
                d = rng.uniform(0.2, 5)
                alpha = rng.uniform(-np.pi, np.pi)
                v = rng.uniform(-1, 1)
                ls, us = sys.control_box(sym_state(d, alpha, v))
                np.testing.assert_allclose(ls, [(v_min - v) / dt, w_min], atol=1e-9,
                                           err_msg=name)
                np.testing.assert_allclose(us, [(v_max - v) / dt, w_max], atol=1e-9,
                                           err_msg=name)


class TestSchema:
    def test_unknown_keys_rejected(self):
        raw = default_unicycle_config()
        raw["model"]["extra"] = 1
        with pytest.raises(ConfigError,
                           match=r"model key 'extra' must be absent \(unknown key\), got 1$"):
            RunConfig.from_dict(raw)

    def test_dimension_mismatch_rejected(self):
        spec = default_unicycle_config()["model"]
        spec["f"] = spec["f"][:-1]
        with pytest.raises(ValueError, match="f dimension"):
            system_from_dict(spec)
