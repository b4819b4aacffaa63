import numpy as np
import pytest

from sisynth.sim import RelativeState, WorldState, relative_state, step, world_from_relative
from sisynth.system import InvertedBoundError, system_from_dict, unicycle_model_dict


@pytest.fixture(scope="module")
def uni():
    return system_from_dict(unicycle_model_dict())


def sym_state(d, alpha, v):
    return np.array([d, np.sin(alpha), np.cos(alpha), v])


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

    def test_never_inverted_on_random_in_space_states(self, uni):
        rng = np.random.default_rng(7)
        for _ in range(200):
            state = sym_state(rng.uniform(0.1, 5), rng.uniform(-np.pi, np.pi),
                              rng.uniform(-1, 1))
            assert uni.in_state_space(state)
            lower, upper = uni.control_box(state)
            assert np.all(lower <= upper)


class TestInStateSpace:
    def test_valid_state(self, uni):
        assert uni.in_state_space(sym_state(2.0, 0.7, 0.5))

    def test_speed_out_of_range(self, uni):
        assert not uni.in_state_space(sym_state(2.0, 0.7, 1.5))

    def test_circle_identity_violated(self, uni):
        assert not uni.in_state_space(np.array([2.0, 0.6, 0.9, 0.5]))

    def test_heading_restriction(self):
        sys = system_from_dict(unicycle_model_dict(cos_alpha_min=0.2))
        assert sys.in_state_space(sym_state(2.0, 0.5, 0.5))
        assert not sys.in_state_space(sym_state(2.0, 2.0, 0.5))


class TestSymbolicNumericAgreement:
    """The symbolic model against the simulator and the config's box formula."""

    def test_dynamics_match(self, uni):
        # f + g u against a small-dt finite difference of the simulator's
        # world-frame step, read back in relative coordinates
        dt = 1e-8
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = rng.uniform(0.2, 5)
            alpha = rng.uniform(-np.pi, np.pi)
            v = rng.uniform(-1, 1)
            lower, upper = uni.control_box(sym_state(d, alpha, v))
            u = rng.uniform(lower, upper)
            sym = uni.derivative(sym_state(d, alpha, v), u)
            world = world_from_relative(RelativeState(d=d, v=v, alpha=alpha,
                                                      beta=rng.uniform(-np.pi, np.pi)))
            rel0 = relative_state(world)
            px, py, psi, v1 = step((*world.position, world.heading, world.speed),
                                   rel0.d, rel0.alpha, u, dt)
            rel1 = relative_state(WorldState(position=(px, py), heading=psi, speed=v1))
            fd = (np.array(sym_state(rel1.d, rel1.alpha, rel1.v))
                  - np.array(sym_state(rel0.d, rel0.alpha, rel0.v))) / dt
            # [d_dot, sin(alpha)_dot, cos(alpha)_dot, v_dot]; the difference
            # is first order in dt (worst about 4.4e-6 over these draws)
            np.testing.assert_allclose(sym, fd, rtol=0.0, atol=1e-5)

    def test_control_boxes_match(self, uni):
        # the default model's speed-dependent box: a in [(v_min - v)/dt,
        # (v_max - v)/dt], w in [w_min, w_max]
        v_min, v_max, w_min, w_max, dt = -1.0, 1.0, -1.0, 1.0, 0.01
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = rng.uniform(0.2, 5)
            alpha = rng.uniform(-np.pi, np.pi)
            v = rng.uniform(-1, 1)
            ls, us = uni.control_box(sym_state(d, alpha, v))
            np.testing.assert_allclose(ls, [(v_min - v) / dt, w_min], atol=1e-9)
            np.testing.assert_allclose(us, [(v_max - v) / dt, w_max], atol=1e-9)


class TestSchema:
    def test_unknown_keys_rejected(self):
        spec = unicycle_model_dict()
        spec["extra"] = 1
        with pytest.raises(ValueError, match="unknown model keys"):
            system_from_dict(spec)

    def test_dimension_mismatch_rejected(self):
        spec = unicycle_model_dict()
        spec["f"] = spec["f"][:-1]
        with pytest.raises(ValueError, match="f dimension"):
            system_from_dict(spec)
