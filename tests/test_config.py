import inspect
import math

import pytest

from sisynth.config import ConfigError, RunConfig, build_problem
from sisynth.feasibility import SolverConfig, check_certificate
from sisynth.index import K_MIN

from conftest import braking_config_dict


def solver_config(**solver):
    raw = braking_config_dict()
    raw["solver"].update(solver)
    return RunConfig.from_dict(raw).solver_config()


class TestSolverConfig:
    def test_round_trip(self):
        cfg = solver_config(restarts=2, rounds=1, iterations=300, tolerance=0,
                            k_init=[0.5, 0.5])
        assert (cfg.restarts, cfg.rounds, cfg.iterations) == (2, 1, 300)
        assert cfg.tolerance == 0.0 and cfg.k_init == (0.5, 0.5)

    @pytest.mark.parametrize("key, value", [
        ("restarts", 0), ("restarts", True), ("rounds", 0), ("rounds", -2),
        ("iterations", 0), ("iterations", 2.5), ("tolerance", -1.0),
        ("tolerance", math.inf), ("tolerance", math.nan), ("tolerance", "1e-6"),
        ("k_init", [0.5, 0.2]), ("k_init", [0.2, math.inf]), ("k_init", [0.2]),
        ("k_init", 0.2), ("k_min", 1e-5), ("k_min", math.nan), ("k_min", "1e-3")])
    def test_bad_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"solver key '{key}' must be"):
            solver_config(**{key: value})

    def test_k_min_floor_is_the_index_floor(self):
        # IndexParams refuses k below K_MIN, so a lower k_min would let solve
        # and check_certificate accept a certificate that verify and
        # simulate then refuse (k_min values below it: test_bad_value_rejected)
        assert SolverConfig().k_min == K_MIN
        assert inspect.signature(check_certificate).parameters["k_min"].default == K_MIN
        assert solver_config(k_min=K_MIN).k_min == K_MIN

    @pytest.mark.parametrize("key", ["rounds", "restarts"])
    def test_zero_rejected_before_solve(self, key):
        # "rounds": 0 once divided by zero inside solve, "restarts": 0 once
        # left no best restart to unpack
        raw = braking_config_dict()
        raw["solver"][key] = 0
        with pytest.raises(ConfigError, match=f"solver key '{key}'"):
            build_problem(RunConfig.from_dict(raw))

