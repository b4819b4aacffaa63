import copy
import math
from importlib import resources

import numpy as np
import pytest

from sisynth.config import RunConfig, build_problem, default_unicycle_config
from sisynth.controller import wrap_angle
from sisynth.feasibility import solve
from sisynth.sim import WorldState

RESTRICTED_CONFIG_PATH = str(resources.files("sisynth") / "configs" / "unicycle_restricted.json")

# verdict lines from the acceptance gate, echoed in the terminal summary
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def unicycle_problem():
    """The standard unicycle synthesis instance (full state space)."""
    return build_problem(RunConfig.from_dict(default_unicycle_config()))


@pytest.fixture(scope="session")
def restricted_problem():
    """The heading-restricted variant with the richer certificate search space."""
    return build_problem(RunConfig.load(RESTRICTED_CONFIG_PATH))


@pytest.fixture(scope="session")
def restricted_certificate(restricted_problem):
    """A synthesized certificate for the restricted instance (solved once)."""
    from dataclasses import replace
    cfg = replace(restricted_problem.solver_config, restarts=4)
    return solve(restricted_problem.specs, restricted_problem.layout, cfg)


BRAKING_CONFIG = {
    "model": {"state_vars": ["d", "z"], "f": ["-1*z", "0"], "g": [["0"], ["1"]],
              "u_lower": ["-1"], "u_upper": ["1"], "h": ["-1*z^2 + 1"], "dt": 0.1},
    "index": {"phi0": "1 - d", "order": 1, "eta": 0.1},
    "solver": {"restarts": 3, "iterations": 2000, "rounds": 3, "tolerance": 1e-6,
               "seed": 0, "k_init": [0.2, 0.5]},
    "falsifier": {"axes": [{"var": "d", "range": [-2.0, 2.0], "resolution": 50},
                           {"var": "z", "range": [-1.0, 1.0], "resolution": 50}],
                  "samples": 1000, "slack": 1e-6, "seed": 0},
}


def braking_config_dict() -> dict:
    """A 1-D braking instance: strictly feasible for any k > 1 + eta."""
    return copy.deepcopy(BRAKING_CONFIG)


@pytest.fixture(scope="session")
def braking_problem():
    return build_problem(RunConfig.from_dict(braking_config_dict()))


@pytest.fixture(scope="session")
def braking_certificate(braking_problem):
    return solve(braking_problem.specs, braking_problem.layout,
                 braking_problem.solver_config)


def random_polynomial(rng, variables, max_terms=6, max_degree=3):
    from sisynth.poly import Polynomial, monomial
    terms = {}
    for _ in range(rng.integers(1, max_terms + 1)):
        n_factors = rng.integers(0, max_degree + 1)
        vs = rng.choice(len(variables), size=n_factors) if n_factors else []
        m = monomial([(variables[int(i)], 1) for i in vs])
        terms[m] = terms.get(m, 0.0) + float(rng.normal())
    return Polynomial(terms)


def random_assignment(rng, variables):
    return {v: float(rng.uniform(-2, 2)) for v in variables}


def poly_close(a, b, tol: float = 1e-10) -> bool:
    """Term-wise comparison of two polynomials with absolute tolerance."""
    keys = set(a.terms) | set(b.terms)
    return all(math.isclose(a.terms.get(k, 0.0), b.terms.get(k, 0.0), rel_tol=0.0, abs_tol=tol)
               for k in keys)


def derivative(sys, state, control) -> np.ndarray:
    """``f(x) + g(x) u`` evaluated term by term from the symbolic system, an
    oracle independent of the simulator's float step."""
    a = sys.assignment(state)
    u = np.asarray(control, dtype=float)
    out = np.empty(len(sys.state_vars))
    for i, fi in enumerate(sys.f):
        val = fi.evaluate(a)
        for j, gij in enumerate(sys.g[i]):
            val += gij.evaluate(a) * u[j]
        out[i] = val
    return out


def world_from_relative(rel):
    """The world pose with relative state ``rel`` (obstacle at the origin),
    the inverse of :func:`sisynth.sim.relative_state`."""
    position = (rel.d * math.cos(rel.beta), rel.d * math.sin(rel.beta))
    return WorldState(position=position, heading=wrap_angle(rel.alpha + rel.beta + math.pi),
                      speed=rel.v)
