import copy
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import sisynth
from sisynth.config import RunConfig, build_problem
from sisynth.controller import wrap_angle
from sisynth.falsifier import SLACK, SPACE_TOL, Counterexamples
from sisynth.feasibility import solve
from sisynth.index import box_min
from sisynth.poly import Polynomial, monomial_mul
from sisynth.sim import WorldState
from sisynth.system import STATE_TOL, InvertedBoundError

RESTRICTED_CONFIG_PATH = str(resources.files("sisynth") / "configs" / "unicycle_restricted.json")
# the directory the suite imports sisynth from
SRC = str(Path(sisynth.__file__).resolve().parents[1])

# verdict lines from the acceptance gate, echoed in the terminal summary
ACCEPTANCE_RESULTS: list[str] = []


def default_unicycle_config() -> dict:
    """The standard study setup, the packaged ``configs/unicycle.json``, as
    a plain config dictionary."""
    return json.loads((resources.files("sisynth") / "configs" / "unicycle.json").read_text())


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
    "index": {"phi0": "1 - d", "eta": 0.1},
    "solver": {"restarts": 3, "iterations": 666, "seed": 0, "k_init": [0.2, 0.5]},
    "falsifier": {"axes": [{"var": "d", "range": [-2.0, 2.0], "resolution": 50},
                           {"var": "z", "range": [-1.0, 1.0], "resolution": 50}],
                  "samples": 1000, "seed": 0},
}


def braking_config_dict() -> dict:
    """A 1-D braking instance: strictly feasible for any k > 1 + eta."""
    return copy.deepcopy(BRAKING_CONFIG)


# the braking instance with the speed's rate as a third state and the
# control on that rate, so phi0 = 1 - d has relative degree 2
TRIPLE_INTEGRATOR = {
    "state_vars": ["d", "z", "a"], "f": ["-1*z", "a", "0"], "g": [["0"], ["0"], ["1"]],
    "u_lower": ["-1"], "u_upper": ["1"], "h": ["-1*z^2 + 1", "-1*a^2 + 1"], "dt": 0.1}


def triple_integrator_config_dict() -> dict:
    raw = braking_config_dict()
    raw["model"] = copy.deepcopy(TRIPLE_INTEGRATOR)
    raw["falsifier"]["axes"].append({"var": "a", "range": [-1.0, 1.0], "resolution": 50})
    return raw


@pytest.fixture(scope="session")
def braking_problem():
    return build_problem(RunConfig.from_dict(braking_config_dict()))


@pytest.fixture(scope="session")
def braking_certificate(braking_problem):
    return solve(braking_problem.specs, braking_problem.layout,
                 braking_problem.solver_config)


def fresh_python(script: str, **env: str) -> subprocess.Popen:
    """Start ``script`` in a fresh interpreter that imports sisynth from
    :data:`SRC`, with ``env`` added to the environment; stdout and stderr
    are piped as text."""
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return subprocess.Popen([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=path, **env),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


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


def members_at(lowered, x) -> tuple:
    """``(chain, lower, upper, lf, lg, phi)`` of a lowered index at the state
    ``x``, each member evaluated on its own."""
    each = lambda polys: tuple(p.evaluate(x) for p in polys)
    return (each(lowered.chain), each(lowered.lower), each(lowered.upper),
            lowered.lf.evaluate(x), each(lowered.lg), lowered.phi.evaluate(x))


def worst_case_phidot(fam, params, state) -> float:
    """Minimum of d(phi_theta)/dt over the control box at ``state``, from the
    library's lowered members and vertex rule (``box_min``), the two the
    controller and the falsifier run."""
    _, lower, upper, lf, c, _ = members_at(fam.lowered(params), state)
    return float(box_min(c, lower, upper, lf))


def gram_reconstruct(spec) -> Polynomial:
    """``m^T Q m`` of a :class:`~sisynth.refute.GramSpec` expanded
    symbolically over its basis ``m``; equals ``spec.p0`` for every decision
    assignment when ``build_gram`` is right."""
    out = Polynomial.zero()
    for i, bi in enumerate(spec.basis):
        for j, bj in enumerate(spec.basis):
            out = out + spec.entries[i][j] * Polynomial({monomial_mul(bi, bj): 1.0})
    return out


def falsify_reference(fam, params, sys, cfg) -> Counterexamples:
    """The falsifier on a materialized point list, an oracle for
    :func:`sisynth.falsifier.falsify`: the grid's full ``ij`` mesh flattened,
    then the random draws, with every polynomial evaluated at every point."""
    grids = [np.linspace(a.lo, a.hi, a.resolution) for a in cfg.axes]
    coords = np.stack([m.ravel() for m in np.meshgrid(*grids, indexing="ij")], axis=0)
    if cfg.samples > 0:
        rng = np.random.default_rng(cfg.seed)
        rand = np.stack([rng.uniform(a.lo, a.hi, size=cfg.samples) for a in cfg.axes], axis=0)
        coords = np.concatenate([coords, rand], axis=1)
    by_name = {}
    for a, vals in zip(cfg.axes, coords):
        if a.angle:
            by_name[a.names[0]], by_name[a.names[1]] = np.sin(vals), np.cos(vals)
        else:
            by_name[a.names[0]] = vals
    missing = [v.name for v in sys.state_vars if v.name not in by_name]
    if missing:
        raise ValueError(f"falsifier axes do not cover state variables: {missing}")
    x = tuple(by_name[v.name] for v in sys.state_vars)
    n_pts = coords.shape[1]

    def points(p):
        return np.broadcast_to(np.asarray(p.evaluate(x), dtype=float), (n_pts,))

    def state(j):
        return np.array([v[j] for v in x])

    in_space = np.ones(n_pts, dtype=bool)
    for h in sys.constraints_h:
        in_space &= np.asarray(h.lower(sys.state_vars).evaluate(x)) >= -SPACE_TOL
    for z in sys.identities_zeta:
        in_space &= np.abs(np.asarray(z.lower(sys.state_vars).evaluate(x))) <= SPACE_TOL
    lowered = fam.lowered(params, sys)
    lower = [points(p) for p in lowered.lower]
    upper = [points(p) for p in lowered.upper]
    for i in range(sys.nu):
        bad = in_space & (lower[i] > upper[i] + STATE_TOL)
        if np.any(bad):
            raise InvertedBoundError(i, state(int(np.argmax(bad))))
    phi = points(lowered.phi)
    worst = box_min((points(lg) for lg in lowered.lg), lower, upper, points(lowered.lf))
    idx = np.nonzero(in_space & (phi >= 0.0) & (worst >= -params.eta - SLACK))[0]
    idx = idx[np.argsort(-worst[idx], kind="stable")]
    return Counterexamples(states=np.stack([v[idx] for v in x], axis=1),
                           phi_theta=phi[idx], worst_phidot=worst[idx])
