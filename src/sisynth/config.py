"""Run configuration: one JSON file wiring model, index, solver, and harness.

Sections: ``model`` (system schema or a named builtin, with the control
period ``dt``), ``index`` (base index literal, chain order, margin),
``solver`` (restarts, DR iterations, tolerances, refute-set shaping),
``falsifier`` (sampling axes), ``sim`` (trial batch: ``trials``,
``horizon``, ``seed``).  The index, solver, falsifier and sim values are
checked, not cast, at load; the model and the polynomial literals are
checked when :func:`build_problem` parses them.
Defaults reproduce the standard unicycle study: velocity and steering
bounds of +/-1, margin 0.1, protective distance 1, dt 0.01, eigenvalue
tolerance 1e-6, 10 restarts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

from .falsifier import FalsifierConfig
from .feasibility import DecisionLayout, SolverConfig
from .index import K_MIN, IndexParams, SafetyIndexFamily, build_chain
from .poly import PolynomialParseError, parse_polynomial
from .refute import GramSpec, RefuteCase, build_gram, build_p0, enumerate_cases
from .sim import TaskConfig
from .system import SymbolicSystem, system_from_dict, unicycle_model_dict


class ConfigError(ValueError):
    pass


TOP_KEYS = {"model", "index", "solver", "falsifier", "sim"}
SOLVER_KEYS = {"restarts", "iterations", "tolerance", "seed", "k_min", "k_init",
               "product_order", "basis_degree", "aux_splits", "eliminate_nonneg"}
INDEX_KEYS = {"phi0", "order", "eta"}


@dataclass
class RunConfig:
    raw: dict
    model: dict
    index: dict
    solver: dict
    falsifier: dict | None
    sim: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        unknown = set(raw) - TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        for section in ("model", "index"):
            if section not in raw:
                raise ConfigError(f"missing config section {section!r}")
        index = raw["index"]
        bad = set(index) - INDEX_KEYS
        if bad:
            raise ConfigError(f"unknown index keys: {sorted(bad)}")
        if "phi0" not in index:
            raise ConfigError("index section needs a 'phi0' polynomial literal")
        solver = raw.get("solver", {})
        bad = set(solver) - SOLVER_KEYS
        if bad:
            raise ConfigError(f"unknown solver keys: {sorted(bad)}")
        cfg = cls(raw=raw, model=raw["model"], index=index, solver=solver,
                  falsifier=raw.get("falsifier"), sim=raw.get("sim", {}))
        _ = cfg.eta, cfg.order   # the properties check their index keys
        cfg.solver_config()
        cfg.task_config()
        if cfg.falsifier is not None:
            cfg.falsifier_config()
        return cfg

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @property
    def eta(self) -> float:
        eta = self.index.get("eta", 0.1)
        _require(_is_finite(eta) and eta > 0, "eta", "a finite number > 0", eta, "index")
        return float(eta)

    @property
    def order(self) -> int:
        order = self.index.get("order", 1)
        _require(_is_int(order) and order >= 1, "order", "an integer >= 1", order, "index")
        return order

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:12]

    def solver_config(self) -> SolverConfig:
        """The solver settings, after checking every key of the solver section."""
        s = self.solver
        for key in ("restarts", "iterations"):
            if key in s:
                _require(_is_int(s[key]) and s[key] >= 1, key, "an integer >= 1", s[key])
        if "seed" in s:
            _require(_is_int(s["seed"]) and s["seed"] >= 0, "seed", "an integer >= 0", s["seed"])
        if "tolerance" in s:
            _require(_is_finite(s["tolerance"]) and s["tolerance"] >= 0, "tolerance",
                     "a finite number >= 0", s["tolerance"])
        if "k_min" in s:
            # below the index floor, verify and simulate refuse the chain
            _require(_is_finite(s["k_min"]) and s["k_min"] >= K_MIN, "k_min",
                     f"a finite number >= {K_MIN}", s["k_min"])
        if "k_init" in s:
            k_init, k_min = s["k_init"], s.get("k_min", K_MIN)
            _require(isinstance(k_init, (list, tuple)) and len(k_init) == 2
                     and all(_is_finite(v) for v in k_init) and k_min <= k_init[0] <= k_init[1],
                     "k_init", f"a pair [lo, hi] of finite numbers with {k_min} <= lo <= hi",
                     k_init)
        if "product_order" in s:
            _require(_is_int(s["product_order"]) and s["product_order"] in (1, 2),
                     "product_order", "1 or 2", s["product_order"])
        if "basis_degree" in s:
            _require(_is_int(s["basis_degree"]) and s["basis_degree"] >= 1, "basis_degree",
                     "an integer >= 1", s["basis_degree"])
        for key in ("aux_splits", "eliminate_nonneg"):
            if key in s:
                _require(isinstance(s[key], list) and all(isinstance(v, str) for v in s[key]),
                         key, "a list of strings", s[key])
        ints = {key: s[key] for key in ("restarts", "iterations", "seed") if key in s}
        casts = {"tolerance": float, "k_min": float,
                 "k_init": lambda pair: tuple(map(float, pair))}
        return SolverConfig(**ints, **{key: cast(s[key]) for key, cast in casts.items()
                                       if key in s})

    def falsifier_config(self) -> FalsifierConfig:
        if self.falsifier is None:
            raise ConfigError("config has no falsifier section")
        try:
            return FalsifierConfig.from_dict(self.falsifier)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad falsifier section: {exc}") from exc

    def task_config(self) -> TaskConfig:
        try:
            return TaskConfig.from_dict(self.sim)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sim section: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _require(ok: bool, key: str, expected: str, value, section: str = "solver") -> None:
    if not ok:
        raise ConfigError(f"{section} key {key!r} must be {expected}, got {value!r}")


@dataclass
class Problem:
    """Fully assembled synthesis instance."""

    config: RunConfig
    system: SymbolicSystem
    family: SafetyIndexFamily
    cases: list[RefuteCase]
    specs: list[GramSpec]
    layout: DecisionLayout
    solver_config: SolverConfig

    def params(self, k) -> IndexParams:
        return IndexParams(k=k, eta=self.config.eta)


def build_model(model: dict) -> SymbolicSystem:
    if "dt" in model and not (_is_finite(model["dt"]) and model["dt"] > 0):
        raise ConfigError(f"model key 'dt' must be a finite number > 0, got {model['dt']!r}")
    if model.get("builtin") == "unicycle":
        kwargs = {k: v for k, v in model.items() if k != "builtin"}
        try:
            model = unicycle_model_dict(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad unicycle model options: {exc}") from exc
    elif "builtin" in model:
        raise ConfigError(f"unknown builtin model {model['builtin']!r}")
    try:
        return system_from_dict(model)
    except (PolynomialParseError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc


def build_problem(cfg: RunConfig) -> Problem:
    """Assemble system, index chain, refute cases, and Gram specs."""
    sys = build_model(cfg.model)
    registry = sys.registry
    try:
        phi0 = parse_polynomial(cfg.index["phi0"], registry)
    except PolynomialParseError as exc:
        raise ConfigError(f"bad phi0 literal: {exc}") from exc
    fam = build_chain(phi0, cfg.order, sys)

    s = cfg.solver
    try:
        aux = [parse_polynomial(lit, registry) for lit in s.get("aux_splits", [])]
    except PolynomialParseError as exc:
        raise ConfigError(f"bad aux_splits literal: {exc}") from exc
    try:
        eliminate = [registry[name] for name in s.get("eliminate_nonneg", [])]
    except KeyError as exc:
        raise ConfigError(f"eliminate_nonneg names unknown variable: {exc}") from exc

    cases = enumerate_cases(fam, sys, cfg.eta, aux_splits=aux,
                            nonneg_eliminate=eliminate)
    specs = []
    for case in cases:
        p0 = build_p0(case, registry, product_order=s.get("product_order", 1))
        specs.append(build_gram(p0, s.get("basis_degree", 1), registry, kernel_tag=case.label))
    layout = DecisionLayout.build(fam.theta, cases, specs)
    return Problem(config=cfg, system=sys, family=fam, cases=cases, specs=specs,
                   layout=layout, solver_config=cfg.solver_config())


def default_unicycle_config() -> dict:
    """The standard study setup, the packaged ``configs/unicycle.json``, as
    a plain config dictionary."""
    return json.loads((resources.files("sisynth") / "configs" / "unicycle.json").read_text())
