"""Run configuration: one JSON file wiring model, index, solver, and harness.

Sections: ``model`` (system schema or a named builtin, with the control
period ``dt``), ``index`` (base index literal, chain order, margin),
``solver`` (restarts, DR iterations, tolerances, refute-set shaping),
``falsifier`` (sampling axes), ``sim`` (trial batch: ``trials``,
``horizon``, ``seed``).  Every section is checked against :data:`RULES` at
load, not cast; :func:`build_problem` parses the polynomial literals.
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
from typing import Callable, NamedTuple

from .falsifier import Axis, FalsifierConfig
from .feasibility import DecisionLayout, SolverConfig
from .index import K_MIN, IndexParams, SafetyIndexFamily, build_chain
from .poly import PolynomialParseError, parse_polynomial
from .refute import GramSpec, RefuteCase, build_gram, build_p0, enumerate_cases
from .sim import TaskConfig
from .system import SymbolicSystem, system_from_dict, unicycle_model_dict


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_list(value, item) -> bool:
    return isinstance(value, list) and all(item(v) for v in value)


def _is_pair(value, item=_is_finite) -> bool:
    return _is_list(value, item) and len(value) == 2


def _is_strings(value) -> bool:
    return _is_list(value, lambda v: isinstance(v, str))


class Rule(NamedTuple):
    test: Callable[[object, dict], bool]   # (value, its section) -> accepted
    must: str | Callable[[dict], str]      # what the value must be; a callable reads the section
    required: bool = False


def _integer(lo: int) -> Rule:
    return Rule(lambda v, s: _is_int(v) and v >= lo, f"an integer >= {lo}")


def _number(lo: float, strict: bool = False) -> Rule:
    return Rule(lambda v, s: _is_finite(v) and (v > lo if strict else v >= lo),
                f"a finite number {'>' if strict else '>='} {lo}")


def _at_most(other: str, default: float) -> Rule:
    # when other is given, its own rule, checked later, compares the two
    return Rule(lambda v, s: _is_finite(v) and (other in s or v <= default),
                f"a finite number <= {other}")


def _at_least(other: str, default: float) -> Rule:
    return Rule(lambda v, s: _is_finite(v) and v >= s.get(other, default),
                f"a finite number >= {other}")


def _strings(must: str, required: bool = False) -> Rule:
    return Rule(lambda v, s: _is_strings(v), must, required)


def _object(required: bool = False) -> Rule:
    return Rule(lambda v, s: isinstance(v, dict), "a JSON object", required)


_LITERALS = "a list of polynomial literals (strings)"
_NAMES = "a list of state variable names (strings)"
_DT = _number(0, strict=True)

RULES: dict[str, dict[str, Rule]] = {
    "config": {"model": _object(True), "index": _object(True), "solver": _object(),
               "falsifier": _object(), "sim": _object()},
    # a model given in full; system_from_dict checks the dimensions
    "model": {"state_vars": _strings(_NAMES, True), "f": _strings(_LITERALS, True),
              "g": Rule(lambda v, s: _is_list(v, _is_strings),
                        "a list of rows, each a list of polynomial literals (strings)", True),
              "u_lower": _strings(_LITERALS, True), "u_upper": _strings(_LITERALS, True),
              "h": _strings(_LITERALS), "zeta": _strings(_LITERALS), "dt": _DT},
    # the builtin model: the options of unicycle_model_dict
    "unicycle": {
        "builtin": Rule(lambda v, s: v == "unicycle", '"unicycle"', True),
        "v_min": _at_most("v_max", 1.0), "v_max": _at_least("v_min", -1.0),
        "w_min": _at_most("w_max", 1.0), "w_max": _at_least("w_min", -1.0), "dt": _DT,
        # cos(alpha) lies in [-1, 1]: a bound above 1 empties the state space
        "cos_alpha_min": Rule(lambda v, s: v is None or (_is_finite(v) and -1 <= v <= 1),
                              "null or a finite number in [-1, 1]")},
    "index": {
        "phi0": Rule(lambda v, s: isinstance(v, str), "a polynomial literal (a string)", True),
        "order": _integer(1), "eta": _number(0, strict=True)},
    "solver": {
        "restarts": _integer(1), "iterations": _integer(1), "tolerance": _number(0),
        "seed": _integer(0),
        # below the index floor, verify and simulate refuse the chain
        "k_min": _number(K_MIN),
        "k_init": Rule(lambda v, s: _is_pair(v) and s.get("k_min", K_MIN) <= v[0] <= v[1],
                       lambda s: f"a pair [lo, hi] of finite numbers with "
                                 f"{s.get('k_min', K_MIN)} <= lo <= hi"),
        "product_order": Rule(lambda v, s: _is_int(v) and v in (1, 2), "1 or 2"),
        "basis_degree": _integer(1),
        "aux_splits": _strings(_LITERALS), "eliminate_nonneg": _strings(_NAMES)},
    "falsifier": {
        "axes": Rule(lambda v, s: bool(v) and _is_list(
                         v, lambda a: isinstance(a, dict) and ("var" in a) != ("angle" in a)),
                     "a non-empty list of axis objects, each with one of 'var' and 'angle'",
                     True),
        "samples": _integer(0), "slack": _number(0), "seed": _integer(0)},
    "axis": {"var": Rule(lambda v, s: isinstance(v, str), "a state variable name"),
             "angle": Rule(lambda v, s: _is_pair(v, lambda x: isinstance(x, str)),
                           "a pair [sin, cos] of state variable names"),
             "range": Rule(lambda v, s: _is_pair(v), "a pair [lo, hi] of finite numbers", True),
             "resolution": _integer(2)},
    "sim": {"trials": _integer(0), "horizon": _number(0), "seed": _integer(0),
            "dt": Rule(lambda v, s: False, "absent (the simulator steps at model.dt)")},
}


def check(section: str, spec, label: str | None = None) -> None:
    """Refuse ``spec`` unless it is a JSON object whose every key has a rule
    in ``RULES[section]``, with every required key given and every value
    passing its rule.  ``label`` names the section in the message."""
    label = label or section
    if not isinstance(spec, dict):
        raise ConfigError(f"{label} must be a JSON object, got {spec!r}")
    rules = RULES[section]
    for key, value in spec.items():
        if key not in rules:
            raise ConfigError(f"{label} key {key!r} must be absent (unknown key), got {value!r}")
    for key, rule in rules.items():
        if key in spec:
            ok, got = rule.test(spec[key], spec), repr(spec[key])
        else:
            ok, got = not rule.required, "nothing"
        if not ok:
            must = rule.must(spec) if callable(rule.must) else rule.must
            raise ConfigError(f"{label} key {key!r} must be {must}, got {got}")


def _given(spec: dict, *keys: str) -> dict:
    return {key: spec[key] for key in keys if key in spec}


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
        """Check every section against :data:`RULES`, and refuse a state
        variable named by two falsifier axes; the values are kept as given."""
        check("config", raw)
        model = raw["model"]
        check("unicycle" if "builtin" in model else "model", model, "model")
        for section in ("index", "solver", "falsifier", "sim"):
            if section in raw:
                check(section, raw[section])
        falsifier = raw.get("falsifier")
        sampled = set()
        for i, axis in enumerate(falsifier["axes"] if falsifier else []):
            check("axis", axis, f"falsifier axis {i}")
            # a second axis on one variable would replace the first's values
            for name in axis["angle"] if "angle" in axis else [axis["var"]]:
                if name in sampled:
                    raise ConfigError(f"falsifier axis {i} names state variable {name!r} "
                                      f"a second time")
                sampled.add(name)
        return cls(raw=raw, model=model, index=raw["index"], solver=raw.get("solver", {}),
                   falsifier=falsifier, sim=raw.get("sim", {}))

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
        return float(self.index.get("eta", 0.1))

    @property
    def order(self) -> int:
        return self.index.get("order", 1)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:12]

    def solver_config(self) -> SolverConfig:
        s = self.solver
        floats = {key: float(s[key]) for key in ("tolerance", "k_min") if key in s}
        if "k_init" in s:
            floats["k_init"] = tuple(map(float, s["k_init"]))
        return SolverConfig(**_given(s, "restarts", "iterations", "seed"), **floats)

    def falsifier_config(self) -> FalsifierConfig:
        if self.falsifier is None:
            raise ConfigError("config has no falsifier section")
        axes = [Axis(names=tuple(a["angle"]) if "angle" in a else (a["var"],),
                     lo=float(a["range"][0]), hi=float(a["range"][1]), angle="angle" in a,
                     **_given(a, "resolution"))
                for a in self.falsifier["axes"]]
        return FalsifierConfig(axes=axes, **_given(self.falsifier, "samples", "slack", "seed"))

    def task_config(self) -> TaskConfig:
        return TaskConfig(**self.sim)


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


def build_problem(cfg: RunConfig) -> Problem:
    """Assemble system, index chain, refute cases, and Gram specs."""
    model = cfg.model
    if "builtin" in model:
        model = unicycle_model_dict(**{k: v for k, v in model.items() if k != "builtin"})
    try:
        sys = system_from_dict(model)
    except ValueError as exc:
        raise ConfigError(f"bad model section: {exc}") from exc
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
