"""Run configuration: one JSON file wiring model, index, solver, and harness.

Sections: ``model`` (the control-affine system in full, with the control
period ``dt``), ``index`` (base index literal and margin), ``solver``
(restarts, DR iterations, the range restarts draw k from, refute-set
shaping), ``falsifier`` (sampling axes), ``sim`` (trial batch: ``trials``,
``horizon``, ``seed``).  Every section is checked against :data:`RULES` at
load, not cast; :func:`build_problem` parses the polynomial literals.
The packaged ``configs/unicycle.json`` states the standard unicycle study:
velocity and steering bounds of +/-1, margin 0.1, protective distance 1,
dt 0.01, 10 restarts.
The eigenvalue tolerance, the falsifier slack and the floor ``K_MIN`` on a
certified k are module constants.  Only ``falsifier_config`` and
``task_config`` import the falsifier and the simulator, which set-up never runs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .feasibility import DecisionLayout, SolverConfig
from .index import K_MIN, IndexParams, SafetyIndexFamily, build_chain
from .poly import PolynomialParseError, parse_polynomial
from .refute import GramSpec, RefuteCase, build_gram, build_p0, enumerate_cases
from .system import SymbolicSystem, system_from_dict

if TYPE_CHECKING:
    from .falsifier import FalsifierConfig
    from .sim import TaskConfig


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
    test: Callable[[object], bool]   # value -> accepted
    must: str                              # what the value must be
    required: bool = False


def _integer(lo: int) -> Rule:
    return Rule(lambda v: _is_int(v) and v >= lo, f"an integer >= {lo}")


def _number(lo: float, strict: bool = False) -> Rule:
    return Rule(lambda v: _is_finite(v) and (v > lo if strict else v >= lo),
                f"a finite number {'>' if strict else '>='} {lo}")


def _strings(must: str, required: bool = False) -> Rule:
    return Rule(_is_strings, must, required)


def _object(required: bool = False) -> Rule:
    return Rule(lambda v: isinstance(v, dict), "a JSON object", required)


def _names(required: bool = False) -> Rule:
    # a repeated state variable would add its rows into one another in every
    # Lie derivative; a repeated eliminated one would be substituted twice,
    # and the second pass would call it nonlinear
    return Rule(lambda v: _is_strings(v) and len(set(v)) == len(v),
                "a list of distinct state variable names (strings)", required)


_LITERALS = "a list of polynomial literals (strings)"

RULES: dict[str, dict[str, Rule]] = {
    "config": {"model": _object(True), "index": _object(True), "solver": _object(),
               "falsifier": _object(), "sim": _object()},
    # system_from_dict checks the dimensions
    "model": {"state_vars": _names(True),
              "f": _strings(_LITERALS, True),
              "g": Rule(lambda v: _is_list(v, _is_strings),
                        "a list of rows, each a list of polynomial literals (strings)", True),
              "u_lower": _strings(_LITERALS, True), "u_upper": _strings(_LITERALS, True),
              "h": _strings(_LITERALS), "zeta": _strings(_LITERALS),
              "dt": _number(0, strict=True)},
    "index": {
        "phi0": Rule(lambda v: isinstance(v, str), "a polynomial literal (a string)", True),
        "eta": _number(0, strict=True)},
    "solver": {
        "restarts": _integer(1), "iterations": _integer(1), "seed": _integer(0),
        # restarts draw k from k_init; check_certificate refuses k below K_MIN
        "k_init": Rule(lambda v: _is_pair(v) and K_MIN <= v[0] <= v[1],
                       f"a pair [lo, hi] of finite numbers with {K_MIN} <= lo <= hi"),
        "product_order": Rule(lambda v: _is_int(v) and v in (1, 2), "1 or 2"),
        "aux_splits": _strings(_LITERALS), "eliminate_nonneg": _names()},
    "falsifier": {
        "axes": Rule(lambda v: bool(v) and _is_list(
                         v, lambda a: isinstance(a, dict) and ("var" in a) != ("angle" in a)),
                     "a non-empty list of axis objects, each with one of 'var' and 'angle'",
                     True),
        "samples": _integer(0), "seed": _integer(0)},
    "axis": {"var": Rule(lambda v: isinstance(v, str), "a state variable name"),
             "angle": Rule(lambda v: _is_pair(v, lambda x: isinstance(x, str)),
                           "a pair [sin, cos] of state variable names"),
             "range": Rule(_is_pair, "a pair [lo, hi] of finite numbers", True),
             "resolution": _integer(2)},
    "sim": {"trials": _integer(0), "horizon": _number(0), "seed": _integer(0)},
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
            ok, got = rule.test(spec[key]), repr(spec[key])
        else:
            ok, got = not rule.required, "nothing"
        if not ok:
            raise ConfigError(f"{label} key {key!r} must be {rule.must}, got {got}")


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
        for section in ("model", "index", "solver", "falsifier", "sim"):
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
        return cls(raw=raw, model=raw["model"], index=raw["index"], solver=raw.get("solver", {}),
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

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()[:12]

    def solver_config(self) -> SolverConfig:
        s = self.solver
        k_init = {"k_init": tuple(map(float, s["k_init"]))} if "k_init" in s else {}
        return SolverConfig(**_given(s, "restarts", "iterations", "seed"), **k_init)

    def falsifier_config(self) -> FalsifierConfig:
        from .falsifier import Axis, FalsifierConfig
        if self.falsifier is None:
            raise ConfigError("config has no falsifier section")
        axes = [Axis(names=tuple(a["angle"]) if "angle" in a else (a["var"],),
                     lo=float(a["range"][0]), hi=float(a["range"][1]), angle="angle" in a,
                     **_given(a, "resolution"))
                for a in self.falsifier["axes"]]
        return FalsifierConfig(axes=axes, **_given(self.falsifier, "samples", "seed"))

    def task_config(self) -> TaskConfig:
        from .sim import TaskConfig
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
    try:
        sys = system_from_dict(cfg.model)
    except ValueError as exc:
        raise ConfigError(f"bad model section: {exc}") from exc
    registry = sys.registry
    try:
        phi0 = parse_polynomial(cfg.index["phi0"], registry)
    except PolynomialParseError as exc:
        raise ConfigError(f"bad phi0 literal: {exc}") from exc
    fam = build_chain(phi0, sys)

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
        specs.append(build_gram(p0, registry, kernel_tag=case.label))
    layout = DecisionLayout.build(fam.theta, cases, specs)
    return Problem(config=cfg, system=sys, family=fam, cases=cases, specs=specs,
                   layout=layout, solver_config=cfg.solver_config())

