import copy
import inspect
import json
import math
import re
from pathlib import Path

import pytest

from sisynth.config import RULES, ConfigError, RunConfig, build_problem
from sisynth.feasibility import SolverConfig, check_certificate
from sisynth.index import K_MIN

from conftest import RESTRICTED_CONFIG_PATH, braking_config_dict, default_unicycle_config


def solver_config(**solver):
    raw = braking_config_dict()
    raw["solver"].update(solver)
    return RunConfig.from_dict(raw).solver_config()


class TestSolverConfig:
    def test_round_trip(self):
        cfg = solver_config(restarts=2, iterations=300, k_init=[0.5, 0.5])
        assert (cfg.restarts, cfg.iterations) == (2, 300)
        assert cfg.k_init == (0.5, 0.5)

    @pytest.mark.parametrize("key, value", [
        # a k_init below the k floor once ran the first DR run at a negative k
        ("restarts", 0), ("restarts", True), ("k_init", [-1.0, 0.0]), ("k_init", [5e-5, 1.0]),
        # tolerance is a constant, not a key: any value is an unknown key
        ("iterations", 0), ("iterations", 2.5), ("tolerance", -1.0),
        ("tolerance", math.inf), ("tolerance", math.nan), ("tolerance", "1e-6"),
        ("k_init", [0.5, 0.2]), ("k_init", [0.2, math.inf]), ("k_init", [0.2]),
        ("k_init", 0.2),
        # seeds 1.9 and true once ran as 1, and -1 loaded and then failed in solve
        ("seed", 1.9), ("seed", True), ("seed", -1), ("seed", "0")])
    def test_bad_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"solver key '{key}' must be"):
            solver_config(**{key: value})

    def test_seed_kept_as_given(self):
        assert solver_config(seed=7).seed == 7
        assert solver_config(seed=0).seed == 0

    def test_k_min_floor_is_the_index_floor(self):
        # check_certificate is the one gate on a certified k; its k_min and
        # the solver's, where the search grid starts, both default to K_MIN
        assert SolverConfig().k_min == K_MIN
        assert inspect.signature(check_certificate).parameters["k_min"].default == K_MIN

    @pytest.mark.parametrize("value", [1e-5, math.nan, "1e-3"])
    def test_retired_k_min_key_rejected(self, value):
        # the k floor is the constant K_MIN, checked by check_certificate alone
        raw = braking_config_dict()
        raw["solver"]["k_min"] = value
        with pytest.raises(ConfigError, match=rf"solver key 'k_min' must be absent "
                                              rf"\(unknown key\), got {re.escape(repr(value))}"):
            RunConfig.from_dict(raw)

    def test_retired_rounds_key_rejected(self):
        # the search over k replaced the rounds of penalty descent
        raw = braking_config_dict()
        raw["solver"]["rounds"] = 2
        with pytest.raises(ConfigError,
                           match=r"solver key 'rounds' must be absent \(unknown key\), got 2"):
            RunConfig.from_dict(raw)

    def test_retired_gram_kernel_key_rejected(self):
        # kernel shares are always on wherever a monomial has several basis pairs
        raw = braking_config_dict()
        raw["solver"]["gram_kernel"] = True
        with pytest.raises(ConfigError, match=r"solver key 'gram_kernel' must be absent "
                                              r"\(unknown key\), got True"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("key", ["restarts"])
    def test_zero_rejected_before_solve(self, key):
        # "restarts": 0 once left no best restart to unpack
        raw = braking_config_dict()
        raw["solver"][key] = 0
        with pytest.raises(ConfigError, match=f"solver key '{key}'"):
            build_problem(RunConfig.from_dict(raw))


class TestCheckedAtLoad:
    """Index and refute-shaping values are checked, not cast, when the config
    loads: a NaN eta once dropped out of every case's derivative condition,
    and aux_splits "xy" was read letter by letter."""

    @pytest.mark.parametrize("section, key, value", [
        ("index", "eta", math.nan), ("index", "eta", math.inf), ("index", "eta", 0),
        ("index", "eta", -0.1), ("index", "eta", "0.1"), ("index", "eta", True),
        ("index", "order", 0), ("index", "order", 1.5), ("index", "order", True),
        ("solver", "product_order", 3), ("solver", "product_order", 0),
        ("solver", "product_order", 2.0), ("solver", "product_order", True),
        ("solver", "basis_degree", 0), ("solver", "basis_degree", 1.9),
        ("solver", "basis_degree", "2"), ("solver", "basis_degree", True),
        ("solver", "aux_splits", "xy"), ("solver", "aux_splits", ["x", 1]),
        ("solver", "eliminate_nonneg", "d"), ("solver", "eliminate_nonneg", [True])])
    def test_bad_value_rejected(self, section, key, value):
        raw = braking_config_dict()
        raw[section][key] = value
        with pytest.raises(ConfigError, match=f"{section} key '{key}' must be"):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("index", "order", 1), ("solver", "basis_degree", 1), ("solver", "basis_degree", 2)])
    def test_derived_key_rejected(self, section, key, value):
        # the chain order is phi0's relative degree and the Gram basis degree
        # half p0's state degree: even the values the shipped configs gave
        # are unknown keys, like every value in test_bad_value_rejected
        raw = braking_config_dict()
        raw[section][key] = value
        with pytest.raises(ConfigError, match=rf"{section} key '{key}' must be absent "
                                              rf"\(unknown key\), got {value!r}"):
            RunConfig.from_dict(raw)

    def test_nan_eta_in_json_rejected(self, tmp_path):
        path = tmp_path / "nan_eta.json"
        path.write_text(json.dumps(braking_config_dict()).replace('"eta": 0.1', '"eta": NaN'))
        with pytest.raises(ConfigError, match="index key 'eta' must be a finite number > 0"):
            RunConfig.load(str(path))


class TestModelDt:
    """The control period has one home, the model: ``dt`` must be a finite
    number > 0, in the unicycle config and in the braking model alike."""

    @pytest.mark.parametrize("dt", [0, -0.01, math.inf, math.nan, "0.01", True],
                             ids=["0", "-0.01", "inf", "nan", "str", "bool"])
    def test_bad_dt_rejected(self, dt):
        for raw in (default_unicycle_config(), braking_config_dict()):
            raw["model"]["dt"] = dt
            with pytest.raises(ConfigError, match="model key 'dt' must be a finite number > 0"):
                build_problem(RunConfig.from_dict(raw))

    def test_dt_reaches_the_system(self):
        raw = braking_config_dict()
        raw["model"]["dt"] = 0.02
        assert build_problem(RunConfig.from_dict(raw)).system.dt == 0.02


RANGE = "falsifier axis 0 key 'range' must be a pair [lo, hi] of finite numbers, got "
RESOLUTION = "falsifier axis 0 key 'resolution' must be an integer >= 2, got "


class TestFalsifierSection:
    @pytest.mark.parametrize("edit, message", [
        pytest.param({"seed": -1}, "falsifier key 'seed' must be an integer >= 0, got -1",
                     id="edit0-falsifier seed must be >= 0"),
        pytest.param({"slack": math.nan}, "falsifier key 'slack' must be absent (unknown key), "
                     "got nan", id="slack-retired"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0], "resolution": 1}]},
                     RESOLUTION + "1", id="edit2-axis resolution must be >= 2"),
        pytest.param({"axes": [{"var": "d"}]}, RANGE + "nothing", id="edit3-'range'"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, math.nan]}]}, RANGE + "[0.0, nan]",
                     id="edit4-axis range must be finite"),
        # checked, not cast: int() and float() once turned most of these into numbers
        pytest.param({"samples": "many"}, "falsifier key 'samples' must be an integer >= 0, "
                     "got 'many'", id="samples-string"),
        pytest.param({"samples": "100"}, "falsifier key 'samples' must be an integer >= 0, "
                     "got '100'", id="samples-numeric-string"),
        pytest.param({"samples": True}, "falsifier key 'samples' must be an integer >= 0, "
                     "got True", id="samples-bool"),
        pytest.param({"samples": 2.5}, "falsifier key 'samples' must be an integer >= 0, "
                     "got 2.5", id="samples-float"),
        pytest.param({"seed": 2.7}, "falsifier key 'seed' must be an integer >= 0, got 2.7",
                     id="seed-float"),
        pytest.param({"seed": True}, "falsifier key 'seed' must be an integer >= 0, got True",
                     id="seed-bool"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0], "resolution": 2.7}]},
                     RESOLUTION + "2.7", id="resolution-float"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0], "resolution": True}]},
                     RESOLUTION + "True", id="resolution-bool"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0], "resolution": "50"}]},
                     RESOLUTION + "'50'", id="resolution-string"),
        pytest.param({"axes": [{"var": "d", "range": [0.0]}]}, RANGE + "[0.0]",
                     id="range-one-value"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, 1.0, 2.0]}]},
                     RANGE + "[0.0, 1.0, 2.0]", id="range-three-values"),
        pytest.param({"axes": [{"var": "d", "range": "01"}]}, RANGE + "'01'",
                     id="range-string"),
        pytest.param({"axes": [{"var": "d", "range": [0.0, "1"]}]}, RANGE + "[0.0, '1']",
                     id="range-string-bound"),
        pytest.param({"axes": [{"var": "d", "range": [False, 1.0]}]}, RANGE + "[False, 1.0]",
                     id="range-bool-bound"),
        # a misspelled key, an empty list and an axis with both names once loaded
        pytest.param({"sample": 0}, "falsifier key 'sample' must be absent (unknown key), got 0",
                     id="misspelled-key"),
        pytest.param({"axes": []}, "falsifier key 'axes' must be a non-empty list of axis "
                     "objects, each with one of 'var' and 'angle', got []", id="axes-empty"),
        pytest.param({"axes": [{"var": "d", "angle": ["x", "y"], "range": [0.0, 1.0]}]},
                     "falsifier key 'axes' must be a non-empty list of axis objects, each with "
                     "one of 'var' and 'angle', got [{'var': 'd', 'angle': ['x', 'y'], "
                     "'range': [0.0, 1.0]}]", id="axis-var-and-angle")])
    def test_bad_section_is_config_error(self, edit, message):
        raw = braking_config_dict()
        raw["falsifier"].update(edit)
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            RunConfig.from_dict(raw).falsifier_config()

    def test_integers_kept_as_given(self):
        raw = braking_config_dict()
        raw["falsifier"].update(samples=0, seed=5)
        raw["falsifier"]["axes"][0]["resolution"] = 2
        cfg = RunConfig.from_dict(raw).falsifier_config()
        assert (cfg.samples, cfg.seed, cfg.axes[0].resolution) == (0, 5, 2)
        assert cfg.axes[1].resolution == 50

    def test_zero_samples_allowed(self):
        raw = braking_config_dict()
        raw["falsifier"]["samples"] = 0
        assert RunConfig.from_dict(raw).falsifier_config().samples == 0


class TestModelSection:
    """A model is given in full and goes through the rule table: an unknown
    key (the retired builtin schema's among them), a value of the wrong type
    or a repeated state variable is refused at load, and mismatched
    dimensions when the problem is built."""

    @pytest.mark.parametrize("edit, message", [
        ({"v_min": True}, "model key 'v_min' must be absent (unknown key), got True"),
        ({"w_min": "-1 - 0*x"}, "model key 'w_min' must be absent (unknown key), got '-1 - 0*x'"),
        ({"dt": "0.01"}, "model key 'dt' must be a finite number > 0, got '0.01'"),
        ({"cos_alpha_min": "x"}, "model key 'cos_alpha_min' must be absent (unknown key), got 'x'"),
        ({"cos_alpha_min": 1.5}, "model key 'cos_alpha_min' must be absent (unknown key), got 1.5"),
        ({"w_min": 1, "w_max": -1}, "model key 'w_min' must be absent (unknown key), got 1"),
        ({"v_max": -2.0}, "model key 'v_max' must be absent (unknown key), got -2.0"),
        ({"v_max": "x"}, "model key 'v_max' must be absent (unknown key), got 'x'"),
        ({"builtin": "unicycle"}, "model key 'builtin' must be absent (unknown key), "
                                  "got 'unicycle'"),
        ({"f": ["0"]}, "bad model section: f dimension mismatch")],
        ids=["v_min-bool", "w_min-literal", "dt-string", "cos_alpha_min-string",
             "cos_alpha_min-above-1", "w-inverted", "v_max-below-default-v_min", "v_max-string",
             "unknown-builtin", "full-model-key"])
    def test_bad_unicycle_option_rejected(self, edit, message):
        # the unicycle is written out in full: the builtin schema's options,
        # whatever their value, are unknown keys, and its model keys are
        # the full model's
        raw = default_unicycle_config()
        raw["model"].update(edit)
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            build_problem(RunConfig.from_dict(raw))

    @pytest.mark.parametrize("edit, message", [
        ({"f": ["-1*z", 0]},
         "model key 'f' must be a list of polynomial literals (strings), got ['-1*z', 0]"),
        ({"g": [["0"], [1]]}, "model key 'g' must be a list of rows, each a list of "
                              "polynomial literals (strings), got [['0'], [1]]"),
        ({"state_vars": None}, "model key 'state_vars' must be a list of distinct state "
                               "variable names (strings), got None"),
        # a repeated name once loaded, and each of its rows added into the
        # Lie derivatives: L_f phi came out as z + k, not z
        ({"state_vars": ["d", "z", "z"], "f": ["-1*z", "0", "1"], "g": [["0"], ["1"], ["0"]]},
         "model key 'state_vars' must be a list of distinct state variable names (strings), "
         "got ['d', 'z', 'z']"),
        ({"v_min": -1.0}, "model key 'v_min' must be absent (unknown key), got -1.0")],
        ids=["f-number", "g-number", "state_vars-null", "state_vars-repeated", "unicycle-key"])
    def test_bad_full_model_rejected(self, edit, message):
        raw = braking_config_dict()
        raw["model"].update(edit)
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            RunConfig.from_dict(raw)

    def test_missing_required_key_named(self):
        raw = braking_config_dict()
        del raw["model"]["u_upper"]
        with pytest.raises(ConfigError, match="model key 'u_upper' must be .*, got nothing$"):
            RunConfig.from_dict(raw)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match=r"config must be a JSON object, got \[1\]"):
            RunConfig.from_dict([1])


def _substituted(raw: dict, path: tuple, value) -> dict:
    raw = copy.deepcopy(raw)
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def _paths(node, path=()):
    """The path of every section, list, object and leaf below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


class TestTypeSweep:
    """Every section and leaf of the shipped configs, replaced by a value of
    another type or range, either loads and builds or is refused with a
    ValueError (ConfigError, RelativeDegreeError; every
    command maps them to exit 4).  No TypeError or AttributeError escapes."""

    SUBSTITUTES = [None, True, "x", [], {}, math.nan, -1, 2.5]

    # Every substitution that loads is a legitimate value: another
    # polynomial literal in the model (the g entries of d's row are not
    # among them: a control there makes phi0's relative degree 0), no
    # constraints or identities, a positive dt or eta, a sampling range the
    # user may choose, defaults for a whole section, or a redundant split.
    LOADS = [
        *(f"model.{key}.{i}='x'" for key, n in (("f", 4), ("u_lower", 2), ("u_upper", 2),
                                                  ("h", 2), ("zeta", 1)) for i in range(n)),
        *(f"model.g.{i}.{j}='x'" for i in range(1, 4) for j in range(2)),
        "model.h=[]", "model.zeta=[]", "model.dt=2.5", "index.eta=2.5", "solver={}",
        "solver.aux_splits=[]", "solver.aux_splits.1='x'", "solver.eliminate_nonneg=[]",
        "sim={}", "sim.horizon=2.5",
        *(f"falsifier.axes.{i}.range.{j}={v}" for i in range(3) for j in range(2)
          for v in (-1, 2.5))]
    # Substitutions that put x on two axes are refused at load; they once
    # loaded and left a state variable unsampled.  (path, the axis that
    # repeats x)
    REPEATS = [(("falsifier", "axes", 0, "var"), 1), (("falsifier", "axes", 1, "angle", 1), 1),
               (("falsifier", "axes", 2, "var"), 2)]

    def sweep(self, raw, paths):
        """The substitutions that load, by name, with their config and problem."""
        loaded = {}
        for path in paths:
            node = raw
            for key in path:
                node = node[key]
            for value in self.SUBSTITUTES:
                if repr(node) == repr(value):
                    continue   # the value already there
                name = ".".join(map(str, path)) + "=" + repr(value)
                try:
                    cfg = RunConfig.from_dict(_substituted(raw, path, value))
                    loaded[name] = (cfg, build_problem(cfg))
                except ValueError:
                    pass
        return loaded

    def test_shipped_configs(self):
        loaded = self.sweep(default_unicycle_config(), list(_paths(default_unicycle_config())))
        restricted = json.loads(open(RESTRICTED_CONFIG_PATH).read())
        loaded.update(self.sweep(restricted, [("model", "h", 1), ("solver", "k_init")]))
        assert sorted(loaded) == sorted(self.LOADS)
        for path, axis in self.REPEATS:
            with pytest.raises(ConfigError, match=f"falsifier axis {axis} names state "
                                                  f"variable 'x' a second time"):
                RunConfig.from_dict(_substituted(default_unicycle_config(), path, "x"))


class TestReadme:
    def test_every_rule_in_readme_tables(self):
        # the README's config tables are written from RULES, in its words
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for section, rules in RULES.items():
            start = readme.index(f"**`{section}`**")
            table = readme[start:readme.index("\n\n", readme.index("| key |", start))]
            for key, rule in rules.items():
                must = rule.must if isinstance(rule.must, str) else ""
                assert f"| `{key}` | {must}" in table, (section, key)
            # and the reverse: a deleted key leaves no row behind
            for key in re.findall(r"^\| `([^`]+)` \|", table, flags=re.M):
                assert key in rules, (section, key)
