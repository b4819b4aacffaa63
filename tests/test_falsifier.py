import csv

import numpy as np
import pytest

from sisynth.config import RunConfig
from sisynth.falsifier import Axis, FalsifierConfig, counterexamples_csv, falsify
from sisynth.index import IndexParams, build_chain
from sisynth.poly import parse_polynomial
from sisynth.system import InvertedBoundError, system_from_dict

from conftest import braking_config_dict, falsify_reference, worst_case_phidot

# the k the simulate-restricted benchmark pins: certified, no counterexample
K_PINNED = 0.012032149952463394


def paper_falsifier_config(resolution=60, samples=2000):
    return FalsifierConfig(
        axes=[Axis(names=("d",), lo=0.01, hi=5.0, resolution=resolution),
              Axis(names=("x", "y"), lo=-np.pi, hi=np.pi, resolution=resolution,
                   angle=True),
              Axis(names=("z",), lo=-1.0, hi=1.0, resolution=resolution)],
        samples=samples, slack=1e-6, seed=0)


class TestAxis:
    def test_angle_axis_needs_two_names(self):
        with pytest.raises(ValueError):
            Axis(names=("x",), lo=0.0, hi=1.0, resolution=10, angle=True)

    def test_linear_axis_needs_one_name(self):
        with pytest.raises(ValueError):
            Axis(names=("x", "y"), lo=0.0, hi=1.0, resolution=10)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            Axis(names=("d",), lo=0.0, hi=1.0, resolution=1)

    def test_from_dict(self):
        raw = braking_config_dict()
        raw["falsifier"]["axes"] = [{"angle": ["x", "y"], "range": [-1.0, 1.0], "resolution": 7},
                                    {"var": "d", "range": [0.0, 2.0]}]
        a, b = RunConfig.from_dict(raw).falsifier_config().axes
        assert a.angle and a.names == ("x", "y") and a.resolution == 7
        assert not b.angle and b.resolution == 100


class TestFalsify:
    def test_degenerate_parameters_yield_counterexample(self, unicycle_problem):
        # with k = 0 the index ignores velocity entirely; at full approach
        # speed the worst-case derivative is +1, far above the -0.1 margin
        p = unicycle_problem
        params = IndexParams(k=[0.0], eta=p.config.eta, enforce_min=False)
        cexs = falsify(p.family, params, p.system, paper_falsifier_config())
        assert cexs
        assert cexs[0].worst_phidot >= 0.99
        # the analytic worst case: d = 1 (on the boundary), alpha = 0
        # (head-on), v = 1 (max speed) gives phidot exactly 1
        direct = worst_case_phidot(p.family, params, [1.0, 0.0, 1.0, 1.0])
        assert direct == pytest.approx(1.0, abs=1e-12)

    def test_results_sorted_most_violating_first(self, unicycle_problem):
        p = unicycle_problem
        params = IndexParams(k=[0.0], eta=p.config.eta, enforce_min=False)
        cexs = falsify(p.family, params, p.system, paper_falsifier_config())
        worst = [c.worst_phidot for c in cexs]
        assert worst == sorted(worst, reverse=True)

    def test_counterexamples_on_manifold(self, unicycle_problem):
        p = unicycle_problem
        params = IndexParams(k=[0.0], eta=p.config.eta, enforce_min=False)
        for c in falsify(p.family, params, p.system, paper_falsifier_config())[:50]:
            d, x, y, z = c.state
            assert x * x + y * y == pytest.approx(1.0, abs=1e-9)
            assert -1.0 - 1e-9 <= z <= 1.0 + 1e-9
            assert c.phi_theta >= 0.0

    def test_refinement_is_monotone(self, unicycle_problem):
        # a finer grid with the coarse grid's points embedded finds at least
        # as many violations (resolutions chosen so grids are nested)
        p = unicycle_problem
        params = IndexParams(k=[0.0], eta=p.config.eta, enforce_min=False)
        coarse = falsify(p.family, params, p.system,
                         paper_falsifier_config(resolution=21, samples=0))
        fine = falsify(p.family, params, p.system,
                       paper_falsifier_config(resolution=41, samples=0))
        assert len(fine) >= len(coarse) > 0

    def test_certified_parameters_are_clean(self, braking_problem, braking_certificate):
        p = braking_problem
        k = braking_certificate.theta(p.layout)
        params = p.params(k)
        cexs = falsify(p.family, params, p.system, p.config.falsifier_config())
        assert cexs == []

    def test_braking_counterexample_below_feasible_band(self, braking_problem):
        # k = 0.5 < 1 + eta cannot brake in time from full closing speed
        p = braking_problem
        params = IndexParams(k=[0.5], eta=p.config.eta)
        cexs = falsify(p.family, params, p.system, p.config.falsifier_config())
        assert cexs
        assert cexs[0].worst_phidot >= 1.0 - 0.5 - 1e-9

    def test_missing_axis_rejected(self, braking_problem):
        p = braking_problem
        cfg = FalsifierConfig(axes=[Axis(names=("d",), lo=0.0, hi=1.0, resolution=5)])
        with pytest.raises(ValueError, match="do not cover"):
            falsify(p.family, p.params([1.5]), p.system, cfg)


def _records(cexs):
    return [(c.state.tobytes(), c.phi_theta, c.worst_phidot) for c in cexs]


class TestFactoredGrid:
    """``falsify`` evaluates the grid per axis and broadcasts; the reference
    evaluates every point of the materialized mesh.  Both must return the
    same counterexamples bit for bit, in the same order."""

    @pytest.mark.parametrize("problem, k, enforce_min, samples, count", [
        ("restricted_problem", K_PINNED, True, 10000, 0),
        ("restricted_problem", 1e-4, True, 10000, 51853),
        ("unicycle_problem", 0.0, False, 10000, 126356),
        ("restricted_problem", 1e-4, True, 0, 51320)],
        ids=["restricted-pinned", "restricted-k1e-4", "unrestricted-k0", "no-samples"])
    def test_matches_reference(self, request, problem, k, enforce_min, samples, count):
        p = request.getfixturevalue(problem)
        cfg = p.config.falsifier_config()
        cfg.samples = samples
        params = IndexParams(k=[k], eta=p.config.eta, enforce_min=enforce_min)
        cexs = falsify(p.family, params, p.system, cfg)
        assert len(cexs) == count
        assert _records(cexs) == _records(falsify_reference(p.family, params, p.system, cfg))

    @pytest.mark.parametrize("extra", [
        Axis(names=("w",), lo=0.0, hi=1.0, resolution=3),
        Axis(names=("z",), lo=-0.5, hi=0.5, resolution=4)], ids=["non-state", "duplicate"])
    def test_extra_axis_enlarges_grid(self, unicycle_problem, extra):
        # an axis no state variable reads, or one shadowed by a later axis
        # of the same name, still multiplies the grid points
        p = unicycle_problem
        params = IndexParams(k=[0.0], eta=p.config.eta, enforce_min=False)
        cfg = paper_falsifier_config(resolution=21, samples=100)
        base = len(falsify(p.family, params, p.system, cfg))
        cfg.axes.insert(1, extra)
        cexs = falsify(p.family, params, p.system, cfg)
        assert len(cexs) > base
        assert _records(cexs) == _records(falsify_reference(p.family, params, p.system, cfg))


class TestInvertedBound:
    """Control 1's box ``[0, z^2 - 1/4]`` inverts for |z| < 1/2; the space
    ``d >= 0`` keeps the first grid points out of it."""

    @pytest.fixture(scope="class")
    def inverting(self):
        sys = system_from_dict({
            "state_vars": ["d", "z"], "f": ["-1*z", "0"], "g": [["0", "0"], ["1", "1"]],
            "u_lower": ["-1", "0"], "u_upper": ["1", "z^2 - 0.25"],
            "h": ["d", "-1*z^2 + 1"]})
        fam = build_chain(parse_polynomial("1 - d", sys.registry), 1, sys)
        return fam, IndexParams(k=[1.5], eta=0.1), sys

    @pytest.mark.parametrize("resolution", [41, 2], ids=["on-grid", "in-samples"])
    def test_same_point_as_reference(self, inverting, resolution):
        # with two z values (-1, 1) the grid never inverts, so the first
        # inverted point is a random draw
        cfg = FalsifierConfig(axes=[Axis(names=("d",), lo=-2.0, hi=2.0, resolution=resolution),
                                    Axis(names=("z",), lo=-1.0, hi=1.0, resolution=resolution)],
                              samples=500, seed=3)
        with pytest.raises(InvertedBoundError) as got:
            falsify(*inverting, cfg)
        with pytest.raises(InvertedBoundError) as ref:
            falsify_reference(*inverting, cfg)
        assert got.value.dim == ref.value.dim == 1
        assert got.value.state.tobytes() == ref.value.state.tobytes()
        d, z = got.value.state
        assert d >= 0 and abs(z) < 0.5


class TestCsv:
    def test_round_trip(self, unicycle_problem, tmp_path):
        p = unicycle_problem
        params = IndexParams(k=[0.0], eta=p.config.eta, enforce_min=False)
        cexs = falsify(p.family, params, p.system,
                       paper_falsifier_config(resolution=21, samples=100))
        path = tmp_path / "cex.csv"
        counterexamples_csv(cexs, p.system, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["d", "x", "y", "z", "phi_theta", "worst_phidot"]
        assert len(rows) == len(cexs) + 1
        first = [float(v) for v in rows[1]]
        assert np.allclose(first[:4], cexs[0].state, atol=1e-9)
        assert first[5] == pytest.approx(cexs[0].worst_phidot, abs=1e-9)
