import csv

import numpy as np
import pytest

from sisynth.falsifier import Axis, FalsifierConfig, counterexamples_csv, falsify
from sisynth.index import IndexParams

from conftest import worst_case_phidot


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
        a = Axis.from_dict({"angle": ["x", "y"], "range": [-1.0, 1.0], "resolution": 7})
        assert a.angle and a.names == ("x", "y") and a.resolution == 7
        b = Axis.from_dict({"var": "d", "range": [0.0, 2.0]})
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
