import math

import numpy as np
import pytest

from sisynth.index import IndexParams, RelativeDegreeError, box_min, build_chain
from sisynth.poly import Polynomial, parse_polynomial
from sisynth.system import InvertedBoundError, system_from_dict, unicycle_model_dict

from conftest import derivative, worst_case_phidot


@pytest.fixture(scope="module")
def uni_family():
    sys = system_from_dict(unicycle_model_dict())
    phi0 = parse_polynomial("1 - d", sys.registry)
    return build_chain(phi0, 1, sys)


def sym_state(d, alpha, v):
    return np.array([d, np.sin(alpha), np.cos(alpha), v])


class TestBuildChain:
    def test_order_one_member(self, uni_family):
        fam = uni_family
        reg = fam.system.registry
        k = Polynomial.variable(reg["k"])
        z, y, d = (Polynomial.variable(reg[n]) for n in ("z", "y", "d"))
        # phi_1 = 1 - d + k * v * cos(alpha)
        assert fam.phi_theta == 1 - d + k * z * y

    def test_lie_derivative_along_control(self, uni_family):
        fam = uni_family
        reg = fam.system.registry
        k = Polynomial.variable(reg["k"])
        x, y, z = (Polynomial.variable(reg[n]) for n in ("x", "y", "z"))
        # L_g phi = [k*cos(alpha), -k*v*sin(alpha)]
        assert fam.Lg_phi[0] == k * y
        assert fam.Lg_phi[1] == -1 * k * z * x

    def test_zero_k_rejected_by_params(self):
        with pytest.raises(RelativeDegreeError):
            IndexParams(k=[0.0], eta=0.1)

    def test_control_appearing_early_rejected(self):
        spec = {
            "state_vars": ["x"], "f": ["x"], "g": [["1"]],
            "u_lower": ["-1"], "u_upper": ["1"], "h": [], "zeta": [], "dt": 0.01,
        }
        sys = system_from_dict(spec)
        phi0 = parse_polynomial("x", sys.registry)
        with pytest.raises(RelativeDegreeError):
            build_chain(phi0, 2, sys)

    def test_uncontrollable_index_rejected(self):
        spec = {
            "state_vars": ["x", "w"], "f": ["x", "0"], "g": [["0"], ["1"]],
            "u_lower": ["-1"], "u_upper": ["1"], "h": [], "zeta": [], "dt": 0.01,
        }
        sys = system_from_dict(spec)
        phi0 = parse_polynomial("x", sys.registry)
        with pytest.raises(RelativeDegreeError, match="identically zero"):
            build_chain(phi0, 1, sys)


class TestIndexParams:
    def test_eta_positive(self):
        with pytest.raises(ValueError):
            IndexParams(k=[0.1], eta=0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_eta_finite(self, eta):
        # a NaN eta once passed, since nan <= 0 is False
        with pytest.raises(ValueError, match="eta must be a finite number > 0"):
            IndexParams(k=[0.1], eta=eta)

    def test_from_roots_elementary_symmetric(self):
        p = IndexParams.from_roots([2.0, 3.0], eta=0.1)
        np.testing.assert_allclose(p.k, [5.0, 6.0])

    def test_from_roots_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            IndexParams.from_roots([1.0, -2.0], eta=0.1)


class TestWorstCasePhidot:
    def test_published_point(self, uni_family):
        params = IndexParams(k=[0.0139], eta=0.1)
        val = worst_case_phidot(uni_family, params, sym_state(1.0, 0.0, 1.0))
        # L_g phi = [0.0139, 0]; accel box [-200, 0] => 1 + 0.0139 * (-200)
        assert math.isclose(val, 1.0 + 0.0139 * (-200.0), rel_tol=1e-9)

    def test_control_independent_when_lg_zero(self, uni_family):
        params = IndexParams(k=[0.0139], eta=0.1)
        # alpha = pi/2, v = 0: L_g phi = [k*cos, -k*v*sin] = [0, 0]
        state = sym_state(2.0, np.pi / 2, 0.0)
        a = uni_family.system.assignment(state)
        a.update({uni_family.theta[0]: 0.0139})
        lf = uni_family.Lf_phi.evaluate(a)
        assert math.isclose(worst_case_phidot(uni_family, params, state), lf, abs_tol=1e-12)

    def test_matches_vertex_and_grid_minimum(self, uni_family):
        rng = np.random.default_rng(5)
        params = IndexParams(k=[0.0139], eta=0.1)
        fam = uni_family
        sys = fam.system
        for _ in range(200):
            state = sym_state(rng.uniform(0.1, 5), rng.uniform(-np.pi, np.pi),
                              rng.uniform(-1, 1))
            lower, upper = sys.control_box(state)
            a = sys.assignment(state)
            a.update({fam.theta[0]: 0.0139})
            lf = fam.Lf_phi.evaluate(a)
            c = np.array([lg.evaluate(a) for lg in fam.Lg_phi])

            vertices = [lf + c @ np.array([ua, uw])
                        for ua in (lower[0], upper[0]) for uw in (lower[1], upper[1])]
            got = worst_case_phidot(fam, params, state)
            assert math.isclose(got, min(vertices), rel_tol=1e-12, abs_tol=1e-12)

            grid_a = np.linspace(lower[0], upper[0], 20)
            grid_w = np.linspace(lower[1], upper[1], 20)
            grid_min = min(lf + c @ np.array([ua, uw]) for ua in grid_a for uw in grid_w)
            assert got <= grid_min + 1e-9


class TestLoweredIndexAt:
    """The fused evaluator against each lowered member, bit for bit."""

    @staticmethod
    def members(low):
        return (tuple(p.evaluate for p in low.chain), tuple(p.evaluate for p in low.lower),
                tuple(p.evaluate for p in low.upper), low.lf.evaluate,
                tuple(p.evaluate for p in low.lg), low.phi.evaluate)

    def check(self, low, states):
        expect = self.members(low)
        for x in states:
            got = low.at(x)
            assert len(got) == len(expect)
            for value, member in zip(got, expect):
                if isinstance(member, tuple):
                    assert value == tuple(m(x) for m in member)
                else:
                    assert value == member(x)

    @pytest.mark.parametrize("family,k", [("restricted_problem", 0.012032149952463394),
                                          ("unicycle_problem", 0.0139),
                                          ("braking_problem", 2.0)])
    def test_matches_members(self, family, k, request):
        problem = request.getfixturevalue(family)
        low = problem.family.lowered(problem.params([k]))
        rng = np.random.default_rng(31)
        if low.dim == 4:
            states = [(rng.uniform(0.1, 5.0), math.sin(a), math.cos(a), rng.uniform(-1.0, 1.0))
                      for a in rng.uniform(-np.pi, np.pi, size=500)]
        else:
            states = [tuple(rng.uniform(-2.0, 2.0, size=low.dim)) for _ in range(500)]
        self.check(low, states)

    def test_constant_index(self):
        from test_controller import constant_index
        low = constant_index(lf=0.7, c=[-1.25, 3.0], eta=0.2)
        self.check(low, [(0.0, 0.0), (1.5, -2.0)])
        assert low.at((0.0, 0.0)) == ((), (), (), 0.7, (-1.25, 3.0), 1.0)

    def test_identical_indices_share_compiled_code(self, unicycle_problem):
        p = unicycle_problem
        first, second = p.family.lowered(p.params([0.0139])), p.family.lowered(p.params([0.0139]))
        assert first.evaluate is second.evaluate
        assert p.family.lowered(p.params([0.02])).evaluate is not first.evaluate

    def test_inverted_bound_raises(self, braking_problem):
        import dataclasses
        low = braking_problem.family.lowered(braking_problem.params([2.0]))
        high = Polynomial.constant(2.0).lower(braking_problem.system.state_vars)
        inverted = dataclasses.replace(low, lower=(high,))
        assert inverted.evaluate is not low.evaluate
        with pytest.raises(InvertedBoundError) as exc:
            inverted.at((0.5, 0.2))
        assert exc.value.dim == 0
        with pytest.raises(ValueError, match="dimension"):
            low.at((0.5, 0.2, 0.1))


class TestBoxMin:
    def test_points_agree_with_single_states(self):
        # the array form (falsifier) and the float form (controller,
        # worst_case_phidot) of the vertex rule give the same values
        rng = np.random.default_rng(8)
        c = [rng.normal(size=64), rng.normal(size=64)]
        c[0][:8] = 0.0
        lower = [rng.uniform(-2, 0, size=64), rng.uniform(-2, 0, size=64)]
        upper = [lo + rng.uniform(0, 2, size=64) for lo in lower]
        offset = rng.normal(size=64)
        got = box_min(c, lower, upper, offset)
        for j in range(64):
            one = box_min([ci[j] for ci in c], [lo[j] for lo in lower],
                          [hi[j] for hi in upper], offset[j])
            corners = [offset[j] + c[0][j] * u0 + c[1][j] * u1
                       for u0 in (lower[0][j], upper[0][j]) for u1 in (lower[1][j], upper[1][j])]
            assert got[j] == one
            assert math.isclose(one, min(corners), rel_tol=1e-12, abs_tol=1e-12)


class TestPrincipalMembership:
    """A state lies in the safe set when every chain member is nonpositive."""

    @staticmethod
    def chain_at(fam, params, state):
        a = fam.system.assignment(state)
        return [p.evaluate(a) for p in fam.chain_numeric(params)]

    def test_safe_set_point(self, uni_family):
        params = IndexParams(k=[0.0139], eta=0.1)
        # d = 3: phi0 = -2, phi1 = -2 + 0.0139 < 0
        assert all(v <= 0.0 for v in self.chain_at(uni_family, params, sym_state(3.0, 0.0, 1.0)))

    def test_boundary_violation(self, uni_family):
        params = IndexParams(k=[0.5], eta=0.1)
        # d = 1.01, v = 1, alpha = 0: phi0 = -0.01 < 0 but phi1 = -0.01 + 0.5 > 0
        phi0, phi1 = self.chain_at(uni_family, params, sym_state(1.01, 0.0, 1.0))
        assert phi0 <= 0.0 < phi1


class TestChainNumeric:
    def test_order_one_chain(self, uni_family):
        params = IndexParams(k=[0.0139], eta=0.1)
        chain = uni_family.chain_numeric(params)
        assert len(chain) == 2
        a = uni_family.system.assignment(sym_state(1.0, 0.0, 1.0))
        assert math.isclose(chain[1].evaluate(a), 0.0139, rel_tol=1e-12)

    def test_finite_difference_consistency(self, uni_family):
        # phi1 - phi0 along a trajectory approximates k * dphi0/dt
        params = IndexParams(k=[0.0139], eta=0.1)
        fam = uni_family
        sys = fam.system
        chain = fam.chain_numeric(params)
        dt = 1e-5
        state = sym_state(2.0, 0.3, 0.8)
        u = np.array([0.5, 0.2])
        deriv = derivative(sys, state, u)
        nxt = state + dt * deriv
        a0, a1 = sys.assignment(state), sys.assignment(nxt)
        fd = (chain[0].evaluate(a1) - chain[0].evaluate(a0)) / dt
        diff = chain[1].evaluate(a0) - chain[0].evaluate(a0)
        assert math.isclose(diff, 0.0139 * fd, rel_tol=1e-3, abs_tol=1e-6)
