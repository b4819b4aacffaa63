import math

import numpy as np
import pytest

from sisynth.index import IndexParams, RelativeDegreeError, box_min, build_chain
from sisynth.poly import Polynomial, parse_polynomial
from sisynth.system import system_from_dict

from conftest import TRIPLE_INTEGRATOR, default_unicycle_config, derivative, worst_case_phidot


@pytest.fixture(scope="module")
def uni_family():
    sys = system_from_dict(default_unicycle_config()["model"])
    phi0 = parse_polynomial("1 - d", sys.registry)
    return build_chain(phi0, sys)


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

    def test_order_is_relative_degree(self, uni_family):
        assert uni_family.order == 1
        sys = system_from_dict(TRIPLE_INTEGRATOR)
        reg = sys.registry
        fam = build_chain(parse_polynomial("1 - d", reg), sys)
        assert fam.order == 2
        assert [v.name for v in fam.theta] == ["k1", "k2"]
        k1, k2, z, a = (Polynomial.variable(reg[n]) for n in ("k1", "k2", "z", "a"))
        # phi_2 = 1 - d + k1 * z + k2 * a, and only k2 * a sees the control
        assert fam.phi_theta == 1 - Polynomial.variable(reg["d"]) + k1 * z + k2 * a
        assert fam.Lg_phi == [k2]

    def test_control_appearing_early_rejected(self):
        spec = {
            "state_vars": ["x"], "f": ["x"], "g": [["1"]],
            "u_lower": ["-1"], "u_upper": ["1"], "h": [], "zeta": [], "dt": 0.01,
        }
        sys = system_from_dict(spec)
        phi0 = parse_polynomial("x", sys.registry)
        with pytest.raises(RelativeDegreeError, match="order 0"):
            build_chain(phi0, sys)

    def test_uncontrollable_index_rejected(self):
        spec = {
            "state_vars": ["x", "w"], "f": ["x", "0"], "g": [["0"], ["1"]],
            "u_lower": ["-1"], "u_upper": ["1"], "h": [], "zeta": [], "dt": 0.01,
        }
        sys = system_from_dict(spec)
        phi0 = parse_polynomial("x", sys.registry)
        with pytest.raises(RelativeDegreeError, match="identically zero"):
            build_chain(phi0, sys)


class TestIndexParams:
    def test_eta_positive(self):
        with pytest.raises(ValueError):
            IndexParams(k=[0.1], eta=0.0)

    @pytest.mark.parametrize("eta", [math.nan, math.inf])
    def test_eta_finite(self, eta):
        # a NaN eta once passed, since nan <= 0 is False
        with pytest.raises(ValueError, match="eta must be a finite number > 0"):
            IndexParams(k=[0.1], eta=eta)

    @pytest.mark.parametrize("k, roots, rtol", [
        ([5.0, 6.0], [2.0, 3.0], 1e-12), ([2.0, 1.0], [1.0, 1.0], 1e-12),
        ([3.0, 3.0, 1.0], [1.0, 1.0, 1.0], 1e-4)], ids=["distinct", "double", "triple"])
    def test_roots_from_k(self, k, roots, rtol):
        # 1 + 5s + 6s^2 = (1 + 2s)(1 + 3s), 1 + 2s + s^2 = (1 + s)^2, and a
        # triple root, which np.roots splits by about eps**(1/3) into the
        # complex plane
        p = IndexParams(k=k, eta=0.1)
        np.testing.assert_allclose(p.roots, roots, rtol=rtol)
        np.testing.assert_array_equal(p.k, k)

    @pytest.mark.parametrize("k", [[1.0, 1.0], [-5.0, 6.0], [1.0, 0.0]],
                             ids=["complex", "negative", "degenerate"])
    def test_roots_not_real_positive_rejected(self, k):
        # 1 + s + s^2 has complex roots, 1 - 5s + 6s^2 positive ones, 1 + s one
        with pytest.raises(ValueError, match="not all real and positive"):
            IndexParams(k=k, eta=0.1)


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

    def test_order_two_top_member_is_phi_theta(self):
        # roots (1, 2) of k = [3, 2]: phi_1 = phi0 + 1 * phi0', and phi_2
        # expands to phi0 + 3 * phi0' + 2 * phi0'', the family's phi_theta
        sys = system_from_dict(TRIPLE_INTEGRATOR)
        fam = build_chain(parse_polynomial("1 - d", sys.registry), sys)
        params = IndexParams(k=[3.0, 2.0], eta=0.1)
        np.testing.assert_allclose(params.roots, [1.0, 2.0], rtol=1e-12)
        chain = fam.chain_numeric(params)
        a = sys.assignment(np.array([0.5, 0.3, -0.2]))
        assert math.isclose(chain[1].evaluate(a), 0.5 + 0.3, rel_tol=1e-12)
        a.update(zip(fam.theta, params.k))
        assert math.isclose(chain[2].evaluate(a), fam.phi_theta.evaluate(a), rel_tol=1e-12)

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
