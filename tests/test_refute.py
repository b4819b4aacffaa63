import numpy as np
import pytest

from sisynth.config import default_unicycle_config
from sisynth.index import build_chain
from sisynth.poly import Polynomial, VarKind, VarRegistry, monomial, parse_polynomial
from sisynth.refute import build_gram, build_p0, enumerate_cases, state_monomials
from sisynth.system import system_from_dict

from conftest import gram_reconstruct, poly_close


@pytest.fixture
def uni_setup():
    sys = system_from_dict(default_unicycle_config()["model"])
    phi0 = parse_polynomial("1 - d", sys.registry)
    fam = build_chain(phi0, sys)
    reg = sys.registry
    aux = [parse_polynomial("x", reg), parse_polynomial("y", reg)]
    cases = enumerate_cases(fam, sys, eta=0.1, aux_splits=aux,
                            nonneg_eliminate=[reg["d"]])
    return sys, fam, cases


class TestEnumerateCases:
    def test_eight_cases(self, uni_setup):
        _, _, cases = uni_setup
        assert len(cases) == 8
        assert len({c.label for c in cases}) == 8

    def test_two_cases_for_single_control_dim(self):
        spec = {
            "state_vars": ["x", "z"], "f": ["-1*z", "0"], "g": [["0"], ["1"]],
            "u_lower": ["-1"], "u_upper": ["1"], "h": [], "zeta": [], "dt": 0.01,
        }
        sys = system_from_dict(spec)
        phi0 = parse_polynomial("1 - x", sys.registry)
        fam = build_chain(phi0, sys)
        cases = enumerate_cases(fam, sys, eta=0.1)
        assert len(cases) == 2

    def test_all_positive_case_contents(self, uni_setup):
        sys, fam, cases = uni_setup
        reg = sys.registry
        x, y, z = (Polynomial.variable(reg[n]) for n in ("x", "y", "z"))
        k = Polynomial.variable(reg["k"])
        case = next(c for c in cases if all(s > 0 for s in c.indicators.values()))
        gammas = case.gammas
        # derivative condition with w = w_max and accel lower bound substituted:
        # yz - k*xz + 100*k*(-1)*y - 100*k*yz + eta
        expected = y * z - k * x * z - 100 * k * y - 100 * k * y * z + 0.1
        assert poly_close(gammas[0], expected)
        assert any(g == y for g in gammas[1:])
        assert any(g == x * z for g in gammas[1:])
        assert any(g == x for g in gammas[1:])
        assert any(g == x * y for g in gammas[1:])
        assert any(g == 1 - z ** 2 for g in gammas[1:])
        # manifold with the nonnegative distance relaxed away: k*v*cos + d_min
        assert any(g == k * z * y + 1 for g in gammas[1:])
        assert case.zetas == [x ** 2 + y ** 2 - 1]

    def test_sign_flip_changes_bound(self, uni_setup):
        sys, fam, cases = uni_setup
        reg = sys.registry
        x, y, z = (Polynomial.variable(reg[n]) for n in ("x", "y", "z"))
        k = Polynomial.variable(reg["k"])
        # flip only the y indicator: accel bound switches to the upper bound
        case = next(c for c in cases
                    if c.indicators["s0"] < 0
                    and c.indicators["s1"] > 0
                    and c.indicators["aux0"] > 0)
        expected = y * z - k * x * z + 100 * k * y - 100 * k * y * z + 0.1
        assert poly_close(case.gammas[0], expected)
        assert any(g == -1 * y for g in case.gammas[1:])

    def test_sign_coverage_on_random_states(self, uni_setup):
        sys, fam, cases = uni_setup
        rng = np.random.default_rng(21)
        reg = sys.registry
        for _ in range(200):
            alpha = rng.uniform(-np.pi, np.pi)
            a = {reg["d"]: rng.uniform(0.1, 5), reg["x"]: np.sin(alpha),
                 reg["y"]: np.cos(alpha), reg["z"]: rng.uniform(-1, 1)}
            covered = 0
            for c in cases:
                sign_gammas = c.gammas[1:5]  # the three sign splits and the pair product
                if all(g.evaluate(a) >= 0 for g in sign_gammas):
                    covered += 1
            assert covered >= 1

    def test_elimination_requires_negative_linear(self):
        sys = system_from_dict(default_unicycle_config()["model"])
        reg = sys.registry
        phi0 = parse_polynomial("1 - d", reg)
        fam = build_chain(phi0, sys)
        with pytest.raises(ValueError, match="eliminate"):
            enumerate_cases(fam, sys, eta=0.1, nonneg_eliminate=[reg["z"]])


class TestBuildP0:
    def test_multiplier_count_order_one(self, uni_setup):
        sys, _, cases = uni_setup
        reg = sys.registry
        case = cases[0]
        build_p0(case, reg, product_order=1)
        assert len(case.zeta_multipliers) == 1
        assert len(case.gamma_multipliers) == 7

    def test_product_order_two_adds_pairs(self, uni_setup):
        sys, _, cases = uni_setup
        reg = sys.registry
        case = cases[1]
        build_p0(case, reg, product_order=2)
        assert len(case.gamma_multipliers) == 7 + 21

    def test_zero_multipliers_leave_minus_one(self, uni_setup):
        sys, _, cases = uni_setup
        reg = sys.registry
        case = cases[2]
        p0 = build_p0(case, reg, product_order=1)
        zeroed = {v: 0.0 for v in case.zeta_multipliers + case.gamma_multipliers}
        assert p0.subs(zeroed) == Polynomial.constant(-1.0)

    def test_invalid_product_order(self, uni_setup):
        sys, _, cases = uni_setup
        with pytest.raises(ValueError):
            build_p0(cases[3], sys.registry, product_order=3)


class TestStateMonomials:
    def test_degree_two_basis(self):
        reg = VarRegistry()
        x, y = reg.state("x"), reg.state("y")
        basis = state_monomials([x, y], 2)
        assert basis == [(), monomial([(x, 1)]), monomial([(y, 1)]),
                         monomial([(x, 2)]), monomial([(x, 1), (y, 1)]),
                         monomial([(y, 2)])]


class TestBuildGram:
    def test_perfect_square(self):
        reg = VarRegistry()
        x, y = reg.state("x"), reg.state("y")
        p0 = (Polynomial.variable(x) + Polynomial.variable(y)) ** 2
        spec = build_gram(p0)
        assert spec.basis == [(), monomial([(x, 1)]), monomial([(y, 1)])]
        Q = np.array([[e.terms.get((), 0.0) for e in row] for row in spec.entries])
        np.testing.assert_allclose(Q, [[0, 0, 0], [0, 1, 1], [0, 1, 1]])
        np.testing.assert_allclose(sorted(np.linalg.eigvalsh(Q)), [0, 0, 2], atol=1e-12)

    def test_negative_constant(self):
        reg = VarRegistry()
        reg.state("x")
        spec = build_gram(Polynomial.constant(-1.0))
        Q = np.array([[e.terms.get((), 0.0) for e in row] for row in spec.entries])
        assert Q[0, 0] == -1.0
        assert np.min(np.linalg.eigvalsh(Q)) < 0

    def test_basis_degree_is_half_state_degree(self):
        # x^4 once overflowed a degree-1 basis; its basis is [1, x, x^2]
        reg = VarRegistry()
        x = reg.state("x")
        spec = build_gram(Polynomial.variable(x) ** 4)
        assert spec.basis == [(), monomial([(x, 1)]), monomial([(x, 2)])]
        assert spec.entries[2][2] == Polynomial.constant(1.0)

    def test_unicycle_entries_are_decision_polynomials(self, uni_setup):
        sys, _, cases = uni_setup
        reg = sys.registry
        case = cases[4]
        p0 = build_p0(case, reg, product_order=1)
        spec = build_gram(p0)
        assert spec.size == 4  # basis [1, x, y, z]
        for row in spec.entries:
            for entry in row:
                for m in entry.terms:
                    assert sum(e for v, e in m if v.kind is VarKind.STATE) == 0
                    assert sum(e for v, e in m if v.kind is VarKind.DECISION) <= 2

    def _reconstruction(self, spec, rng, n_assignments=100):
        dvars = sorted({v for row in spec.entries for e in row
                        for m in e.terms for v, _ in m},
                       key=lambda v: v.index)
        for _ in range(n_assignments):
            assign = {v: float(rng.uniform(-2, 2)) for v in dvars}
            lhs = gram_reconstruct(spec).subs(assign)
            rhs = spec.p0.subs(assign)
            assert poly_close(lhs, rhs, tol=1e-10)

    def test_reconstruction_invariant(self, uni_setup):
        sys, _, cases = uni_setup
        reg = sys.registry
        rng = np.random.default_rng(22)
        case = cases[5]
        p0 = build_p0(case, reg, product_order=1)
        self._reconstruction(build_gram(p0), rng, 25)

    def test_reconstruction_with_kernel_and_products(self, uni_setup):
        sys, _, cases = uni_setup
        reg = sys.registry
        rng = np.random.default_rng(23)
        case = cases[6]
        p0 = build_p0(case, reg, product_order=2)
        spec = build_gram(p0, reg, kernel_tag=case.label)
        assert spec.kernel_vars
        self._reconstruction(spec, rng, 10)
