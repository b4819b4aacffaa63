import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sisynth.poly import (Polynomial, PolynomialParseError, VarKind, VarRegistry,
                          grlex_key, monomial, monomial_degree, parse_polynomial)

from conftest import poly_close, random_assignment, random_polynomial


@pytest.fixture
def reg():
    r = VarRegistry()
    r.state("x")
    r.state("y")
    r.decision("k")
    return r


def V(reg, name):
    return Polynomial.variable(reg[name])


class TestArithmetic:
    def test_additive_cancellation(self, reg):
        x = V(reg, "x")
        assert x + 1 + (-x) == Polynomial.constant(1.0)

    def test_additive_identity(self, reg):
        p = V(reg, "x") ** 2 + 3 * V(reg, "y")
        assert p + Polynomial.zero() == p

    def test_add_matches_pointwise(self, reg):
        rng = np.random.default_rng(1)
        x, y = V(reg, "x"), V(reg, "y")
        a = x ** 2 + y
        b = y
        s = a + b
        for _ in range(5):
            pt = random_assignment(rng, reg.variables)
            assert math.isclose(s.evaluate(pt), a.evaluate(pt) + b.evaluate(pt),
                                rel_tol=1e-12, abs_tol=1e-12)
        assert s == x ** 2 + 2 * y

    def test_difference_of_squares(self, reg):
        x, y = V(reg, "x"), V(reg, "y")
        assert (x + y) * (x - y) == x ** 2 - y ** 2

    def test_multiplicative_identity(self, reg):
        p = V(reg, "x") * V(reg, "y") + 2
        assert p * Polynomial.constant(1.0) == p

    def test_square_expansion(self, reg):
        rng = np.random.default_rng(2)
        x = V(reg, "x")
        p = (x + 1) * (x + 1)
        assert p == x ** 2 + 2 * x + 1
        for _ in range(5):
            pt = random_assignment(rng, reg.variables)
            assert math.isclose(p.evaluate(pt), (pt[reg["x"]] + 1) ** 2, rel_tol=1e-12)

    def test_degree_of_product(self, reg):
        x, y = V(reg, "x"), V(reg, "y")
        assert max(monomial_degree(m) for m in ((x ** 2 + y) * (y ** 3)).terms) == 5


class TestDifferentiate:
    def test_power_rule(self, reg):
        x, y = V(reg, "x"), V(reg, "y")
        assert (x ** 2 * y).differentiate(reg["x"]) == 2 * x * y

    def test_constant(self, reg):
        assert Polynomial.constant(7.0).differentiate(reg["x"]).is_zero()

    def test_finite_difference(self, reg):
        rng = np.random.default_rng(3)
        x, y = V(reg, "x"), V(reg, "y")
        p = x ** 2 * y + y ** 3
        dp = p.differentiate(reg["y"])
        assert dp == x ** 2 + 3 * y ** 2
        h = 1e-6
        for _ in range(5):
            pt = random_assignment(rng, reg.variables)
            up = dict(pt); up[reg["y"]] += h
            dn = dict(pt); dn[reg["y"]] -= h
            fd = (p.evaluate(up) - p.evaluate(dn)) / (2 * h)
            assert abs(fd - dp.evaluate(pt)) < 1e-6

    def test_decision_variable_rejected(self, reg):
        with pytest.raises(ValueError):
            V(reg, "k").differentiate(reg["k"])


class TestEvaluate:
    def test_simple(self, reg):
        p = V(reg, "x") ** 2 + V(reg, "y")
        assert p.evaluate({reg["x"]: 2.0, reg["y"]: 3.0}) == 7.0

    def test_zero(self, reg):
        assert Polynomial.zero().evaluate({}) == 0.0

    def test_index_member_value(self):
        # 1 - d + k*v*cos(alpha) at d=1, v=1, cos=1, k=0.0139
        r = VarRegistry()
        for n in ("d", "v", "c"):
            r.state(n)
        r.decision("k")
        p = parse_polynomial("1 - d + k*v*c", r)
        val = p.evaluate({r["d"]: 1.0, r["v"]: 1.0, r["c"]: 1.0, r["k"]: 0.0139})
        assert math.isclose(val, 0.0139, rel_tol=1e-12)

    def test_missing_variable(self, reg):
        with pytest.raises(KeyError, match="x"):
            V(reg, "x").evaluate({reg["y"]: 1.0})

    def test_array_evaluation(self, reg):
        p = V(reg, "x") ** 2 + V(reg, "y")
        xs = np.array([1.0, 2.0, 3.0])
        out = p.evaluate({reg["x"]: xs, reg["y"]: np.zeros(3)})
        np.testing.assert_allclose(out, xs ** 2)


class TestLowered:
    """The lowered, compiled polynomial against the dict evaluator, bit for bit."""

    @staticmethod
    def registries():
        # a decision variable after the states, and one between them, so a
        # substituted factor also sits inside a product
        after = VarRegistry()
        after.state("x")
        after.state("y")
        after.decision("k")
        between = VarRegistry()
        between.state("x")
        between.decision("k")
        between.state("y")
        return after, between

    def test_float_inputs(self):
        rng = np.random.default_rng(20)
        for r in self.registries():
            states = [r["x"], r["y"]]
            for _ in range(300):
                p = random_polynomial(rng, states)
                pt = random_assignment(rng, states)
                assert p.lower(states).evaluate([pt[v] for v in states]) == p.evaluate(pt)

    def test_array_inputs(self):
        rng = np.random.default_rng(21)
        for r in self.registries():
            states = [r["x"], r["y"]]
            for _ in range(100):
                p = random_polynomial(rng, states)
                pt = {v: rng.uniform(-2, 2, size=40) for v in states}
                got = p.lower(states).evaluate([pt[v] for v in states])
                assert np.array_equal(got, p.evaluate(pt))

    def test_substituted_decision_variables(self):
        rng = np.random.default_rng(22)
        for r in self.registries():
            states, k = [r["x"], r["y"]], r["k"]
            for _ in range(300):
                p = random_polynomial(rng, r.variables, max_degree=4)
                pt = random_assignment(rng, r.variables)
                low = p.lower(states, {k: pt[k]})
                assert low.evaluate([pt[v] for v in states]) == p.evaluate(pt)
                cols = {v: rng.uniform(-2, 2, size=40) for v in states}
                got = low.evaluate([cols[v] for v in states])
                assert np.array_equal(got, p.evaluate({**cols, k: pt[k]}))

    def test_unassigned_variable(self, reg):
        p = V(reg, "x") * V(reg, "k")
        with pytest.raises(KeyError, match="k"):
            p.lower([reg["x"], reg["y"]])

    @staticmethod
    def assert_bit_identical(p, states, fixed, rng):
        low = p.lower(states, fixed)
        pt = {v: float(rng.uniform(-2, 2)) for v in states}
        got = low.evaluate([pt[v] for v in states])
        want = p.evaluate({**pt, **fixed})
        assert type(got) is type(want) and got == want
        cols = {v: rng.uniform(-2, 2, size=40) for v in states}
        got = low.evaluate([cols[v] for v in states])
        want = p.evaluate({**cols, **fixed})
        assert np.array_equal(got, want)

    def test_negative_coefficients(self, reg):
        rng = np.random.default_rng(23)
        x, y = V(reg, "x"), V(reg, "y")
        p = -2.5 * x ** 2 * y - 0.75 * y - 3.1 + (-1e-7) * x * y ** 3
        assert all(c < 0 for c in p.terms.values())
        self.assert_bit_identical(p, [reg["x"], reg["y"]], {}, rng)

    def test_power_of_substituted_value(self, reg):
        # negative substituted values raised to odd and even powers
        rng = np.random.default_rng(24)
        x, k = V(reg, "x"), V(reg, "k")
        p = -1.5 * k ** 3 * x + k ** 2 * x ** 2 + 0.3 * k ** 4
        for value in (-0.7, 0.0139, -3.0):
            self.assert_bit_identical(p, [reg["x"], reg["y"]], {reg["k"]: value}, rng)

    def test_zero_and_constant(self, reg):
        rng = np.random.default_rng(25)
        states = [reg["x"], reg["y"]]
        for p in (Polynomial.zero(), Polynomial.constant(-4.25), Polynomial.constant(1e-3)):
            self.assert_bit_identical(p, states, {}, rng)
        assert Polynomial.zero().lower(states).evaluate([1.0, 2.0]) == 0.0

    def test_source_is_numbers_and_slots(self):
        rng = np.random.default_rng(26)
        for r in self.registries():
            for _ in range(50):
                p = random_polynomial(rng, r.variables, max_degree=4)
                low = p.lower([r["x"], r["y"]], {r["k"]: float(rng.normal())})
                assert re.fullmatch(r"[0-9x\[\]().*+\- e]+", low.source)

    def test_identical_tables_share_compiled_code(self, unicycle_problem):
        p = unicycle_problem
        params = p.params([0.0139])

        def members(low):
            return [*low.chain, low.phi, low.lf, *low.lg, *low.lower, *low.upper]

        first, second = p.family.lowered(params), p.family.lowered(params)
        assert first is not second
        assert all(a.evaluate is b.evaluate for a, b in zip(members(first), members(second)))
        other = p.family.lowered(p.params([0.02]))
        assert other.phi.evaluate is not first.phi.evaluate


class TestCollectByState:
    def test_mixed_linear(self, reg):
        k = V(reg, "k")
        p = k * V(reg, "x") + V(reg, "x")
        got = p.collect_by_state()
        assert got == {((reg["x"], 1),): k + 1}

    def test_two_groups(self, reg):
        r = VarRegistry()
        y, z = r.state("y"), r.state("z")
        p1, p2 = r.decision("p1"), r.decision("p2")
        p = Polynomial.variable(p1) * Polynomial.variable(y) * Polynomial.variable(z) \
            + Polynomial.variable(p2)
        got = p.collect_by_state()
        assert got[()] == Polynomial.variable(p2)
        assert got[monomial([(y, 1), (z, 1)])] == Polynomial.variable(p1)

    def test_round_trip(self, reg):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_polynomial(rng, reg.variables)
            rebuilt = Polynomial.zero()
            for sm, coeff in p.collect_by_state().items():
                rebuilt = rebuilt + coeff * Polynomial({sm: 1.0})
            assert poly_close(p, rebuilt, tol=1e-12)


class TestParser:
    def test_literals(self, reg):
        x, y = V(reg, "x"), V(reg, "y")
        assert parse_polynomial("x^2 + y^2 - 1", reg) == x ** 2 + y ** 2 - 1
        assert parse_polynomial("-1*x*y", reg) == -1 * x * y
        assert parse_polynomial("2.5", reg) == Polynomial.constant(2.5)
        assert parse_polynomial("1 - x", reg) == 1 - x

    def test_unknown_variable(self, reg):
        with pytest.raises(PolynomialParseError):
            parse_polynomial("q + 1", reg)

    def test_malformed(self, reg):
        for text in ("", "x +", "x^", "1 2", "x^y"):
            with pytest.raises(PolynomialParseError):
                parse_polynomial(text, reg)

    @pytest.mark.parametrize("literal", [1, 2.5, None, True, ["x"]])
    def test_non_string_refused(self, reg, literal):
        # a number once ended in a TypeError from len()
        with pytest.raises(PolynomialParseError, match="must be a string"):
            parse_polynomial(literal, reg)


class TestGrlexOrder:
    def test_ordering(self, reg):
        x, y = reg["x"], reg["y"]
        ms = [monomial([(x, 2)]), (), monomial([(x, 1)]),
              monomial([(x, 1), (y, 1)]), monomial([(y, 1)])]
        ms.sort(key=grlex_key)
        assert ms == [(), monomial([(x, 1)]), monomial([(y, 1)]),
                      monomial([(x, 2)]), monomial([(x, 1), (y, 1)])]


@st.composite
def polynomials(draw):
    reg = VarRegistry()
    vars_ = [reg.state(n) for n in ("x", "y", "z")]
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = draw(st.tuples(*[st.integers(0, 3)] * 3))
        m = monomial([(v, e) for v, e in zip(vars_, exps)])
        terms[m] = draw(st.floats(-10, 10, allow_nan=False))
    return reg, Polynomial(terms)


@st.composite
def poly_triples(draw):
    reg = VarRegistry()
    vars_ = [reg.state(n) for n in ("x", "y", "z")]

    def one():
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            exps = draw(st.tuples(*[st.integers(0, 2)] * 3))
            m = monomial([(v, e) for v, e in zip(vars_, exps)])
            terms[m] = draw(st.floats(-5, 5, allow_nan=False))
        return Polynomial(terms)

    return reg, one(), one(), one()


class TestRingProperties:
    @settings(max_examples=50, deadline=None)
    @given(poly_triples())
    def test_ring_axioms(self, data):
        _, a, b, c = data
        # float sums of three or more terms depend on their order, so only
        # the two-operand sum is compared exactly
        assert poly_close((a + b) + c, a + (b + c), tol=1e-8)
        assert a + b == b + a
        assert poly_close(a * b, b * a, tol=1e-8)
        assert poly_close((a * b) * c, a * (b * c), tol=1e-8)
        assert poly_close(a * (b + c), a * b + a * c, tol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(poly_triples())
    def test_product_rule(self, data):
        reg, a, b, _ = data
        v = reg["x"]
        lhs = (a * b).differentiate(v)
        rhs = a.differentiate(v) * b + a * b.differentiate(v)
        assert poly_close(lhs, rhs, tol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(poly_triples(), st.integers(0, 2 ** 31 - 1))
    def test_evaluation_homomorphism(self, data, seed):
        reg, a, b, _ = data
        rng = np.random.default_rng(seed)
        pt = {v: float(rng.uniform(-1, 1)) for v in reg.variables}
        lhs = (a * b).evaluate(pt)
        rhs = a.evaluate(pt) * b.evaluate(pt)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)
