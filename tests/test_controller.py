import numpy as np
import pytest

from sisynth.config import RunConfig, build_problem
from sisynth.controller import (
    FEAS_TOL,
    Infeasible,
    nominal_control,
    project,
    safe_control,
    wrap_angle,
)
from sisynth.index import IndexParams, LoweredIndex
from sisynth.poly import Polynomial
from sisynth.system import InvertedBoundError

from conftest import braking_config_dict, members_at

# |u - u_bisect| <= REFERENCE_TOL * max(1, |u|) against the bisection reference
REFERENCE_TOL = 1e-9


def kkt_residual(u, u_ref, c, b, lower, upper, tol=1e-8):
    """Worst KKT violation for min ||u - u_ref||^2 s.t. c.u <= b, u in box.

    Estimates the constraint multiplier from coordinates strictly inside the
    box, then checks stationarity, primal feasibility, dual feasibility, and
    complementary slackness.
    """
    grad = 2.0 * (u - u_ref)
    interior = (u > lower + tol) & (u < upper - tol)
    if np.any(interior & (np.abs(c) > tol)):
        mu = float(np.mean(-grad[interior & (np.abs(c) > tol)]
                           / (2.0 * c[interior & (np.abs(c) > tol)]))) * 2.0
    else:
        mu = 0.0
    mu = max(mu, 0.0)
    res = 0.0
    # stationarity: grad + mu*c must point into the active bounds
    station = grad + mu * c
    for i in range(len(u)):
        if interior[i]:
            res = max(res, abs(station[i]))
        elif u[i] <= lower[i] + tol:
            res = max(res, max(0.0, -station[i]))     # lower-bound multiplier >= 0
        else:
            res = max(res, max(0.0, station[i]))      # upper-bound multiplier >= 0
    res = max(res, float(c @ u) - b)                  # primal feasibility
    res = max(res, mu * abs(float(c @ u) - b))        # complementary slackness
    return res


def bisection_reference(u_ref, c, b, lower, upper, mu_tol=1e-13):
    """An independent solver for the active projection: bracket the dual
    multiplier by doubling, then bisect it down to ``mu_tol``.

    Returns the control at the upper end of the final bracket, where
    ``c.u <= b`` holds, or ``None`` when the bracket passes 1e18.
    """
    def clamped(mu):
        return [min(max(r - mu * ci, lo), hi) for r, ci, lo, hi in zip(u_ref, c, lower, upper)]

    mu_lo, mu_hi = 0.0, 1.0
    while dot(c, clamped(mu_hi)) > b:
        mu_lo = mu_hi
        mu_hi *= 2.0
        if mu_hi > 1e18:
            return None
    while mu_hi - mu_lo > mu_tol * max(1.0, mu_hi):
        mid = 0.5 * (mu_lo + mu_hi)
        if dot(c, clamped(mid)) > b:
            mu_lo = mid
        else:
            mu_hi = mid
    return clamped(mu_hi)


def dot(c, u) -> float:
    """``c.u`` summed left to right, as the controller sums it."""
    total = 0.0
    for ci, ui in zip(c, u):
        total = total + ci * ui
    return total


def constant_index(lf: float, c, eta: float = 0.1) -> LoweredIndex:
    """An always-active index with state-independent ``L_f phi`` and ``L_g phi``."""
    const = lambda v: Polynomial.constant(v).lower([])
    return LoweredIndex(chain=(), phi=const(1.0), lf=const(lf),
                        lg=tuple(const(ci) for ci in c), lower=(), upper=(),
                        eta=eta, dim=len(c))


class TestWrapAngle:
    def test_identity_in_range(self):
        for a in (-3.0, -0.5, 0.0, 1.2, 3.1):
            assert wrap_angle(a) == pytest.approx(a, abs=1e-12)

    def test_wraps(self):
        assert wrap_angle(np.pi + 0.5) == pytest.approx(-np.pi + 0.5, abs=1e-12)
        assert wrap_angle(-np.pi - 0.5) == pytest.approx(np.pi - 0.5, abs=1e-12)


class TestSafeControl:
    def test_inactive_index_clamps_nominal(self, unicycle_problem):
        p = unicycle_problem
        params = p.params([0.0139])
        # far from the obstacle: phi < 0, so the nominal is only box-clamped
        state = [4.0, 0.0, 1.0, 0.5]
        res = safe_control(p.family, params, state, [500.0, 0.3])
        assert not res.constraint_active
        lower, upper = p.system.control_box(state)
        assert np.allclose(res.u, np.clip([500.0, 0.3], lower, upper))

    def test_analytic_projection(self, braking_problem):
        # active constraint z - k + k*u <= -eta with k=2, z=1:
        # c=[2], b=-0.1-1=-1.1 at Lf=1 -> u <= -0.55; nominal 0 projects to -0.55
        p = braking_problem
        params = p.params([2.0])
        state = [1.0, 1.0]   # phi = 1 - 1 + 2*1 = 2 >= 0
        res = safe_control(p.family, params, state, [0.0])
        assert res.constraint_active
        assert res.u[0] == pytest.approx(-0.55, abs=1e-8)
        assert res.phidot_achieved == pytest.approx(-params.eta, abs=1e-7)

    def test_infeasible_state_raises(self, braking_problem):
        # k = 1.05 < 1 + eta: at z = 1 even full braking gives phidot = -0.05
        p = braking_problem
        params = p.params([1.05])
        with pytest.raises(Infeasible) as exc_info:
            safe_control(p.family, params, [0.5, 1.0], [0.0])
        assert exc_info.value.best == pytest.approx(-0.05, abs=1e-9)

    def test_random_instances_optimal(self, unicycle_problem):
        # exhaustive check: the projection beats random feasible candidates
        # in deviation norm and satisfies the KKT conditions
        p = unicycle_problem
        params = p.params([0.0139])
        fam, sys = p.family, p.system
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 1000:
            d = rng.uniform(0.3, 1.2)
            alpha = rng.uniform(-np.pi, np.pi)
            v = rng.uniform(-1.0, 1.0)
            state = [d, np.sin(alpha), np.cos(alpha), v]
            a = sys.assignment(state)
            a.update(dict(zip(fam.theta, params.k)))
            phi = fam.phi_theta.evaluate(a)
            if phi < 0.0:
                continue
            lf = fam.Lf_phi.evaluate(a)
            c = np.array([lg.evaluate(a) for lg in fam.Lg_phi])
            b = -params.eta - lf
            lower, upper = sys.control_box(state)
            vertex_min = float(np.sum(np.where(c >= 0, c * lower, c * upper)))
            if vertex_min > b - 1e-6:
                continue   # keep a strictly feasible instance
            u_ref = rng.uniform(lower - 1.0, upper + 1.0)
            res = safe_control(fam, params, state, u_ref)
            assert res.constraint_active
            assert float(c @ res.u) <= b + 1e-7
            assert np.all(res.u >= lower - 1e-12) and np.all(res.u <= upper + 1e-12)
            assert kkt_residual(res.u, u_ref, c, b, lower, upper) <= 1e-6
            # candidate sweep: random feasible controls never do better
            cand = rng.uniform(lower, upper, size=(100, 2))
            feas = cand[cand @ c <= b]
            if len(feas):
                best = np.min(np.sum((feas - u_ref) ** 2, axis=1))
                assert np.sum((res.u - u_ref) ** 2) <= best + 1e-9
            checked += 1

    def test_unconstrained_nominal_kept_when_already_safe(self, braking_problem):
        # phi >= 0 but the nominal already meets the constraint: returned as is
        p = braking_problem
        params = p.params([2.0])
        res = safe_control(p.family, params, [0.5, 0.2], [-1.0])
        assert res.constraint_active
        assert res.u[0] == pytest.approx(-1.0, abs=1e-12)

    def test_inverted_bound_raises(self):
        # the acceleration floor d - 1 passes the ceiling 1 once d > 2
        cfg = braking_config_dict()
        cfg["model"]["u_lower"] = ["d - 1"]
        p = build_problem(RunConfig.from_dict(cfg))
        params = p.params([2.0])
        assert safe_control(p.family, params, [0.5, 0.2], [0.0]).constraint_active
        with pytest.raises(InvertedBoundError, match="inverted in dimension 0") as exc:
            safe_control(p.family, params, [2.5, 0.2], [0.0])
        assert exc.value.dim == 0

    def test_state_dimension_mismatch_raises(self, braking_problem):
        p = braking_problem
        with pytest.raises(ValueError, match="dimension"):
            safe_control(p.family, p.params([2.0]), [0.5, 0.2, 0.1], [0.0])


class TestNominalControl:
    def test_steers_toward_goal(self):
        box = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        u = nominal_control([0.0, 0.0], 0.0, 0.0, [10.0, 0.0], box)
        assert u[0] > 0.0          # accelerate toward cruise speed
        assert u[1] == pytest.approx(0.0, abs=1e-12)   # already aligned
        u_left = nominal_control([0.0, 0.0], 0.0, 0.5, [0.0, 10.0], box)
        assert u_left[1] > 0.0     # goal to the left: positive turn rate

    def test_respects_box(self):
        # backing up at speed 1 with the goal 45 degrees to the left, the
        # unclamped command is (1.8, pi/2): both exceed this box's upper corner
        box = (np.array([-0.2, -0.3]), np.array([0.2, 0.3]))
        u = nominal_control([0.0, 0.0], 0.0, -1.0, [100.0, 100.0], box)
        assert np.all(u >= box[0]) and np.all(u <= box[1])
        assert u == (0.2, 0.3)

    def test_slows_near_goal(self):
        box = (np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        far = nominal_control([0.0, 0.0], 0.0, 0.0, [10.0, 0.0], box)
        near = nominal_control([0.0, 0.0], 0.0, 0.0, [0.05, 0.0], box)
        assert near[0] < far[0]


class TestExactProjection:
    """The breakpoint search against the bisection reference and by hand."""

    @staticmethod
    def active_instances(problem, k, rng, count):
        """Random states and nominal controls where the projection moves the
        nominal: index active, constraint feasible, clamped nominal violating it."""
        lowered = problem.family.lowered(problem.params(k))
        found = 0
        for _ in range(200 * count):
            alpha = rng.uniform(-np.pi, np.pi)
            x = [rng.uniform(0.3, 1.2), np.sin(alpha), np.cos(alpha), rng.uniform(-1.0, 1.0)]
            _, lower, upper, lf, c, phi = members_at(lowered, x)
            if phi < 0.0:
                continue
            b = -lowered.eta - lf
            if sum(min(ci * lo, ci * hi) for ci, lo, hi in zip(c, lower, upper)) > b:
                continue
            u_ref = list(rng.uniform(np.array(lower) - 1.0, np.array(upper) + 1.0))
            u0 = np.clip(u_ref, lower, upper)
            if dot(c, u0) <= b + FEAS_TOL:
                continue
            yield lowered, x, u_ref, lower, upper, lf, c, phi, b
            found += 1
            if found == count:
                return
        raise AssertionError(f"only {found} of {count} active instances found")

    @pytest.mark.parametrize("family,k", [("restricted_problem", 0.012032149952463394),
                                          ("unicycle_problem", 0.0139)])
    def test_matches_bisection_reference(self, family, k, request):
        problem = request.getfixturevalue(family)
        rng = np.random.default_rng(7)
        worst = 0.0
        for lowered, x, u_ref, lower, upper, lf, c, phi, b in self.active_instances(
                problem, [k], rng, 600):
            u, active, _ = project(x, u_ref, lower, upper, lf, c, phi, lowered.eta)
            assert active
            assert dot(c, u) <= b
            assert all(lo <= ui <= hi for ui, lo, hi in zip(u, lower, upper))
            ref = bisection_reference(u_ref, c, b, lower, upper)
            gap = float(np.max(np.abs(np.subtract(u, ref))))
            worst = max(worst, gap / max(1.0, float(np.linalg.norm(u))))
        assert worst <= REFERENCE_TOL

    def check(self, lf, c, u_ref, expected, lower=(-1.0, -1.0), upper=(1.0, 1.0)):
        low = constant_index(lf, c)
        b = -low.eta - lf
        assert dot(c, np.clip(u_ref, lower, upper)) > b + FEAS_TOL
        x = [0.0] * len(c)
        _, _, _, lf_x, c_x, phi_x = members_at(low, x)
        u, active, _ = project(x, u_ref, lower, upper, lf_x, c_x, phi_x, low.eta)
        assert active
        assert dot(c, u) <= b
        ref = bisection_reference(u_ref, c, b, lower, upper)
        assert np.max(np.abs(np.subtract(u, ref))) <= REFERENCE_TOL
        np.testing.assert_allclose(u, expected, rtol=0.0, atol=1e-12)

    def test_zero_component(self):
        # c = [0, 2], b = -1.1: the first coordinate keeps its nominal value
        self.check(lf=1.0, c=[0.0, 2.0], u_ref=[0.3, 0.5], expected=[0.3, -0.55])

    def test_nominal_outside_box(self):
        # the first coordinate stays on its upper bound; the second carries
        # the whole correction: 1 + (0.2 - mu) = 0.5
        self.check(lf=-0.6, c=[1.0, 1.0], u_ref=[3.0, 0.2], expected=[1.0, -0.5])

    def test_coincident_kinks(self):
        # both coordinates reach their lower bound at mu = 1
        self.check(lf=2.4, c=[1.0, 2.0], u_ref=[0.0, 1.0], expected=[-0.9, -0.8])
        # b equal to the vertex value: the root is the shared kink itself
        self.check(lf=2.9, c=[1.0, 2.0], u_ref=[0.0, 1.0], expected=[-1.0, -1.0])

    def test_band_above_vertex_is_infeasible(self):
        # vertex value -2 lies in (b, b + FEAS_TOL]: past the infeasibility
        # pre-check, but no box control meets c.u <= b
        low = constant_index(lf=1.9 + 5e-10, c=[1.0, 1.0])
        b = -low.eta - low.lf.evaluate([])
        assert b < -2.0 <= b + FEAS_TOL
        assert bisection_reference([0.0, 0.0], [1.0, 1.0], b, [-1.0, -1.0], [1.0, 1.0]) is None
        _, _, _, lf, c, phi = members_at(low, [0.0, 0.0])
        with pytest.raises(Infeasible) as exc_info:
            project([0.0, 0.0], [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0], lf, c, phi, low.eta)
        assert exc_info.value.best == pytest.approx(low.lf.evaluate([]) - 2.0, abs=1e-15)
