"""Parameterized safety-index chains and their Lie derivatives.

The chain starts from a user-supplied base index ``phi0`` whose zero
sublevel set is the specified safe region.  Higher members add weighted
time derivatives, ``phi_n = phi0 + sum_i k_i * phi0^(i)``, so that the
highest member has relative degree one to the control and its derivative
can be bounded by the safe control law.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .poly import LoweredPolynomial, Polynomial, VarId, VarKind, VarRegistry, _compile_lowered
from .system import STATE_TOL, InvertedBoundError, SymbolicSystem

K_MIN = 1e-4


class RelativeDegreeError(ValueError):
    pass


def lie_f(p: Polynomial, sys: SymbolicSystem) -> Polynomial:
    out = Polynomial.zero()
    for v, fv in zip(sys.state_vars, sys.f):
        out = out + p.differentiate(v) * fv
    return out


def lie_g(p: Polynomial, sys: SymbolicSystem) -> list[Polynomial]:
    out = []
    for j in range(sys.nu):
        col = Polynomial.zero()
        for i, v in enumerate(sys.state_vars):
            col = col + p.differentiate(v) * sys.g[i][j]
        out.append(col)
    return out


@dataclass
class SafetyIndexFamily:
    phi0: Polynomial
    order: int
    theta: list[VarId]                  # decision variables k_1..k_n
    phi0_derivs: list[Polynomial]       # [phi0^(1), ..., phi0^(n)]
    phi_theta: Polynomial               # highest member, decision coefficients
    Lf_phi: Polynomial
    Lg_phi: list[Polynomial]
    system: SymbolicSystem

    def chain_numeric(self, params: "IndexParams") -> list[Polynomial]:
        """Numeric-coefficient members ``[phi_0, phi_1, ..., phi_n]``.

        ``phi_j`` uses the elementary symmetric sums of the first j roots,
        which reduces to ``phi_j = phi_{j-1} + a_j * d(phi_{j-1})/dt``.
        """
        roots = params.roots
        chain = [self.phi0]
        for j in range(1, self.order + 1):
            pj = self.phi0
            for m in range(1, j + 1):
                coeff = _elementary_symmetric(roots[:j], m)
                pj = pj + coeff * self.phi0_derivs[m - 1]
            chain.append(pj)
        return chain

    def lowered(self, params: "IndexParams",
                sys: SymbolicSystem | None = None) -> "LoweredIndex":
        """Every polynomial the safe control law and its monitors read, with
        ``theta = params.k`` substituted, lowered over ``sys.state_vars``."""
        sys = sys if sys is not None else self.system
        if len(params.k) != self.order:
            raise ValueError("parameter dimension mismatch")
        theta = dict(zip(self.theta, params.k))
        low = lambda p: p.lower(sys.state_vars, theta)
        return LoweredIndex(chain=tuple(low(p) for p in self.chain_numeric(params)),
                            phi=low(self.phi_theta), lf=low(self.Lf_phi),
                            lg=tuple(low(p) for p in self.Lg_phi),
                            lower=tuple(low(p) for p in sys.u_lower),
                            upper=tuple(low(p) for p in sys.u_upper),
                            eta=float(params.eta), dim=len(sys.state_vars))


@dataclass(frozen=True)
class LoweredIndex:
    """A family at fixed parameters, lowered for evaluation on state vectors.

    Every member evaluates a state given as a sequence of floats (one trial
    step) or of arrays (a batch of sampled points), ordered as the system's
    state variables.  ``evaluate`` is one compiled function of a single
    state that returns every value the safe control law reads, grouped as
    ``(chain, lower, upper, lf, lg, phi)``; each value is the expression of
    the member's own ``source``, so it equals the member's ``evaluate`` bit
    for bit.  Identical indices share one compiled function.
    """

    chain: tuple[LoweredPolynomial, ...]   # numeric members phi_0 .. phi_n
    phi: LoweredPolynomial                 # phi_theta
    lf: LoweredPolynomial
    lg: tuple[LoweredPolynomial, ...]
    lower: tuple[LoweredPolynomial, ...]   # control box bounds
    upper: tuple[LoweredPolynomial, ...]
    eta: float
    dim: int                               # state dimension
    evaluate: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        group = lambda sources: "(" + "".join(s + ", " for s in sources) + ")"
        source = group([group(p.source for p in self.chain),
                        group(p.source for p in self.lower),
                        group(p.source for p in self.upper),
                        self.lf.source,
                        group(p.source for p in self.lg),
                        self.phi.source])
        object.__setattr__(self, "evaluate", _compile_lowered(source))

    def at(self, x: Sequence[float]) -> tuple:
        """``(chain, lower, upper, lf, lg, phi)`` at one state, from one
        compiled call; raises on an inverted control bound."""
        if len(x) != self.dim:
            raise ValueError("state dimension mismatch")
        values = self.evaluate(x)
        for i, (lo, hi) in enumerate(zip(values[1], values[2])):
            if lo > hi + STATE_TOL:
                raise InvertedBoundError(i, np.asarray(x, dtype=float))
        return values


def _elementary_symmetric(values: Sequence[float], m: int) -> float:
    return float(sum(np.prod(c) for c in combinations(values, m)))


@dataclass
class IndexParams:
    """Numeric chain parameters.

    ``k`` holds the derivative weights; ``roots`` the (positive) roots of
    the characteristic polynomial.  For order 1 they coincide.  Construct
    higher orders through :meth:`from_roots` so the no-overshoot condition
    holds by construction.
    """

    k: np.ndarray
    eta: float
    roots: np.ndarray = field(default=None)  # type: ignore[assignment]
    enforce_min: bool = True

    def __post_init__(self):
        self.k = np.atleast_1d(np.asarray(self.k, dtype=float))
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be a finite number > 0, got {self.eta!r}")
        if self.enforce_min and np.any(self.k < K_MIN):
            raise RelativeDegreeError(
                f"k components below the {K_MIN} floor degenerate the chain: {self.k}")
        if self.roots is None:
            if len(self.k) != 1:
                raise ValueError("orders above 1 must be built with from_roots()")
            self.roots = self.k.copy()
        else:
            self.roots = np.atleast_1d(np.asarray(self.roots, dtype=float))

    @classmethod
    def from_roots(cls, roots: Sequence[float], eta: float) -> "IndexParams":
        roots = np.atleast_1d(np.asarray(roots, dtype=float))
        if np.any(roots <= 0):
            raise ValueError("characteristic roots must be positive")
        k = np.array([_elementary_symmetric(roots, m) for m in range(1, len(roots) + 1)])
        return cls(k=k, eta=eta, roots=roots)


def build_chain(phi0: Polynomial, n: int, sys: SymbolicSystem,
                registry: VarRegistry | None = None) -> SafetyIndexFamily:
    """Construct the order-n family with symbolic Lie derivatives.

    The control must not appear in any derivative below order n, and the
    top derivative must actually see the control.
    """
    if n < 1:
        raise ValueError("chain order must be >= 1")
    registry = registry if registry is not None else sys.registry
    if any(v.kind is not VarKind.STATE for v in phi0.variables()):
        raise ValueError("phi0 must involve state variables only")

    derivs = []
    current = phi0
    for i in range(1, n + 1):
        if any(not c.is_zero() for c in lie_g(current, sys)):
            raise RelativeDegreeError(
                f"control appears in phi0 derivative of order {i - 1}; expected only at order {n}")
        current = lie_f(current, sys)
        derivs.append(current)

    theta = [registry.decision(f"k{i}" if n > 1 else "k") for i in range(1, n + 1)]
    phi_theta = phi0
    for kv, dpoly in zip(theta, derivs):
        phi_theta = phi_theta + Polynomial.variable(kv) * dpoly

    Lf = lie_f(phi_theta, sys)
    Lg = lie_g(phi_theta, sys)
    if all(c.is_zero() for c in Lg):
        raise RelativeDegreeError("L_g phi is identically zero: the control cannot affect the index")
    return SafetyIndexFamily(phi0=phi0, order=n, theta=theta, phi0_derivs=derivs,
                             phi_theta=phi_theta, Lf_phi=Lf, Lg_phi=Lg, system=sys)


def box_min(c: Iterable, lower: Sequence, upper: Sequence, start=0.0):
    """Minimum of ``start + c.u`` over the box ``lower <= u <= upper``.

    The minimum of a linear form over a box is attained at a per-coordinate
    vertex: the lower bound where the coefficient is nonnegative, the upper
    bound otherwise.  The sum accumulates onto ``start`` one coordinate at a
    time.  Entries are floats, or arrays holding one value per point; for
    arrays, passing ``c`` as an iterator keeps one coefficient array alive at
    a time.
    """
    for ci, lo, hi in zip(c, lower, upper):
        if isinstance(ci, np.ndarray):
            start = start + np.where(ci >= 0, ci * lo, ci * hi)
        else:
            start = start + (ci * lo if ci >= 0 else ci * hi)
    return start
