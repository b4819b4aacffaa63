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
from typing import Iterable, Sequence

import numpy as np

from .poly import LoweredPolynomial, Polynomial, VarId, VarKind
from .system import SymbolicSystem

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
    state variables.
    """

    chain: tuple[LoweredPolynomial, ...]   # numeric members phi_0 .. phi_n
    phi: LoweredPolynomial                 # phi_theta
    lf: LoweredPolynomial
    lg: tuple[LoweredPolynomial, ...]
    lower: tuple[LoweredPolynomial, ...]   # control box bounds
    upper: tuple[LoweredPolynomial, ...]
    eta: float
    dim: int                               # state dimension


def _elementary_symmetric(values: Sequence[float], m: int) -> float:
    return float(sum(np.prod(c) for c in combinations(values, m)))


def chain_roots(k: np.ndarray) -> np.ndarray:
    """The roots ``r_j`` of ``1 + k_1 s + ... + k_n s^n = prod_j (1 + r_j s)``,
    sorted ascending (``k`` itself at order 1).  Above order 1 a ``k`` whose
    roots are not all real and positive, the chain's no-overshoot condition,
    raises ``ValueError``."""
    n = len(k)
    if n == 1:
        return k.copy()
    s = np.roots(np.r_[k[::-1], 1.0]) if np.all(np.isfinite(k)) else []
    # a root of multiplicity m is computed to about eps**(1/m) only
    tol = 10 * np.finfo(float).eps ** (1 / n) * np.abs(s)
    if len(s) != n or np.any(np.abs(np.imag(s)) > tol) or np.any(np.real(s) >= 0):
        raise ValueError(f"k = {k.tolist()} has characteristic roots that are "
                         f"not all real and positive")
    return np.sort(-1.0 / np.real(s))


@dataclass
class IndexParams:
    """Numeric chain parameters: the derivative weights ``k`` and their
    :func:`chain_roots`.  The floor ``K_MIN`` is ``check_certificate``'s: any
    other ``k``, such as ``k = 0``, is a legitimate falsification query."""

    k: np.ndarray
    eta: float
    roots: np.ndarray = field(init=False)

    def __post_init__(self):
        self.k = np.atleast_1d(np.asarray(self.k, dtype=float))
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be a finite number > 0, got {self.eta!r}")
        self.roots = chain_roots(self.k)


def build_chain(phi0: Polynomial, sys: SymbolicSystem) -> SafetyIndexFamily:
    """Construct the family whose order is the relative degree of phi0.

    ``L_f`` is applied to phi0 until ``L_g`` of the result is nonzero, at
    most once per state variable; the number of steps is the order, so the
    top derivative sees the control and no lower one does.
    """
    if any(v.kind is not VarKind.STATE for v in phi0.variables()):
        raise ValueError("phi0 must involve state variables only")
    if any(not c.is_zero() for c in lie_g(phi0, sys)):
        raise RelativeDegreeError("control appears in phi0 derivative of order 0; "
                                  "expected only at order 1 or above")

    derivs = []
    current = phi0
    for _ in sys.state_vars:
        current = lie_f(current, sys)
        derivs.append(current)
        if any(not c.is_zero() for c in lie_g(current, sys)):
            break
    else:
        raise RelativeDegreeError("L_g phi is identically zero: the control cannot affect the index")
    n = len(derivs)

    theta = [sys.registry.decision(f"k{i}" if n > 1 else "k") for i in range(1, n + 1)]
    phi_theta = phi0
    for kv, dpoly in zip(theta, derivs):
        phi_theta = phi_theta + Polynomial.variable(kv) * dpoly
    return SafetyIndexFamily(phi0=phi0, order=n, theta=theta, phi0_derivs=derivs,
                             phi_theta=phi_theta, Lf_phi=lie_f(phi_theta, sys),
                             Lg_phi=lie_g(phi_theta, sys), system=sys)


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
