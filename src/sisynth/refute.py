"""Sign-case refute sets, cone combinations, and Gram decompositions.

Feasibility of the safety index over the whole manifold is equivalent to
emptiness of a family of semialgebraic "refute" sets, one per sign case of
the control coefficients ``L_g phi`` (plus optional user-declared sign
splits).  Emptiness of each set is certified by exhibiting scalar
multipliers that turn the negated constraint combination into a sum of
squares, checked through positive semidefiniteness of a Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from .index import SafetyIndexFamily
from .poly import (Monomial, Polynomial, VarId, VarKind, VarRegistry,
                   grlex_key, monomial, monomial_degree, monomial_mul)
from .system import SymbolicSystem


@dataclass(frozen=True)
class Split:
    """One sign branch: an indicator name and the polynomial it signs."""

    name: str
    poly: Polynomial
    control_dims: tuple[int, ...] = ()     # control dims whose bound this picks
    orientations: tuple[int, ...] = ()     # +1: indicator +1 selects the lower bound


@dataclass
class RefuteCase:
    indicators: dict[str, int]              # split name -> its sign, +1 or -1
    gammas: list[Polynomial]
    zetas: list[Polynomial]
    label: str = ""
    # populated by build_p0
    zeta_multipliers: list[VarId] = field(default_factory=list)
    gamma_multipliers: list[VarId] = field(default_factory=list)

    def mirrored(self, s: VarId) -> tuple[list[Polynomial], list[Polynomial]]:
        """The gammas and zetas under ``s -> -s``: a case whose own equal
        them, in order, is this case's mirror image."""
        flip = {s: -Polynomial.variable(s)}
        return [g.subs(flip) for g in self.gammas], [z.subs(flip) for z in self.zetas]


@dataclass
class GramSpec:
    basis: list[Monomial]
    entries: list[list[Polynomial]]        # symmetric, decision-only coefficients
    p0: Polynomial
    kernel_vars: list[VarId] = field(default_factory=list)
    # the state monomial each kernel share splits
    kernel_monomials: list[Monomial] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.basis)


def _single_term_split(lg: Polynomial, theta: Sequence[VarId]) -> tuple[Polynomial, int] | None:
    """Normalize a one-term coefficient by stripping positive decision factors.

    ``-k*x*z`` signs like ``-(x*z)`` because k is constrained positive, so the
    branch polynomial is the bare state monomial and the orientation records
    the stripped sign.  Returns None when no such normalization applies.
    """
    if len(lg.terms) != 1:
        return None
    (mono, coeff), = lg.terms.items()
    state_part = tuple((v, e) for v, e in mono if v.kind is VarKind.STATE)
    decision_part = [v for v, _ in mono if v.kind is VarKind.DECISION]
    if any(v not in theta for v in decision_part):
        return None
    orientation = 1 if coeff > 0 else -1
    return Polynomial({monomial(state_part): 1.0}), orientation


def _poly_key(p: Polynomial):
    return tuple(sorted(((m, round(c, 12)) for m, c in p.terms.items()),
                        key=lambda t: grlex_key(t[0])))


def enumerate_cases(fam: SafetyIndexFamily, sys: SymbolicSystem, eta: float,
                    aux_splits: Sequence[Polynomial] = (),
                    nonneg_eliminate: Sequence[VarId] = ()) -> list[RefuteCase]:
    """Build one refute case per assignment of the sign indicators.

    There is one indicator per distinct split polynomial: control
    coefficients and aux splits that sign the same polynomial share it.
    Each case collects, in order: the bound-substituted worst-case
    derivative condition, one sign constraint per split, products of
    declared auxiliary split pairs, the state-space constraints, and the
    manifold condition ``phi_theta >= 0``.  Variables listed in
    ``nonneg_eliminate`` are known nonnegative, appear only in the manifold
    condition with a negative linear coefficient, and are relaxed away by
    substituting zero (which can only enlarge the refute set).
    """
    theta = fam.theta
    table: dict[tuple, Split] = {}   # by _poly_key, in first-use order

    def merge(poly: Polynomial, name: str, dim: int | None = None, orientation: int = 1) -> Split:
        """The split of ``poly``, made under ``name`` on first use; a control
        ``dim`` joins it with its ``orientation``."""
        key = _poly_key(poly)
        s = table.get(key) or Split(name, poly)
        if dim is not None:
            s = Split(s.name, s.poly, s.control_dims + (dim,), s.orientations + (orientation,))
        table[key] = s
        return s

    for i, lg in enumerate(fam.Lg_phi):
        if lg.is_zero():
            continue
        norm = _single_term_split(lg, theta)
        poly, orientation = norm or (lg, 1)
        merge(poly, f"{'s' if norm else 'Lg'}{i}", i, orientation)
    # an aux split on a control split's polynomial is that split
    aux_list = [merge(poly, f"aux{j}") for j, poly in enumerate(aux_splits)]
    splits = list(table.values())

    manifold = _eliminate_nonneg(fam.phi_theta, nonneg_eliminate)

    cases = []
    for signs in product((1, -1), repeat=len(splits)):
        indicators = {s.name: sg for s, sg in zip(splits, signs)}
        gammas = [_derivative_gamma(fam, sys, splits, signs, eta)]
        for s, sg in zip(splits, signs):
            gammas.append(sg * s.poly)
        for sa, sb in combinations(aux_list, 2):
            gammas.append(indicators[sa.name] * indicators[sb.name] * (sa.poly * sb.poly))
        gammas.extend(sys.constraints_h)
        gammas.append(manifold)
        cases.append(RefuteCase(indicators=indicators, gammas=gammas,
                                zetas=list(sys.identities_zeta),
                                label="".join("p" if sg > 0 else "n" for sg in signs)))
    return cases


def _derivative_gamma(fam: SafetyIndexFamily, sys: SymbolicSystem,
                      splits: Sequence[Split], signs: Sequence[int], eta: float) -> Polynomial:
    # Indicator +1 together with orientation +1 puts the dim in I+, which
    # substitutes the lower bound into the worst-case derivative.
    bound_for_dim: dict[int, Polynomial] = {}
    for s, sg in zip(splits, signs):
        for dim, orient in zip(s.control_dims, s.orientations):
            use_lower = sg * orient > 0
            bound_for_dim[dim] = sys.u_lower[dim] if use_lower else sys.u_upper[dim]
    gamma = fam.Lf_phi + Polynomial.constant(eta)
    for i, lg in enumerate(fam.Lg_phi):
        if lg.is_zero():
            continue
        gamma = gamma + lg * bound_for_dim[i]
    return gamma


def _eliminate_nonneg(phi: Polynomial, nonneg: Sequence[VarId]) -> Polynomial:
    for v in nonneg:
        linear = Polynomial({((v, 1),): 1.0})
        coeff = phi.terms.get(((v, 1),), 0.0)
        higher = any(any(vv == v and (e > 1 or monomial_degree(m) > 1) for vv, e in m)
                     for m in phi.terms)
        if higher or coeff >= 0:
            raise ValueError(
                f"cannot eliminate {v.name!r}: it must appear only linearly with a negative coefficient")
        phi = phi.subs({v: 0.0})
    return phi


def build_p0(case: RefuteCase, registry: VarRegistry, product_order: int = 1) -> Polynomial:
    """Cone combination ``p0 = -1 - sum p' zeta - sum p_S prod_{j in S} gamma_j``.

    Fresh scalar decision variables are created for each zeta and for each
    gamma subset of size up to ``product_order``.  The gamma multipliers are
    constrained nonnegative by the solver layer.
    """
    if product_order not in (1, 2):
        raise ValueError("product_order must be 1 or 2")
    tag = case.label
    p0 = Polynomial.constant(-1.0)
    case.zeta_multipliers = []
    for l, zeta in enumerate(case.zetas):
        pv = registry.decision(f"pz_{tag}_{l}")
        case.zeta_multipliers.append(pv)
        p0 = p0 - Polynomial.variable(pv) * zeta
    case.gamma_multipliers = []
    subsets: list[tuple[int, ...]] = [(j,) for j in range(len(case.gammas))]
    if product_order >= 2:
        subsets += list(combinations(range(len(case.gammas)), 2))
    for subset in subsets:
        name = f"pg_{tag}_" + "_".join(str(j + 1) for j in subset)
        pv = registry.decision(name)
        case.gamma_multipliers.append(pv)
        term = Polynomial.variable(pv)
        for j in subset:
            term = term * case.gammas[j]
        p0 = p0 - term
    return p0


def state_monomials(variables: Sequence[VarId], max_degree: int) -> list[Monomial]:
    """All monomials of total degree <= max_degree, graded-lex ordered."""
    return sorted({monomial((v, 1) for v in combo) for d in range(max_degree + 1)
                   for combo in combinations_with_replacement(variables, d)}, key=grlex_key)


def build_gram(p0: Polynomial, registry: VarRegistry | None = None,
               kernel_tag: str = "") -> GramSpec:
    """Decompose p0 as ``x^T Q x`` over the state monomials of degree up to
    half p0's state degree, rounded up.

    A larger basis adds only monomials outside half the Newton polytope of
    p0, and every PSD Gram matrix of p0 is zero on their rows (Reznick,
    "Extremal PSD forms with few terms", Duke Math. J. 1978).

    The coefficient of each state monomial is distributed over the basis
    pairs that produce it: diagonal entries take the full share, symmetric
    off-diagonal pairs take half each.  A monomial that several pairs
    produce gives every pair after the first a free decision variable (a
    kernel share, created in ``registry``) and the first pair the
    remainder, so the entries span every Gram matrix representing p0 over
    this basis.
    """
    collected = p0.collect_by_state()
    svars = sorted({v for m in collected for v, _ in m}, key=lambda v: v.index)
    max_deg = max((monomial_degree(m) for m in collected), default=0)
    basis = state_monomials(svars, (max_deg + 1) // 2)
    n = len(basis)

    pairs: dict[Monomial, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i, n):
            pairs.setdefault(monomial_mul(basis[i], basis[j]), []).append((i, j))

    entries = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    kernel_vars: list[VarId] = []
    kernel_monomials: list[Monomial] = []

    def deposit(i: int, j: int, share: Polynomial) -> None:
        if i == j:
            entries[i][j] = entries[i][j] + share
        else:
            half = 0.5 * share
            entries[i][j] = entries[i][j] + half
            entries[j][i] = entries[j][i] + half

    for m, coeff_poly in collected.items():
        plist = pairs[m]
        if len(plist) > 1 and registry is None:
            raise ValueError(f"state monomial {m} has several basis pairs; "
                             "its kernel shares need a registry")
        remainder = coeff_poly
        for i, j in plist[1:]:
            kv = registry.decision(f"q_{kernel_tag}_{len(kernel_vars)}")
            kernel_vars.append(kv)
            kernel_monomials.append(m)
            share = Polynomial.variable(kv)
            deposit(i, j, share)
            remainder = remainder - share
        deposit(*plist[0], remainder)

    return GramSpec(basis=basis, entries=entries, p0=p0, kernel_vars=kernel_vars,
                    kernel_monomials=kernel_monomials)
