"""Sparse multivariate polynomials over a registry of state and decision variables.

Polynomials are immutable value objects in canonical form: a term map from
monomials to nonzero float coefficients.  Variables are split into two
classes.  State variables describe the system; decision variables hold
synthesis parameters and certificate multipliers.  Partial derivatives are
only defined with respect to state variables.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

COEFF_PRUNE = 1e-12


class VarKind(Enum):
    STATE = "state"
    DECISION = "decision"


@dataclass(frozen=True, order=True)
class VarId:
    """A registered variable.  Ordering follows registration order."""

    index: int
    name: str = field(compare=False)
    kind: VarKind = field(compare=False)

    def __repr__(self):
        return self.name

    def __hash__(self):
        # equality compares the index only
        return self.index


class VarRegistry:
    """Assigns unique, ordered variable identities.

    Registration order fixes the graded-lex monomial order used for
    deterministic iteration and Gram basis construction.
    """

    def __init__(self):
        self._vars: list[VarId] = []
        self._by_name: dict[str, VarId] = {}

    def add(self, name: str, kind: VarKind) -> VarId:
        if name in self._by_name:
            existing = self._by_name[name]
            if existing.kind != kind:
                raise ValueError(f"variable {name!r} already registered as {existing.kind}")
            return existing
        v = VarId(len(self._vars), name, kind)
        self._vars.append(v)
        self._by_name[name] = v
        return v

    def state(self, name: str) -> VarId:
        return self.add(name, VarKind.STATE)

    def decision(self, name: str) -> VarId:
        return self.add(name, VarKind.DECISION)

    def __getitem__(self, name: str) -> VarId:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def variables(self) -> tuple[VarId, ...]:
        return tuple(self._vars)


# A monomial is a sorted tuple of (VarId, positive exponent) pairs.
Monomial = tuple[tuple[VarId, int], ...]

ONE_MONOMIAL: Monomial = ()


def monomial(pairs: Iterable[tuple[VarId, int]]) -> Monomial:
    merged: dict[VarId, int] = {}
    for v, e in pairs:
        if e < 0:
            raise ValueError("negative exponent")
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items()))


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return monomial(list(a) + list(b))


def grlex_key(m: Monomial):
    """Graded lexicographic sort key by registration order.

    Lower total degree sorts first; ties are broken so that earlier-registered
    variables with higher powers come first (1 < x < y < x^2 < x*y < ...).
    """
    return (monomial_degree(m), tuple(sorted((v.index, -e) for v, e in m)))


class Polynomial:
    """Immutable sparse polynomial with float coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, float] | None = None):
        pruned = {}
        if terms:
            for m, c in terms.items():
                c = float(c)
                if abs(c) >= COEFF_PRUNE:
                    pruned[m] = c
        object.__setattr__(self, "terms", pruned)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c: float) -> "Polynomial":
        return Polynomial({ONE_MONOMIAL: c})

    @staticmethod
    def variable(v: VarId) -> "Polynomial":
        return Polynomial({((v, 1),): 1.0})

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Monomial, float] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = monomial_mul(ma, mb)
                out[m] = out.get(m, 0.0) + ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set[VarId]:
        out = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    # -- calculus / evaluation ----------------------------------------------
    def differentiate(self, v: VarId) -> "Polynomial":
        """Partial derivative with respect to a state variable."""
        if v.kind is not VarKind.STATE:
            raise ValueError(f"cannot differentiate with respect to decision variable {v.name!r}")
        out: dict[Monomial, float] = {}
        for m, c in self.terms.items():
            for i, (mv, e) in enumerate(m):
                if mv == v:
                    # m less one power of v is still sorted and merged
                    rest = m[:i] + ((mv, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                    out[rest] = out.get(rest, 0.0) + c * e
                    break
        return Polynomial(out)

    def evaluate(self, assignment: Mapping[VarId, float]):
        """Evaluate at a full assignment.  Values may be numpy arrays."""
        missing = [v.name for v in self.variables() if v not in assignment]
        if missing:
            raise KeyError(f"unassigned variables: {sorted(missing)}")
        total = 0.0
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val = val * assignment[v] ** e
            total = total + val
        return total

    def lower(self, variables: Sequence[VarId],
              fixed: Mapping[VarId, float] | None = None) -> "LoweredPolynomial":
        """Lower to straight-line code over positional values of ``variables``.

        Variables outside ``variables`` must be given a value in ``fixed``;
        those values are baked into the code as float literals.
        """
        slot = {v: i for i, v in enumerate(variables)}
        fixed = fixed or {}
        missing = [v.name for v in self.variables() if v not in slot and v not in fixed]
        if missing:
            raise KeyError(f"unassigned variables: {sorted(missing)}")
        terms = []
        for m, c in self.terms.items():
            factors = [_float_literal(c)]
            for v, e in m:
                base = f"x[{int(slot[v])}]" if v in slot else _float_literal(fixed[v])
                factors.append(base if e == 1 else f"{base}**{int(e)}")
            terms.append(" * ".join(factors))
        return LoweredPolynomial(" + ".join(["0.0"] + [f"({t})" for t in terms]))

    def subs(self, partial: Mapping[VarId, "Polynomial | float"]) -> "Polynomial":
        """Substitute some variables by values or polynomials."""
        out = Polynomial.zero()
        for m, c in self.terms.items():
            term = Polynomial.constant(c)
            for v, e in m:
                if v in partial:
                    term = term * (_coerce(partial[v]) ** e)
                else:
                    term = term * Polynomial({((v, e),): 1.0})
            out = out + term
        return out

    def collect_by_state(self) -> dict[Monomial, "Polynomial"]:
        """Group terms by state monomial, with decision-only coefficients."""
        out: dict[Monomial, dict[Monomial, float]] = {}
        for m, c in self.terms.items():
            sm = tuple((v, e) for v, e in m if v.kind is VarKind.STATE)
            dm = tuple((v, e) for v, e in m if v.kind is VarKind.DECISION)
            bucket = out.setdefault(sm, {})
            bucket[dm] = bucket.get(dm, 0.0) + c
        return {sm: Polynomial(t) for sm, t in sorted(out.items(), key=lambda kv: grlex_key(kv[0]))}

    # -- formatting ----------------------------------------------------------
    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=grlex_key):
            c = self.terms[m]
            factors = [_fmt_coeff(c)] + [f"{v.name}^{e}" if e > 1 else v.name for v, e in m]
            parts.append("*".join(factors))
        return " + ".join(parts)


class LoweredPolynomial:
    """A polynomial lowered to straight-line code for repeated numeric evaluation.

    Built by :meth:`Polynomial.lower`.  ``source`` is one Python expression
    in ``x``, the sequence of lowered variable values: ``x[i]`` reads the
    i-th lowered variable, and the values substituted at lowering time
    appear as float literals.  It runs the products and sums of
    :meth:`Polynomial.evaluate` in the same order, term by term in the order
    of ``Polynomial.terms`` and factor by factor in each monomial's stored
    order, ``0.0 + (c * x[i] * x[j]**e) + ...`` from left to right, so both
    give the same result bit for bit.  A factor with exponent 1 skips the
    power, which is exact.

    ``evaluate(x)`` is the compiled expression: called with one float, or
    one array of points, per lowered variable, it returns the value.
    Identical sources share one compiled function.
    """

    __slots__ = ("source", "evaluate")

    def __init__(self, source: str):
        self.source = source
        self.evaluate = _compile_lowered(source)


@functools.lru_cache(maxsize=1024)
def _compile_lowered(source: str):
    """``source`` compiled to a function of ``x``, shared by identical sources."""
    namespace = {}
    exec(compile(f"def evaluate(x):\n    return {source}\n", "<lowered polynomial>", "exec"),
         {"__builtins__": {}}, namespace)
    return namespace["evaluate"]


def _float_literal(value) -> str:
    """A float as a literal for lowered source; negatives in parentheses, so
    that a power applies to the whole value."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"cannot lower the non-finite value {value!r}")
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _fmt_coeff(c: float) -> str:
    if c == int(c) and abs(c) < 1e15:
        return str(int(c))
    return repr(c)


def _coerce(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float)):
        return Polynomial.constant(float(x))
    return NotImplemented


_TOKEN = re.compile(r"\s*([+-]|\*|\^|[A-Za-z_][A-Za-z_0-9']*|\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)")


class PolynomialParseError(ValueError):
    pass


def parse_polynomial(text: str, registry: VarRegistry) -> Polynomial:
    """Parse the literal syntax: sum of terms ``coeff * var^e * var``.

    Examples: ``"-1*v*cos_a"``, ``"1 - d"``, ``"x^2 + y^2 - 1"``.
    Every variable name must already exist in the registry.
    """
    if not isinstance(text, str):
        raise PolynomialParseError(f"polynomial literal must be a string, got {text!r}")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolynomialParseError(f"unexpected character at {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()

    if not tokens:
        raise PolynomialParseError("empty polynomial literal")

    result = Polynomial.zero()
    i = 0
    while i < len(tokens):
        sign = 1.0
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise PolynomialParseError("dangling sign")
        term = Polynomial.constant(sign)
        expect_factor = True
        while i < len(tokens):
            tok = tokens[i]
            if tok in "+-":
                break
            if tok == "*":
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise PolynomialParseError(f"missing '*' before {tok!r}")
            if re.match(r"^[A-Za-z_]", tok):
                if tok not in registry:
                    raise PolynomialParseError(f"unknown variable {tok!r}")
                exp = 1
                if i + 1 < len(tokens) and tokens[i + 1] == "^":
                    if i + 2 >= len(tokens) or not tokens[i + 2].isdigit():
                        raise PolynomialParseError("malformed exponent")
                    exp = int(tokens[i + 2])
                    i += 2
                term = term * (Polynomial.variable(registry[tok]) ** exp)
            else:
                try:
                    term = term * float(tok)
                except ValueError as exc:
                    raise PolynomialParseError(f"bad number {tok!r}") from exc
            expect_factor = False
            i += 1
        if expect_factor:
            raise PolynomialParseError("empty term")
        result = result + term
    return result
