"""Exact coefficient functions: Q[coords] extended by integer powers of e^t.

An ExpPoly is a finite sum of terms  c * x1^a1 * ... * xn^an * s^k  with
exact rational c and s = e^t tied to the chart's time coordinate (k = 0
whenever the chart has no time coordinate).  Values are immutable and kept
in canonical form, so equality of mathematical values is dict equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from .chart import Chart

Rat = Fraction
Scalar = Union[int, Fraction]
Key = Tuple[Tuple[int, ...], int]  # (exponent vector, s-exponent)


class ChartMismatchError(ValueError):
    pass


class EvalError(ValueError):
    pass


def _as_rat(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class ExpPoly:
    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: Optional[Mapping[Key, Scalar]] = None):
        clean: Dict[Key, Fraction] = {}
        n = chart.dim
        has_time = chart.has_time
        if terms:
            for (exps, k), c in terms.items():
                # a key that int() would change is refused, not truncated;
                # distinct keys of integers stay distinct, so nothing merges
                key = (tuple(map(int, exps)), int(k))
                if key != (exps, k):
                    raise ValueError(f"exponents {(exps, k)!r} are not integers")
                exps, k = key
                if len(exps) != n:
                    raise ValueError(f"exponent vector {exps} does not fit chart dim {n}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative coordinate exponent in {exps}")
                if k != 0 and not has_time:
                    raise ValueError("s-exponent requires a time coordinate on the chart")
                c = _as_rat(c)
                if c != 0:
                    clean[key] = c
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, chart: Chart, terms: Dict[Key, Fraction]) -> "ExpPoly":
        """Wrap terms that are canonical by construction, unchecked: no
        zero coefficient, exponent vectors of length chart.dim with no
        negative entry, and k == 0 unless the chart has a time coordinate.
        The dict is owned by the result from here on."""
        p = object.__new__(cls)
        object.__setattr__(p, "chart", chart)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "ExpPoly":
        return cls._make(chart, {})

    @classmethod
    def const(cls, chart: Chart, value: Scalar) -> "ExpPoly":
        return cls(chart, {((0,) * chart.dim, 0): _as_rat(value)})

    @classmethod
    def var(cls, chart: Chart, name: str) -> "ExpPoly":
        i = chart.index(name)
        exps = tuple(1 if j == i else 0 for j in range(chart.dim))
        return cls(chart, {(exps, 0): Fraction(1)})

    @classmethod
    def s_power(cls, chart: Chart, k: int) -> "ExpPoly":
        """e^{k t} on a chart with a time coordinate."""
        return cls(chart, {((0,) * chart.dim, k): Fraction(1)})

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Optional[Fraction]:
        """The rational value if this is a plain constant (no coords, no s)."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (exps, k), c = next(iter(self.terms.items()))
            if k == 0 and not any(exps):
                return c
        return None

    def is_nonvanishing_constant(self) -> bool:
        """True when the value is c*s^k with c != 0: never zero on the chart."""
        if len(self.terms) != 1:
            return False
        (exps, _), _ = next(iter(self.terms.items()))
        return not any(exps)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "ExpPoly") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatchError(
                f"operands on different charts: {self.chart} vs {other.chart}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.const(self.chart, other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            c0 = terms.get(key)
            if c0 is None:
                terms[key] = c
            else:
                c0 = c0 + c
                if c0 == 0:
                    del terms[key]
                else:
                    terms[key] = c0
        return ExpPoly._make(self.chart, terms)

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly._make(self.chart, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.const(self.chart, other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            if c == 0:
                return ExpPoly.zero(self.chart)
            return ExpPoly._make(self.chart, {key: v * c for key, v in self.terms.items()})
        if not isinstance(other, ExpPoly):
            return NotImplemented
        self._check(other)
        terms: Dict[Key, Fraction] = {}
        for (e1, k1), c1 in self.terms.items():
            for (e2, k2), c2 in other.terms.items():
                key = (tuple(a + b for a, b in zip(e1, e2)), k1 + k2)
                c = c1 * c2
                c0 = terms.get(key)
                if c0 is None:
                    terms[key] = c
                else:
                    c0 = c0 + c
                    if c0 == 0:
                        del terms[key]
                    else:
                        terms[key] = c0
        return ExpPoly._make(self.chart, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.const(self.chart, other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------

    def partial(self, name: str) -> "ExpPoly":
        """Exact partial derivative; d/dt also differentiates s^k = e^{kt}."""
        i = self.chart.index(name)
        is_time = self.chart.coords[i][1] == "time"
        terms: Dict[Key, Fraction] = {}

        def acc(key: Key, c: Fraction) -> None:
            if c == 0:
                return
            c0 = terms.get(key)
            if c0 is None:
                terms[key] = c
            else:
                c0 = c0 + c
                if c0 == 0:
                    del terms[key]
                else:
                    terms[key] = c0

        for (exps, k), c in self.terms.items():
            a = exps[i]
            if a > 0:
                down = tuple(e - 1 if j == i else e for j, e in enumerate(exps))
                acc((down, k), c * a)
            if is_time and k != 0:
                acc((exps, k), c * k)
        return ExpPoly._make(self.chart, terms)

    def fiber_degree(self) -> Optional[int]:
        """Max total degree in fiber coordinates; None for the zero function."""
        if not self.terms:
            return None
        fib = self.chart.fiber_indices
        return max(sum(exps[i] for i in fib) for (exps, _) in self.terms)

    def is_basic(self) -> bool:
        """Fiber-degree 0 (a pullback from the base), including 0."""
        fib = self.chart.fiber_indices
        return all(sum(exps[i] for i in fib) == 0 for (exps, _) in self.terms)

    def is_linear(self) -> bool:
        """Every term has fiber degree exactly 1 (and the value is nonzero)."""
        if not self.terms:
            return False
        fib = self.chart.fiber_indices
        return all(sum(exps[i] for i in fib) == 1 for (exps, _) in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exps) for (exps, _) in self.terms)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point.

        s = e^t is only evaluated when t is assigned 0 (so s -> 1); any other
        assignment with a nonzero s-exponent is refused as transcendental.
        """
        chart = self.chart
        needed = set()
        for (exps, k), _ in self.terms.items():
            for i, e in enumerate(exps):
                if e:
                    needed.add(i)
            if k != 0:
                needed.add(chart.time_index)
        for i in sorted(needed):
            name = chart.names[i]
            if name not in point:
                raise EvalError(f"no value assigned to coordinate {name!r}")
        vals = {chart.index(n): _as_rat(v) for n, v in point.items() if chart.has(n)}
        total = Fraction(0)
        ti = chart.time_index
        for (exps, k), c in self.terms.items():
            if k != 0:
                if vals.get(ti, None) != 0:
                    raise EvalError("transcendental evaluation of e^t refused "
                                    "(only t = 0 is supported)")
            v = c
            for i, e in enumerate(exps):
                if e:
                    v *= vals[i] ** e
            total += v
        return total

    # -- chart transfer ------------------------------------------------

    def transfer(self, chart: Chart) -> "ExpPoly":
        """Reinterpret on another chart, mapping variables by name.

        Every variable actually appearing must map to a coordinate of the
        target chart; s-exponents require the target to have a time
        coordinate as well.
        """
        src = self.chart
        col: Dict[int, int] = {}
        for i, (name, _) in enumerate(src.coords):
            if chart.has(name):
                col[i] = chart.index(name)
        terms: Dict[Key, Fraction] = {}
        for (exps, k), c in self.terms.items():
            new = [0] * chart.dim
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i not in col:
                    raise ChartMismatchError(
                        f"variable {src.names[i]!r} has no image in {chart}")
                new[col[i]] += e
            if k != 0 and not chart.has_time:
                raise ChartMismatchError("target chart has no time coordinate")
            key = (tuple(new), k)
            terms[key] = terms.get(key, Fraction(0)) + c
        return ExpPoly(chart, terms)

    # -- rendering -----------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]),
                      reverse=True)

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = self.chart.names
        tname = None
        if self.chart.has_time:
            tname = names[self.chart.time_index]
        parts = []
        for (exps, k), c in self._sorted_terms():
            factors = [str(c)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            if k != 0:
                factors.append(f"exp({k}*{tname})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ExpPoly({self.render()})"
