"""Exact coefficient functions: Q[coords] extended by integer powers of e^t.

An ExpPoly is a finite sum of terms  c * x1^a1 * ... * xn^an * s^k  with
exact rational c and s = e^t tied to the chart's time coordinate (k = 0
whenever the chart has no time coordinate).

Representation: `terms` maps one packed int key per monomial to a nonzero
int numerator, over one positive int denominator `den`.  The key is
k + sum_i a_i * chart.units[i]: coordinate i owns the FIELD_BITS-bit field
at shift FIELD_BITS*(n - i) and the signed k the lowest field, so a product
key is the sum of the two keys, d/dx_i subtracts units[i], and the keys in
descending order are the monomials in descending (exponents, k) order.
`top` bounds every exponent and every |k|; an exponent or |k| that would
reach LIMIT = 2^(FIELD_BITS-1) raises FieldOverflowError instead of
spilling into the next field.  Values are immutable and canonical:
gcd(den, *numerators) == 1 and den == 1 for zero, so equality of values is
equality of `terms` and `den`.  `monomials()` reads the terms back as
((exponents, k), Fraction) pairs.

Products are formed in one place, `sum_of_products(chart, products)`,
which sums c * a * b over (int, ExpPoly, ExpPoly) triples in one dict
over one running denominator; `a * b` is its one-product case.  Its
result's `top` is the max of a.top + b.top over the nonzero products,
which can be looser than the `top` of a chain of `+` that cancelled:
`top` is a bound and takes no part in equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

from .chart import FIELD_BITS, Chart

Rat = Fraction
Scalar = Union[int, Fraction]
Key = Tuple[Tuple[int, ...], int]  # (exponent vector, s-exponent)

LIMIT = 1 << (FIELD_BITS - 1)  # exponents and |k| stay below this
_MASK = (1 << FIELD_BITS) - 1


class ChartMismatchError(ValueError):
    pass


class EvalError(ValueError):
    pass


class FieldOverflowError(ValueError):
    """An exponent or |k| of LIMIT or more: it does not fit a packed field."""


def _ratio(c: Scalar) -> Tuple[int, int]:
    """(numerator, denominator) of an exact scalar in lowest terms."""
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    if isinstance(c, int):
        return int(c), 1
    raise TypeError(f"not an exact scalar: {c!r}")


def _fitted(m: int) -> int:
    """m, the largest exponent or |k| of a term, unless it reaches LIMIT."""
    if m >= LIMIT:
        raise FieldOverflowError(f"exponent {m} does not fit a {FIELD_BITS}-bit "
                                 f"field (exponents < 2^{FIELD_BITS - 1})")
    return m


def _past_the_field(top: int) -> FieldOverflowError:
    """The error for a product whose bound top, the sum of its factors'
    bounds, reaches LIMIT."""
    return FieldOverflowError(f"a product exponent may reach {top}, past the "
                              f"{FIELD_BITS}-bit field (exponents < 2^{FIELD_BITS - 1})")


def _mismatch(chart: Chart, other: Chart) -> ChartMismatchError:
    """The error for an operand on `other` in arithmetic on `chart`."""
    return ChartMismatchError(f"operands on different charts: {chart} vs {other}")


def _decode(keys: Iterable[int], dim: int) -> Iterator[Key]:
    """(exponents, k) of each packed key of a dim-coordinate chart."""
    shifts = range(FIELD_BITS * dim, 0, -FIELD_BITS)
    for key in keys:
        u = key + LIMIT  # k + LIMIT fills the low field without a borrow
        yield tuple((u >> s) & _MASK for s in shifts), (u & _MASK) - LIMIT


def _reduced(terms: Dict[int, int], den: int) -> Tuple[Dict[int, int], int]:
    """Divide numerators and denominator by their gcd; den is 1 for zero."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {key: c // g for key, c in terms.items()}
            den //= g
    return terms, den


class ExpPoly:
    __slots__ = ("chart", "terms", "den", "top")

    def __init__(self, chart: Chart, terms: Optional[Mapping[Key, Scalar]] = None):
        n = chart.dim
        units = chart.units
        has_time = chart.has_time
        parts = []  # (packed key, numerator, denominator) of each nonzero term
        top = 0
        if terms:
            for (exps, k), c in terms.items():
                # a key that int() would change is refused, not truncated;
                # distinct keys of integers pack to distinct ints, so nothing merges
                key = (tuple(map(int, exps)), int(k))
                if key != (exps, k):
                    raise ValueError(f"exponents {(exps, k)!r} are not integers")
                exps, k = key
                if len(exps) != n:
                    raise ValueError(f"exponent vector {exps} does not fit chart dim {n}")
                if exps and min(exps) < 0:
                    raise ValueError(f"negative coordinate exponent in {exps}")
                if k != 0 and not has_time:
                    raise ValueError("s-exponent requires a time coordinate on the chart")
                m = _fitted(max(exps + (abs(k),)))
                num, d = _ratio(c)
                if num:
                    if m > top:
                        top = m
                    parts.append((k + sum(map(mul, exps, units)), num, d))
        # over the lcm of the reduced denominators the gcd is already 1
        den = lcm(*(d for _, _, d in parts))
        _set_chart(self, chart)
        _set_terms(self, {key: num * (den // d) for key, num, d in parts})
        _set_den(self, den)
        _set_top(self, top)

    @classmethod
    def _make(cls, chart: Chart, terms: Dict[int, int], den: int = 1,
              top: int = 0) -> "ExpPoly":
        """Wrap terms that are canonical by construction, unchecked: packed
        keys of chart's layout with nonzero int numerators, den > 0 with
        gcd(den, *numerators) == 1 (den == 1 for zero), every exponent and
        |k| at most top < LIMIT, and k == 0 unless the chart has a time
        coordinate.  The dict is never mutated from here on."""
        p = _new(cls)
        _set_chart(p, chart)
        _set_terms(p, terms)
        _set_den(p, den)
        _set_top(p, top)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "ExpPoly":
        return cls._make(chart, {})

    @classmethod
    def const(cls, chart: Chart, value: Scalar) -> "ExpPoly":
        num, den = _ratio(value)
        return cls._make(chart, {0: num} if num else {}, den)

    @classmethod
    def var(cls, chart: Chart, name: str) -> "ExpPoly":
        return cls._make(chart, {chart.units[chart.index(name)]: 1}, 1, 1)

    @classmethod
    def s_power(cls, chart: Chart, k: int) -> "ExpPoly":
        """e^{k t} on a chart with a time coordinate."""
        if int(k) != k:
            raise ValueError(f"s-exponent {k!r} is not an integer")
        k = int(k)
        if not chart.has_time:
            raise ValueError("s-exponent requires a time coordinate on the chart")
        return cls._make(chart, {k: 1}, 1, _fitted(abs(k)))

    # -- reading terms -------------------------------------------------

    def monomials(self) -> Iterator[Tuple[Key, Fraction]]:
        """((exponents, k), coefficient) for every term, in descending
        (exponents, k) order."""
        keys = sorted(self.terms, reverse=True)
        for key, ek in zip(keys, _decode(keys, self.chart.dim)):
            yield ek, Fraction(self.terms[key], self.den)

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Optional[Fraction]:
        """The rational value if this is a plain constant (no coords, no s)."""
        if not self.terms:
            return Fraction(0)
        c = self.terms.get(0)
        if c is not None and len(self.terms) == 1:
            return Fraction(c, self.den)
        return None

    def is_nonvanishing_constant(self) -> bool:
        """True when the value is c*s^k with c != 0: never zero on the chart."""
        if len(self.terms) != 1:
            return False
        key, = self.terms
        return -LIMIT < key < LIMIT  # the exponent fields are all zero

    # -- arithmetic ----------------------------------------------------

    def _plus(self, other: "ExpPoly", sign: int) -> "ExpPoly":
        """self + sign * other over the lcm of the two denominators."""
        if other.chart is not self.chart and other.chart != self.chart:
            raise _mismatch(self.chart, other.chart)
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, terms, b = d1, dict(self.terms), sign
        else:
            den = lcm(d1, d2)
            a, b = den // d1, sign * (den // d2)
            terms = {key: c * a for key, c in self.terms.items()}
        get = terms.get
        for key, c in other.terms.items():
            c *= b
            c0 = get(key)
            if c0 is None:
                terms[key] = c
            else:
                c0 += c
                if c0:
                    terms[key] = c0
                else:
                    del terms[key]
        terms, den = _reduced(terms, den)
        return ExpPoly._make(self.chart, terms, den,
                             max(self.top, other.top) if terms else 0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.const(self.chart, other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return ExpPoly._make(self.chart, {key: -c for key, c in self.terms.items()},
                             self.den, self.top)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.const(self.chart, other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a, d = _ratio(other)
            if a == 0:
                return ExpPoly.zero(self.chart)
            terms, den = _reduced({key: v * a for key, v in self.terms.items()},
                                  self.den * d)
            return ExpPoly._make(self.chart, terms, den, self.top)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return sum_of_products(self.chart, ((1, self, other),))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExpPoly.const(self.chart, other)
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return (self.chart == other.chart and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.chart, self.den, frozenset(self.terms.items())))

    # -- calculus ------------------------------------------------------

    def partial(self, name: str) -> "ExpPoly":
        """Exact partial derivative; d/dt also differentiates s^k = e^{kt}."""
        chart = self.chart
        i = chart.index(name)
        unit = chart.units[i]
        shift = FIELD_BITS * (chart.dim - i)
        terms: Dict[int, int] = {}
        if i != chart.time_index:
            # key -> key - unit is injective, so no two terms meet
            for key, c in self.terms.items():
                a = ((key + LIMIT) >> shift) & _MASK
                if a:
                    terms[key - unit] = c * a
        else:
            # d/dt (t^a s^k) = a t^(a-1) s^k + k t^a s^k: both terms are kept
            get = terms.get
            for key, c in self.terms.items():
                u = key + LIMIT
                for key2, c2 in ((key - unit, c * ((u >> shift) & _MASK)),
                                 (key, c * ((u & _MASK) - LIMIT))):
                    if c2:
                        c0 = get(key2, 0) + c2
                        if c0:
                            terms[key2] = c0
                        else:
                            del terms[key2]
        terms, den = _reduced(terms, self.den)
        return ExpPoly._make(chart, terms, den, self.top if terms else 0)

    def _fiber_degrees(self) -> Iterator[int]:
        """The fiber degree of each term, in no particular order."""
        fib = self.chart.fiber_indices
        return (sum(exps[i] for i in fib) for exps, _ in _decode(self.terms, self.chart.dim))

    def fiber_degree(self) -> Optional[int]:
        """Max total degree in fiber coordinates; None for the zero function."""
        return max(self._fiber_degrees(), default=None)

    def is_basic(self) -> bool:
        """Fiber-degree 0 (a pullback from the base), including 0."""
        return all(d == 0 for d in self._fiber_degrees())

    def is_linear(self) -> bool:
        """Every term has fiber degree exactly 1 (and the value is nonzero)."""
        return bool(self.terms) and all(d == 1 for d in self._fiber_degrees())

    def total_degree(self) -> int:
        return max((sum(exps) for exps, _ in _decode(self.terms, self.chart.dim)),
                   default=0)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a rational point.

        s = e^t is only evaluated when t is assigned 0 (so s -> 1); any other
        assignment with a nonzero s-exponent is refused as transcendental.
        """
        chart = self.chart
        monomials = list(self.monomials())
        needed = set()
        for (exps, k), _ in monomials:
            for i, e in enumerate(exps):
                if e:
                    needed.add(i)
            if k != 0:
                needed.add(chart.time_index)
        for i in sorted(needed):
            name = chart.names[i]
            if name not in point:
                raise EvalError(f"no value assigned to coordinate {name!r}")
        vals = {chart.index(n): Fraction(*_ratio(v)) for n, v in point.items()
                if chart.has(n)}
        total = Fraction(0)
        ti = chart.time_index
        for (exps, k), c in monomials:
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
        if not self.terms:
            return ExpPoly.zero(chart)
        src = self.chart
        # per source coordinate: its field's shift, and its unit on the
        # target chart or None when the target lacks it
        n = src.dim
        col = [(FIELD_BITS * (n - i), chart.units[chart.index(name)] if chart.has(name)
                else None) for i, name in enumerate(src.names)]
        terms: Dict[int, int] = {}
        for key, c in self.terms.items():
            u = key + LIMIT
            k = (u & _MASK) - LIMIT
            new = k
            for i, (shift, unit) in enumerate(col):
                e = (u >> shift) & _MASK
                if e:
                    if unit is None:
                        raise ChartMismatchError(
                            f"variable {src.names[i]!r} has no image in {chart}")
                    new += e * unit
            if k != 0 and not chart.has_time:
                raise ChartMismatchError("target chart has no time coordinate")
            # the name map is injective, so distinct keys stay distinct
            terms[new] = c
        return ExpPoly._make(chart, terms, self.den, self.top)

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = self.chart.names
        tname = None
        if self.chart.has_time:
            tname = names[self.chart.time_index]
        parts = []
        for (exps, k), c in self.monomials():
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


def sum_of_products(chart: Chart,
                    products: Iterable[Tuple[int, ExpPoly, ExpPoly]]) -> ExpPoly:
    """The sum of c * a * b over the (int c, ExpPoly a, ExpPoly b) triples,
    in one pass: the ring's one multiplication loop.

    The numerators accumulate in one dict over one running denominator;
    a product whose a.den * b.den brings a new lcm rescales the dict once.
    Terms that cancel are deleted as they do, and the sum is reduced to
    lowest terms once at the end.  Each operand must be on `chart`, and
    each product of two nonzero operands obeys the field guard of `*`.
    The result's `top` is the max of a.top + b.top over the nonzero
    products (0 for a zero sum): a bound, which can be looser than the
    top of the same sum built by a chain of `+` whose partial sums
    cancelled.
    """
    terms: Dict[int, int] = {}
    get = terms.get
    den = 1
    top = 0
    for c, a, b in products:
        if a.chart is not chart and a.chart != chart:
            raise _mismatch(chart, a.chart)
        if b.chart is not chart and b.chart != chart:
            raise _mismatch(chart, b.chart)
        if not c or not a.terms or not b.terms:
            continue
        t = a.top + b.top
        if t >= LIMIT:
            raise _past_the_field(t)
        if t > top:
            top = t
        d = a.den * b.den
        if d != den:
            m = lcm(den, d)
            if m != den:
                up = m // den
                for key in terms:
                    terms[key] *= up
                den = m
            c *= den // d
        right = list(b.terms.items())
        for k1, c1 in a.terms.items():
            c1 *= c
            for k2, c2 in right:
                key = k1 + k2
                c0 = get(key)
                if c0 is None:
                    terms[key] = c1 * c2
                else:
                    c0 += c1 * c2
                    if c0:
                        terms[key] = c0
                    else:
                        del terms[key]
    terms, den = _reduced(terms, den)
    return ExpPoly._make(chart, terms, den, top if terms else 0)


# the slot descriptors' setters, which the immutable __setattr__ does not reach
_new = object.__new__
_set_chart, _set_terms, _set_den, _set_top = (
    ExpPoly.__dict__[name].__set__ for name in ExpPoly.__slots__)
