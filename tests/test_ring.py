"""Coefficient ring: exact rationals, canonical forms, the e^t extension."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from linjacobi import (Chart, ChartMismatchError, EvalError, ExpPoly,
                       FieldOverflowError)

from conftest import random_poly

XY = Chart((("x", "base"), ("y", "base")))
XMU = Chart((("x", "base"), ("mu", "fiber")))
XT = Chart((("x", "base"), ("t", "time")))

rats = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def poly_of(chart, coeffs):
    """Build sum coeffs[i] * (first coord)^i."""
    p = ExpPoly.zero(chart)
    x = ExpPoly.var(chart, chart.names[0])
    for i, c in enumerate(coeffs):
        xi = ExpPoly.const(chart, c)
        for _ in range(i):
            xi = xi * x
        p = p + xi
    return p


@given(st.lists(rats, max_size=4), st.lists(rats, max_size=4))
def test_add_commutes(a, b):
    p, q = poly_of(XY, a), poly_of(XY, b)
    assert p + q == q + p


@given(st.lists(rats, max_size=4), st.lists(rats, max_size=4),
       st.lists(rats, max_size=3))
def test_mul_distributes(a, b, c):
    p, q, r = poly_of(XY, a), poly_of(XY, b), poly_of(XY, c)
    assert p * (q + r) == p * q + p * r


@given(st.lists(rats, max_size=4))
def test_sub_self_is_zero(a):
    p = poly_of(XY, a)
    assert (p - p).is_zero


def test_canonical_zero_coefficients_dropped():
    p = ExpPoly(XY, {((1, 0), 0): Fraction(1), ((0, 1), 0): Fraction(0)})
    assert list(p.monomials()) == [(((1, 0), 0), 1)]


def test_chart_mismatch_rejected():
    with pytest.raises(ChartMismatchError):
        ExpPoly.var(XY, "x") + ExpPoly.var(XMU, "x")


def test_partial_product_rule():
    x, y = ExpPoly.var(XY, "x"), ExpPoly.var(XY, "y")
    p = x * x + 2 * x * y
    q = y * y - x
    lhs = (p * q).partial("x")
    rhs = p.partial("x") * q + p * q.partial("x")
    assert lhs == rhs


def test_time_derivative_of_exponential():
    # d/dt (t * e^{-2t}) = e^{-2t} - 2 t e^{-2t}
    t = ExpPoly.var(XT, "t")
    s = ExpPoly.s_power(XT, -2)
    got = (t * s).partial("t")
    assert got == s - 2 * t * s


def test_s_power_requires_time_coordinate():
    with pytest.raises(ValueError):
        ExpPoly.s_power(XY, 1)


X = Chart((("x", "base"),))


@pytest.mark.parametrize("chart, terms", [
    (X, {((Fraction(3, 2),), 0): 1}),
    (X, {((1.5,), 0): 1, ((1,), 0): 2}),
    (XT, {((1, 0), 0.5): 1}),
    (XT, {((1, 0), Fraction(-3, 2)): 1}),
    (X, {(range(1, 2), 0): 1}),
    (X, {((1,), "1"): 1}),
])
def test_non_integer_exponents_rejected(chart, terms):
    with pytest.raises(ValueError):
        ExpPoly(chart, terms)


def test_integer_valued_exponents_accepted():
    x = ExpPoly.var(X, "x")
    assert ExpPoly(X, {((Fraction(2),), 0): 1}) == x * x
    assert ExpPoly(X, {((2.0,), 0): 1, ((True,), False): 3}) == x * x + 3 * x
    (key, c), = ExpPoly(XT, {((True, 0), 2.0): 1}).monomials()
    assert key == ((1, 0), 2) and all(type(e) is int for e in key[0] + key[1:])
    assert c == 1 and type(c) is Fraction


def test_non_integer_s_power_rejected():
    with pytest.raises(ValueError):
        ExpPoly.s_power(XT, Fraction(1, 2))
    with pytest.raises(ValueError):
        ExpPoly.s_power(XT, 1.5)
    assert ExpPoly.s_power(XT, 1.0) == ExpPoly.s_power(XT, 1)


def test_fiber_degree_and_predicates():
    x, mu = ExpPoly.var(XMU, "x"), ExpPoly.var(XMU, "mu")
    assert (x * x).is_basic()
    assert not (x * mu).is_basic()
    assert (x * mu).is_linear()
    assert not (mu * mu).is_linear()
    assert (mu * mu + x).fiber_degree() == 2
    assert ExpPoly.zero(XMU).fiber_degree() is None
    assert not ExpPoly.zero(XMU).is_linear()


def test_evaluate_exact():
    x, y = ExpPoly.var(XY, "x"), ExpPoly.var(XY, "y")
    p = x * x * y - 3 * y
    v = p.evaluate({"x": Fraction(1, 2), "y": Fraction(4)})
    assert v == Fraction(1, 4) * 4 - 12


def test_evaluate_refuses_transcendental():
    p = ExpPoly.s_power(XT, 1)
    assert p.evaluate({"t": 0}) == 1
    with pytest.raises(EvalError):
        p.evaluate({"t": 1})


def test_transfer_by_name():
    big = Chart((("x", "base"), ("y", "base"), ("mu", "fiber")))
    p = ExpPoly.var(XY, "x") * ExpPoly.var(XY, "y")
    q = p.transfer(big)
    assert q.chart == big
    assert q == ExpPoly.var(big, "x") * ExpPoly.var(big, "y")


def test_transfer_missing_variable_fails():
    small = Chart((("x", "base"),))
    p = ExpPoly.var(XY, "y")
    with pytest.raises(ChartMismatchError):
        p.transfer(small)


def test_render_canonical():
    x, y = ExpPoly.var(XY, "x"), ExpPoly.var(XY, "y")
    assert ExpPoly.zero(XY).render() == "0"
    assert (-x).render() == "-1*x"
    assert (Fraction(3, 2) * x * x * y).render() == "3/2*x^2*y"
    assert ExpPoly.s_power(XT, -1).render() == "1*exp(-1*t)"
    assert (-2 * ExpPoly.s_power(XT, -1)).render() == "-2*exp(-1*t)"


def test_constant_helpers():
    assert ExpPoly.const(XY, 5).constant_value() == 5
    assert ExpPoly.var(XY, "x").constant_value() is None
    assert ExpPoly.s_power(XT, 2).is_nonvanishing_constant()
    assert not ExpPoly.var(XT, "x").is_nonvanishing_constant()


def _assert_canonical(r):
    """Integer numerators, none zero, over one positive denominator in
    lowest terms; every key decodes to exponents within `top`; and the
    value is what the validating constructor makes of the decoded terms."""
    nums = list(r.terms.values())
    assert all(type(c) is int and c != 0 for c in nums)
    assert type(r.den) is int and r.den > 0
    assert gcd(r.den, *nums) == 1
    assert 0 <= r.top < 2**63
    dim, has_time = r.chart.dim, r.chart.has_time
    monomials = list(r.monomials())
    assert len(monomials) == len(nums)
    for (exps, k), c in monomials:
        assert type(c) is Fraction and c != 0
        assert isinstance(exps, tuple) and len(exps) == dim
        assert all(type(e) is int and 0 <= e <= r.top for e in exps)
        assert type(k) is int and abs(k) <= r.top and (k == 0 or has_time)
    assert r == ExpPoly(r.chart, dict(monomials))


def test_arithmetic_results_are_canonical():
    """Sums, differences, negations, products and partial derivatives
    skip the validating constructor; each result must still be what
    that constructor would make of its terms."""
    rng = random.Random(20240)
    for chart in (XY, XMU, XT):
        for _ in range(60):
            p, q = random_poly(rng, chart), random_poly(rng, chart)
            if chart.has_time:
                p = p * ExpPoly.s_power(chart, rng.randint(-2, 2))
                q = q * ExpPoly.s_power(chart, rng.randint(-2, 2))
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            results = [p + q, p - q, p - p, -p, p * q, p * c, c * p, 0 * p,
                       3 - p, p + 1]
            results += [p.partial(n) for n in chart.names]
            for r in results:
                _assert_canonical(r)
            _assert_canonical(ExpPoly.zero(chart))


# -- a tuple-and-Fraction reference for the packed representation ------------

XTMU = Chart((("x", "base"), ("t", "time"), ("mu", "fiber")))
REF_CHARTS = (Chart(()), X, XY, XMU, XT, XTMU)


def _ref_poly(rng, chart, max_terms=4):
    """{(exps, k): Fraction} with denominators 1-9, k != 0 on time charts."""
    ks = range(-3, 4) if chart.has_time else (0,)
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (tuple(rng.randint(0, 3) for _ in range(chart.dim)), rng.choice(ks))
        out[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return out


def _ref_clean(terms):
    return {key: c for key, c in terms.items() if c != 0}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for (e1, k1), c1 in a.items():
        for (e2, k2), c2 in b.items():
            key = (tuple(x + y for x, y in zip(e1, e2)), k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return _ref_clean(out)


def _ref_partial(a, chart, i):
    out = {}
    for (exps, k), c in a.items():
        if exps[i]:
            down = tuple(e - (j == i) for j, e in enumerate(exps))
            out[(down, k)] = out.get((down, k), 0) + c * exps[i]
        if i == chart.time_index:
            out[(exps, k)] = out.get((exps, k), 0) + c * k
    return _ref_clean(out)


def _ref_transfer(a, src, dst):
    return {(tuple(exps[src.index(n)] if src.has(n) else 0 for n in dst.names), k): c
            for (exps, k), c in a.items()}


def _ref_render(a, chart):
    if not a:
        return "0"
    parts = []
    for (exps, k), c in sorted(a.items(), reverse=True):
        factors = [str(c)]
        for name, e in zip(chart.names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if k != 0:
            factors.append(f"exp({k}*{chart.names[chart.time_index]})")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _agrees(p, ref):
    _assert_canonical(p)
    assert dict(p.monomials()) == ref
    assert p.render() == _ref_render(ref, p.chart)


def test_arithmetic_agrees_with_the_tuple_and_fraction_reference():
    """+, -, *, partial, transfer and render of the packed form against the
    old (exponent tuple, k) -> Fraction arithmetic, on charts with and
    without time, denominators 1-9, and sums that cancel to zero."""
    rng = random.Random(110)
    for chart in REF_CHARTS:
        wider = Chart(tuple(reversed(chart.coords)) + (("z", "base"),))
        for _ in range(40):
            a, b = _ref_poly(rng, chart), _ref_poly(rng, chart)
            p, q = ExpPoly(chart, a), ExpPoly(chart, b)
            a, b = _ref_clean(a), _ref_clean(b)
            _agrees(p, a)
            _agrees(p + q, _ref_add(a, b))
            _agrees(p - q, _ref_add(a, b, -1))
            _agrees(p * q, _ref_mul(a, b))
            _agrees(p * q - q * p, {})
            _agrees((p + q) * (p - q) - (p * p - q * q), {})
            _agrees(p + (-p), {})
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            _agrees(c * p, _ref_clean({key: c * v for key, v in a.items()}))
            for i, name in enumerate(chart.names):
                _agrees(p.partial(name), _ref_partial(a, chart, i))
            moved = p.transfer(wider)
            _agrees(moved, _ref_transfer(a, chart, wider))
            _agrees(moved.transfer(chart), a)


def test_a_common_denominator_reduces_to_lowest_terms():
    x = ExpPoly.var(XY, "x")
    half = Fraction(1, 2) * x + Fraction(1, 2)
    assert (half + half).den == 1 and half + half == x + 1
    assert (half * 4).den == 1 and (Fraction(3, 4) * x).den == 4
    assert (Fraction(1, 2) * x * x).partial("x") == x
    assert (half - half).den == 1 and (half - half).is_zero


# -- the field guard ----------------------------------------------------------

YX = Chart((("y", "base"), ("x", "base"), ("t", "time")))
L = 2 ** 63  # FIELD_BITS = 64: exponents and |k| stay below 2^63


def test_constructor_refuses_exponents_at_the_field_width():
    top = ExpPoly(YX, {((0, L - 1, 0), -(L - 1)): 1})
    assert list(top.monomials()) == [(((0, L - 1, 0), -(L - 1)), 1)]
    for key in [((0, L, 0), 0), ((0, 0, 0), L), ((0, 0, 0), -L), ((L, 0, 0), 0)]:
        with pytest.raises(FieldOverflowError):
            ExpPoly(YX, {key: 1})
    with pytest.raises(FieldOverflowError):
        ExpPoly.s_power(YX, -L)
    assert issubclass(FieldOverflowError, ValueError)


H = 2 ** 62


@pytest.mark.parametrize("key, below", [
    (((0, H, 0), 0), ((0, H - 1, 0), 0)),
    (((0, 0, 0), -H), ((0, 0, 0), -(H - 1))),
    (((0, 0, 0), H), ((0, 0, 0), H - 1)),
])
def test_products_past_the_field_width_are_refused_not_wrapped(key, below):
    """A product that reaches 2^63 raises; one just below it is exact.
    Without the guard the squares would go on and the second would carry
    into the next field, a wrong key, so each square must be exact or
    refused."""
    p = ExpPoly(YX, {key: 1})
    with pytest.raises(FieldOverflowError):
        p * p
    (exps, k), _ = next(ExpPoly(YX, {below: 1}).monomials())
    assert list((p * ExpPoly(YX, {below: 1})).monomials()) == [
        ((tuple(a + b for a, b in zip(key[0], exps)), key[1] + k), 1)]
    (exps, k) = key
    for _ in range(2):
        try:
            p = p * p
        except FieldOverflowError:
            break
        exps, k = tuple(2 * e for e in exps), 2 * k
        assert list(p.monomials()) == [((exps, k), 1)]
    else:
        pytest.fail("a product past 2^63 was not refused")
