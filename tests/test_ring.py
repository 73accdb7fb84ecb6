"""Coefficient ring: exact rationals, canonical forms, the e^t extension."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from linjacobi import Chart, ChartMismatchError, EvalError, ExpPoly

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
    assert list(p.terms) == [((1, 0), 0)]


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
    assert r == ExpPoly(r.chart, r.terms)
    dim, has_time = r.chart.dim, r.chart.has_time
    for (exps, k), c in r.terms.items():
        assert c != 0 and isinstance(c, Fraction)
        assert isinstance(exps, tuple) and len(exps) == dim
        assert all(isinstance(e, int) and e >= 0 for e in exps)
        assert isinstance(k, int) and (k == 0 or has_time)


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
