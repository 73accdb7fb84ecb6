"""Jacobi pairs: the function bracket, defining identities, linearity
conditions, and contact forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linjacobi import (Chart, ContactError, DiffForm, ExpPoly, JacobiStructure,
                       Multivector, build_case, check_C1, check_C2,
                       contact_to_jacobi, exterior_d, interior, jacobi_bracket,
                       pairing, poissonization, sharp, verify_jacobi)
from linjacobi.jacobi import _gen_bracket

from conftest import base_chart, random_poly


def remark_structure():
    chart = Chart((("x", "fiber"), ("y", "fiber")))
    xy = ExpPoly.var(chart, "x") * ExpPoly.var(chart, "y")
    lam = Multivector(chart, 2, {(0, 1): xy})
    e = Multivector(chart, 1, {(0,): ExpPoly.var(chart, "x")})
    return JacobiStructure(chart, lam, e)


def contact_1d():
    chart = Chart((("x", "base"), ("mu", "fiber"), ("t", "fiber")))
    eta = DiffForm(chart, 1, {(2,): ExpPoly.const(chart, 1),
                              (0,): ExpPoly.var(chart, "mu")})
    return chart, eta


def test_bracket_of_constants_vanishes():
    J = remark_structure()
    one = ExpPoly.const(J.chart, 1)
    assert jacobi_bracket(J, one, one).is_zero


def test_bracket_antisymmetric():
    rng = random.Random(31)
    J = remark_structure()
    for _ in range(20):
        f = random_poly(rng, J.chart)
        g = random_poly(rng, J.chart)
        assert jacobi_bracket(J, f, g) == -jacobi_bracket(J, g, f)


def test_bracket_first_order_identity():
    """{f, gh} = g{f, h} + h{f, g} - gh{f, 1}."""
    rng = random.Random(32)
    J = remark_structure()
    one = ExpPoly.const(J.chart, 1)
    for _ in range(20):
        f, g, h = (random_poly(rng, J.chart) for _ in range(3))
        lhs = jacobi_bracket(J, f, g * h)
        rhs = (g * jacobi_bracket(J, f, h) + h * jacobi_bracket(J, f, g)
               - g * h * jacobi_bracket(J, f, one))
        assert lhs == rhs


def test_bracket_with_one_is_minus_e():
    rng = random.Random(33)
    J = remark_structure()
    one = ExpPoly.const(J.chart, 1)
    for _ in range(20):
        f = random_poly(rng, J.chart)
        assert jacobi_bracket(J, f, one) == -J.e_field.apply(f)


# base, fiber and time coordinates; the time charts carry e^{kt} terms
BRACKET_CHARTS = [
    Chart((("x", "base"), ("y", "base"), ("mu", "fiber"))),
    Chart((("mu1", "fiber"), ("mu2", "fiber"), ("mu3", "fiber"))),
    Chart((("x", "base"), ("mu", "fiber"), ("t", "time"))),
    Chart((("x", "base"), ("y", "base"), ("t", "time"), ("nu", "fiber"))),
]


@st.composite
def any_structure(draw):
    """A bivector and a vector field on one chart, not necessarily Jacobi."""
    chart = draw(st.sampled_from(BRACKET_CHARTS))
    n = chart.dim
    ks = st.integers(-2, 2) if chart.has_time else st.just(0)
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), ks)
    poly = st.dictionaries(term, st.integers(-3, 3), max_size=3).map(
        lambda terms: ExpPoly(chart, terms))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lam = draw(st.dictionaries(st.sampled_from(pairs), poly, max_size=3))
    e = draw(st.dictionaries(st.tuples(st.integers(0, n - 1)), poly, max_size=2))
    return JacobiStructure(chart, Multivector(chart, 2, lam),
                           Multivector(chart, 1, e))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(any_structure())
def test_generator_brackets_match_the_bracket_of_functions(J):
    """{x^a, x^b} = lambda^ab + x^a E^b - x^b E^a and {x^a, 1} = -E^a, read
    off the components, agree with the bracket of the two functions."""
    one = ExpPoly.const(J.chart, 1)
    for a in J.chart.names:
        xa = ExpPoly.var(J.chart, a)
        assert _gen_bracket(J, a, None) == jacobi_bracket(J, xa, one)
        for b in J.chart.names:
            xb = ExpPoly.var(J.chart, b)
            assert _gen_bracket(J, a, b) == jacobi_bracket(J, xa, xb)


def test_verify_jacobi_pass_and_fail():
    assert verify_jacobi(remark_structure()).passed
    chart = base_chart(3)
    v = lambda n: ExpPoly.var(chart, n)
    bad = JacobiStructure.poisson(
        Multivector(chart, 2, {(0, 1): v("x1"), (0, 2): v("x2")}))
    rep = verify_jacobi(bad)
    assert rep.check("compatibility").verdict == "fail"
    assert rep.check("compatibility").residual


def test_linearity_conditions_split_on_remark():
    J = remark_structure()
    assert check_C1(J).passed
    rep = check_C2(J)
    assert not rep.passed
    assert rep.check("fiber_one_basic").residual == "-1*x"


def test_poisson_flag():
    chart = base_chart(2)
    L = Multivector(chart, 2, {(0, 1): ExpPoly.const(chart, 1)})
    J = JacobiStructure.poisson(L)
    assert J.is_poisson
    assert verify_jacobi(J).passed


def test_contact_reeb_field_and_identities():
    chart, eta = contact_1d()
    J = contact_to_jacobi(eta)
    assert J.e_field == Multivector.basis(chart, "t")
    assert verify_jacobi(J).passed
    # lambda = d/dmu ^ d/dx - mu d/dmu ^ d/dt
    want = Multivector(chart, 2, {(1, 0): ExpPoly.const(chart, 1),
                                  (1, 2): -ExpPoly.var(chart, "mu")})
    assert J.lam == want


def test_contact_requires_odd_dimension():
    chart = base_chart(2)
    eta = DiffForm(chart, 1, {(0,): ExpPoly.const(chart, 1)})
    with pytest.raises(ContactError):
        contact_to_jacobi(eta)


def test_degenerate_form_rejected():
    chart = base_chart(3)
    eta = DiffForm(chart, 1, {(0,): ExpPoly.const(chart, 1)})
    with pytest.raises(ContactError):
        contact_to_jacobi(eta)


def test_one_dimensional_contact_form():
    chart = base_chart(1)
    J = contact_to_jacobi(DiffForm(chart, 1, {(0,): ExpPoly.const(chart, 2)}))
    assert J.e_field == Multivector(chart, 1, {(0,): ExpPoly.const(chart, Fraction(1, 2))})
    assert J.lam.is_zero


def test_contact_error_texts():
    chart = Chart((("x", "base"), ("y", "base"), ("z", "base")))
    x, y = ExpPoly.var(chart, "x"), ExpPoly.var(chart, "y")
    with pytest.raises(ContactError) as exc:
        contact_to_jacobi(DiffForm(chart, 1, {(0,): ExpPoly.const(chart, 1)}))
    assert str(exc.value) == "flat map not exactly invertible over the ring (det = 0)"
    with pytest.raises(ContactError) as exc:
        contact_to_jacobi(DiffForm(chart, 1, {(0,): y, (2,): 1 + x}))
    assert str(exc.value) == ("flat map not exactly invertible over the ring "
                              "(det = 1*x^2 + 2*x + 1)")


def sheared_standard_form(seed: int) -> DiffForm:
    """F^*(dz - y1 dx1 - y2 dx2) on R^5 for a seeded triangular polynomial
    map F(u)_i = u_i + p_i(u_{i+1}, ..., u_5), which has Jacobian 1."""
    chart = Chart(tuple((n, "base") for n in ("x1", "x2", "y1", "y2", "z")))
    rng = random.Random(seed)
    u = [ExpPoly.var(chart, n) for n in chart.names]
    F = []
    for i in range(5):
        p = ExpPoly.zero(chart)
        for _ in range(2 if i < 4 else 0):
            mono = ExpPoly.const(chart, rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 2)):
                mono = mono * u[rng.randrange(i + 1, 5)]
            p = p + mono
        F.append(u[i] + p)
    return exterior_d(F[4]) - F[2] * exterior_d(F[0]) - F[3] * exterior_d(F[1])


CONTACT_FORMS = [lambda: build_case("contact_R(1)").contact,
                 lambda: build_case("contact_R(2)").contact,
                 lambda: sheared_standard_form(5)]


@pytest.mark.parametrize("make_eta", CONTACT_FORMS, ids=["R3", "R5", "R5-sheared"])
def test_contact_structure_inverts_the_symplectization(make_eta):
    """e^{-tau}(lambda + d/dtau ^ E) sends i_{d/du} d(e^tau eta) to -d/du for
    every coordinate u of chart x R."""
    eta = make_eta()
    P = poissonization(contact_to_jacobi(eta), "tau")
    ext = P.chart
    omega = exterior_d(eta.transfer(ext) * ExpPoly.s_power(ext, 1))
    for name in ext.names:
        d_u = Multivector.basis(ext, name)
        assert sharp(P, interior(d_u, omega)) == -d_u, name


@pytest.mark.parametrize("make_eta", CONTACT_FORMS, ids=["R3", "R5", "R5-sheared"])
def test_contact_bivector_pairs_flats_to_d_eta(make_eta):
    """lambda(flat d/da, flat d/db) = d eta(d/da, d/db) with
    flat X = i_X d eta + eta(X) eta."""
    eta = make_eta()
    chart = eta.chart
    lam = contact_to_jacobi(eta).lam
    deta = exterior_d(eta)
    basis = [Multivector.basis(chart, n) for n in chart.names]
    flats = [interior(X, deta) + eta * interior(X, eta) for X in basis]
    for a, Xa in enumerate(basis):
        for b, Xb in enumerate(basis):
            assert pairing(lam, flats[a], flats[b]) == interior(Xa.wedge(Xb), deta)
