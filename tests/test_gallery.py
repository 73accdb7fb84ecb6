"""The curated example catalog and the tangent-lift formulas."""

import pytest

from linjacobi import (CATALOG, Chart, ExpPoly, GalleryError, Multivector,
                       build_case, complete_vertical_lift,
                       cotangent_algebroid, linear_poisson_dual, psi_forward,
                       run_case, verify_algebroid, verify_jacobi)

from conftest import base_chart, count_calls


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_checklists(name):
    rep = build_case(name).run()
    if name == "remark_counterexample":
        # the expected outcome here is a single failing linearity check
        failing = [c.name for c in rep.checks if c.verdict != "pass"]
        assert failing == ["C2.fiber_one_basic"]
        assert rep.check("expected_C2_verdict").verdict == "pass"
    else:
        assert rep.passed, rep.to_text()


def test_pair_case_verifies_algebroid_twice(monkeypatch):
    """Once when the case builds its pair, once when roundtrip_check's
    psi_inverse builds the recovered pair."""
    calls = count_calls(monkeypatch, verify_algebroid)
    assert run_case(build_case("so3")).passed
    assert len(calls) == 2


@pytest.mark.parametrize("name", ["so3", "poissonization_aff1"])
def test_pair_case_verifies_its_jacobi_structure_once(monkeypatch, name):
    case = build_case(name)
    calls = count_calls(monkeypatch, verify_jacobi)
    assert run_case(case).passed
    assert len(calls) == 1


def test_unknown_names_rejected():
    for name in ("nope", "aff1", "aff1(x)", "contact_R(0)", "so3(1)"):
        with pytest.raises(GalleryError):
            build_case(name)


def test_aff1_expected_forms():
    case = build_case("aff1(2)")
    assert case.expected["lambda"] == "-1*mu2 d/dmu1^d/dmu2"
    assert case.expected["efield"] == "-2 d/dmu1"


def test_constant_vector_field_lifts():
    chart = base_chart(1)
    X = Multivector(chart, 1, {(0,): ExpPoly.const(chart, 1)})
    Xc, Xv = complete_vertical_lift(X)
    tangent = Xc.chart
    assert tangent.names == ("x1", "x1dot")
    assert Xc == Multivector.basis(tangent, "x1")
    assert Xv == Multivector.basis(tangent, "x1dot")


def test_linear_vector_field_complete_lift():
    chart = base_chart(2)
    # X = x2 d/dx1 lifts to x2 d/dx1 + x2dot d/dx1dot
    X = Multivector(chart, 1, {(0,): ExpPoly.var(chart, "x2")})
    Xc, Xv = complete_vertical_lift(X)
    t = Xc.chart
    want = Multivector(t, 1, {(0,): ExpPoly.var(t, "x2"),
                              (2,): ExpPoly.var(t, "x2dot")})
    assert Xc == want
    assert Xv == Multivector(t, 1, {(2,): ExpPoly.var(t, "x2")})


def test_constant_bivector_complete_lift():
    chart = base_chart(2)
    L = Multivector(chart, 2, {(0, 1): ExpPoly.const(chart, 1)})
    Lc, Lv = complete_vertical_lift(L)
    t = Lc.chart
    one = ExpPoly.const(t, 1)
    assert Lc == Multivector(t, 2, {(2, 1): one, (0, 3): one})
    assert Lv == Multivector(t, 2, {(2, 3): one})


def test_complete_lift_matches_dual_linear_structure():
    """For a Poisson bivector the complete lift equals the linear Poisson
    structure on the dual of its cotangent algebroid."""
    chart = base_chart(3)
    v = lambda n: ExpPoly.var(chart, n)
    for L in (Multivector(chart, 2, {(0, 1): v("x3"), (0, 2): -v("x2"),
                                     (1, 2): v("x1")}),
              Multivector(chart, 2, {(0, 1): ExpPoly.const(chart, 1)})):
        Lc, _ = complete_vertical_lift(L)
        A = cotangent_algebroid(L)
        dual = A.dual_chart([n + "dot" for n in chart.names])
        assert linear_poisson_dual(A, dual) == Lc.transfer(dual)


def test_lift_requires_base_chart():
    chart = Chart((("x", "fiber"),))
    X = Multivector(chart, 1, {(0,): ExpPoly.const(chart, 1)})
    with pytest.raises(GalleryError):
        complete_vertical_lift(X)


def test_lift_rejects_higher_grades():
    chart = base_chart(3)
    T = Multivector.zero(chart, 3)
    with pytest.raises(Exception):
        complete_vertical_lift(T)


def test_contact_case_agrees_with_forward_map():
    case = build_case("contact_R(1)")
    J = psi_forward(case.pair, case.dual)
    assert J.lam.render() == case.expected["lambda"]
    assert J.e_field.render() == case.expected["efield"]
