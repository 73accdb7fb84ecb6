"""The curated example catalog and the tangent-lift formulas."""

import dataclasses
import itertools
import random

import pytest

from linjacobi import (CATALOG, AlgebroidWithCocycle, Chart, Cocycle, ExpPoly,
                       GalleryError, JacobiStructure, Multivector, build_case,
                       complete_vertical_lift, contact_to_jacobi,
                       cotangent_algebroid, linear_poisson_dual, psi_forward,
                       run_case, verify_algebroid, verify_jacobi)
from linjacobi import gallery

from conftest import base_chart, count_calls, random_multivector, random_poly


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


def test_pair_case_verifies_algebroid_once(monkeypatch):
    """When the case builds its pair; roundtrip_check's psi_inverse
    recovers that same pair and returns it without verifying it again."""
    calls = count_calls(monkeypatch, verify_algebroid)
    assert run_case(build_case("so3")).passed
    assert len(calls) == 1


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


def _lift_ref(T):
    """Complete and vertical lifts summed from wedges of basis fields."""
    chart = T.chart
    names = chart.names
    tangent = Chart(chart.coords + tuple((n + "dot", "fiber") for n in names))
    d = lambda i: Multivector.basis(tangent, names[i])
    v = lambda i: Multivector.basis(tangent, names[i] + "dot")

    def up(p):
        return p.transfer(tangent)

    def fiber_stretch(p):
        out = ExpPoly.zero(tangent)
        for n in names:
            out = out + ExpPoly.var(tangent, n + "dot") * up(p.partial(n))
        return out

    comp = vert = Multivector.zero(tangent, T.grade)
    for idx, p in T.comps.items():
        if T.grade == 1:
            (i,) = idx
            comp = comp + up(p) * d(i) + fiber_stretch(p) * v(i)
            vert = vert + up(p) * v(i)
        else:
            i, j = idx
            comp = comp + up(p) * (v(i).wedge(d(j)) + d(i).wedge(v(j)))
            comp = comp + fiber_stretch(p) * v(i).wedge(v(j))
            vert = vert + up(p) * v(i).wedge(v(j))
    return comp, vert


def test_lifts_match_the_wedge_built_lifts():
    rng = random.Random(20264)
    nonzero = 0
    for n in range(1200):
        chart = base_chart(1 + (n // 2) % 4)
        grade = 1 + n % 2
        if n % 3:
            T = random_multivector(rng, chart, grade, max_terms=3)
        else:
            T = Multivector(chart, grade, {
                idx: random_poly(rng, chart)
                for idx in itertools.combinations(range(chart.dim), grade)})
        got = complete_vertical_lift(T)
        assert got == _lift_ref(T)
        nonzero += not got[0].is_zero
    assert nonzero >= 700


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


def test_contact_case_solves_its_contact_form_once(monkeypatch):
    calls = count_calls(monkeypatch, contact_to_jacobi)
    assert run_case(build_case("contact_R(2)")).passed
    assert len(calls) == 1


def test_non_jacobi_forward_map_fails_the_poissonization_and_the_report_runs_on(
        monkeypatch):
    case = build_case("tangent_lift_so3star")
    names = [c.name for c in run_case(case).checks]

    def not_jacobi(pair, dual):
        J = psi_forward(pair, dual)
        return JacobiStructure(J.chart, J.lam,
                               J.e_field + Multivector.basis(J.chart, "x1dot"))

    monkeypatch.setattr(gallery, "psi_forward", not_jacobi)
    rep = run_case(case)
    assert [c.name for c in rep.checks] == names
    assert rep.check("jacobi.compatibility").verdict == "fail"
    assert rep.check("poissonization_poisson").verdict == "fail"
    assert rep.check("automorphism").verdict == "pass"


def test_case_checks_report_their_failures_and_the_checklist_runs_on():
    """contact_R(1) with another valid constant cocycle: its forward map is
    no longer the contact structure the case expects."""
    case = build_case("contact_R(1)")
    A = case.pair.algebroid
    moved = dataclasses.replace(case, pair=AlgebroidWithCocycle(
        A, Cocycle.from_scalars(A.base_chart, (0, -2))))
    rep = run_case(moved)
    assert [c.name for c in rep.checks] == [c.name for c in run_case(case).checks]
    assert {c.name: c.residual for c in rep.checks if c.verdict != "pass"} == {
        "expected_lambda": "got -1 d/dx1^d/dmu1 + -2*mu1 d/dmu1^d/dt, "
                           "expected -1 d/dx1^d/dmu1 + -1*mu1 d/dmu1^d/dt",
        "expected_efield": "got 2 d/dt, expected 1 d/dt",
        "contact_match": "lambda diff 1*mu1 d/dmu1^d/dt; E diff -1 d/dt",
    }


def test_poissonization_case_builds_its_hat_algebroid_once(monkeypatch):
    """poissonization_matches_dual builds the hat algebroid, and the case's
    hat_recovered check reads that one."""
    case = build_case("poissonization_aff1")
    calls = count_calls(monkeypatch, gallery.hat_algebroid)
    rep = run_case(case)
    assert rep.passed and rep.check("hat_recovered").verdict == "pass"
    assert len(calls) == 1
