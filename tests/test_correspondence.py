"""The two maps between algebroid-with-cocycle pairs and linear Jacobi
structures, their inverse relation, and the exponential-time bivector."""

from fractions import Fraction

import pytest

from linjacobi import (AlgebroidError, AlgebroidPatch, AlgebroidWithCocycle,
                       C1Violation, C2Violation, Chart, Cocycle, ExpPoly,
                       JacobiStructure, Multivector, build_case, check_C1,
                       check_C2, forward_report,
                       hat_algebroid, jacobi_bracket, linear_poisson_dual,
                       liouville, parse_expression, poissonization,
                       psi_forward, psi_inverse,
                       roundtrip_check, sn_bracket, verify_algebroid,
                       verify_jacobi, vertical_lift)
from linjacobi.correspondence import _pair_diff, _recover

from conftest import base_chart, count_calls

POINT = Chart(())


def aff1_pair(a=2):
    A = AlgebroidPatch(POINT, 2, {(1, 2, 2): 1})
    return AlgebroidWithCocycle(A, Cocycle.from_scalars(POINT, (a, 0)))


def test_pair_validates_inputs():
    bad = AlgebroidPatch(POINT, 3, {(1, 2, 1): 1, (2, 3, 2): 1})
    with pytest.raises(AlgebroidError):
        AlgebroidWithCocycle(bad)
    A = AlgebroidPatch(POINT, 2, {(1, 2, 2): 1})
    with pytest.raises(AlgebroidError):
        AlgebroidWithCocycle(A, Cocycle.from_scalars(POINT, (0, 1)))


def test_pair_keeps_its_reports():
    pair = aff1_pair()
    assert [c.name for c in pair.algebroid_report.checks] == [
        "skew_symmetry", "jacobi_identity", "anchor_morphism"]
    assert [c.name for c in pair.cocycle_report.checks] == ["cocycle_condition"]
    # a failing algebroid still gets its cocycle checked
    bad = AlgebroidPatch(POINT, 3, {(1, 2, 1): 1, (2, 3, 2): 1})
    with pytest.raises(AlgebroidError) as exc:
        AlgebroidWithCocycle(bad, Cocycle.from_scalars(POINT, (1, 0, 0)))
    assert str(exc.value).startswith("not a Lie algebroid:\n")
    assert not exc.value.algebroid_report.passed
    assert exc.value.cocycle_report.check("cocycle_condition").residual == "(1,2): 1"


def test_linear_poisson_dual_components():
    pair = aff1_pair()
    lam = linear_poisson_dual(pair.algebroid)
    dual = lam.chart
    assert lam == Multivector(dual, 2, {(0, 1): ExpPoly.var(dual, "mu2")})


def test_liouville_and_vertical_lift():
    pair = aff1_pair(3)
    dual = pair.algebroid.dual_chart()
    delta = liouville(dual)
    assert delta.comps == {(0,): ExpPoly.var(dual, "mu1"),
                           (1,): ExpPoly.var(dual, "mu2")}
    pv = vertical_lift(pair.algebroid, pair.cocycle)
    assert pv == 3 * Multivector.basis(dual, "mu1")


def test_forward_map_closed_form():
    J = psi_forward(aff1_pair(2))
    dual = J.chart
    assert J.lam == Multivector(dual, 2, {(0, 1): -ExpPoly.var(dual, "mu2")})
    assert J.e_field == -2 * Multivector.basis(dual, "mu1")
    assert verify_jacobi(J).passed


def test_forward_bracket_characterization():
    rep = forward_report(aff1_pair(1))
    assert rep.passed, rep.to_text()


def test_forward_brackets_on_generators():
    """{mu_i, mu_j} returns the structure functions; {mu_i, 1} the cocycle."""
    pair = aff1_pair(3)
    J = psi_forward(pair)
    dual = J.chart
    mu1 = ExpPoly.var(dual, "mu1")
    mu2 = ExpPoly.var(dual, "mu2")
    one = ExpPoly.const(dual, 1)
    # the E-term cancels the Liouville correction: only the structure
    # function survives
    assert jacobi_bracket(J, mu1, mu2) == mu2
    assert jacobi_bracket(J, mu1, one) == 3 * one
    assert jacobi_bracket(J, mu2, one).is_zero


def test_inverse_recovers_data():
    pair = aff1_pair(2)
    back = psi_inverse(psi_forward(pair))
    assert back == pair


def test_inverse_on_base_dependent_structure():
    chart = base_chart(2)
    x1 = ExpPoly.var(chart, "x1")
    A = AlgebroidPatch(chart, 2, {(1, 2, 2): x1}, anchor={(0, 1): 1})
    pair = AlgebroidWithCocycle(A)
    assert roundtrip_check(pair).passed


def test_inverse_rejections_carry_residuals():
    chart = Chart((("x", "base"), ("mu", "fiber")))
    mu = ExpPoly.var(chart, "mu")
    quad = JacobiStructure.poisson(
        Multivector(chart, 2, {(1, 0): mu * mu}))
    with pytest.raises(C1Violation) as exc:
        psi_inverse(quad)
    assert "mu" in exc.value.residual

    fibers = Chart((("x", "fiber"), ("y", "fiber")))
    xy = ExpPoly.var(fibers, "x") * ExpPoly.var(fibers, "y")
    remark = JacobiStructure(
        fibers, Multivector(fibers, 2, {(0, 1): xy}),
        Multivector(fibers, 1, {(0,): ExpPoly.var(fibers, "x")}))
    with pytest.raises(C2Violation) as exc:
        psi_inverse(remark)
    assert exc.value.residual == "-1*x"


def test_inverse_of_non_algebroid_bracket():
    """C1 and C2 hold for any linear bivector; psi_inverse still rejects
    a bracket that fails the Jacobi identity."""
    bad = AlgebroidPatch(POINT, 3, {(1, 2, 1): 1, (2, 3, 2): 1})
    J = JacobiStructure.poisson(linear_poisson_dual(bad))
    assert check_C1(J).passed and check_C2(J).passed
    with pytest.raises(AlgebroidError) as exc:
        psi_inverse(J)
    assert not exc.value.algebroid_report.passed


def test_inverse_of_forward_is_an_equal_verified_pair(monkeypatch):
    pair = aff1_pair(2)
    J = psi_forward(pair)
    calls = count_calls(monkeypatch, verify_algebroid)
    # roundtrip_check does not verify recovered data equal to its input
    assert roundtrip_check(pair).passed
    assert calls == []
    # psi_inverse verifies what it recovers, and keeps other basis names
    assert psi_inverse(J) == pair
    assert len(calls) == 1
    named = psi_inverse(J, ["a", "b"])
    assert named == pair
    assert named.algebroid.basis_names == ("a", "b")
    assert len(calls) == 2


def test_generator_brackets_read_off_components(monkeypatch):
    """check_C1, check_C2, psi_inverse and forward_report read the
    generator brackets off lambda and E, not through jacobi_bracket."""
    pair = build_case("lcs_T*R2").pair
    J = psi_forward(pair)
    calls = count_calls(monkeypatch, jacobi_bracket)
    assert check_C1(J).passed and check_C2(J).passed
    assert psi_inverse(J) == pair
    assert forward_report(pair, J).passed
    assert calls == []


def test_roundtrip_inverts_once(monkeypatch):
    c1 = count_calls(monkeypatch, check_C1)
    recovered = count_calls(monkeypatch, _recover)
    assert roundtrip_check(aff1_pair(2)).passed
    assert len(c1) == 1 and len(recovered) == 1


def test_roundtrip_maps_differing_data_forward(monkeypatch):
    """Recovered data that differ from the input fail both checks; the
    second maps them forward and compares with J."""
    other = aff1_pair(3)
    monkeypatch.setattr("linjacobi.correspondence._recover",
                        lambda J, basis_names=None: (other.algebroid, other.cocycle))
    rep = roundtrip_check(aff1_pair(2))
    assert rep.check("inverse_after_forward").residual == "phi[1]: -1"
    assert rep.check("forward_after_inverse").residual == (
        "lambda diff -1*mu2 d/dmu1^d/dmu2; E diff -1 d/dmu1")


def test_roundtrip_report_shape():
    rep = roundtrip_check(aff1_pair(0))
    assert [c.name for c in rep.checks] == ["inverse_after_forward",
                                            "forward_after_inverse"]
    assert rep.passed


def test_poissonization_is_poisson():
    P = poissonization(psi_forward(aff1_pair(1)))
    assert P.chart.has_time
    assert sn_bracket(P, P).is_zero


def test_poissonization_of_poisson_input_scales():
    """With E = 0 the output is just e^{-t} times the input bivector."""
    pair = AlgebroidWithCocycle(AlgebroidPatch(POINT, 2, {(1, 2, 2): 1}))
    J = psi_forward(pair)
    P = poissonization(J)
    ext = P.chart
    assert P == ExpPoly.s_power(ext, -1) * J.lam.transfer(ext)


def test_hat_algebroid_matches_poissonization():
    pair = aff1_pair(3)
    hat = hat_algebroid(pair)
    assert verify_algebroid(hat).passed
    ext = hat.base_chart
    s_inv = ExpPoly.s_power(ext, -1)
    assert hat.c(1, 2, 2) == -2 * s_inv     # 1 - phi_1
    assert hat.rho(ext.index("t"), 1) == 3 * s_inv
    Lhat = linear_poisson_dual(hat)
    P = poissonization(psi_forward(pair)).transfer(Lhat.chart)
    assert Lhat == P


def test_hat_of_zero_cocycle_keeps_structure_shape():
    pair = AlgebroidWithCocycle(AlgebroidPatch(POINT, 2, {(1, 2, 2): 1}))
    hat = hat_algebroid(pair)
    s_inv = ExpPoly.s_power(hat.base_chart, -1)
    assert hat.c(1, 2, 2) == s_inv
    assert not any(l == hat.base_chart.index("t") for (l, _) in hat.anchor)


@pytest.mark.parametrize("idx, coeff, failing", [
    ((2, 3), "mu1", {"bracket_linear_linear": "(1,2): 1*mu1"}),
    ((0, 2), "1", {"bracket_linear_basic": "(1,x1): -1"}),
    ((0, 1), "1", {"bracket_basic_basic": "(x1,x2): 1"}),
])
def test_forward_report_catches_a_J_that_is_not_the_forward_map(idx, coeff, failing):
    """trivial_tangent(2) on (x1, x2, mu1, mu2), with one component of
    Lambda moved off the forward map."""
    case = build_case("trivial_tangent(2)")
    J = psi_forward(case.pair, case.dual)
    d = J.chart
    moved = Multivector(d, 2, {idx: parse_expression(coeff, d)})
    rep = forward_report(case.pair, JacobiStructure(d, J.lam + moved, J.e_field))
    assert {c.name: c.residual for c in rep.checks
            if c.name.startswith("bracket_") and c.verdict != "pass"} == failing


def test_pair_diff_subtracts_only_the_values_that_differ(monkeypatch):
    pair = aff1_pair()
    subs = []
    sub = ExpPoly.__sub__
    monkeypatch.setattr(ExpPoly, "__sub__", lambda a, b: subs.append(b) or sub(a, b))
    assert _pair_diff(pair, pair.algebroid, pair.cocycle) == []
    assert subs == []
    moved = Cocycle.from_scalars(POINT, (3, 0))
    assert _pair_diff(pair, pair.algebroid, moved) == ["phi[1]: -1"]
    assert len(subs) == 1
