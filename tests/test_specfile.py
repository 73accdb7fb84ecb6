"""Text format: tokenizer, recursive-descent parser, canonical renderer."""

from fractions import Fraction

import pytest

from linjacobi import (CATALOG, Chart, ExpPoly, SpecError, build_case,
                       parse_expression, parse_spec, render_spec,
                       spec_from_algebroid, spec_from_jacobi)

AFF1 = """\
algebroid
  rank 2
  c[1,2] = 1*e_2
end
"""

REMARK = """\
patch
  x fiber
  y fiber
end

jacobi
  lambda = x*y * d/dx^d/dy
  efield = x * d/dx
end
"""


def test_structure_line_parses():
    spec = parse_spec(AFF1)
    assert spec.rank == 2
    assert set(spec.structure) == {(1, 2, 2)}
    assert spec.structure[(1, 2, 2)] == ExpPoly.const(Chart(()), 1)


def test_jacobi_section_parses():
    spec = parse_spec(REMARK)
    J = spec.to_jacobi()
    chart = spec.chart
    assert chart.roles == ("fiber", "fiber")
    xy = ExpPoly.var(chart, "x") * ExpPoly.var(chart, "y")
    assert J.lam.comps == {(0, 1): xy}
    assert J.e_field.comps == {(0,): ExpPoly.var(chart, "x")}


def test_diagonal_structure_rejected():
    with pytest.raises(SpecError) as exc:
        parse_spec("algebroid\n  rank 2\n  c[1,1] = 1*e_1\nend\n")
    assert "diagonal" in str(exc.value)
    assert exc.value.line == 3


def test_position_info_on_syntax_error():
    with pytest.raises(SpecError) as exc:
        parse_spec("patch\n  x base\nend\njacobi\n  lambda = @\nend\n")
    assert exc.value.line == 5
    assert exc.value.col == 12


def test_undeclared_coordinate_reported():
    with pytest.raises(SpecError) as exc:
        parse_spec("patch\n  x base\nend\njacobi\n  efield = y * d/dx\nend\n")
    assert "undeclared" in exc.value.message


def test_fiber_coordinate_refused_in_algebroid():
    text = ("patch\n  x base\n  mu fiber\nend\n"
            "algebroid\n  rank 1\n  rho[1] = mu*d/dx\nend\n")
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert "fiber coordinate" in exc.value.message


def test_unclosed_section():
    with pytest.raises(SpecError) as exc:
        parse_spec("patch\n  x base\n")
    assert "not closed" in exc.value.message


def test_cocycle_rank_mismatch():
    text = AFF1 + "\ncocycle\n  phi[1] = 1\n  phi[2] = 0\n  phi[3] = 0\nend\n"
    with pytest.raises(SpecError):
        parse_spec(text)


def test_rational_and_power_factors():
    chart = Chart((("x", "base"), ("y", "base")))
    p = parse_expression("3/2*x^2*y - y + 4", chart)
    x, y = ExpPoly.var(chart, "x"), ExpPoly.var(chart, "y")
    assert p == Fraction(3, 2) * x * x * y - y + 4


def test_exponential_factor_requires_time():
    chart = Chart((("x", "base"), ("t", "time")))
    p = parse_expression("2*exp(-1*t)", chart)
    assert p == 2 * ExpPoly.s_power(chart, -1)
    with pytest.raises(SpecError):
        parse_expression("exp(1*x)", chart)


def test_expression_trailing_input():
    chart = Chart((("x", "base"),))
    with pytest.raises(SpecError):
        parse_expression("x x", chart)


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_round_trips_byte_stably(name):
    case = build_case(name)
    if case.pair is not None:
        spec = spec_from_algebroid(case.pair.algebroid, case.pair.cocycle)
    else:
        spec = spec_from_jacobi(case.jacobi)
    once = render_spec(spec)
    twice = render_spec(parse_spec(once))
    assert once == twice
    assert render_spec(parse_spec(twice)) == twice


def test_round_trip_preserves_objects():
    case = build_case("tangent_lift_so3star")
    spec = parse_spec(render_spec(
        spec_from_algebroid(case.pair.algebroid, case.pair.cocycle)))
    assert spec.to_algebroid().same_structure(case.pair.algebroid)
    assert spec.to_cocycle() == case.pair.cocycle


def test_bytes_input_and_bad_utf8():
    assert parse_spec(AFF1.encode()).rank == 2
    with pytest.raises(SpecError):
        parse_spec(b"\xff\xfe\x00")


def _error_at(text):
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    return exc.value.line, exc.value.col, exc.value.message


def test_structure_index_out_of_range_has_position():
    assert _error_at("algebroid\n  rank 2\n  c[1,5] = (1)*e_2\nend\n") == (
        3, 7, "basis index 5 out of range")


def test_anchor_index_out_of_range_has_position():
    text = "patch\n  x base\nend\nalgebroid\n  rank 2\n  rho[7] = (1)*d/dx\nend\n"
    assert _error_at(text) == (6, 7, "basis index 7 out of range")


def test_cocycle_index_out_of_range_has_position():
    text = "algebroid\n  rank 2\nend\ncocycle\n  phi[0] = 1\nend\n"
    assert _error_at(text) == (5, 7, "component index 0 out of range")


def test_cocycle_rank_mismatch_is_reported_at_the_section_end():
    text = "algebroid\n  rank 2\nend\ncocycle\n  phi[1] = 1\nend\n"
    assert _error_at(text) == (6, 1, "cocycle components do not match the rank")


def test_rank_must_precede_anchor_and_cocycle():
    text = "patch\n  x base\nend\nalgebroid\n  rho[1] = (1)*d/dx\n  rank 1\nend\n"
    assert _error_at(text) == (5, 3, "rank must precede anchor components")
    text = "cocycle\n  phi[1] = 1\nend\nalgebroid\n  rank 1\nend\n"
    assert _error_at(text) == (2, 3, "rank must precede cocycle components")


def test_opposite_structure_entries_do_not_cancel():
    text = "algebroid\n  rank 2\n  c[1,2] = (1)*e_2\n  c[2,1] = (1)*e_2\nend\n"
    assert _error_at(text) == (4, 3, "second entry for c[2,1] or c[1,2]")


def test_repeated_structure_entry_is_not_summed():
    text = "algebroid\n  rank 2\n  c[1,2] = (1)*e_2\n  c[1,2] = (1)*e_2\nend\n"
    assert _error_at(text) == (4, 3, "second entry for c[1,2] or c[2,1]")


def test_repeated_cocycle_entry_is_not_overwritten():
    text = "algebroid\n  rank 1\nend\ncocycle\n  phi[1] = 1\n  phi[1] = 0\nend\n"
    assert _error_at(text) == (6, 3, "second entry for phi[1]")


def test_repeated_anchor_and_rank_entries_rejected():
    text = ("patch\n  x base\nend\nalgebroid\n  rank 1\n"
            "  rho[1] = (1)*d/dx\n  rho[1] = (2)*d/dx\nend\n")
    assert _error_at(text) == (7, 3, "second entry for rho[1]")
    assert _error_at("algebroid\n  rank 2\n  rank 3\nend\n") == (
        3, 3, "second entry for rank")


@pytest.mark.parametrize("before", [
    "algebroid\n  rank 2\n  c[1,2] = (1)*e_2\nend\n",
    "algebroid\n  rank 1\nend\ncocycle\n  phi[1] = 1\nend\n",
    "jacobi\n  lambda = 0\nend\n",
])
def test_patch_after_another_section_fails_at_its_token(before):
    line = before.count("\n") + 1
    assert _error_at(before + "patch\n  x base\nend\n") == (
        line, 1, "patch must come before every other section")


def test_minus_signs_in_sums():
    spec = parse_spec("patch\n  x base\n  y base\nend\n"
                      "algebroid\n  rank 2\n  c[1,2] = -e_2 - x*e_1\n"
                      "  rho[1] = -(2)*d/dx - -d/dy\nend\n"
                      "jacobi\n  lambda = (1)*d/dx^d/dy - (3)*d/dx^d/dy\n"
                      "  efield = -d/dx - x*d/dy\nend\n")
    chart = spec.chart
    x = ExpPoly.var(chart, "x")
    base = spec.base_chart()
    assert spec.structure == {(1, 2, 2): ExpPoly.const(base, -1),
                              (1, 2, 1): -ExpPoly.var(base, "x")}
    assert spec.anchor == {(0, 1): ExpPoly.const(base, -2),
                           (1, 1): ExpPoly.const(base, 1)}
    assert spec.lam.comps == {(0, 1): ExpPoly.const(chart, -2)}
    assert spec.e_field.comps == {(0,): ExpPoly.const(chart, -1), (1,): -x}
