"""The check contract of Report.timed: a block yields a list of residual
lines, and the check passes exactly when the block adds none."""

import pytest

from linjacobi.report import FAIL, PASS, Check, Report


def test_no_line_is_a_pass_with_empty_residual():
    rep = Report()
    with rep.timed("clean") as bad:
        assert bad == []
    (c,) = rep.checks
    assert (c.name, c.verdict, c.residual) == ("clean", PASS, "")
    assert rep.passed and rep.n_pass == 1 and rep.n_fail == 0


def test_lines_are_a_fail_joined_in_order():
    rep = Report()
    with rep.timed("dirty") as bad:
        bad.append("(1,2): x")
        bad.extend(["(1,3): -y", "(2,3): 1/2"])
    (c,) = rep.checks
    assert (c.name, c.verdict, c.residual) == ("dirty", FAIL, "(1,2): x; (1,3): -y; (2,3): 1/2")
    assert not rep.passed and rep.n_fail == 1


def test_ms_is_nonnegative_wall_time():
    rep = Report()
    for name in ("a", "b"):
        with rep.timed(name):
            sum(range(1000))
    assert [c.name for c in rep.checks] == ["a", "b"]
    assert all(isinstance(c.ms, float) and c.ms >= 0 for c in rep.checks)


def test_exception_propagates_and_records_no_check():
    rep = Report()
    with rep.timed("before") as bad:
        bad.append("r")
    with pytest.raises(ZeroDivisionError):
        with rep.timed("raises") as bad:
            bad.append("never recorded")
            1 / 0
    assert rep.checks == [Check("before", FAIL, "r", rep.checks[0].ms)]
