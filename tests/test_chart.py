"""Charts: queries computed once, equality and hash by coordinates."""

import pickle

import pytest

from linjacobi import Chart, ChartError


def test_separately_built_equal_charts_are_equal_and_hash_equal():
    coords = (("x", "base"), ("mu", "fiber"), ("t", "time"))
    a, b = Chart(coords), Chart(list(coords))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a == a
    assert len({a, b}) == 1


def test_charts_differing_in_a_role_are_not_equal():
    a = Chart((("x", "base"), ("y", "fiber")))
    b = Chart((("x", "base"), ("y", "base")))
    assert a != b
    assert a != a.coords


def test_queries():
    c = Chart((("x", "base"), ("mu", "fiber"), ("t", "time"), ("nu", "fiber")))
    assert c.dim == 4
    assert c.names == ("x", "mu", "t", "nu")
    assert c.roles == ("base", "fiber", "time", "fiber")
    assert c.fiber_indices == (1, 3) and c.fiber_names == ("mu", "nu")
    assert c.time_index == 2 and c.has_time
    assert c.index("nu") == 3 and c.has("mu") and not c.has("y")
    with pytest.raises(ChartError):
        c.index("y")
    plain = c.restrict(("base", "fiber"))
    assert plain.time_index is None and not plain.has_time
    assert plain.extend("s", "time").time_index == 3


def test_chart_is_immutable_and_validated():
    c = Chart((("x", "base"),))
    with pytest.raises(AttributeError):
        c.coords = ()
    assert pickle.loads(pickle.dumps(c)) == c
    with pytest.raises(ChartError):
        Chart((("x", "base"), ("x", "fiber")))
    with pytest.raises(ChartError):
        Chart((("x", "side"),))
    with pytest.raises(ChartError):
        Chart((("t", "time"), ("s", "time")))
