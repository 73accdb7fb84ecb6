"""Graded tensors: wedge, exterior derivative, interior product, the
Schouten bracket and its axioms, sharp/pairing, nondegeneracy."""

import itertools
import random

import pytest

import linjacobi.exterior as exterior
from linjacobi import (Chart, DiffForm, ExpPoly, GradeError, Multivector,
                       check_nondegenerate, exterior_d, interior,
                       lie_derivative, pairing, sharp, sn_bracket)

from conftest import base_chart, random_multivector, random_poly

R3 = base_chart(3)
R4 = base_chart(4)


def _v(chart, name):
    return ExpPoly.var(chart, name)


# -- wedge ------------------------------------------------------------------

def test_wedge_orders_indices_with_sign():
    a = Multivector.basis(R3, "x2").wedge(Multivector.basis(R3, "x1"))
    assert a.comps == {(0, 1): ExpPoly.const(R3, -1)}


def test_wedge_repeated_factor_vanishes():
    dx = DiffForm.basis(R3, "x1")
    assert dx.wedge(dx).is_zero


def test_wedge_graded_commutativity():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        P = random_multivector(rng, R4, p)
        Q = random_multivector(rng, R4, q)
        sign = -1 if (p * q) % 2 else 1
        assert P.wedge(Q) == sign * Q.wedge(P)


def test_wedge_associativity():
    rng = random.Random(8)
    for _ in range(40):
        a = random_multivector(rng, R4, 1)
        b = random_multivector(rng, R4, 1)
        c = random_multivector(rng, R4, 2)
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)


# -- exterior derivative ----------------------------------------------------

def test_d_of_function_is_gradient():
    f = _v(R3, "x1") * _v(R3, "x2")
    df = exterior_d(f)
    assert df.comps == {(0,): _v(R3, "x2"), (1,): _v(R3, "x1")}


def test_d_squared_zero():
    rng = random.Random(9)
    for _ in range(60):
        grade = rng.randint(0, 2)
        w = random_multivector(rng, R4, grade)
        if grade:
            w = DiffForm(R4, grade, w.comps)
        assert exterior_d(exterior_d(w)).is_zero


def test_d_leibniz_on_forms():
    rng = random.Random(10)
    for _ in range(40):
        a = DiffForm(R4, 1, random_multivector(rng, R4, 1).comps)
        b = DiffForm(R4, 1, random_multivector(rng, R4, 1).comps)
        lhs = exterior_d(a.wedge(b))
        rhs = exterior_d(a).wedge(b) - a.wedge(exterior_d(b))
        assert lhs == rhs


# -- interior product and Cartan formula ------------------------------------

def test_interior_single_contraction():
    dx_dy = DiffForm.basis(R3, "x1").wedge(DiffForm.basis(R3, "x2"))
    got = interior(Multivector.basis(R3, "x1"), dx_dy)
    assert got == DiffForm.basis(R3, "x2")


def test_interior_full_contraction_scalar():
    dx_dy = DiffForm.basis(R3, "x1").wedge(DiffForm.basis(R3, "x2"))
    X = Multivector.basis(R3, "x1").wedge(Multivector.basis(R3, "x2"))
    assert interior(X, dx_dy) == ExpPoly.const(R3, 1)


def test_cartan_formula():
    rng = random.Random(11)
    for _ in range(40):
        X = random_multivector(rng, R4, 1)
        w = DiffForm(R4, 2, random_multivector(rng, R4, 2).comps)
        lhs = lie_derivative(X, w)
        rhs = interior(X, exterior_d(w)) + exterior_d(interior(X, w))
        assert lhs == rhs


# -- Schouten bracket -------------------------------------------------------

def test_bracket_of_vector_fields_is_lie_bracket():
    rng = random.Random(12)
    for _ in range(40):
        X = random_multivector(rng, R3, 1)
        Y = random_multivector(rng, R3, 1)
        f = random_poly(rng, R3)
        lhs = sn_bracket(X, Y).apply(f)
        rhs = X.apply(Y.apply(f)) - Y.apply(X.apply(f))
        assert lhs == rhs


def test_bracket_vector_with_function():
    X = Multivector(R3, 1, {(0,): _v(R3, "x2")})
    f = _v(R3, "x1") * _v(R3, "x1")
    assert sn_bracket(X, f) == 2 * _v(R3, "x1") * _v(R3, "x2")


def test_bracket_of_two_functions_is_the_zero_function():
    chart = Chart((("x", "base"),))
    x = ExpPoly.var(chart, "x")
    assert sn_bracket(x, x) == ExpPoly.zero(chart)
    assert sn_bracket(Multivector(chart, 0, {(): x}), x) == ExpPoly.zero(chart)


def test_graded_antisymmetry():
    rng = random.Random(13)
    for _ in range(60):
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        P = random_multivector(rng, R4, p)
        Q = random_multivector(rng, R4, q)
        sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
        assert sn_bracket(P, Q) == (-sign) * sn_bracket(Q, P)


def test_graded_jacobi():
    rng = random.Random(14)
    for _ in range(40):
        p, q, r = (rng.randint(1, 2) for _ in range(3))
        P = random_multivector(rng, R4, p, max_terms=1, max_deg=1)
        Q = random_multivector(rng, R4, q, max_terms=1, max_deg=1)
        R = random_multivector(rng, R4, r, max_terms=1, max_deg=1)
        s1 = -1 if ((p - 1) * (r - 1)) % 2 else 1
        s2 = -1 if ((q - 1) * (p - 1)) % 2 else 1
        s3 = -1 if ((r - 1) * (q - 1)) % 2 else 1
        total = (s1 * sn_bracket(P, sn_bracket(Q, R))
                 + s2 * sn_bracket(Q, sn_bracket(R, P))
                 + s3 * sn_bracket(R, sn_bracket(P, Q)))
        assert total.is_zero


def test_leibniz_rule():
    rng = random.Random(15)
    for _ in range(40):
        p, q, r = (rng.randint(1, 2) for _ in range(3))
        P = random_multivector(rng, R4, p, max_terms=1, max_deg=1)
        Q = random_multivector(rng, R4, q, max_terms=1, max_deg=1)
        R = random_multivector(rng, R4, r, max_terms=1, max_deg=1)
        sign = -1 if ((p - 1) * r) % 2 else 1
        lhs = sn_bracket(P, Q.wedge(R))
        rhs = sign * sn_bracket(P, Q).wedge(R) + Q.wedge(sn_bracket(P, R))
        assert lhs == rhs


def test_poisson_iff_coordinate_jacobi():
    """[L,L] = 0 exactly when the induced bracket of coordinate
    functions satisfies the Jacobi identity, in both directions."""
    v = lambda n: _v(R3, n)
    cases = [
        (Multivector(R3, 2, {(0, 1): v("x3"), (0, 2): -v("x2"),
                             (1, 2): v("x1")}), True),
        (Multivector(R3, 2, {(0, 1): v("x1"), (0, 2): v("x2")}), False),
    ]
    for L, expect_poisson in cases:
        assert sn_bracket(L, L).is_zero is expect_poisson
        jac_ok = True
        names = R3.names
        bra = lambda f, g: pairing(L, exterior_d(f), exterior_d(g))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    f, g, h = (_v(R3, names[i]) for i in (a, b, c))
                    cyc = bra(bra(f, g), h) + bra(bra(g, h), f) + bra(bra(h, f), g)
                    if not cyc.is_zero:
                        jac_ok = False
        assert jac_ok is expect_poisson


# -- sharp, pairing, nondegeneracy ------------------------------------------

def _canonical(chart):
    """sum d/dmu_i ^ d/dx_i on a chart (x..., mu...)."""
    m = chart.dim // 2
    one = ExpPoly.const(chart, 1)
    return Multivector(chart, 2, {(m + i, i): one for i in range(m)})


def test_sharp_of_canonical_structure():
    chart = Chart((("x", "base"), ("mu", "fiber")))
    L = _canonical(chart)
    got = sharp(L, DiffForm.basis(chart, "x"))
    assert got == -Multivector.basis(chart, "mu")
    assert sharp(L, DiffForm.basis(chart, "mu")) == Multivector.basis(chart, "x")


def test_pairing_antisymmetric():
    chart = Chart((("x", "base"), ("mu", "fiber")))
    L = _canonical(chart)
    dx, dmu = DiffForm.basis(chart, "x"), DiffForm.basis(chart, "mu")
    assert pairing(L, dmu, dx) == ExpPoly.const(chart, 1)
    assert pairing(L, dx, dmu) == ExpPoly.const(chart, -1)


def test_nondegeneracy_verdicts():
    chart = Chart((("x1", "base"), ("x2", "base"),
                   ("mu1", "fiber"), ("mu2", "fiber")))
    assert check_nondegenerate(_canonical(chart)) == "nondegenerate_constant"
    degenerate = Multivector(chart, 2, {(0, 1): ExpPoly.const(chart, 1)})
    assert check_nondegenerate(degenerate) == "degenerate"
    wobbly = Multivector(chart, 2, {(2, 0): ExpPoly.const(chart, 1),
                                    (3, 1): _v(chart, "x1")})
    assert check_nondegenerate(wobbly) == "indeterminate"


def test_odd_dimension_always_degenerate():
    L = Multivector(R3, 2, {(0, 1): ExpPoly.const(R3, 1)})
    assert check_nondegenerate(L) == "degenerate"


def test_empty_bivector_is_nondegenerate():
    # the Pfaffian of the 0x0 matrix is 1
    L = Multivector.zero(Chart(()), 2)
    assert check_nondegenerate(L) == "nondegenerate_constant"


def test_grade_errors():
    with pytest.raises(GradeError):
        Multivector(R3, 2, {(0,): ExpPoly.const(R3, 1)})


# -- results of the unchecked constructor -----------------------------------

XYZ = base_chart(3)
XMU = Chart((("x", "base"), ("y", "base"), ("mu", "fiber")))
XT = Chart((("x", "base"), ("y", "base"), ("t", "time")))


def _random_tensor(rng, cls, chart, grade):
    """A random Multivector or DiffForm; on a time chart some components
    carry e^{kt} factors."""
    if grade == 0:
        comps = {(): random_poly(rng, chart)}
    else:
        comps = random_multivector(rng, chart, grade).comps
    if chart.has_time:
        comps = {i: p * ExpPoly.s_power(chart, rng.randint(-2, 2))
                 for i, p in comps.items()}
    return cls(chart, grade, comps)


def _assert_graded_canonical(r):
    assert r == type(r)(r.chart, r.grade, r.comps)
    for idx, p in r.comps.items():
        assert not p.is_zero
        assert len(idx) == r.grade
        assert all(a < b for a, b in zip(idx, idx[1:]))
        assert all(0 <= i < r.chart.dim for i in idx)


def test_graded_results_are_canonical():
    """Sums, differences, negations, scalings, wedges and Schouten
    brackets and exterior derivatives skip the validating constructor; each result must still be
    what that constructor would make of its components."""
    rng = random.Random(20241)
    for chart in (XYZ, XMU, XT):
        for cls in (Multivector, DiffForm):
            for _ in range(25):
                p, q = rng.randint(0, 2), rng.randint(0, 2)
                A = _random_tensor(rng, cls, chart, p)
                B = _random_tensor(rng, cls, chart, p)
                C = _random_tensor(rng, cls, chart, q)
                f = random_poly(rng, chart)
                c = rng.choice([-2, -1, 0, 1, 3])
                results = [A + B, A - B, A - A, -A, A * f, f * A, A * c, c * A,
                           0 * A, A.wedge(C), A.wedge(A)]
                if cls is DiffForm:
                    results += [exterior_d(A), exterior_d(f), exterior_d(0 * f)]
                if cls is Multivector and p and q:
                    results += [sn_bracket(A, C), sn_bracket(A, A)]
                for r in results:
                    _assert_graded_canonical(r)


def test_schouten_bracket_oracles_on_every_chart_kind():
    """[P,Q] = -(-1)^((p-1)(q-1)) [Q,P];  [X,f] = X(f);  [X,Y]^l =
    X(Y^l) - Y(X^l);  graded Jacobi on vector, vector, bivector; on
    charts with fiber and time coordinates (d/dt also acts on e^{kt})."""
    rng = random.Random(20242)
    for chart in (XYZ, XMU, XT):
        for _ in range(15):
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            P = _random_tensor(rng, Multivector, chart, p)
            Q = _random_tensor(rng, Multivector, chart, q)
            sign = -1 if ((p - 1) * (q - 1)) % 2 else 1
            assert sn_bracket(P, Q) == (-sign) * sn_bracket(Q, P)

            X = _random_tensor(rng, Multivector, chart, 1)
            Y = _random_tensor(rng, Multivector, chart, 1)
            f = _random_tensor(rng, Multivector, chart, 0).as_function()
            assert sn_bracket(X, f) == X.apply(f)
            lie = Multivector(chart, 1, {
                (l,): X.apply(Y.component((l,))) - Y.apply(X.component((l,)))
                for l in range(chart.dim)})
            assert sn_bracket(X, Y) == lie

            L = _random_tensor(rng, Multivector, chart, 2)
            total = (sn_bracket(X, sn_bracket(Y, L))
                     + sn_bracket(Y, sn_bracket(L, X))
                     + sn_bracket(L, sn_bracket(X, Y)))
            assert total.is_zero


# -- self-brackets of even grade --------------------------------------------

# seven coordinates, so that [P, P] of a 4-vector P (grade 7) can be nonzero
X3MU3T = Chart(tuple((f"x{i}", "base") for i in (1, 2, 3))
               + tuple((f"mu{i}", "fiber") for i in (1, 2, 3)) + (("t", "time"),))


def _dense_multivector(rng, chart, grade):
    """A random multivector with up to four nonzero components of up to
    three terms each; on a time chart each carries an e^{kt} factor."""
    idxs = list(itertools.combinations(range(chart.dim), grade))
    comps = {}
    for idx in rng.sample(idxs, min(len(idxs), rng.randint(1, 4))):
        p = random_poly(rng, chart, max_terms=3)
        if chart.has_time:
            p = p * ExpPoly.s_power(chart, rng.randint(-2, 2))
        comps[idx] = p
    return Multivector(chart, grade, comps)


def test_even_self_bracket_equals_the_two_half_bracket():
    """sn_bracket(L, L) takes one half of the odd-variable formula and
    doubles it when L has even grade; a copy of L is a different object,
    so bracketing L with it computes both halves."""
    rng = random.Random(20243)
    nonzero = {0: 0, 2: 0, 4: 0}
    for chart, grade, n in ((XYZ, 2, 25), (XMU, 2, 25), (XT, 2, 25), (XT, 0, 5),
                            (X3MU3T, 2, 15), (X3MU3T, 4, 30)):
        for _ in range(n):
            L = _dense_multivector(rng, chart, grade)
            copy = Multivector(chart, grade, dict(L.comps))
            assert copy is not L and copy == L
            got = sn_bracket(L, L)
            assert got == sn_bracket(L, copy)
            nonzero[grade] += not got.is_zero
    assert nonzero[2] >= 30 and nonzero[4] >= 2


def test_bivector_self_bracket_makes_one_half_call(monkeypatch):
    calls = []
    half = exterior._add_odd_terms

    def spy(*args):
        calls.append(args)
        half(*args)

    monkeypatch.setattr(exterior, "_add_odd_terms", spy)
    x, y = _v(XT, "x"), _v(XT, "y")
    L = Multivector(XT, 2, {(0, 1): x * y, (0, 2): y * ExpPoly.s_power(XT, 1)})
    assert not sn_bracket(L, L).is_zero
    assert len(calls) == 1
    sn_bracket(L, Multivector(XT, 2, dict(L.comps)))
    assert len(calls) == 3


# -- contraction against nested single contractions -------------------------

def _interior_vector_ref(X, w):
    """Single contraction into the first slot: (i_X w)(...) = w(X, ...)."""
    comps = {}
    for idx, p in w.comps.items():
        for pos, l in enumerate(idx):
            xl = X.comps.get((l,))
            if xl is None:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            q = xl * p if pos % 2 == 0 else -(xl * p)
            comps[rest] = comps.get(rest, ExpPoly.zero(w.chart)) + q
    return DiffForm(w.chart, w.grade - 1, comps)


def _interior_ref(P, w):
    """Full contraction built by nesting single contractions along the
    basis vectors of each component of P, left to right."""
    chart = w.chart
    out = DiffForm.zero(chart, w.grade - P.grade)
    for idx, p in P.comps.items():
        cur = w
        for l in idx:
            cur = _interior_vector_ref(Multivector.basis(chart, chart.names[l]), cur)
        out = out + p * cur
    return out.as_function() if out.grade == 0 else out


def _pairing_ref(L, a, b):
    """L(a, b) summed by hand over the components of L."""
    out = ExpPoly.zero(L.chart)
    for (i, j), p in L.comps.items():
        ai, aj = a.comps.get((i,)), a.comps.get((j,))
        bi, bj = b.comps.get((i,)), b.comps.get((j,))
        if ai is not None and bj is not None:
            out = out + p * ai * bj
        if aj is not None and bi is not None:
            out = out - p * aj * bi
    return out


def _dense_tensor(rng, cls, chart, grade):
    """A random tensor with a random polynomial at every index."""
    comps = {idx: random_poly(rng, chart)
             for idx in itertools.combinations(range(chart.dim), grade)}
    if chart.has_time:
        comps = {i: p * ExpPoly.s_power(chart, rng.randint(-2, 2))
                 for i, p in comps.items()}
    return cls(chart, grade, comps)


def test_interior_matches_nested_single_contractions():
    rng = random.Random(20261)
    nonzero = 0
    for n in range(1200):
        chart = (XYZ, XMU, XT, R4)[n % 4]
        make = (_random_tensor, _dense_tensor)[n % 3 == 0]
        k = rng.randint(0, chart.dim)
        p = rng.randint(0, k)
        P = make(rng, Multivector, chart, p)
        w = make(rng, DiffForm, chart, k)
        got = interior(P, w)
        assert got == _interior_ref(P, w)
        if p < k:
            _assert_graded_canonical(got)
        nonzero += not got.is_zero
    assert nonzero >= 500


def test_pairing_is_the_contraction_of_the_wedge():
    rng = random.Random(20262)
    nonzero = 0
    for n in range(1200):
        chart = (XYZ, XMU, XT, R4)[n % 4]
        L = _dense_tensor(rng, Multivector, chart, 2)
        a = _dense_tensor(rng, DiffForm, chart, 1)
        b = _random_tensor(rng, DiffForm, chart, 1)
        got = pairing(L, a, b)
        assert got == _pairing_ref(L, a, b) == interior(L, a.wedge(b))
        assert pairing(L, b, a) == -got
        nonzero += not got.is_zero
    assert nonzero >= 450


def test_lie_derivative_of_a_function_is_the_derivation():
    rng = random.Random(20263)
    for chart in (XYZ, XMU, XT):
        for _ in range(20):
            X = _random_tensor(rng, Multivector, chart, 1)
            f = _random_tensor(rng, DiffForm, chart, 0).as_function()
            assert (lie_derivative(X, DiffForm.from_function(f))
                    == DiffForm.from_function(X.apply(f)))
    # X(f) = 0 keeps the grade of a function
    assert (lie_derivative(Multivector.zero(XYZ, 1), DiffForm.from_function(_v(XYZ, "x1")))
            == DiffForm.zero(XYZ, 0))


# -- the memoised Pfaffian against the plain recursive expansion ---------------

def _pfaffian_ref(mat, chart):
    """Pfaffian by recursive expansion along the first row, each minor
    copied out and expanded afresh: O((n-1)!!) products."""
    n = len(mat)
    if n == 0:
        return ExpPoly.const(chart, 1)
    if n % 2 == 1:
        return ExpPoly.zero(chart)
    if n == 2:
        return mat[0][1]
    out = ExpPoly.zero(chart)
    for pos, k in enumerate(range(1, n)):
        keep = [i for i in range(1, n) if i != k]
        term = mat[0][k] * _pfaffian_ref([[mat[r][c] for c in keep] for r in keep], chart)
        out = out + term if pos % 2 == 0 else out - term
    return out


def _antisymmetric(rng, chart, n):
    """An n x n antisymmetric matrix of random polynomials, some zero."""
    mat = [[ExpPoly.zero(chart)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = random_poly(rng, chart) if rng.random() < 0.8 else ExpPoly.zero(chart)
            mat[i][j], mat[j][i] = p, -p
    return mat


def test_memoised_pfaffians_match_the_recursive_expansion():
    """Pf of the whole matrix and of every minor without two rows, read
    from one memo, on matrices of every size up to 8 x 8."""
    rng = random.Random(140)
    chart = base_chart(2)
    for n in range(9):
        for _ in range(3 if n < 8 else 2):
            mat = _antisymmetric(rng, chart, n)
            pf = exterior._pfaffians(mat, chart)
            rows = tuple(range(n))
            assert pf(rows) == _pfaffian_ref(mat, chart)
            for a, b in itertools.combinations(rows, 2):
                keep = [r for r in rows if r != a and r != b]
                minor = [[mat[r][c] for c in keep] for r in keep]
                assert pf(tuple(keep)) == _pfaffian_ref(minor, chart), (n, a, b)
