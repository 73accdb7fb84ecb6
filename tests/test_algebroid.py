"""Algebroid patches: axiom checks, section brackets, cocycles, and the
two induced constructions on cotangent bundles."""

import random

import pytest

import linjacobi.algebroid as algebroid
import linjacobi.exterior as exterior
import linjacobi.jacobi as jacobi
from linjacobi import (CATALOG, AlgebroidError, AlgebroidPatch, Chart,
                       ChartMismatchError, Cocycle, DiffForm, ExpPoly,
                       Multivector, Report, Section,
                       anchor_apply, bracket_sections, build_case,
                       cotangent_algebroid, exterior_d, interior,
                       jacobi_algebroid, lie_derivative, pairing, psi_forward,
                       sharp, verify_algebroid, verify_cocycle)

from conftest import base_chart, count_calls, random_multivector, random_poly

POINT = Chart(())
R3 = base_chart(3)


def so3():
    return AlgebroidPatch(POINT, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1})


def aff1():
    return AlgebroidPatch(POINT, 2, {(1, 2, 2): 1})


def test_structure_stored_skew():
    A = AlgebroidPatch(POINT, 2, {(2, 1, 2): 1})
    assert A.c(1, 2, 2) == ExpPoly.const(POINT, -1)
    assert A.c(2, 1, 2) == ExpPoly.const(POINT, 1)
    assert A.c(1, 1, 2).is_zero


def test_diagonal_entry_rejected():
    with pytest.raises(AlgebroidError):
        AlgebroidPatch(POINT, 2, {(1, 1, 2): 1})


def test_verify_passes_on_lie_algebras():
    for A in (so3(), aff1(), AlgebroidPatch(POINT, 3, {(1, 2, 3): 1})):
        rep = verify_algebroid(A)
        assert rep.passed, rep.to_text()


def test_verify_catches_broken_jacobi():
    # [e1,e2] = e1 and [e2,e3] = e2 leave a cyclic defect of -e1
    A = AlgebroidPatch(POINT, 3, {(1, 2, 1): 1, (2, 3, 2): 1})
    rep = verify_algebroid(A)
    assert rep.check("jacobi_identity").verdict == "fail"
    assert "e1" in rep.check("jacobi_identity").residual


def test_verify_catches_anchor_mismatch():
    chart = base_chart(1)
    A = AlgebroidPatch(chart, 2, anchor={(0, 1): 1,
                                         (0, 2): ExpPoly.var(chart, "x1")})
    # [e1,e2] = 0 but [rho(e1), rho(e2)] = d/dx1
    rep = verify_algebroid(A)
    assert rep.check("anchor_morphism").verdict == "fail"


def test_bracket_sections_leibniz():
    rng = random.Random(21)
    chart = base_chart(2)
    A = AlgebroidPatch(chart, 2, {(1, 2, 2): ExpPoly.var(chart, "x1")},
                       anchor={(0, 1): 1})
    for _ in range(25):
        f = random_poly(rng, chart)
        mu = Section(A, (random_poly(rng, chart), random_poly(rng, chart)))
        eta = Section(A, (random_poly(rng, chart), random_poly(rng, chart)))
        lhs = bracket_sections(A, mu, eta.scale(f))
        rho_mu_f = anchor_apply(A, mu).apply(f)
        rhs = bracket_sections(A, mu, eta).scale(f) + eta.scale(rho_mu_f)
        assert lhs == rhs


def test_cocycle_condition():
    A = aff1()
    assert verify_cocycle(A, Cocycle.from_scalars(POINT, (5, 0))).passed
    rep = verify_cocycle(A, Cocycle.from_scalars(POINT, (0, 1)))
    assert not rep.passed


def test_constant_cocycles_on_so3_must_vanish():
    A = so3()
    assert verify_cocycle(A, Cocycle.zero(POINT, 3)).passed
    for bad in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert not verify_cocycle(A, Cocycle.from_scalars(POINT, bad)).passed


def test_cotangent_algebroid_of_linear_bivector():
    v = lambda n: ExpPoly.var(R3, n)
    L = Multivector(R3, 2, {(0, 1): v("x3"), (0, 2): -v("x2"), (1, 2): v("x1")})
    A = cotangent_algebroid(L)
    assert A.rank == 3
    assert A.c(1, 2, 3) == ExpPoly.const(R3, 1)
    assert A.c(2, 3, 1) == ExpPoly.const(R3, 1)
    assert A.c(1, 3, 2) == ExpPoly.const(R3, -1)
    assert A.rho(1, 1) == v("x3")      # sharp(dx1) = x3 d2 - x2 d3
    assert A.rho(2, 1) == -v("x2")
    assert verify_algebroid(A).passed


def test_cotangent_algebroid_rejects_non_poisson():
    v = lambda n: ExpPoly.var(R3, n)
    L = Multivector(R3, 2, {(0, 1): v("x1"), (0, 2): v("x2")})
    with pytest.raises(AlgebroidError):
        cotangent_algebroid(L)


def test_jacobi_algebroid_of_vector_field():
    chart = base_chart(1)
    E = Multivector(chart, 1, {(0,): ExpPoly.const(chart, 1)})
    A = jacobi_algebroid(Multivector.zero(chart, 2), E)
    assert A.rank == 2
    assert verify_algebroid(A).passed
    # anchor: #(dx, 0) = sharp(0) = 0, #(0, 1) = E
    assert A.rho(0, 1).is_zero
    assert A.rho(0, 2) == ExpPoly.const(chart, 1)


def test_section_rendering():
    A = aff1()
    s = Section(A, (2, -1))
    assert s.render() == "2 e1 + -1 e2"
    assert Section(A, (0, 0)).render() == "0"


def test_basis_sections_are_canonical():
    A = aff1()
    for i in (1, 2):
        e = Section.basis(A, i)
        assert e == Section(A, tuple(1 if j == i else 0 for j in (1, 2)))
        assert [list(p.monomials()) for p in e.components] == [
            [(((), 0), 1)] if j == i else [] for j in (1, 2)]


def _dense_bracket(A, mu, eta):
    """sum_ij mu_i eta_j c_ij^k + sum_li (mu_i rho^l_i d_l eta_k
    - eta_i rho^l_i d_l mu_k), every product formed."""
    chart, n = A.base_chart, A.rank
    m, e = mu.components, eta.components
    out = []
    for k in range(1, n + 1):
        acc = ExpPoly.zero(chart)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc = acc + m[i - 1] * e[j - 1] * A.c(i, j, k)
            for l, name in enumerate(chart.names):
                r = A.rho(l, i)
                acc = acc + m[i - 1] * r * e[k - 1].partial(name)
                acc = acc - e[i - 1] * r * m[k - 1].partial(name)
        out.append(acc)
    return Section(A, out)


def _random_patch(rng, chart, n):
    structure, anchor = {}, {}
    for _ in range(rng.randint(1, 2 * n) if n > 1 else 0):
        i, j = rng.sample(range(1, n + 1), 2)
        structure[(i, j, rng.randint(1, n))] = random_poly(rng, chart)
    for _ in range(rng.randint(0, n)):
        anchor[(rng.randrange(chart.dim), rng.randint(1, n))] = random_poly(rng, chart)
    return AlgebroidPatch(chart, n, structure, anchor)


def test_bracket_sections_matches_dense_leibniz_formula():
    rng = random.Random(22)
    xt = Chart((("x", "base"), ("t", "time")))
    for chart in (base_chart(2), xt):
        for _ in range(30):
            n = rng.randint(1, 4)
            A = _random_patch(rng, chart, n)
            mu, eta = (Section(A, [random_poly(rng, chart) if rng.random() < 0.6
                                   else 0 for _ in range(n)]) for _ in range(2))
            assert bracket_sections(A, mu, eta) == _dense_bracket(A, mu, eta)
            assert bracket_sections(A, mu, mu).is_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_algebroid_brackets_each_basis_pair_once(monkeypatch, n):
    """n diagonal brackets, one per pair i < j, and three outer brackets
    per triple: 22 calls at rank 4 (re-bracketing every pair made 34)."""
    A = _random_patch(random.Random(23), base_chart(2), n)
    expected = verify_algebroid(A)
    calls = count_calls(monkeypatch, bracket_sections)
    rep = verify_algebroid(A)
    assert len(calls) == n + n * (n - 1) // 2 + n * (n - 1) * (n - 2) // 2
    assert rep.to_text() == expected.to_text()


# -- the bivector algebroids against their generic formulas -----------------

def _jacobi_algebroid_ref(L, E):
    """T*M x R by the generic bracket formula on every basis pair, with
    no Jacobi gate:

        [(a,f),(b,g)] = (L_{#a} b - L_{#b} a - d(L(a,b))
                           + f L_E b - g L_E a - i_E(a ^ b),
                         L(b,a) + #a(g) - #b(f) + f E(g) - g E(f)),
        #(a,f) = #_L(a) + f E."""
    chart = L.chart
    m = chart.dim
    n = m + 1

    def basis_pair(i):
        if i <= m:
            return DiffForm.basis(chart, chart.names[i - 1]), ExpPoly.zero(chart)
        return DiffForm.zero(chart, 1), ExpPoly.const(chart, 1)

    structure, anchor = {}, {}
    for i in range(1, n + 1):
        a, f = basis_pair(i)
        sa = sharp(L, a)
        for j in range(i + 1, n + 1):
            b, g = basis_pair(j)
            sb = sharp(L, b)
            first = lie_derivative(sa, b) - lie_derivative(sb, a)
            first = first - exterior_d(pairing(L, a, b))
            first = first + f * lie_derivative(E, b) - g * lie_derivative(E, a)
            iE = interior(E, a.wedge(b))
            first = first - (DiffForm.from_function(iE) if isinstance(iE, ExpPoly) else iE)
            second = pairing(L, b, a) + sa.apply(g) - sb.apply(f)
            second = second + f * E.apply(g) - g * E.apply(f)
            for (l,), p in first.comps.items():
                structure[(i, j, l + 1)] = p
            structure[(i, j, n)] = second
        for (l,), p in (sa + f * E).comps.items():
            anchor[(l, i)] = p
    names = [f"dx_{nme}" for nme in chart.names] + ["unit"]
    return AlgebroidPatch(chart, n, structure, anchor, basis_names=names)


def _cotangent_algebroid_ref(L):
    """T*M of a bivector: c_ij^k = d_k L^ij and rho(dx^i) = sharp(L, dx^i)."""
    chart = L.chart
    structure, anchor = {}, {}
    for (i, j), p in L.comps.items():
        for k, name in enumerate(chart.names):
            structure[(i + 1, j + 1, k + 1)] = p.partial(name)
    for i, name in enumerate(chart.names):
        for (l,), p in sharp(L, DiffForm.basis(chart, name)).comps.items():
            anchor[(l, i + 1)] = p
    return AlgebroidPatch(chart, chart.dim, structure, anchor,
                          basis_names=[f"dx_{n}" for n in chart.names])


def _catalog_jacobi_pair(name):
    """The case's Jacobi pair moved to a chart whose coordinates are all
    base coordinates."""
    case = build_case(name)
    J = case.jacobi if case.pair is None else psi_forward(case.pair, case.dual)
    base = Chart(tuple((n, "base") for n in J.chart.names))
    return J.lam.transfer(base), J.e_field.transfer(base)


@pytest.mark.parametrize("name", CATALOG)
def test_bivector_algebroids_of_catalog_pairs_match_the_generic_formula(name):
    L, E = _catalog_jacobi_pair(name)
    A = jacobi_algebroid(L, E)
    assert A == _jacobi_algebroid_ref(L, E)
    assert verify_algebroid(A).passed
    if E.is_zero:
        P = cotangent_algebroid(L)
        assert P == _cotangent_algebroid_ref(L)
        assert verify_algebroid(P).passed


def test_bivector_algebroids_of_random_pairs_match_the_generic_formula(monkeypatch):
    """Random (L, E), most of them not Jacobi, with the Jacobi gate
    bypassed: the closed form is an identity of the formula on any pair."""
    monkeypatch.setattr(jacobi, "verify_jacobi", lambda J: Report())
    rng = random.Random(20265)
    nonzero = 0
    for n in range(300):
        chart = base_chart(1 + n % 3)
        L = random_multivector(rng, chart, 2, max_terms=3)
        E = random_multivector(rng, chart, 1, max_terms=2)
        A = jacobi_algebroid(L, E)
        assert A == _jacobi_algebroid_ref(L, E)
        structure, anchor = algebroid._bivector_data(L)
        assert AlgebroidPatch(chart, chart.dim, structure, anchor, basis_names=[
            f"dx_{c}" for c in chart.names]) == _cotangent_algebroid_ref(L)
        nonzero += bool(A.structure)
    assert nonzero >= 200


def test_jacobi_algebroid_reads_off_components(monkeypatch):
    calls = [count_calls(monkeypatch, fn) for fn in (
        exterior.lie_derivative, exterior.interior, exterior.pairing,
        exterior.sharp, exterior.exterior_d)]
    L, E = _catalog_jacobi_pair("lcs_T*R2")
    assert not E.is_zero and not L.is_zero
    jacobi_algebroid(L, E)
    cotangent_algebroid(_catalog_jacobi_pair("so3")[0])
    assert calls == [[]] * 5


def test_section_sums_pass_a_component_through_where_the_other_is_zero(monkeypatch):
    A = AlgebroidPatch(R3, 3, anchor={(0, 1): 1})
    x1, x2, x3 = (ExpPoly.var(R3, n) for n in R3.names)
    s, t = Section(A, [x1, 0, x2]), Section(A, [0, 0, x3])
    want_sum = Section(A, [x1, 0, x2 + x3])
    want_diff = Section(A, [-x1, 0, x3 - x2])
    adds = []
    for name in ("__add__", "__sub__", "__neg__"):
        op = getattr(ExpPoly, name)
        spy = lambda *args, op=op, name=name: adds.append(name) or op(*args)
        monkeypatch.setattr(ExpPoly, name, spy)
    total = s + t
    assert total.components[0] is s.components[0]
    assert total == want_sum
    assert adds == ["__add__"]
    assert t - s == want_diff
    assert adds == ["__add__", "__neg__", "__sub__"]
    # sections over another base chart are still refused by the ring
    other = AlgebroidPatch(base_chart(2), 3)
    with pytest.raises(ChartMismatchError):
        s + Section(other, [0, 0, 0])
