"""Algebroid patches: axiom checks, section brackets, cocycles, and the
two induced constructions on cotangent bundles."""

import random

import pytest

from linjacobi import (AlgebroidError, AlgebroidPatch, Chart, Cocycle,
                       ExpPoly, Multivector, Section, anchor_apply,
                       bracket_sections, cotangent_algebroid,
                       jacobi_algebroid, verify_algebroid, verify_cocycle)

from conftest import base_chart, count_calls, random_poly

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
        assert [p.terms for p in e.components] == [
            {((), 0): 1} if j == i else {} for j in (1, 2)]


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
