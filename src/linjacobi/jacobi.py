"""Jacobi structures on a chart: the bracket of functions, the defining
identities, the linearity conditions (C1)/(C2), and the contact-form
construction."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional

from .chart import Chart
from .ring import ChartMismatchError, ExpPoly
from .exterior import (DiffForm, GradeError, Multivector, _pfaffians, exterior_d,
                       pairing, sn_bracket)
from .report import Report


class ContactError(ValueError):
    pass


class JacobiStructure:
    """A bivector/vector pair (lambda, e_field) on a common chart."""

    __slots__ = ("chart", "lam", "e_field")

    def __init__(self, chart: Chart, lam: Multivector, e_field: Multivector):
        if lam.chart != chart or e_field.chart != chart:
            raise ChartMismatchError("components on wrong chart")
        if lam.grade != 2 or e_field.grade != 1:
            raise GradeError("need a bivector and a vector field")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "e_field", e_field)

    def __setattr__(self, name, value):
        raise AttributeError("JacobiStructure is immutable")

    @classmethod
    def poisson(cls, lam: Multivector) -> "JacobiStructure":
        return cls(lam.chart, lam, Multivector.zero(lam.chart, 1))

    @property
    def is_poisson(self) -> bool:
        return self.e_field.is_zero

    def __eq__(self, other):
        if not isinstance(other, JacobiStructure):
            return NotImplemented
        return (self.chart == other.chart and self.lam == other.lam
                and self.e_field == other.e_field)

    def __repr__(self):
        return (f"JacobiStructure(lambda = {self.lam.render()}, "
                f"E = {self.e_field.render()})")


def jacobi_bracket(J: JacobiStructure, f: ExpPoly, g: ExpPoly) -> ExpPoly:
    """{f, g} = lambda(df, dg) + f E(g) - g E(f)."""
    if f.chart != J.chart or g.chart != J.chart:
        raise ChartMismatchError("functions on wrong chart")
    out = pairing(J.lam, exterior_d(f), exterior_d(g))
    out = out + f * J.e_field.apply(g) - g * J.e_field.apply(f)
    return out


def _gen_bracket(J: JacobiStructure, a: str, b: Optional[str]) -> ExpPoly:
    """{a, b} for coordinate names a, b (None for the constant 1), read off
    the components: {x^a, x^b} = lambda^ab + x^a E^b - x^b E^a and
    {x^a, 1} = -E^a."""
    E = J.e_field
    ia = J.chart.index(a)
    if b is None:
        return -E.component((ia,))
    ib = J.chart.index(b)
    return (J.lam.component((ia, ib)) + ExpPoly.var(J.chart, a) * E.component((ib,))
            - ExpPoly.var(J.chart, b) * E.component((ia,)))


def verify_jacobi(J: JacobiStructure) -> Report:
    """Residuals of [L,L] - 2 E^L and [E,L]; pass iff both vanish."""
    rep = Report()
    with rep.timed("compatibility") as bad:
        res = sn_bracket(J.lam, J.lam) - 2 * J.e_field.wedge(J.lam)
        if not res.is_zero:
            bad.append(res.render())
    with rep.timed("invariance") as bad:
        res = sn_bracket(J.e_field, J.lam)
        if not res.is_zero:
            bad.append(res.render())
    return rep


def _fiber_vars(J: JacobiStructure) -> List[str]:
    names = J.chart.fiber_names
    if not names:
        raise ChartMismatchError("chart has no fiber coordinates")
    return list(names)


def check_C1(J: JacobiStructure) -> Report:
    """Generator-level linearity conditions.

    Sub-checks: {mu_i, mu_j} linear (or zero); {mu_i, x^l} basic;
    {x^k, x^l} = 0; {x^k, 1} = 0.  Together with the first-order bracket
    identity these are equivalent to linearity of the bracket on all
    linear functions.
    """
    fibers = _fiber_vars(J)
    bases = [n for n, r in J.chart.coords if r != "fiber"]
    rep = Report()

    with rep.timed("fiber_fiber_linear") as bad:
        for a, mi in enumerate(fibers):
            for mj in fibers[a + 1:]:
                b = _gen_bracket(J, mi, mj)
                if not (b.is_zero or b.is_linear()):
                    bad.append(f"{{{mi},{mj}}} = {b.render()}")

    with rep.timed("fiber_base_basic") as bad:
        for mi in fibers:
            for xl in bases:
                b = _gen_bracket(J, mi, xl)
                if not b.is_basic():
                    bad.append(f"{{{mi},{xl}}} = {b.render()}")

    with rep.timed("base_base_zero") as bad:
        for a, xk in enumerate(bases):
            for xl in bases[a + 1:]:
                b = _gen_bracket(J, xk, xl)
                if not b.is_zero:
                    bad.append(f"{{{xk},{xl}}} = {b.render()}")

    with rep.timed("base_one_zero") as bad:
        for xk in bases:
            b = _gen_bracket(J, xk, None)
            if not b.is_zero:
                bad.append(f"{{{xk},1}} = {b.render()}")

    return rep


def check_C2(J: JacobiStructure) -> Report:
    """{mu_i, 1} = -E(mu_i) must be basic for every fiber coordinate."""
    fibers = _fiber_vars(J)
    rep = Report()
    with rep.timed("fiber_one_basic") as bad:
        for mi in fibers:
            b = _gen_bracket(J, mi, None)
            if not b.is_basic():
                bad.append(b.render())
    return rep


# ---------------------------------------------------------------------------
# Contact forms
# ---------------------------------------------------------------------------

def contact_to_jacobi(eta: DiffForm) -> JacobiStructure:
    """Jacobi structure of a contact 1-form on an odd-dimensional chart.

    E is the Reeb field (i_E d eta = 0, eta(E) = 1) and
    lambda(a, b) = d eta(flat^-1 a, flat^-1 b) for the isomorphism
    flat(X) = i_X d eta + eta(X) eta.  Both are read off the
    symplectization d(e^t eta) at t = 0, whose skew matrix, with index 0
    for t, is B = [[0, eta], [-eta, d eta]]: lambda + d/dt ^ E = -B^-1.  For
    a < b, (B^-1)[a][b] = (-1)^(a+b) Pf(B without rows/cols a, b) / Pf(B),
    and Pf(B)^2 = det(d eta + eta (x) eta) is the determinant of flat.
    Pf(B) and its C(n+1, 2) cofactor minors share one memo of
    sub-Pfaffians.
    """
    if eta.grade != 1:
        raise GradeError("contact form must be a 1-form")
    chart = eta.chart
    n = chart.dim
    if n % 2 == 0:
        raise ContactError("contact chart must be odd-dimensional")
    zero = ExpPoly.zero(chart)
    B = [[zero] * (n + 1) for _ in range(n + 1)]
    for (i,), p in eta.comps.items():
        B[0][i + 1], B[i + 1][0] = p, -p
    for (i, j), p in exterior_d(eta).comps.items():
        B[i + 1][j + 1], B[j + 1][i + 1] = p, -p
    pfs = _pfaffians(B, chart)
    rows = tuple(range(n + 1))
    pf = pfs(rows)
    if not pf.is_nonvanishing_constant():
        raise ContactError("flat map not exactly invertible over the ring "
                           f"(det = {(pf * pf).render()})")
    ((_, k), c), = pf.monomials()
    inv_pf = ExpPoly(chart, {((0,) * n, -k): Fraction(1) / c})

    def minus_inverse(a: int, b: int) -> ExpPoly:
        cof = pfs(rows[:a] + rows[a + 1:b] + rows[b + 1:]) * inv_pf
        return cof if (a + b) % 2 else -cof

    E = Multivector(chart, 1, {(j,): minus_inverse(0, j + 1) for j in range(n)})
    lam = Multivector(chart, 2, {(i, j): minus_inverse(i + 1, j + 1)
                                 for i in range(n) for j in range(i + 1, n)})
    return JacobiStructure(chart, lam, E)
