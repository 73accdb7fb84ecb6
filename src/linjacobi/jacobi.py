"""Jacobi structures on a chart: the bracket of functions, the defining
identities, the linearity conditions (C1)/(C2), and the contact-form
construction."""

from __future__ import annotations

from typing import Dict, List, Tuple

from .chart import Chart
from .ring import ChartMismatchError, ExpPoly
from .exterior import (DiffForm, GradeError, Multivector, exterior_d, interior,
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


def verify_jacobi(J: JacobiStructure) -> Report:
    """Residuals of [L,L] - 2 E^L and [E,L]; pass iff both vanish."""
    rep = Report()
    with rep.timed("compatibility") as slot:
        res = sn_bracket(J.lam, J.lam) - 2 * J.e_field.wedge(J.lam)
        slot["ok"] = res.is_zero
        slot["residual"] = res.render()
    with rep.timed("invariance") as slot:
        res = sn_bracket(J.e_field, J.lam)
        slot["ok"] = res.is_zero
        slot["residual"] = res.render()
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
    chart = J.chart
    fibers = _fiber_vars(J)
    bases = [n for n, r in chart.coords if r != "fiber"]
    one = ExpPoly.const(chart, 1)
    rep = Report()

    with rep.timed("fiber_fiber_linear") as slot:
        bad = []
        for a, mi in enumerate(fibers):
            for mj in fibers[a + 1:]:
                b = jacobi_bracket(J, ExpPoly.var(chart, mi), ExpPoly.var(chart, mj))
                if not (b.is_zero or b.is_linear()):
                    bad.append(f"{{{mi},{mj}}} = {b.render()}")
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)

    with rep.timed("fiber_base_basic") as slot:
        bad = []
        for mi in fibers:
            for xl in bases:
                b = jacobi_bracket(J, ExpPoly.var(chart, mi), ExpPoly.var(chart, xl))
                if not b.is_basic():
                    bad.append(f"{{{mi},{xl}}} = {b.render()}")
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)

    with rep.timed("base_base_zero") as slot:
        bad = []
        for a, xk in enumerate(bases):
            for xl in bases[a + 1:]:
                b = jacobi_bracket(J, ExpPoly.var(chart, xk), ExpPoly.var(chart, xl))
                if not b.is_zero:
                    bad.append(f"{{{xk},{xl}}} = {b.render()}")
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)

    with rep.timed("base_one_zero") as slot:
        bad = []
        for xk in bases:
            b = jacobi_bracket(J, ExpPoly.var(chart, xk), one)
            if not b.is_zero:
                bad.append(f"{{{xk},1}} = {b.render()}")
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)

    return rep


def check_C2(J: JacobiStructure) -> Report:
    """{mu_i, 1} = -E(mu_i) must be basic for every fiber coordinate."""
    chart = J.chart
    fibers = _fiber_vars(J)
    one = ExpPoly.const(chart, 1)
    rep = Report()
    with rep.timed("fiber_one_basic") as slot:
        bad = []
        for mi in fibers:
            b = jacobi_bracket(J, ExpPoly.var(chart, mi), one)
            if not b.is_basic():
                bad.append(b.render())
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)
    return rep


# ---------------------------------------------------------------------------
# Contact forms
# ---------------------------------------------------------------------------

def _solve_unit_system(mat: List[List[ExpPoly]], rhs: List[ExpPoly]) -> List[ExpPoly]:
    """Solve v M = rhs exactly by Cramer's rule; the determinant must be a
    unit of the coefficient ring (c * s^k, c != 0)."""
    n = len(mat)
    chart = rhs[0].chart

    def det(rows: List[int], cols: List[int], repl: int) -> ExpPoly:
        """Laplace expansion of M with row `repl` replaced by rhs (-1: none)."""
        if not rows:
            return ExpPoly.const(chart, 1)
        i = rows[0]
        out = ExpPoly.zero(chart)
        for pos, j in enumerate(cols):
            a = rhs[j] if i == repl else mat[i][j]
            if a.is_zero:
                continue
            sub = det(rows[1:], [c for c in cols if c != j], repl)
            term = a * sub
            out = out + term if pos % 2 == 0 else out - term
        return out

    idx = list(range(n))
    full = det(idx, idx, -1)
    cv = None
    if len(full.terms) == 1:
        (exps, k), c = next(iter(full.terms.items()))
        if not any(exps):
            cv = (c, k)
    if cv is None:
        raise ContactError(
            f"flat map not exactly invertible over the ring (det = {full.render()})")
    c, k = cv
    inv_unit = ExpPoly(chart, {((0,) * chart.dim, -k): 1 / c})
    # v_j = det(M with row j replaced by rhs) / det(M)
    return [det(idx, idx, j) * inv_unit for j in range(n)]


def contact_to_jacobi(eta: DiffForm) -> JacobiStructure:
    """Jacobi structure of a contact 1-form on an odd-dimensional chart.

    E is the Reeb field (i_E d eta = 0, eta(E) = 1) and
    lambda(a, b) = d eta(flat^-1 a, flat^-1 b) for the isomorphism
    flat(X) = i_X d eta + eta(X) eta.
    """
    if eta.grade != 1:
        raise GradeError("contact form must be a 1-form")
    chart = eta.chart
    n = chart.dim
    if n % 2 == 0:
        raise ContactError("contact chart must be odd-dimensional")
    deta = exterior_d(eta)
    zero = ExpPoly.zero(chart)
    one = ExpPoly.const(chart, 1)
    # flat(X)_j = sum_i X^i (deta_ij + eta_i eta_j)
    dmat = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), p in deta.comps.items():
        dmat[i][j] = p
        dmat[j][i] = -p
    etac = [eta.comps.get((i,), zero) for i in range(n)]
    mat = [[dmat[i][j] + etac[i] * etac[j] for j in range(n)] for i in range(n)]

    # Reeb field: flat(E) = eta
    e_comps = _solve_unit_system(mat, etac)
    E = Multivector(chart, 1, {(i,): p for i, p in enumerate(e_comps)})

    # lambda^{ij} = deta(flat^-1 dx^i, flat^-1 dx^j) for i < j
    inv_rows = []
    for i in range(n):
        unit_rhs = [one if j == i else zero for j in range(n)]
        inv_rows.append(_solve_unit_system(mat, unit_rhs))
    lam_comps: Dict[Tuple[int, ...], ExpPoly] = {}
    for i in range(n):
        for j in range(i + 1, n):
            vi = Multivector(chart, 1, {(a,): p for a, p in enumerate(inv_rows[i])})
            vj = Multivector(chart, 1, {(a,): p for a, p in enumerate(inv_rows[j])})
            val = interior(vi.wedge(vj), deta)
            if isinstance(val, DiffForm):
                val = val.as_function()
            if not val.is_zero:
                lam_comps[(i, j)] = val
    lam = Multivector(chart, 2, lam_comps)
    return JacobiStructure(chart, lam, E)
