"""Curated worked examples: Lie-algebra duals, tangent/cotangent lifts,
contact charts, and the counterexample separating the two linearity
conditions.  Every case carries its own checklist and an expected
closed form derived independently of the forward map."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple

from .chart import Chart
from .ring import ExpPoly
from .exterior import (DiffForm, GradeError, Multivector, check_nondegenerate,
                       sn_bracket)
from .algebroid import (AlgebroidError, AlgebroidPatch, Cocycle,
                        cotangent_algebroid, jacobi_algebroid)
from .jacobi import (JacobiStructure, check_C1, check_C2, contact_to_jacobi,
                     verify_jacobi)
from .correspondence import (AlgebroidWithCocycle, _poissonize, hat_algebroid,
                             linear_poisson_dual, liouville, psi_forward,
                             psi_inverse, roundtrip_check)
from .report import Report


class GalleryError(ValueError):
    pass


CATALOG = (
    "abelian2", "aff1(0)", "aff1(1)", "aff1(2)", "heisenberg3", "so3", "sl2",
    "trivial_tangent(1)", "trivial_tangent(2)", "lcs_T*R2",
    "tangent_lift_so3star", "contact_R(1)", "contact_R(2)", "jacobi_lift_R",
    "poissonization_aff1", "remark_counterexample",
)


@dataclass(frozen=True)
class GalleryCase:
    """A named example with its inputs, hand-derived expected forms
    (rendered canonical strings), and an executable checklist."""

    name: str
    pair: Optional[AlgebroidWithCocycle] = None
    dual: Optional[Chart] = None
    jacobi: Optional[JacobiStructure] = None
    contact: Optional[DiffForm] = None
    expected: Mapping[str, str] = field(default_factory=dict)
    expected_verdicts: Mapping[str, str] = field(default_factory=dict)

    def run(self) -> Report:
        return run_case(self)


def complete_vertical_lift(T: Multivector) -> Tuple[Multivector, Multivector]:
    """Lift a vector or bivector field from M to the tangent chart
    (x^i, x^i dot).  Returns (complete, vertical):

        X^v = X^i d/dxdot_i,
        X^c = X^i d/dx_i + xdot_j dX^i/dx_j d/dxdot_i,
        L^v = L^ij d/dxdot_i ^ d/dxdot_j,
        L^c = L^ij (d/dxdot_i ^ d/dx_j + d/dx_i ^ d/dxdot_j)
              + xdot_k dL^ij/dx_k d/dxdot_i ^ d/dxdot_j.
    """
    chart = T.chart
    if any(r != "base" for r in chart.roles):
        raise GalleryError("lift input must live on a base-only chart")
    m = chart.dim
    tangent = Chart(chart.coords + tuple((n + "dot", "fiber") for n in chart.names))

    def up(p: ExpPoly) -> ExpPoly:
        return p.transfer(tangent)

    def fiber_stretch(p: ExpPoly) -> ExpPoly:
        # xdot_k d(p)/dx_k on the tangent chart
        out = ExpPoly.zero(tangent)
        for k, n in enumerate(chart.names):
            out = out + ExpPoly.var(tangent, n + "dot") * up(p.partial(n))
        return out

    if T.grade == 1:
        vert = Multivector(tangent, 1,
                           {(m + i,): up(p) for (i,), p in T.comps.items()})
        comps: Dict[Tuple[int, ...], ExpPoly] = {}
        for (i,), p in T.comps.items():
            comps[(i,)] = up(p)
        for (i,), p in T.comps.items():
            q = fiber_stretch(p)
            if not q.is_zero:
                comps[(m + i,)] = comps.get((m + i,), ExpPoly.zero(tangent)) + q
        return Multivector(tangent, 1, comps), vert

    if T.grade == 2:
        vert = Multivector(tangent, 2,
                           {(m + i, m + j): up(p) for (i, j), p in T.comps.items()})
        comp = Multivector.zero(tangent, 2)
        for (i, j), p in T.comps.items():
            di = Multivector.basis(tangent, chart.names[i])
            dj = Multivector.basis(tangent, chart.names[j])
            vi = Multivector.basis(tangent, chart.names[i] + "dot")
            vj = Multivector.basis(tangent, chart.names[j] + "dot")
            comp = comp + up(p) * (vi.wedge(dj) + di.wedge(vj))
            comp = comp + fiber_stretch(p) * vi.wedge(vj)
        return comp, vert

    raise GradeError("only vector and bivector fields lift")


# ---------------------------------------------------------------------------
# Case constructors
# ---------------------------------------------------------------------------

_POINT = Chart(())


def _lie_algebra_case(name: str, rank: int, structure, phi_values,
                      lam_comps, e_comps) -> GalleryCase:
    """A Lie algebra seen as an algebroid over a point, with the expected
    linear structure on the dual entered by hand."""
    A = AlgebroidPatch(_POINT, rank, structure)
    phi = Cocycle.from_scalars(_POINT, phi_values)
    pair = AlgebroidWithCocycle(A, phi)
    dual = A.dual_chart()
    lam = Multivector(dual, 2, {idx: _poly(dual, expr) for idx, expr in lam_comps})
    e = Multivector(dual, 1, {idx: _poly(dual, expr) for idx, expr in e_comps})
    return GalleryCase(name, pair=pair, dual=dual,
                       expected={"lambda": lam.render(), "efield": e.render()})


def _poly(chart: Chart, spec) -> ExpPoly:
    """Tiny builder: spec is a scalar or a (coeff, name) monomial list."""
    if isinstance(spec, (int, Fraction)):
        return ExpPoly.const(chart, spec)
    out = ExpPoly.zero(chart)
    for coeff, name in spec:
        term = ExpPoly.const(chart, coeff)
        if name:
            term = term * ExpPoly.var(chart, name)
        out = out + term
    return out


def _tangent_pair(m: int, phi_values) -> Tuple[AlgebroidWithCocycle, Chart]:
    """The rank-(m+1) algebroid TM x R over R^m: commuting basis,
    anchor projecting onto the first m sections."""
    base = Chart(tuple((f"x{l}", "base") for l in range(1, m + 1)))
    A = AlgebroidPatch(base, m + 1,
                       anchor={(l, l + 1): 1 for l in range(m)},
                       basis_names=[f"d_x{l}" for l in range(1, m + 1)] + ["unit"])
    phi = Cocycle.from_scalars(base, phi_values)
    dual = A.dual_chart([f"mu{l}" for l in range(1, m + 1)] + ["t"])
    return AlgebroidWithCocycle(A, phi), dual


def build_case(name: str) -> GalleryCase:
    m = re.fullmatch(r"([A-Za-z0-9_*]+)(?:\((-?\d+)\))?", name)
    if not m:
        raise GalleryError(f"unknown case name: {name!r}")
    head, arg = m.group(1), m.group(2)
    arg = int(arg) if arg is not None else None

    if head == "abelian2" and arg is None:
        return _lie_algebra_case(
            name, 2, {}, (1, 0),
            lam_comps=[((0, 1), [(-1, "mu2")])],
            e_comps=[((0,), -1)])

    if head == "aff1":
        if arg is None:
            raise GalleryError("aff1 needs a cocycle parameter, e.g. aff1(2)")
        a = arg
        return _lie_algebra_case(
            name, 2, {(1, 2, 2): 1}, (a, 0),
            lam_comps=[((0, 1), [(1 - a, "mu2")])],
            e_comps=[((0,), -a)])

    if head == "heisenberg3" and arg is None:
        return _lie_algebra_case(
            name, 3, {(1, 2, 3): 1}, (1, -1, 0),
            lam_comps=[((0, 1), [(-1, "mu1"), (-1, "mu2"), (1, "mu3")]),
                       ((0, 2), [(-1, "mu3")]),
                       ((1, 2), [(1, "mu3")])],
            e_comps=[((0,), -1), ((1,), 1)])

    if head == "so3" and arg is None:
        return _lie_algebra_case(
            name, 3, {(1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 2): -1}, (0, 0, 0),
            lam_comps=[((0, 1), [(1, "mu3")]),
                       ((0, 2), [(-1, "mu2")]),
                       ((1, 2), [(1, "mu1")])],
            e_comps=[])

    if head == "sl2" and arg is None:
        return _lie_algebra_case(
            name, 3, {(1, 2, 2): 2, (1, 3, 3): -2, (2, 3, 1): 1}, (0, 0, 0),
            lam_comps=[((0, 1), [(2, "mu2")]),
                       ((0, 2), [(-2, "mu3")]),
                       ((1, 2), [(1, "mu1")])],
            e_comps=[])

    if head == "trivial_tangent":
        if arg is None or arg < 1:
            raise GalleryError("trivial_tangent needs a positive dimension")
        base = Chart(tuple((f"x{l}", "base") for l in range(1, arg + 1)))
        A = AlgebroidPatch(base, arg, anchor={(l, l + 1): 1 for l in range(arg)})
        pair = AlgebroidWithCocycle(A, Cocycle.zero(base, arg))
        dual = A.dual_chart()
        lam = Multivector(dual, 2,
                          {(arg + l, l): ExpPoly.const(dual, 1) for l in range(arg)})
        return GalleryCase(name, pair=pair, dual=dual,
                           expected={"lambda": lam.render(),
                                     "efield": Multivector.zero(dual, 1).render()})

    if head == "lcs_T*R2" and arg is None:
        base = Chart((("x1", "base"), ("x2", "base")))
        A = AlgebroidPatch(base, 2, anchor={(0, 1): 1, (1, 2): 1})
        phi = Cocycle.from_scalars(base, (1, 0))  # the closed 1-form dx1
        pair = AlgebroidWithCocycle(A, phi)
        dual = A.dual_chart()
        one = ExpPoly.const(dual, 1)
        lam = Multivector(dual, 2, {(2, 0): one, (3, 1): one,
                                    (2, 3): _poly(dual, [(-1, "mu2")])})
        e = Multivector(dual, 1, {(2,): _poly(dual, -1)})
        return GalleryCase(name, pair=pair, dual=dual,
                           expected={"lambda": lam.render(), "efield": e.render()})

    if head == "tangent_lift_so3star" and arg is None:
        base = Chart((("x1", "base"), ("x2", "base"), ("x3", "base")))
        v = lambda n: ExpPoly.var(base, n)
        L = _so3star_bivector(base)
        A = cotangent_algebroid(L)
        # the rotation field x2 d/dx1 - x1 d/dx2 preserves L
        X = Multivector(base, 1, {(0,): v("x2"), (1,): -v("x1")})
        phi = Cocycle((v("x2"), -v("x1"), ExpPoly.zero(base)))
        pair = AlgebroidWithCocycle(A, phi)
        dual = A.dual_chart([n + "dot" for n in base.names])
        L_c, _ = complete_vertical_lift(L)
        X_c, X_v = complete_vertical_lift(X)
        lam = L_c + liouville(dual).wedge(X_v.transfer(dual))
        return GalleryCase(name, pair=pair, dual=dual,
                           expected={"lambda": lam.render(),
                                     "efield": (-X_v.transfer(dual)).render()})

    if head == "contact_R":
        if arg is None or arg < 1:
            raise GalleryError("contact_R needs a positive dimension")
        pair, dual = _tangent_pair(arg, [0] * arg + [-1])
        eta_comps = {(dual.dim - 1,): ExpPoly.const(dual, 1)}
        for l in range(arg):
            eta_comps[(l,)] = ExpPoly.var(dual, f"mu{l + 1}")
        eta = DiffForm(dual, 1, eta_comps)
        J = contact_to_jacobi(eta)
        return GalleryCase(name, pair=pair, dual=dual, contact=eta,
                           expected={"lambda": J.lam.render(),
                                     "efield": J.e_field.render()})

    if head == "jacobi_lift_R" and arg is None:
        base = Chart((("x", "base"),))
        E = Multivector(base, 1, {(0,): ExpPoly.const(base, 1)})
        A = jacobi_algebroid(Multivector.zero(base, 2), E)
        phi = Cocycle.from_scalars(base, (-1, 0))  # (-E, 0)
        pair = AlgebroidWithCocycle(A, phi)
        dual = A.dual_chart(["xdot", "t"])
        one = ExpPoly.const(dual, 1)
        lam = Multivector(dual, 2, {(2, 0): one,
                                    (1, 2): ExpPoly.var(dual, "t")})
        e = Multivector(dual, 1, {(1,): one})
        return GalleryCase(name, pair=pair, dual=dual,
                           expected={"lambda": lam.render(), "efield": e.render()})

    if head == "poissonization_aff1" and arg is None:
        case = build_case("aff1(2)")
        return GalleryCase(name, pair=case.pair, dual=case.dual,
                           expected=dict(case.expected))

    if head == "remark_counterexample" and arg is None:
        chart = Chart((("x", "fiber"), ("y", "fiber")))
        xy = ExpPoly.var(chart, "x") * ExpPoly.var(chart, "y")
        lam = Multivector(chart, 2, {(0, 1): xy})
        e = Multivector(chart, 1, {(0,): ExpPoly.var(chart, "x")})
        return GalleryCase(name, jacobi=JacobiStructure(chart, lam, e),
                           expected_verdicts={"C1": "pass", "C2": "fail"})

    raise GalleryError(f"unknown case name: {name!r}")


# ---------------------------------------------------------------------------
# Checklists
# ---------------------------------------------------------------------------

def run_case(case: GalleryCase) -> Report:
    rep = Report()
    if case.pair is not None:
        _run_pair(case, rep)
    if case.jacobi is not None:
        _run_jacobi(case, rep)
    return rep


def _run_pair(case: GalleryCase, rep: Report) -> None:
    pair = case.pair
    rep.extend(pair.algebroid_report, "algebroid.")
    rep.extend(pair.cocycle_report, "cocycle.")
    J = psi_forward(pair, case.dual)
    jacobi_rep = verify_jacobi(J)
    rep.extend(jacobi_rep, "jacobi.")

    with rep.timed("expected_lambda") as slot:
        got = J.lam.render()
        slot["ok"] = got == case.expected.get("lambda", got)
        if not slot["ok"]:
            slot["residual"] = f"got {got}, expected {case.expected['lambda']}"
    with rep.timed("expected_efield") as slot:
        got = J.e_field.render()
        slot["ok"] = got == case.expected.get("efield", got)
        if not slot["ok"]:
            slot["residual"] = f"got {got}, expected {case.expected['efield']}"

    rep.extend(roundtrip_check(pair), "roundtrip.")

    time_name = "tau" if J.chart.has("t") else "t"
    if not jacobi_rep.passed:
        raise AlgebroidError("input is not a Jacobi structure")
    P = _poissonize(J, time_name)
    with rep.timed("poissonization_poisson") as slot:
        res = sn_bracket(P, P)
        slot["ok"] = res.is_zero
        slot["residual"] = res.render()
    with rep.timed("poissonization_matches_dual") as slot:
        hat = hat_algebroid(pair, time_name)
        Lhat = linear_poisson_dual(hat, hat.dual_chart(list(J.chart.fiber_names)))
        res = Lhat - P.transfer(Lhat.chart)
        slot["ok"] = res.is_zero
        slot["residual"] = res.render()

    if case.contact is not None:
        with rep.timed("contact_match") as slot:
            Jc = contact_to_jacobi(case.contact)
            ok = Jc == J
            slot["ok"] = ok
            if not ok:
                slot["residual"] = (f"lambda diff {(Jc.lam - J.lam).render()}; "
                                    f"E diff {(Jc.e_field - J.e_field).render()}")

    if case.name == "lcs_T*R2":
        with rep.timed("nondegenerate") as slot:
            verdict = check_nondegenerate(J.lam)
            slot["ok"] = verdict == "nondegenerate_constant"
            if not slot["ok"]:
                slot["residual"] = verdict

    if case.name == "tangent_lift_so3star":
        with rep.timed("automorphism") as slot:
            base = pair.algebroid.base_chart
            X = Multivector(base, 1,
                            {(i,): p for i, p in enumerate(pair.cocycle.components)
                             if not p.is_zero})
            res = sn_bracket(X, _so3star_bivector(base))
            slot["ok"] = res.is_zero
            slot["residual"] = res.render()

    if case.name == "jacobi_lift_R":
        with rep.timed("lift_formula") as slot:
            base = pair.algebroid.base_chart
            E = Multivector(base, 1, {(0,): ExpPoly.const(base, 1)})
            E_c, E_v = complete_vertical_lift(E)
            tangent = E_c.chart
            ext = Chart(tangent.coords + (("t", "fiber"),))
            dt = Multivector.basis(ext, "t")
            t = ExpPoly.var(ext, "t")
            lam = dt.wedge(E_c.transfer(ext)) - t * dt.wedge(E_v.transfer(ext))
            lam = lam.transfer(J.chart)
            res = (lam - J.lam, E_v.transfer(ext).transfer(J.chart) - J.e_field)
            slot["ok"] = res[0].is_zero and res[1].is_zero
            slot["residual"] = "; ".join(r.render() for r in res if not r.is_zero)

    if case.name == "poissonization_aff1":
        with rep.timed("hat_recovered") as slot:
            # this case's chart has no t, so P was built with time_name "t"
            hat = hat_algebroid(pair)
            back = psi_inverse(
                JacobiStructure.poisson(P.transfer(hat.dual_chart(
                    list(J.chart.fiber_names)))))
            diffs = []
            if not back.algebroid.same_structure(hat):
                diffs.append("structure mismatch")
            if not back.cocycle.is_zero:
                diffs.append("nonzero cocycle recovered")
            slot["ok"] = not diffs
            slot["residual"] = "; ".join(diffs)


def _so3star_bivector(base: Chart) -> Multivector:
    v = lambda n: ExpPoly.var(base, n)
    return Multivector(base, 2, {(0, 1): v("x3"), (0, 2): -v("x2"),
                                 (1, 2): v("x1")})


def _run_jacobi(case: GalleryCase, rep: Report) -> None:
    J = case.jacobi
    rep.extend(verify_jacobi(J), "jacobi.")
    c1 = check_C1(J)
    rep.extend(c1, "C1.")
    c2 = check_C2(J)
    rep.extend(c2, "C2.")
    for label, sub in (("C1", c1), ("C2", c2)):
        want = case.expected_verdicts.get(label)
        if want is None:
            continue
        with rep.timed(f"expected_{label}_verdict") as slot:
            got = "pass" if sub.passed else "fail"
            slot["ok"] = got == want
            if not slot["ok"]:
                slot["residual"] = f"got {got}, expected {want}"
