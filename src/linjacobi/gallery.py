"""Curated worked examples: Lie-algebra duals, tangent/cotangent lifts,
contact charts, and the counterexample separating the two linearity
conditions.  Every case carries its own checklist and an expected
closed form derived independently of the forward map."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .chart import Chart
from .ring import ExpPoly
from .exterior import (DiffForm, GradeError, Multivector, check_nondegenerate,
                       sn_bracket)
from .algebroid import (AlgebroidPatch, Cocycle, cotangent_algebroid,
                        jacobi_algebroid)
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
    (rendered canonical strings), and the checks that only this case
    carries; run_case adds them to the checklist common to every case."""

    name: str
    pair: Optional[AlgebroidWithCocycle] = None
    dual: Optional[Chart] = None
    jacobi: Optional[JacobiStructure] = None
    contact: Optional[DiffForm] = None
    expected: Mapping[str, str] = field(default_factory=dict)
    expected_verdicts: Mapping[str, str] = field(default_factory=dict)
    # (name, f(J, P, hat) -> residual lines): J is the forward map of the
    # pair, P its poissonization and hat the pair's hat algebroid, whose
    # linear Poisson dual P must match
    checks: Tuple[Tuple[str, Callable[..., List[str]]], ...] = ()

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

    if T.grade not in (1, 2):
        raise GradeError("only vector and bivector fields lift")
    comp: Dict[Tuple[int, ...], ExpPoly] = {}
    vert: Dict[Tuple[int, ...], ExpPoly] = {}
    for idx, p in T.comps.items():
        q = up(p)
        dot = tuple(m + i for i in idx)
        vert[dot] = q
        comp[dot] = fiber_stretch(p)
        if T.grade == 1:
            comp[idx] = q
        else:
            i, j = idx
            comp[(m + i, j)] = comp[(i, m + j)] = q
    return Multivector(tangent, T.grade, comp), Multivector(tangent, T.grade, vert)


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

        def nondegenerate(J, P, hat):
            verdict = check_nondegenerate(J.lam)
            return [] if verdict == "nondegenerate_constant" else [verdict]
        return GalleryCase(name, pair=pair, dual=dual,
                           expected={"lambda": lam.render(), "efield": e.render()},
                           checks=(("nondegenerate", nondegenerate),))

    if head == "tangent_lift_so3star" and arg is None:
        base = Chart((("x1", "base"), ("x2", "base"), ("x3", "base")))
        v = lambda n: ExpPoly.var(base, n)
        L = Multivector(base, 2, {(0, 1): v("x3"), (0, 2): -v("x2"),
                                  (1, 2): v("x1")})
        A = cotangent_algebroid(L)
        # the rotation field x2 d/dx1 - x1 d/dx2 preserves L
        X = Multivector(base, 1, {(0,): v("x2"), (1,): -v("x1")})
        phi = Cocycle((v("x2"), -v("x1"), ExpPoly.zero(base)))
        pair = AlgebroidWithCocycle(A, phi)
        dual = A.dual_chart([n + "dot" for n in base.names])
        L_c, _ = complete_vertical_lift(L)
        _, X_v = complete_vertical_lift(X)
        lam = L_c + liouville(dual).wedge(X_v.transfer(dual))
        return GalleryCase(name, pair=pair, dual=dual,
                           expected={"lambda": lam.render(),
                                     "efield": (-X_v.transfer(dual)).render()},
                           checks=(("automorphism",
                                    lambda J, P, hat: _residual(sn_bracket(X, L))),))

    if head == "contact_R":
        if arg is None or arg < 1:
            raise GalleryError("contact_R needs a positive dimension")
        pair, dual = _tangent_pair(arg, [0] * arg + [-1])
        eta_comps = {(dual.dim - 1,): ExpPoly.const(dual, 1)}
        for l in range(arg):
            eta_comps[(l,)] = ExpPoly.var(dual, f"mu{l + 1}")
        eta = DiffForm(dual, 1, eta_comps)
        Jc = contact_to_jacobi(eta)

        def contact_match(J, P, hat):
            return [] if Jc == J else [
                f"lambda diff {(Jc.lam - J.lam).render()}",
                f"E diff {(Jc.e_field - J.e_field).render()}"]
        return GalleryCase(name, pair=pair, dual=dual, contact=eta,
                           expected={"lambda": Jc.lam.render(),
                                     "efield": Jc.e_field.render()},
                           checks=(("contact_match", contact_match),))

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

        def lift_formula(J, P, hat):
            # (d/dt ^ (E^c - t E^v), E^v) on the dual chart (x, xdot, t)
            E_c, E_v = (T.transfer(J.chart) for T in complete_vertical_lift(E))
            dt = Multivector.basis(J.chart, "t")
            t = ExpPoly.var(J.chart, "t")
            lam = dt.wedge(E_c) - t * dt.wedge(E_v)
            return [r.render() for r in (lam - J.lam, E_v - J.e_field)
                    if not r.is_zero]
        return GalleryCase(name, pair=pair, dual=dual,
                           expected={"lambda": lam.render(), "efield": e.render()},
                           checks=(("lift_formula", lift_formula),))

    if head == "poissonization_aff1" and arg is None:
        case = build_case("aff1(2)")

        def hat_recovered(J, P, hat):
            back = psi_inverse(
                JacobiStructure.poisson(P.transfer(hat.dual_chart(
                    list(J.chart.fiber_names)))))
            bad = []
            if not back.algebroid.same_structure(hat):
                bad.append("structure mismatch")
            if not back.cocycle.is_zero:
                bad.append("nonzero cocycle recovered")
            return bad
        return GalleryCase(name, pair=case.pair, dual=case.dual,
                           expected=dict(case.expected),
                           checks=(("hat_recovered", hat_recovered),))

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
    rep.extend(verify_jacobi(J), "jacobi.")

    with rep.timed("expected_lambda") as bad:
        got = J.lam.render()
        if got != case.expected.get("lambda", got):
            bad.append(f"got {got}, expected {case.expected['lambda']}")
    with rep.timed("expected_efield") as bad:
        got = J.e_field.render()
        if got != case.expected.get("efield", got):
            bad.append(f"got {got}, expected {case.expected['efield']}")

    rep.extend(roundtrip_check(pair), "roundtrip.")

    time_name = "tau" if J.chart.has("t") else "t"
    P = _poissonize(J, time_name)
    with rep.timed("poissonization_poisson") as bad:
        bad.extend(_residual(sn_bracket(P, P)))
    with rep.timed("poissonization_matches_dual") as bad:
        hat = hat_algebroid(pair, time_name)
        Lhat = linear_poisson_dual(hat, hat.dual_chart(list(J.chart.fiber_names)))
        bad.extend(_residual(Lhat - P.transfer(Lhat.chart)))

    for name, check in case.checks:
        with rep.timed(name) as bad:
            bad.extend(check(J, P, hat))


def _residual(res) -> List[str]:
    """The residual line of a result that should be zero."""
    return [] if res.is_zero else [res.render()]


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
        with rep.timed(f"expected_{label}_verdict") as bad:
            got = "pass" if sub.passed else "fail"
            if got != want:
                bad.append(f"got {got}, expected {want}")
