"""Forward and inverse maps between algebroid-with-cocycle pairs and
linear Jacobi structures on the dual bundle, plus poissonization and the
induced algebroid over M x R."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .chart import Chart
from .ring import ExpPoly
# sn_bracket is not called here; the binding stays for outside readers of
# linjacobi.correspondence.sn_bracket (bench/tests checks the tracer
# rebinds it)
from .exterior import Multivector, sn_bracket
from .algebroid import (AlgebroidError, AlgebroidPatch, Cocycle, verify_algebroid,
                        verify_cocycle)
from .jacobi import JacobiStructure, _gen_bracket, check_C1, check_C2, verify_jacobi
from .report import Report


class LinearityViolation(ValueError):
    """Base class of the inverse-map rejections; carries the residual."""

    def __init__(self, message: str, residual: str = ""):
        super().__init__(message)
        self.residual = residual


class C1Violation(LinearityViolation):
    pass


class C2Violation(LinearityViolation):
    pass


class AlgebroidWithCocycle:
    """A verified pair of an algebroid patch and a 1-cocycle.

    The constructor runs verify_algebroid and verify_cocycle once each and
    keeps their reports as `algebroid_report` and `cocycle_report`; a pair
    that fails either raises an AlgebroidError carrying both reports.
    """

    __slots__ = ("algebroid", "cocycle", "algebroid_report", "cocycle_report")

    def __init__(self, algebroid: AlgebroidPatch, cocycle: Optional[Cocycle] = None):
        if cocycle is None:
            cocycle = Cocycle.zero(algebroid.base_chart, algebroid.rank)
        if cocycle.rank != algebroid.rank:
            raise AlgebroidError("cocycle rank mismatch")
        alg_rep = verify_algebroid(algebroid)
        coc_rep = verify_cocycle(algebroid, cocycle)
        if not alg_rep.passed:
            raise AlgebroidError(f"not a Lie algebroid:\n{alg_rep.to_text()}",
                                 alg_rep, coc_rep)
        if not coc_rep.passed:
            raise AlgebroidError(f"not a 1-cocycle:\n{coc_rep.to_text()}",
                                 alg_rep, coc_rep)
        object.__setattr__(self, "algebroid", algebroid)
        object.__setattr__(self, "cocycle", cocycle)
        object.__setattr__(self, "algebroid_report", alg_rep)
        object.__setattr__(self, "cocycle_report", coc_rep)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebroidWithCocycle is immutable")

    def __eq__(self, other):
        if not isinstance(other, AlgebroidWithCocycle):
            return NotImplemented
        return (self.algebroid.same_structure(other.algebroid)
                and self.cocycle == other.cocycle)


# ---------------------------------------------------------------------------
# Building blocks on the dual chart
# ---------------------------------------------------------------------------

def linear_poisson_dual(A: AlgebroidPatch,
                        dual: Optional[Chart] = None) -> Multivector:
    """The linear Poisson bivector on A*:

        sum_{i<j,k} c_ij^k mu_k d/dmu_i ^ d/dmu_j
        + sum_{i,l} rho^l_i d/dmu_i ^ d/dx^l.
    """
    if dual is None:
        dual = A.dual_chart()
    n_base = A.base_chart.dim
    fib = dual.fiber_indices
    comps: Dict[Tuple[int, ...], ExpPoly] = {}

    def acc(idx, p):
        comps[idx] = comps.get(idx, ExpPoly.zero(dual)) + p

    for (i, j, k), c in A.structure.items():
        mu_k = ExpPoly.var(dual, dual.names[fib[k - 1]])
        acc((fib[i - 1], fib[j - 1]), c.transfer(dual) * mu_k)
    for (l, i), p in A.anchor.items():
        acc((fib[i - 1], l), p.transfer(dual))
    return Multivector(dual, 2, comps)


def liouville(chart: Chart) -> Multivector:
    """The fiber-scaling vector field sum_i mu_i d/dmu_i."""
    fib = chart.fiber_indices
    if not fib:
        raise AlgebroidError("chart has no fiber coordinates")
    return Multivector(chart, 1,
                       {(i,): ExpPoly.var(chart, chart.names[i]) for i in fib})


def vertical_lift(A: AlgebroidPatch, phi: Cocycle,
                  dual: Optional[Chart] = None) -> Multivector:
    """phi^v = sum_i phi_i d/dmu_i on the dual chart."""
    if phi.rank != A.rank:
        raise AlgebroidError("cocycle rank mismatch")
    if dual is None:
        dual = A.dual_chart()
    fib = dual.fiber_indices
    comps = {}
    for i, p in enumerate(phi.components):
        if not p.is_zero:
            comps[(fib[i],)] = p.transfer(dual)
    return Multivector(dual, 1, comps)


# ---------------------------------------------------------------------------
# Theorem 1: forward map
# ---------------------------------------------------------------------------

def psi_forward(pair: AlgebroidWithCocycle,
                dual: Optional[Chart] = None) -> JacobiStructure:
    """lambda = lambda_{A*} + Delta ^ phi^v,  E = -phi^v."""
    A, phi = pair.algebroid, pair.cocycle
    if dual is None:
        dual = A.dual_chart()
    lam = linear_poisson_dual(A, dual)
    phi_v = vertical_lift(A, phi, dual)
    lam = lam + liouville(dual).wedge(phi_v)
    return JacobiStructure(dual, lam, -phi_v)


def forward_report(pair: AlgebroidWithCocycle,
                   J: Optional[JacobiStructure] = None) -> Report:
    """Full post-checks of the forward map: the Jacobi equations, (C1),
    (C2), and the three bracket characterizations on generators."""
    if J is None:
        J = psi_forward(pair)
    A, phi = pair.algebroid, pair.cocycle
    dual = J.chart
    mu = dual.fiber_names
    rep = Report()
    rep.extend(verify_jacobi(J), "jacobi.")
    rep.extend(check_C1(J), "C1.")
    rep.extend(check_C2(J), "C2.")

    with rep.timed("bracket_linear_linear") as bad:
        for i in range(1, A.rank + 1):
            for j in range(i + 1, A.rank + 1):
                lhs = _gen_bracket(J, mu[i - 1], mu[j - 1])
                rhs = ExpPoly.zero(dual)
                for k in range(1, A.rank + 1):
                    muk = ExpPoly.var(dual, mu[k - 1])
                    rhs = rhs + A.c(i, j, k).transfer(dual) * muk
                if lhs != rhs:
                    bad.append(f"({i},{j}): {(lhs - rhs).render()}")

    with rep.timed("bracket_linear_basic") as bad:
        for i in range(1, A.rank + 1):
            for l, name in enumerate(A.base_chart.names):
                lhs = _gen_bracket(J, mu[i - 1], name)
                rhs = (A.rho(l, i) + phi.components[i - 1] *
                       ExpPoly.var(A.base_chart, name)).transfer(dual)
                if lhs != rhs:
                    bad.append(f"({i},{name}): {(lhs - rhs).render()}")
            lhs = _gen_bracket(J, mu[i - 1], None)
            rhs = phi.components[i - 1].transfer(dual)
            if lhs != rhs:
                bad.append(f"({i},1): {(lhs - rhs).render()}")

    with rep.timed("bracket_basic_basic") as bad:
        names = A.base_chart.names
        for a, na in enumerate(names):
            for nb in names[a + 1:]:
                lhs = _gen_bracket(J, na, nb)
                if not lhs.is_zero:
                    bad.append(f"({na},{nb}): {lhs.render()}")

    return rep


# ---------------------------------------------------------------------------
# Theorem 2: inverse map
# ---------------------------------------------------------------------------

def _fiber_linear_decompose(p: ExpPoly, dual: Chart,
                            base: Chart) -> List[ExpPoly]:
    """Write a fiber-linear function as sum_k f_k * mu_k; each f_k lands
    on the base chart."""
    fib = dual.fiber_indices
    buckets: Dict[int, Dict] = {i: {} for i in range(len(fib))}
    for (exps, k), c in p.monomials():
        hit = None
        for pos, i in enumerate(fib):
            if exps[i] == 1:
                hit = pos
        down = list(exps)
        down[fib[hit]] -= 1
        buckets[hit][(tuple(down), k)] = c
    out = []
    for pos in range(len(fib)):
        out.append(ExpPoly(dual, buckets[pos]).transfer(base))
    return out


def psi_inverse(J: JacobiStructure,
                basis_names: Optional[Sequence[str]] = None) -> AlgebroidWithCocycle:
    """Read the algebroid data off the Jacobi bracket:

        c_ij^k  from  {mu_i, mu_j} = sum_k c_ij^k mu_k,
        phi_i   =  {mu_i, 1},
        rho^l_i =  {mu_i, x^l} - x^l {mu_i, 1}.

    Past check_C1 and check_C2 every bracket read here is fiber-linear or
    basic as the formula needs, so C1Violation and C2Violation are the
    only linearity rejections.  J is not checked to be Jacobi: building
    the recovered pair verifies it, and raises AlgebroidError when it is
    not an algebroid with a cocycle.
    """
    _check_linear(J)
    return AlgebroidWithCocycle(*_recover(J, basis_names))


def _check_linear(J: JacobiStructure) -> None:
    """The gate of psi_inverse: fiber coordinates, check_C1 and check_C2."""
    if not J.chart.fiber_indices:
        raise AlgebroidError("chart has no fiber coordinates")
    rep1 = check_C1(J)
    if not rep1.passed:
        failed = [c for c in rep1.checks if c.verdict != "pass"]
        raise C1Violation(f"C1 violation: {failed[0].name}", failed[0].residual)
    rep2 = check_C2(J)
    if not rep2.passed:
        failed = [c for c in rep2.checks if c.verdict != "pass"]
        raise C2Violation("C2 violation", failed[0].residual)


def _recover(J: JacobiStructure, basis_names: Optional[Sequence[str]] = None
             ) -> Tuple[AlgebroidPatch, Cocycle]:
    """The extraction half of psi_inverse, unverified, for a J that
    passed _check_linear."""
    dual = J.chart
    base = dual.restrict(("base", "time"))
    mu = dual.fiber_names
    n = len(mu)

    structure: Dict[Tuple[int, int, int], ExpPoly] = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = _gen_bracket(J, mu[i], mu[j])
            if br.is_zero:
                continue
            cs = _fiber_linear_decompose(br, dual, base)
            for k, c in enumerate(cs):
                if not c.is_zero:
                    structure[(i + 1, j + 1, k + 1)] = c

    anchor: Dict[Tuple[int, int], ExpPoly] = {}
    phi_comps = []
    for i in range(n):
        pv = _gen_bracket(J, mu[i], None)
        phi_comps.append(pv.transfer(base))
        for l, name in enumerate(base.names):
            r = _gen_bracket(J, mu[i], name) - ExpPoly.var(dual, name) * pv
            if not r.is_zero:
                anchor[(l, i + 1)] = r.transfer(base)

    A = AlgebroidPatch(base, n, structure, anchor, basis_names=basis_names)
    return A, Cocycle(tuple(phi_comps))


# ---------------------------------------------------------------------------
# Theorem 3: bijection at desk scale
# ---------------------------------------------------------------------------

def roundtrip_check(pair: AlgebroidWithCocycle) -> Report:
    """psi_inverse(psi_forward(pair)) == pair, componentwise exact, and
    the forward map of the recovered pair equals the Jacobi structure.

    Recovered data equal to pair are not verified again, and their forward
    map is J by construction; only data that differ are built into an
    AlgebroidWithCocycle (an AlgebroidError propagates) and mapped forward.
    """
    rep = Report()
    J = psi_forward(pair)
    with rep.timed("inverse_after_forward") as bad:
        try:
            _check_linear(J)
        except LinearityViolation as exc:
            failure = f"{exc}: {exc.residual}"
            bad.append(failure)
            diffs = None
        else:
            A, phi = _recover(J, pair.algebroid.basis_names)
            diffs = _pair_diff(pair, A, phi)
            bad.extend(diffs)
    with rep.timed("forward_after_inverse") as bad:
        if diffs is None:
            bad.append(failure)
        elif diffs:
            J2 = psi_forward(AlgebroidWithCocycle(A, phi), dual=J.chart)
            if J2 != J:
                bad.append(f"lambda diff {(J2.lam - J.lam).render()}")
                bad.append(f"E diff {(J2.e_field - J.e_field).render()}")
    return rep


def _pair_diff(pair: AlgebroidWithCocycle, B: AlgebroidPatch,
               phi: Cocycle) -> List[str]:
    diffs = []
    A = pair.algebroid
    if A.rank != B.rank:
        return [f"rank {A.rank} != {B.rank}"]
    for i in range(1, A.rank + 1):
        for j in range(i + 1, A.rank + 1):
            for k in range(1, A.rank + 1):
                d = A.c(i, j, k) - B.c(i, j, k)
                if not d.is_zero:
                    diffs.append(f"c[{i},{j}]^{k}: {d.render()}")
    for l in range(A.base_chart.dim):
        for i in range(1, A.rank + 1):
            d = A.rho(l, i) - B.rho(l, i)
            if not d.is_zero:
                diffs.append(f"rho[{A.base_chart.names[l]},{i}]: {d.render()}")
    for i in range(A.rank):
        d = pair.cocycle.components[i] - phi.components[i]
        if not d.is_zero:
            diffs.append(f"phi[{i+1}]: {d.render()}")
    return diffs


# ---------------------------------------------------------------------------
# Example 6: poissonization and the algebroid over M x R
# ---------------------------------------------------------------------------

def poissonization(J: JacobiStructure, time_name: str = "t") -> Multivector:
    """The Poisson bivector  e^{-t} (lambda + d/dt ^ E)  on chart x R."""
    if not verify_jacobi(J).passed:
        raise AlgebroidError("input is not a Jacobi structure")
    return _poissonize(J, time_name)


def _poissonize(J: JacobiStructure, time_name: str) -> Multivector:
    """poissonization of a J already verified to be Jacobi."""
    if J.chart.has_time:
        raise AlgebroidError("chart already has a time coordinate")
    ext = J.chart.extend(time_name, "time")
    lam = J.lam.transfer(ext)
    E = J.e_field.transfer(ext)
    dt = Multivector.basis(ext, time_name)
    s_inv = ExpPoly.s_power(ext, -1)
    return (lam + dt.wedge(E)) * s_inv


def hat_algebroid(pair: AlgebroidWithCocycle,
                  time_name: str = "t") -> AlgebroidPatch:
    """The algebroid structure on A x R over M x R induced by the pair:

        c_hat_ij^k = e^{-t} (c_ij^k - phi_i d_jk + phi_j d_ik),
        rho_hat    = e^{-t} (rho + phi_i d/dt).
    """
    A, phi = pair.algebroid, pair.cocycle
    if A.base_chart.has_time:
        raise AlgebroidError("base chart already has a time coordinate")
    ext = A.base_chart.extend(time_name, "time")
    s_inv = ExpPoly.s_power(ext, -1)
    t_idx = ext.dim - 1
    structure: Dict[Tuple[int, int, int], ExpPoly] = {}
    for i in range(1, A.rank + 1):
        for j in range(i + 1, A.rank + 1):
            for k in range(1, A.rank + 1):
                c = A.c(i, j, k).transfer(ext)
                if k == j:
                    c = c - phi.components[i - 1].transfer(ext)
                if k == i:
                    c = c + phi.components[j - 1].transfer(ext)
                c = c * s_inv
                if not c.is_zero:
                    structure[(i, j, k)] = c
    anchor: Dict[Tuple[int, int], ExpPoly] = {}
    for (l, i), p in A.anchor.items():
        anchor[(l, i)] = p.transfer(ext) * s_inv
    for i in range(1, A.rank + 1):
        p = phi.components[i - 1].transfer(ext) * s_inv
        if not p.is_zero:
            anchor[(t_idx, i)] = p
    return AlgebroidPatch(ext, A.rank, structure, anchor,
                          basis_names=A.basis_names)
