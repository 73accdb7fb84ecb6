"""Lie algebroid patches: section brackets, axiom and cocycle checks,
and the two constructions used downstream (cotangent algebroid of a
Poisson bivector, the algebroid T*M x R of a Jacobi pair)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .chart import Chart
from .ring import ExpPoly, Scalar
from .exterior import (DiffForm, GradeError, Multivector, exterior_d, interior,
                       lie_derivative, pairing, sharp, sn_bracket)
from .report import Report


class AlgebroidError(ValueError):
    """Data that is not a Lie algebroid (with a cocycle).  When a pair
    fails verification, the error carries both verification reports."""

    def __init__(self, message: str, algebroid_report: Optional[Report] = None,
                 cocycle_report: Optional[Report] = None):
        super().__init__(message)
        self.algebroid_report = algebroid_report
        self.cocycle_report = cocycle_report


def _as_poly(chart: Chart, v: Union[Scalar, ExpPoly]) -> ExpPoly:
    if isinstance(v, ExpPoly):
        if v.chart != chart:
            raise AlgebroidError("component on wrong chart")
        return v
    return ExpPoly.const(chart, v)


class AlgebroidPatch:
    """Local data of a rank-n Lie algebroid: structure functions c_ij^k
    (stored for i < j, skew-completed on access) and anchor components
    rho^l_i over the base chart."""

    __slots__ = ("base_chart", "rank", "basis_names", "structure", "anchor")

    def __init__(self, base_chart: Chart, rank: int,
                 structure: Optional[Mapping[Tuple[int, int, int], Union[Scalar, ExpPoly]]] = None,
                 anchor: Optional[Mapping[Tuple[int, int], Union[Scalar, ExpPoly]]] = None,
                 basis_names: Optional[Sequence[str]] = None):
        if any(r == "fiber" for r in base_chart.roles):
            raise AlgebroidError("base chart must not contain fiber coordinates")
        if rank < 1:
            raise AlgebroidError("rank must be positive")
        names = tuple(basis_names) if basis_names else tuple(
            f"e{i}" for i in range(1, rank + 1))
        if len(names) != rank or len(set(names)) != rank:
            raise AlgebroidError("need rank distinct basis names")
        struct: Dict[Tuple[int, int, int], ExpPoly] = {}
        for (i, j, k), v in (structure or {}).items():
            if not (1 <= i <= rank and 1 <= j <= rank and 1 <= k <= rank):
                raise AlgebroidError(f"structure index ({i},{j},{k}) out of range")
            if i == j:
                if not _as_poly(base_chart, v).is_zero:
                    raise AlgebroidError("diagonal structure function must be zero")
                continue
            p = _as_poly(base_chart, v)
            if i > j:
                i, j, p = j, i, -p
            if p.is_zero:
                continue
            key = (i, j, k)
            p0 = struct.get(key)
            p = p if p0 is None else p0 + p
            if p.is_zero:
                struct.pop(key, None)
            else:
                struct[key] = p
        anch: Dict[Tuple[int, int], ExpPoly] = {}
        for (l, i), v in (anchor or {}).items():
            if not (0 <= l < base_chart.dim and 1 <= i <= rank):
                raise AlgebroidError(f"anchor index ({l},{i}) out of range")
            p = _as_poly(base_chart, v)
            if not p.is_zero:
                anch[(l, i)] = p
        object.__setattr__(self, "base_chart", base_chart)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "structure", struct)
        object.__setattr__(self, "anchor", anch)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebroidPatch is immutable")

    # -- data access ---------------------------------------------------

    def c(self, i: int, j: int, k: int) -> ExpPoly:
        """Skew-completed structure function c_ij^k (1-based indices)."""
        if i == j:
            return ExpPoly.zero(self.base_chart)
        if i < j:
            return self.structure.get((i, j, k), ExpPoly.zero(self.base_chart))
        p = self.structure.get((j, i, k))
        return ExpPoly.zero(self.base_chart) if p is None else -p

    def rho(self, l: int, i: int) -> ExpPoly:
        """Anchor component rho^l_i; l is a 0-based base-chart index."""
        return self.anchor.get((l, i), ExpPoly.zero(self.base_chart))

    def anchor_of_basis(self, i: int) -> Multivector:
        comps = {(l,): p for (l, ii), p in self.anchor.items() if ii == i}
        return Multivector(self.base_chart, 1, comps)

    def dual_chart(self, fiber_names: Optional[Sequence[str]] = None) -> Chart:
        """Chart of A*: the base coordinates followed by one fiber
        coordinate per basis section, in basis order."""
        if fiber_names is None:
            fiber_names = [f"mu{i}" for i in range(1, self.rank + 1)]
        if len(fiber_names) != self.rank:
            raise AlgebroidError("need one fiber name per basis section")
        return Chart(self.base_chart.coords +
                     tuple((n, "fiber") for n in fiber_names))

    def same_structure(self, other: "AlgebroidPatch") -> bool:
        """Componentwise equality of structure functions and anchors
        (basis names are labels and do not enter)."""
        return (self.base_chart == other.base_chart
                and self.rank == other.rank
                and self.structure == other.structure
                and self.anchor == other.anchor)

    def __eq__(self, other):
        if not isinstance(other, AlgebroidPatch):
            return NotImplemented
        return self.same_structure(other) and self.basis_names == other.basis_names

    def __repr__(self):
        cs = ", ".join(f"c[{i},{j}]^{k}={p.render()}"
                       for (i, j, k), p in sorted(self.structure.items()))
        rs = ", ".join(f"rho^{self.base_chart.names[l]}_{i}={p.render()}"
                       for (l, i), p in sorted(self.anchor.items()))
        return f"AlgebroidPatch(rank={self.rank}, {cs or 'abelian'}; {rs or 'zero anchor'})"


class Section:
    """A section of A as its component tuple over the base chart."""

    __slots__ = ("algebroid", "components")

    def __init__(self, algebroid: AlgebroidPatch,
                 components: Sequence[Union[Scalar, ExpPoly]]):
        if len(components) != algebroid.rank:
            raise AlgebroidError(
                f"need {algebroid.rank} components, got {len(components)}")
        comps = tuple(_as_poly(algebroid.base_chart, v) for v in components)
        object.__setattr__(self, "algebroid", algebroid)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("Section is immutable")

    @classmethod
    def basis(cls, algebroid: AlgebroidPatch, i: int) -> "Section":
        return cls(algebroid, tuple(1 if j == i else 0
                                    for j in range(1, algebroid.rank + 1)))

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return self.components == other.components

    def __add__(self, other):
        return Section(self.algebroid, tuple(a + b for a, b in
                                             zip(self.components, other.components)))

    def __sub__(self, other):
        return Section(self.algebroid, tuple(a - b for a, b in
                                             zip(self.components, other.components)))

    def __neg__(self):
        return Section(self.algebroid, tuple(-a for a in self.components))

    def scale(self, f: Union[Scalar, ExpPoly]) -> "Section":
        f = _as_poly(self.algebroid.base_chart, f) if isinstance(f, ExpPoly) else f
        return Section(self.algebroid, tuple(a * f for a in self.components))

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.components)

    def render(self) -> str:
        parts = []
        for name, p in zip(self.algebroid.basis_names, self.components):
            if p.is_zero:
                continue
            coeff = p.render()
            if len(p.terms) > 1:
                coeff = f"({coeff})"
            parts.append(f"{coeff} {name}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Section({self.render()})"


class Cocycle:
    """A section of A*, stored as the values phi_i = phi(e_i)."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[ExpPoly]):
        comps = tuple(components)
        if not comps:
            raise AlgebroidError("empty cocycle")
        chart = comps[0].chart
        if any(p.chart != chart for p in comps):
            raise AlgebroidError("cocycle components on different charts")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("Cocycle is immutable")

    @classmethod
    def from_scalars(cls, chart: Chart, values: Sequence[Union[Scalar, ExpPoly]]) -> "Cocycle":
        return cls(tuple(_as_poly(chart, v) for v in values))

    @classmethod
    def zero(cls, chart: Chart, rank: int) -> "Cocycle":
        return cls(tuple(ExpPoly.zero(chart) for _ in range(rank)))

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.components)

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return f"Cocycle({', '.join(p.render() for p in self.components)})"


# ---------------------------------------------------------------------------
# Bracket and anchor on sections
# ---------------------------------------------------------------------------

def bracket_sections(A: AlgebroidPatch, mu: Section, eta: Section) -> Section:
    """The algebroid bracket extended to polynomial sections by the
    Leibniz rule: k-th component

        sum_ij mu_i eta_j c_ij^k + rho(mu)(eta_k) - rho(eta)(mu_k).
    """
    if mu.algebroid is not A and mu.algebroid.rank != A.rank:
        raise AlgebroidError("section rank mismatch")
    if eta.algebroid is not A and eta.algebroid.rank != A.rank:
        raise AlgebroidError("section rank mismatch")
    n = A.rank
    rho_mu = anchor_apply(A, mu)
    rho_eta = anchor_apply(A, eta)
    out: List[ExpPoly] = []
    for k in range(1, n + 1):
        acc = ExpPoly.zero(A.base_chart)
        for (i, j, kk), c in A.structure.items():
            if kk != k:
                continue
            mi, ej = mu.components[i - 1], eta.components[j - 1]
            mj, ei = mu.components[j - 1], eta.components[i - 1]
            acc = acc + c * (mi * ej - mj * ei)
        acc = acc + rho_mu.apply(eta.components[k - 1])
        acc = acc - rho_eta.apply(mu.components[k - 1])
        out.append(acc)
    return Section(A, out)


def anchor_apply(A: AlgebroidPatch, mu: Section) -> Multivector:
    """rho(mu) = sum_i mu_i rho^l_i d/dx_l as a vector field on the base."""
    if mu.algebroid.rank != A.rank:
        raise AlgebroidError("section rank mismatch")
    comps: Dict[Tuple[int, ...], ExpPoly] = {}
    for (l, i), p in A.anchor.items():
        q = mu.components[i - 1] * p
        comps[(l,)] = comps.get((l,), ExpPoly.zero(A.base_chart)) + q
    return Multivector(A.base_chart, 1, comps)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def verify_algebroid(A: AlgebroidPatch) -> Report:
    """Exact symbolic checks of the Lie algebroid axioms on basis sections.

    Basis checks suffice: bracket_sections carries the Leibniz expansion,
    so the identities extend to all polynomial sections.
    """
    rep = Report()
    n = A.rank
    basis = [Section.basis(A, i) for i in range(1, n + 1)]

    with rep.timed("skew_symmetry") as slot:
        # storage enforces i<j, so the residual is the diagonal bracket
        bad = []
        for i in range(1, n + 1):
            b = bracket_sections(A, basis[i - 1], basis[i - 1])
            if not b.is_zero:
                bad.append(f"[e{i},e{i}] = {b.render()}")
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)

    with rep.timed("jacobi_identity") as slot:
        bad = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    ei, ej, ek = basis[i - 1], basis[j - 1], basis[k - 1]
                    cyc = bracket_sections(A, bracket_sections(A, ei, ej), ek)
                    cyc = cyc + bracket_sections(A, bracket_sections(A, ej, ek), ei)
                    cyc = cyc + bracket_sections(A, bracket_sections(A, ek, ei), ej)
                    if not cyc.is_zero:
                        bad.append(f"({i},{j},{k}): {cyc.render()}")
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)

    with rep.timed("anchor_morphism") as slot:
        bad = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                lhs = anchor_apply(A, bracket_sections(A, basis[i - 1], basis[j - 1]))
                rhs = sn_bracket(A.anchor_of_basis(i), A.anchor_of_basis(j))
                res = lhs - rhs
                if not res.is_zero:
                    bad.append(f"({i},{j}): {res.render()}")
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)

    return rep


def verify_cocycle(A: AlgebroidPatch, phi: Cocycle) -> Report:
    """Degree-1 cocycle condition on basis pairs:

        sum_k c_ij^k phi_k - rho(e_i)(phi_j) + rho(e_j)(phi_i) = 0.
    """
    if phi.rank != A.rank:
        raise AlgebroidError("cocycle rank mismatch")
    rep = Report()
    with rep.timed("cocycle_condition") as slot:
        bad = []
        for i in range(1, A.rank + 1):
            for j in range(i + 1, A.rank + 1):
                res = ExpPoly.zero(A.base_chart)
                for k in range(1, A.rank + 1):
                    res = res + A.c(i, j, k) * phi.components[k - 1]
                res = res - A.anchor_of_basis(i).apply(phi.components[j - 1])
                res = res + A.anchor_of_basis(j).apply(phi.components[i - 1])
                if not res.is_zero:
                    bad.append(f"({i},{j}): {res.render()}")
        slot["ok"] = not bad
        slot["residual"] = "; ".join(bad)
    return rep


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def cotangent_algebroid(L: Multivector) -> AlgebroidPatch:
    """The Lie algebroid T*M of a Poisson bivector: basis dx^i,
    c_ij^k = d(L^ij)/dx^k and anchor rho(dx^i) = sharp(L, dx^i)."""
    if L.grade != 2:
        raise GradeError("need a bivector")
    if not sn_bracket(L, L).is_zero:
        raise AlgebroidError("bivector is not Poisson: [L,L] != 0")
    chart = L.chart
    m = chart.dim
    structure: Dict[Tuple[int, int, int], ExpPoly] = {}
    anchor: Dict[Tuple[int, int], ExpPoly] = {}
    for (i, j), p in L.comps.items():
        for k in range(m):
            dp = p.partial(chart.names[k])
            if not dp.is_zero:
                structure[(i + 1, j + 1, k + 1)] = dp
    for i in range(m):
        sh = sharp(L, DiffForm.basis(chart, chart.names[i]))
        for (l,), p in sh.comps.items():
            anchor[(l, i + 1)] = p
    return AlgebroidPatch(chart, m, structure, anchor,
                          basis_names=[f"dx_{n}" for n in chart.names])


def jacobi_algebroid(L: Multivector, E: Multivector) -> AlgebroidPatch:
    """The Lie algebroid T*M x R of a Jacobi pair (L, E): rank dim(M)+1
    with basis {(dx^i, 0)} + {(0, 1)}, bracket

        [(a,f),(b,g)] = (L_{#a} b - L_{#b} a - d(L(a,b))
                           + f L_E b - g L_E a - i_E(a ^ b),
                         L(b,a) + #a(g) - #b(f) + f E(g) - g E(f)),

    evaluated on basis pairs, and anchor #(a,f) = #_L(a) + f E."""
    from .jacobi import JacobiStructure, verify_jacobi  # cycle-free at runtime

    if L.grade != 2 or E.grade != 1:
        raise GradeError("need a bivector and a vector field")
    if not verify_jacobi(JacobiStructure(L.chart, L, E)).passed:
        raise AlgebroidError("input pair is not a Jacobi structure")
    chart = L.chart
    m = chart.dim
    n = m + 1
    one = ExpPoly.const(chart, 1)
    zero_form = DiffForm.zero(chart, 1)

    def basis_pair(i: int) -> Tuple[DiffForm, ExpPoly]:
        if i <= m:
            return DiffForm.basis(chart, chart.names[i - 1]), ExpPoly.zero(chart)
        return zero_form, one

    def pair_bracket(a: DiffForm, f: ExpPoly, b: DiffForm, g: ExpPoly):
        sa, sb = sharp(L, a), sharp(L, b)
        first = lie_derivative(sa, b) - lie_derivative(sb, a)
        first = first - exterior_d(pairing(L, a, b))
        first = first + f * lie_derivative(E, b) - g * lie_derivative(E, a)
        iE = interior(E, a.wedge(b))
        first = first - (DiffForm.from_function(iE) if isinstance(iE, ExpPoly) else iE)
        second = pairing(L, b, a) + sa.apply(g) - sb.apply(f)
        second = second + f * E.apply(g) - g * E.apply(f)
        return first, second

    structure: Dict[Tuple[int, int, int], ExpPoly] = {}
    anchor: Dict[Tuple[int, int], ExpPoly] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            a, f = basis_pair(i)
            b, g = basis_pair(j)
            first, second = pair_bracket(a, f, b, g)
            for (l,), p in first.comps.items():
                structure[(i, j, l + 1)] = p
            if not second.is_zero:
                structure[(i, j, n)] = structure.get((i, j, n), ExpPoly.zero(chart)) + second
    for i in range(1, n + 1):
        a, f = basis_pair(i)
        vec = sharp(L, a) + f * E
        for (l,), p in vec.comps.items():
            anchor[(l, i)] = p
    names = [f"dx_{nme}" for nme in chart.names] + ["unit"]
    return AlgebroidPatch(chart, n, structure, anchor, basis_names=names)
