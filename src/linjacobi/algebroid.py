"""Lie algebroid patches: section brackets, axiom and cocycle checks,
and the two constructions used downstream (cotangent algebroid of a
Poisson bivector, the algebroid T*M x R of a Jacobi pair)."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .chart import Chart
from .ring import ExpPoly, Scalar, sum_of_products
from .exterior import GradeError, Multivector, Products, _sums, sn_bracket
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
        chart = algebroid.base_chart
        one, zero = ExpPoly.const(chart, 1), ExpPoly.zero(chart)
        return cls(algebroid, tuple(one if j == i else zero
                                    for j in range(1, algebroid.rank + 1)))

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return self.components == other.components

    def _plus(self, other: "Section", sign: int) -> "Section":
        """self + sign * other.  Over one base chart a component passes
        through where the other one is zero, with no ring addition."""
        same = other.algebroid.base_chart == self.algebroid.base_chart
        comps = []
        for a, b in zip(self.components, other.components):
            if same and not b.terms:
                comps.append(a)
            elif same and not a.terms:
                comps.append(b if sign == 1 else -b)
            else:
                comps.append(a + b if sign == 1 else a - b)
        return Section(self.algebroid, comps)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

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

    Only products of two nonzero factors are formed, and each component
    is summed by one kernel call.
    """
    if mu.algebroid is not A and mu.algebroid.rank != A.rank:
        raise AlgebroidError("section rank mismatch")
    if eta.algebroid is not A and eta.algebroid.rank != A.rank:
        raise AlgebroidError("section rank mismatch")
    chart = A.base_chart
    m, e = mu.components, eta.components
    acc: List[List[Tuple[int, ExpPoly, ExpPoly]]] = [[] for _ in range(A.rank)]
    # mu_i eta_j - mu_j eta_i, shared by every k of one stored pair i < j;
    # None when both products vanish
    skew: Dict[Tuple[int, int], Optional[ExpPoly]] = {}
    for (i, j, k), c in A.structure.items():
        if (i, j) not in skew:
            products = [(s, m[a - 1], e[b - 1]) for s, a, b in ((1, i, j), (-1, j, i))
                        if m[a - 1].terms and e[b - 1].terms]
            skew[(i, j)] = sum_of_products(chart, products) if products else None
        d = skew[(i, j)]
        if d is not None:
            acc[k - 1].append((1, c, d))
    # rho(mu)(eta_k) - rho(eta)(mu_k) = sum over rho^l_i of
    # mu_i rho^l_i d_l(eta_k) - eta_i rho^l_i d_l(mu_k)
    names = A.base_chart.names
    for f, g, sign in ((m, e, 1), (e, m, -1)):
        partials: Dict[Tuple[int, int], ExpPoly] = {}
        for (l, i), r in A.anchor.items():
            if not f[i - 1].terms:
                continue
            fr = None
            for k, gk in enumerate(g):
                if not gk.terms:
                    continue
                dg = partials.get((k, l))
                if dg is None:
                    dg = partials[(k, l)] = gk.partial(names[l])
                if not dg.terms:
                    continue
                if fr is None:
                    fr = f[i - 1] * r
                acc[k].append((sign, fr, dg))
    zero = ExpPoly.zero(chart)
    return Section(A, [sum_of_products(chart, ps) if ps else zero for ps in acc])


def anchor_apply(A: AlgebroidPatch, mu: Section) -> Multivector:
    """rho(mu) = sum_i mu_i rho^l_i d/dx_l as a vector field on the base."""
    if mu.algebroid.rank != A.rank:
        raise AlgebroidError("section rank mismatch")
    products: Products = {}
    for (l, i), p in A.anchor.items():
        a = mu.components[i - 1]
        if a.terms:
            products.setdefault((l,), []).append((1, a, p))
    return Multivector(A.base_chart, 1, _sums(A.base_chart, products))


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

    with rep.timed("skew_symmetry") as bad:
        # storage enforces i<j, so the residual is the diagonal bracket
        for i in range(1, n + 1):
            b = bracket_sections(A, basis[i - 1], basis[i - 1])
            if not b.is_zero:
                bad.append(f"[e{i},e{i}] = {b.render()}")

    with rep.timed("jacobi_identity") as bad:
        # each [e_i, e_j], i < j, once; [e_j, e_i] is its negative
        pair = {(i, j): bracket_sections(A, basis[i - 1], basis[j - 1])
                for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for k in range(j + 1, n + 1):
                    ei, ej, ek = basis[i - 1], basis[j - 1], basis[k - 1]
                    cyc = bracket_sections(A, pair[(i, j)], ek)
                    cyc = cyc + bracket_sections(A, pair[(j, k)], ei)
                    cyc = cyc + bracket_sections(A, -pair[(i, k)], ej)
                    if not cyc.is_zero:
                        bad.append(f"({i},{j},{k}): {cyc.render()}")

    with rep.timed("anchor_morphism") as bad:
        rho = [anchor_apply(A, e) for e in basis]
        for (i, j), b in pair.items():
            res = anchor_apply(A, b) - sn_bracket(rho[i - 1], rho[j - 1])
            if not res.is_zero:
                bad.append(f"({i},{j}): {res.render()}")

    return rep


def verify_cocycle(A: AlgebroidPatch, phi: Cocycle) -> Report:
    """Degree-1 cocycle condition on basis pairs:

        sum_k c_ij^k phi_k - rho(e_i)(phi_j) + rho(e_j)(phi_i) = 0.
    """
    if phi.rank != A.rank:
        raise AlgebroidError("cocycle rank mismatch")
    rep = Report()
    with rep.timed("cocycle_condition") as bad:
        rho = [anchor_apply(A, Section.basis(A, i)) for i in range(1, A.rank + 1)]
        for i in range(1, A.rank + 1):
            for j in range(i + 1, A.rank + 1):
                res = sum_of_products(A.base_chart, [
                    (1, A.c(i, j, k), phi.components[k - 1])
                    for k in range(1, A.rank + 1)])
                res = res - rho[i - 1].apply(phi.components[j - 1])
                res = res + rho[j - 1].apply(phi.components[i - 1])
                if not res.is_zero:
                    bad.append(f"({i},{j}): {res.render()}")
    return rep


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def _bivector_data(L: Multivector):
    """Structure functions c_ij^k = d_k L^ij and anchor rho^l_i = L^il of
    the cotangent algebroid of L on the basis dx^i, as dicts keyed by
    AlgebroidPatch's 1-based basis indices."""
    names = L.chart.names
    structure: Dict[Tuple[int, int, int], ExpPoly] = {}
    anchor: Dict[Tuple[int, int], ExpPoly] = {}
    for (i, j), p in L.comps.items():
        for k, name in enumerate(names):
            dp = p.partial(name)
            if dp.terms:
                structure[(i + 1, j + 1, k + 1)] = dp
        anchor[(j, i + 1)] = p
        anchor[(i, j + 1)] = -p
    return structure, anchor


def cotangent_algebroid(L: Multivector) -> AlgebroidPatch:
    """The Lie algebroid T*M of a Poisson bivector: basis dx^i,
    c_ij^k = d(L^ij)/dx^k and anchor rho(dx^i) = sharp(L, dx^i)."""
    if L.grade != 2:
        raise GradeError("need a bivector")
    if not sn_bracket(L, L).is_zero:
        raise AlgebroidError("bivector is not Poisson: [L,L] != 0")
    structure, anchor = _bivector_data(L)
    return AlgebroidPatch(L.chart, L.chart.dim, structure, anchor,
                          basis_names=[f"dx_{n}" for n in L.chart.names])


def jacobi_algebroid(L: Multivector, E: Multivector) -> AlgebroidPatch:
    """The Lie algebroid T*M x R of a Jacobi pair (L, E): rank dim(M)+1
    with basis {(dx^i, 0)} + {u = (0, 1)}, bracket

        [(a,f),(b,g)] = (L_{#a} b - L_{#b} a - d(L(a,b))
                           + f L_E b - g L_E a - i_E(a ^ b),
                         L(b,a) + #a(g) - #b(f) + f E(g) - g E(f)),

    and anchor #(a,f) = #_L(a) + f E.  On the basis, with u the basis
    index dim(M)+1, this is the cotangent algebroid's c_ij^k = d_k L^ij
    and rho^l_i = L^il together with

        c_ij^k gains -E^i delta_jk + E^j delta_ik,
        c_ij^u = -L^ij,   c_iu^k = -d_k E^i,   #u = E."""
    from .jacobi import JacobiStructure, verify_jacobi  # cycle-free at runtime

    if L.grade != 2 or E.grade != 1:
        raise GradeError("need a bivector and a vector field")
    if not verify_jacobi(JacobiStructure(L.chart, L, E)).passed:
        raise AlgebroidError("input pair is not a Jacobi structure")
    names = L.chart.names
    u = len(names) + 1
    structure, anchor = _bivector_data(L)
    for (i, j), p in L.comps.items():
        structure[(i + 1, j + 1, u)] = -p
    for (i,), e in E.comps.items():
        anchor[(i, u)] = e
        for k, name in enumerate(names):
            de = e.partial(name)
            if de.terms:
                structure[(i + 1, u, k + 1)] = -de
            if k != i:
                # -E^i delta_jk at (i, j=k, k); AlgebroidPatch adds a key
                # with i > j to (j, i, k) negated, which is +E^j delta_ik
                key = (i + 1, k + 1, k + 1)
                q0 = structure.get(key)
                structure[key] = -e if q0 is None else q0 - e
    return AlgebroidPatch(L.chart, u, structure, anchor,
                          basis_names=[f"dx_{n}" for n in names] + ["unit"])
