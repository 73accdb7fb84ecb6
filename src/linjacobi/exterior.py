"""Graded calculus on a chart: multivectors, forms, Schouten bracket.

Multivector fields and differential forms are homogeneous graded-skew
tensors with ExpPoly components, stored on strictly increasing index
tuples.  The Schouten-Nijenhuis bracket is computed through the odd-variable
(Grassmann) representation: a p-vector is a degree-p function in
anticommuting symbols theta_i, and

    [P, Q] = P.Q - (-1)^((p-1)(q-1)) Q.P,
    P.Q    = sum_l  (dP/dtheta_l) ^ (dQ/dx_l),

which restricts to X(f) on (vector, function) pairs and to the Lie bracket
on pairs of vector fields.  All contraction signs are fixed by nesting
single contractions left to right, so that <dx^I, d/dx_I> = +1.

Every component that is a sum of products is summed by one call of the
ring's kernel `sum_of_products`.  Pfaffians come from one memoised
routine, `_pfaffians`, which expands along the first row over shared
sub-Pfaffians, so a matrix's Pfaffian and all its minors read from one
memo: one expansion per row subset.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .chart import Chart
from .ring import ChartMismatchError, ExpPoly, Scalar, sum_of_products

Index = Tuple[int, ...]
# the signed products that sum to each component of a result; the class
# is named by a string, since typing caches the alias for good and would
# otherwise hold on to this module's ExpPoly after a reimport
Products = Dict[Index, List[Tuple[int, "ExpPoly", "ExpPoly"]]]


class GradeError(ValueError):
    pass


def _sort_index(idx: Iterable[int]) -> Tuple[Optional[Index], int]:
    """Sort an index tuple, returning (sorted tuple, sign); None if repeated."""
    idx = list(idx)
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None, 0
    return tuple(idx), sign


def _sums(chart: Chart, products: Products) -> Dict[Index, ExpPoly]:
    """Each component's sum of products, by one kernel call per index."""
    return {idx: sum_of_products(chart, ps) for idx, ps in products.items()}


class GradedSkew:
    """Shared machinery of Multivector and DiffForm."""

    __slots__ = ("chart", "grade", "comps")

    def __init__(self, chart: Chart, grade: int,
                 comps: Optional[Mapping[Index, ExpPoly]] = None):
        if grade < 0:
            raise GradeError("negative grade")
        clean: Dict[Index, ExpPoly] = {}
        if comps:
            for idx, p in comps.items():
                if p.chart != chart:
                    raise ChartMismatchError("component on wrong chart")
                if len(idx) != grade:
                    raise GradeError(f"index {idx} does not match grade {grade}")
                if any(i < 0 or i >= chart.dim for i in idx):
                    raise GradeError(f"index {idx} out of range for {chart}")
                sidx, sign = _sort_index(idx)
                if sidx is None or p.is_zero:
                    continue
                q = p if sign == 1 else -p
                p0 = clean.get(sidx)
                q = q if p0 is None else p0 + q
                if q.is_zero:
                    clean.pop(sidx, None)
                else:
                    clean[sidx] = q
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "comps", clean)

    @classmethod
    def _make(cls, chart: Chart, grade: int, comps: Dict[Index, ExpPoly]):
        """Wrap components that are canonical by construction, unchecked:
        strictly increasing index tuples of length `grade` within the chart,
        values on `chart`.  Zero components are dropped."""
        t = object.__new__(cls)
        object.__setattr__(t, "chart", chart)
        object.__setattr__(t, "grade", grade)
        object.__setattr__(t, "comps", {i: p for i, p in comps.items() if p.terms})
        return t

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, grade: int):
        return cls(chart, grade)

    @classmethod
    def from_function(cls, p: ExpPoly):
        return cls(p.chart, 0, {(): p})

    @classmethod
    def basis(cls, chart: Chart, *names: str):
        """d/dx_a ^ ... (multivector) or dx_a ^ ... (form) with coefficient 1."""
        idx = tuple(chart.index(n) for n in names)
        return cls(chart, len(idx), {idx: ExpPoly.const(chart, 1)})

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def component(self, idx: Iterable[int]) -> ExpPoly:
        """Signed component for an arbitrary (not necessarily sorted) index."""
        sidx, sign = _sort_index(idx)
        if sidx is None:
            return ExpPoly.zero(self.chart)
        p = self.comps.get(sidx)
        if p is None:
            return ExpPoly.zero(self.chart)
        return p if sign == 1 else -p

    def as_function(self) -> ExpPoly:
        if self.grade != 0:
            raise GradeError("not a grade-0 object")
        return self.comps.get((), ExpPoly.zero(self.chart))

    # -- linear structure ----------------------------------------------

    def _like(self, comps, grade=None):
        return self._make(self.chart, self.grade if grade is None else grade, comps)

    def _check(self, other) -> None:
        if type(self) is not type(other):
            raise TypeError(f"cannot mix {type(self).__name__} and {type(other).__name__}")
        if self.chart != other.chart:
            raise ChartMismatchError("operands on different charts")

    def __add__(self, other):
        self._check(other)
        if self.grade != other.grade:
            # the zero tensor is grade-agnostic
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise GradeError("cannot add different grades")
        comps = dict(self.comps)
        for idx, p in other.comps.items():
            p0 = comps.get(idx)
            comps[idx] = p if p0 is None else p0 + p
        return self._like(comps)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({i: -p for i, p in self.comps.items()})

    def __mul__(self, other: Union[Scalar, ExpPoly]):
        if isinstance(other, GradedSkew):
            return NotImplemented
        return self._like({i: p * other for i, p in self.comps.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return (self.chart == other.chart and self.grade == other.grade
                and self.comps == other.comps)

    def __hash__(self):
        return hash((type(self).__name__, self.chart, self.grade,
                     frozenset(self.comps.items())))

    # -- wedge ---------------------------------------------------------

    def wedge(self, other):
        self._check(other)
        grade = self.grade + other.grade
        if grade > self.chart.dim:
            return self._like({}, grade)
        products: Products = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                sidx, sign = _sort_index(i1 + i2)
                if sidx is not None:
                    products.setdefault(sidx, []).append((sign, p1, p2))
        return self._like(_sums(self.chart, products), grade)

    def __xor__(self, other):
        return self.wedge(other)

    # -- transfer & rendering ------------------------------------------

    def transfer(self, chart: Chart):
        """Move to another chart, matching coordinates by name."""
        imap = {}
        for i, (name, _) in enumerate(self.chart.coords):
            if chart.has(name):
                imap[i] = chart.index(name)
        comps: Dict[Index, ExpPoly] = {}
        for idx, p in self.comps.items():
            try:
                new_idx = tuple(imap[i] for i in idx)
            except KeyError:
                missing = [self.chart.names[i] for i in idx if i not in imap]
                raise ChartMismatchError(
                    f"direction(s) {missing} have no image in {chart}")
            comps[new_idx] = p.transfer(chart)
        return type(self)(chart, self.grade, comps)

    def _basis_symbol(self, i: int) -> str:
        raise NotImplementedError

    def render(self) -> str:
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps):
            p = self.comps[idx]
            coeff = p.render()
            if len(p.terms) > 1:
                coeff = f"({coeff})"
            sym = "^".join(self._basis_symbol(i) for i in idx)
            parts.append(f"{coeff} {sym}" if sym else coeff)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class Multivector(GradedSkew):
    __slots__ = ()

    def _basis_symbol(self, i: int) -> str:
        return f"d/d{self.chart.names[i]}"

    def apply(self, f: ExpPoly) -> ExpPoly:
        """Derivation action of a vector field on a function."""
        if self.grade != 1:
            raise GradeError("only vector fields act on functions")
        names = self.chart.names
        return sum_of_products(self.chart, [(1, p, f.partial(names[i]))
                                            for (i,), p in self.comps.items()])


class DiffForm(GradedSkew):
    __slots__ = ()

    def _basis_symbol(self, i: int) -> str:
        return f"d{self.chart.names[i]}"


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket
# ---------------------------------------------------------------------------

def _add_odd_terms(out: Products, T: Multivector, U: Multivector,
                   scale: int, t_first: bool) -> None:
    """Add the products of  scale * sum_l (dT/dtheta_l) ^ (dU/dx_l)  to
    `out`, with the two wedge factors swapped when not `t_first`.  The left
    Grassmann derivative of dx^I at the position pos of l in I is
    (-1)^pos dx^(I without l), so every product lands, signed by sorting
    its index, in one component."""
    names = T.chart.names
    partials: Dict[Tuple[Index, int], ExpPoly] = {}
    for tidx, t in T.comps.items():
        for pos, l in enumerate(tidx):
            rest = tidx[:pos] + tidx[pos + 1:]
            for uidx, u in U.comps.items():
                du = partials.get((uidx, l))
                if du is None:
                    du = partials[(uidx, l)] = u.partial(names[l])
                if not du.terms:
                    continue
                sidx, s = _sort_index(rest + uidx if t_first else uidx + rest)
                if sidx is not None:
                    c = scale * s if pos % 2 == 0 else -scale * s
                    out.setdefault(sidx, []).append((c, t, du))


def sn_bracket(P: Multivector, Q: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket of homogeneous multivector fields.

    Computed through the odd-variable antibracket

        m(P, Q) = sum_l (-1)^(p-1) (dP/dtheta_l) ^ (dQ/dx_l)
                       -           (dP/dx_l) ^ (dQ/dtheta_l)

    twisted by (-1)^((p-1)(q-1)).  The twist picks, among the two standard
    sign conventions, the one under which a bivector/vector pair built from
    an algebroid with cocycle satisfies  [L, L] = 2 E ^ L  on the nose,
    while [X, Y] stays the Lie bracket and [X, f] = X(f).  A grade-0
    result, [f, g] = 0 included, is an ExpPoly.  For P of even grade, [P, P]
    is one half of the antibracket doubled: the two halves are equal because
    dP/dtheta_l is odd and dP/dx_l even, so their wedge commutes.
    """
    if isinstance(P, ExpPoly):
        P = Multivector(P.chart, 0, {(): P})
    if isinstance(Q, ExpPoly):
        Q = Multivector(Q.chart, 0, {(): Q})
    if P.chart != Q.chart:
        raise ChartMismatchError("operands on different charts")
    grade = max(P.grade + Q.grade - 1, 0)
    twist = -1 if ((P.grade - 1) * (Q.grade - 1)) % 2 else 1
    products: Products = {}
    if P is Q and P.grade % 2 == 0:
        _add_odd_terms(products, P, P, 2, True)
    else:
        _add_odd_terms(products, P, Q, -twist if (P.grade - 1) % 2 else twist, True)
        _add_odd_terms(products, Q, P, -twist, False)
    if grade == 0:
        return sum_of_products(P.chart, products.get((), ()))
    return Multivector._make(P.chart, grade, _sums(P.chart, products))


# ---------------------------------------------------------------------------
# Exterior derivative, interior product, Lie derivative
# ---------------------------------------------------------------------------

def exterior_d(w: Union[DiffForm, ExpPoly]) -> DiffForm:
    """Exterior derivative; accepts a bare ExpPoly as a 0-form."""
    if isinstance(w, ExpPoly):
        w = DiffForm._make(w.chart, 0, {(): w})
    chart = w.chart
    comps: Dict[Index, ExpPoly] = {}
    for idx, p in w.comps.items():
        for l in range(chart.dim):
            dp = p.partial(chart.names[l])
            if dp.is_zero:
                continue
            sidx, sign = _sort_index((l,) + idx)
            if sidx is None:
                continue
            q = dp if sign == 1 else -dp
            q0 = comps.get(sidx)
            comps[sidx] = q if q0 is None else q0 + q
    return DiffForm._make(chart, w.grade + 1, comps)


def interior(P: Multivector, w: DiffForm) -> Union[DiffForm, ExpPoly]:
    """Full contraction of a p-vector into a k-form, p <= k.

    The directions of each component of P, in sorted order, are removed
    one by one from the index of each component of w, each removal at
    position pos signed (-1)^pos; this nests single contractions so that
    interior(d/dx ^ d/dy, dx ^ dy) = 1, and pairing(L, a, b) =
    interior(L, a ^ b).  A degree-0 result is returned as a bare ExpPoly.
    """
    if P.chart != w.chart:
        raise ChartMismatchError("operands on different charts")
    if P.grade > w.grade:
        raise GradeError(f"grade {P.grade} exceeds form degree {w.grade}")
    products: Products = {}
    for pidx, p in P.comps.items():
        for widx, q in w.comps.items():
            rest, sign = widx, 1
            for l in pidx:
                if l not in rest:
                    break
                pos = rest.index(l)
                rest = rest[:pos] + rest[pos + 1:]
                sign = -sign if pos % 2 else sign
            else:
                products.setdefault(rest, []).append((sign, p, q))
    if P.grade == w.grade:
        return sum_of_products(w.chart, products.get((), ()))
    return DiffForm._make(w.chart, w.grade - P.grade, _sums(w.chart, products))


def lie_derivative(X: Multivector, T: Union[Multivector, DiffForm]):
    """Lie derivative along a vector field.

    Multivectors go through the Schouten bracket; forms use the Cartan
    formula  L_X = i_X d + d i_X.
    """
    if X.grade != 1:
        raise GradeError("Lie derivative needs a vector field")
    if isinstance(T, Multivector):
        return sn_bracket(X, T)
    ia = interior(X, exterior_d(T))
    if T.grade == 0:
        return DiffForm.from_function(ia)
    return ia + exterior_d(interior(X, T))


# ---------------------------------------------------------------------------
# Bivector pairing, sharp map, nondegeneracy
# ---------------------------------------------------------------------------

def pairing(L: Multivector, a: DiffForm, b: DiffForm) -> ExpPoly:
    """L(a, b) = interior(L, a ^ b) for a bivector L and 1-forms a, b
    (antisymmetric in a, b)."""
    if L.grade != 2 or a.grade != 1 or b.grade != 1:
        raise GradeError("pairing needs a bivector and two 1-forms")
    return interior(L, a.wedge(b))


def sharp(L: Multivector, a: DiffForm) -> Multivector:
    """The map defined by  b(sharp(L, a)) = L(a, b)."""
    if L.grade != 2 or a.grade != 1:
        raise GradeError("sharp needs a bivector and a 1-form")
    products: Products = {}
    for (i, j), p in L.comps.items():
        ai = a.comps.get((i,))
        aj = a.comps.get((j,))
        if ai is not None:
            products.setdefault((j,), []).append((1, ai, p))
        if aj is not None:
            products.setdefault((i,), []).append((-1, aj, p))
    return Multivector._make(L.chart, 1, _sums(L.chart, products))


def _pfaffians(mat, chart: Chart) -> Callable[[Index], ExpPoly]:
    """pf(rows): the Pfaffian of the antisymmetric ExpPoly matrix `mat`
    restricted to the strictly increasing row tuple `rows`, expanded
    along its first row through one kernel call, each sub-Pfaffian
    memoised on its row tuple.  The memo lives as long as the returned
    function, so one solve reads a Pfaffian and all its minors from it."""
    memo: Dict[Index, ExpPoly] = {}

    def pf(rows: Index) -> ExpPoly:
        n = len(rows)
        if n == 2:
            return mat[rows[0]][rows[1]]
        p = memo.get(rows)
        if p is None:
            if n == 0:
                p = ExpPoly.const(chart, 1)
            elif n % 2:
                p = ExpPoly.zero(chart)
            else:
                first = mat[rows[0]]
                p = sum_of_products(chart, [
                    (1 if pos % 2 else -1, first[r], pf(rows[1:pos] + rows[pos + 1:]))
                    for pos, r in enumerate(rows) if pos and first[r].terms])
            memo[rows] = p
        return p

    return pf


def check_nondegenerate(L: Multivector) -> str:
    """Three-valued verdict on a bivector via the Pfaffian of its matrix.

    Returns "nondegenerate_constant" when the Pfaffian is a nowhere-zero
    constant (c * s^k with c != 0), "degenerate" when it vanishes
    identically, and "indeterminate" otherwise.
    """
    if L.grade != 2:
        raise GradeError("nondegeneracy check needs a bivector")
    n = L.chart.dim
    zero = ExpPoly.zero(L.chart)
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), p in L.comps.items():
        mat[i][j] = p
        mat[j][i] = -p
    pf = _pfaffians(mat, L.chart)(tuple(range(n)))
    if pf.is_zero:
        return "degenerate"
    if pf.is_nonvanishing_constant():
        return "nondegenerate_constant"
    return "indeterminate"
