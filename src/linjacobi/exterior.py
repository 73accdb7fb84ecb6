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
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .chart import Chart
from .ring import ChartMismatchError, ExpPoly, Scalar

Index = Tuple[int, ...]


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


class GradedSkew:
    """Shared machinery of Multivector and DiffForm."""

    kind = "graded"
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
        return type(self)(self.chart, self.grade if grade is None else grade, comps)

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
            comps[idx] = comps.get(idx, ExpPoly.zero(self.chart)) + p
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
        comps: Dict[Index, ExpPoly] = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                sidx, sign = _sort_index(i1 + i2)
                if sidx is None:
                    continue
                q = p1 * p2
                if sign == -1:
                    q = -q
                comps[sidx] = comps.get(sidx, ExpPoly.zero(self.chart)) + q
        return self._like(comps, grade)

    def __xor__(self, other):
        return self.wedge(other)

    # -- transfer & rendering ------------------------------------------

    def transfer(self, chart: Chart, rename: Optional[Mapping[str, str]] = None):
        """Move to another chart, matching coordinates by (renamed) name."""
        rename = rename or {}
        imap = {}
        for i, (name, _) in enumerate(self.chart.coords):
            tgt = rename.get(name, name)
            if chart.has(tgt):
                imap[i] = chart.index(tgt)
        comps: Dict[Index, ExpPoly] = {}
        for idx, p in self.comps.items():
            try:
                new_idx = tuple(imap[i] for i in idx)
            except KeyError:
                missing = [self.chart.names[i] for i in idx if i not in imap]
                raise ChartMismatchError(
                    f"direction(s) {missing} have no image in {chart}")
            comps[new_idx] = p.transfer(chart, rename)
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
    kind = "multivector"
    __slots__ = ()

    def _basis_symbol(self, i: int) -> str:
        return f"d/d{self.chart.names[i]}"

    def apply(self, f: ExpPoly) -> ExpPoly:
        """Derivation action of a vector field on a function."""
        if self.grade != 1:
            raise GradeError("only vector fields act on functions")
        out = ExpPoly.zero(self.chart)
        for (i,), p in self.comps.items():
            out = out + p * f.partial(self.chart.names[i])
        return out


class DiffForm(GradedSkew):
    kind = "form"
    __slots__ = ()

    def _basis_symbol(self, i: int) -> str:
        return f"d{self.chart.names[i]}"


# ---------------------------------------------------------------------------
# Schouten-Nijenhuis bracket
# ---------------------------------------------------------------------------

def _theta_partial(P: Multivector, l: int) -> Multivector:
    """Left Grassmann derivative d/dtheta_l, lowering the grade by one."""
    comps: Dict[Index, ExpPoly] = {}
    for idx, p in P.comps.items():
        if l not in idx:
            continue
        pos = idx.index(l)
        rest = idx[:pos] + idx[pos + 1:]
        q = p if pos % 2 == 0 else -p
        comps[rest] = comps.get(rest, ExpPoly.zero(P.chart)) + q
    return Multivector(P.chart, P.grade - 1, comps)


def _x_partial(P: Multivector, l: int) -> Multivector:
    name = P.chart.names[l]
    return Multivector(P.chart, P.grade,
                       {idx: p.partial(name) for idx, p in P.comps.items()})


def sn_bracket(P: Multivector, Q: Multivector) -> Multivector:
    """Schouten-Nijenhuis bracket of homogeneous multivector fields.

    Computed through the odd-variable antibracket

        m(P, Q) = sum_l (-1)^(p-1) (dP/dtheta_l) ^ (dQ/dx_l)
                       -           (dP/dx_l) ^ (dQ/dtheta_l)

    twisted by (-1)^((p-1)(q-1)).  The twist picks, among the two standard
    sign conventions, the one under which a bivector/vector pair built from
    an algebroid with cocycle satisfies  [L, L] = 2 E ^ L  on the nose,
    while [X, Y] stays the Lie bracket and [X, f] = X(f).
    """
    if isinstance(P, ExpPoly):
        P = Multivector(P.chart, 0, {(): P})
    if isinstance(Q, ExpPoly):
        Q = Multivector(Q.chart, 0, {(): Q})
    if P.chart != Q.chart:
        raise ChartMismatchError("operands on different charts")
    grade = max(P.grade + Q.grade - 1, 0)
    out = Multivector.zero(P.chart, grade)
    if P.grade == 0 and Q.grade == 0:
        return out
    sign_p = -1 if (P.grade - 1) % 2 else 1
    for l in range(P.chart.dim):
        if P.grade > 0:
            tp = _theta_partial(P, l)
            if not tp.is_zero:
                xq = _x_partial(Q, l)
                if not xq.is_zero:
                    term = tp.wedge(xq)
                    out = out + term if sign_p == 1 else out - term
        if Q.grade > 0:
            tq = _theta_partial(Q, l)
            if not tq.is_zero:
                xp = _x_partial(P, l)
                if not xp.is_zero:
                    out = out - xp.wedge(tq)
    if ((P.grade - 1) * (Q.grade - 1)) % 2:
        out = -out
    if grade == 0:
        return out.comps.get((), ExpPoly.zero(P.chart))
    return out


# ---------------------------------------------------------------------------
# Exterior derivative, interior product, Lie derivative
# ---------------------------------------------------------------------------

def exterior_d(w: Union[DiffForm, ExpPoly]) -> DiffForm:
    """Exterior derivative; accepts a bare ExpPoly as a 0-form."""
    if isinstance(w, ExpPoly):
        w = DiffForm.from_function(w)
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
            comps[sidx] = comps.get(sidx, ExpPoly.zero(chart)) + q
    return DiffForm(chart, w.grade + 1, comps)


def _interior_vector(X: Multivector, w: DiffForm) -> DiffForm:
    """Single contraction into the first slot: (i_X w)(...) = w(X, ...)."""
    chart = w.chart
    comps: Dict[Index, ExpPoly] = {}
    for idx, p in w.comps.items():
        for pos, l in enumerate(idx):
            xl = X.comps.get((l,))
            if xl is None:
                continue
            rest = idx[:pos] + idx[pos + 1:]
            q = xl * p
            if pos % 2 == 1:
                q = -q
            comps[rest] = comps.get(rest, ExpPoly.zero(chart)) + q
    return DiffForm(chart, w.grade - 1, comps)


def interior(P: Multivector, w: DiffForm) -> Union[DiffForm, ExpPoly]:
    """Full contraction of a p-vector into a k-form, p <= k.

    Nested so that interior(d/dx ^ d/dy, dx ^ dy) = 1; a degree-0 result is
    returned as a bare ExpPoly.
    """
    if P.chart != w.chart:
        raise ChartMismatchError("operands on different charts")
    if P.grade > w.grade:
        raise GradeError(f"grade {P.grade} exceeds form degree {w.grade}")
    chart = w.chart
    out = DiffForm.zero(chart, w.grade - P.grade)
    one = ExpPoly.const(chart, 1)
    for idx, p in P.comps.items():
        cur = w
        for l in idx:
            cur = _interior_vector(Multivector(chart, 1, {(l,): one}), cur)
        out = out + p * cur
    if out.grade == 0:
        return out.as_function()
    return out


def lie_derivative(X: Multivector, T: Union[Multivector, DiffForm]):
    """Lie derivative along a vector field.

    Multivectors go through the Schouten bracket; forms use the Cartan
    formula  L_X = i_X d + d i_X.
    """
    if X.grade != 1:
        raise GradeError("Lie derivative needs a vector field")
    if isinstance(T, Multivector):
        return sn_bracket(X, T)
    a = exterior_d(T)
    ia = interior(X, a)
    if isinstance(ia, ExpPoly):
        ia = DiffForm.from_function(ia)
    it = interior(X, T) if T.grade >= 1 else ExpPoly.zero(T.chart)
    return ia + exterior_d(it)


# ---------------------------------------------------------------------------
# Bivector pairing, sharp map, nondegeneracy
# ---------------------------------------------------------------------------

def pairing(L: Multivector, a: DiffForm, b: DiffForm) -> ExpPoly:
    """L(a, b) for a bivector L and 1-forms a, b (antisymmetric in a, b)."""
    if L.grade != 2 or a.grade != 1 or b.grade != 1:
        raise GradeError("pairing needs a bivector and two 1-forms")
    chart = L.chart
    out = ExpPoly.zero(chart)
    for (i, j), p in L.comps.items():
        ai = a.comps.get((i,))
        aj = a.comps.get((j,))
        bi = b.comps.get((i,))
        bj = b.comps.get((j,))
        if ai is not None and bj is not None:
            out = out + p * ai * bj
        if aj is not None and bi is not None:
            out = out - p * aj * bi
    return out


def sharp(L: Multivector, a: DiffForm) -> Multivector:
    """The map defined by  b(sharp(L, a)) = L(a, b)."""
    if L.grade != 2 or a.grade != 1:
        raise GradeError("sharp needs a bivector and a 1-form")
    chart = L.chart
    comps: Dict[Index, ExpPoly] = {}

    def acc(j: int, q: ExpPoly) -> None:
        comps[(j,)] = comps.get((j,), ExpPoly.zero(chart)) + q

    for (i, j), p in L.comps.items():
        ai = a.comps.get((i,))
        aj = a.comps.get((j,))
        if ai is not None:
            acc(j, ai * p)
        if aj is not None:
            acc(i, -(aj * p))
    return Multivector(chart, 1, comps)


def _pfaffian(mat) -> ExpPoly:
    """Pfaffian of an antisymmetric matrix of ExpPoly, by recursive expansion."""
    n = len(mat)
    chart = mat[0][0].chart
    if n == 0:
        return ExpPoly.const(chart, 1)
    if n % 2 == 1:
        return ExpPoly.zero(chart)
    if n == 2:
        return mat[0][1]
    out = ExpPoly.zero(chart)
    rest0 = list(range(1, n))
    for pos, k in enumerate(rest0):
        a = mat[0][k]
        if a.is_zero:
            continue
        keep = [i for i in rest0 if i != k]
        sub = [[mat[r][c] for c in keep] for r in keep]
        term = a * _pfaffian(sub)
        out = out + term if pos % 2 == 0 else out - term
    return out


def check_nondegenerate(L: Multivector) -> str:
    """Three-valued verdict on a bivector via the Pfaffian of its matrix.

    Returns "nondegenerate_constant" when the Pfaffian is a nowhere-zero
    constant (c * s^k with c != 0), "degenerate" when it vanishes
    identically, and "indeterminate" otherwise.
    """
    if L.grade != 2:
        raise GradeError("nondegeneracy check needs a bivector")
    n = L.chart.dim
    if n % 2 == 1:
        # an antisymmetric matrix of odd size is always singular
        return "degenerate"
    zero = ExpPoly.zero(L.chart)
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for (i, j), p in L.comps.items():
        mat[i][j] = p
        mat[j][i] = -p
    pf = _pfaffian(mat)
    if pf.is_zero:
        return "degenerate"
    if pf.is_nonvanishing_constant():
        return "nondegenerate_constant"
    return "indeterminate"
