"""Seeded inputs whose answers are known by construction.

Nothing here imports linjacobi.  A polynomial is a dict mapping an
exponent tuple to a nonzero Fraction; structure functions, anchors and
cocycles are dicts and lists of such polynomials.  The expected outcome
of every input -- which checks pass, which named check fails, the value
of a bracket, the verdict of a nondegeneracy test, the error position in
a mutated spec file -- follows from how the input was built and is never
read back from the program under test.  `workloads.py` converts the data
to linjacobi objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

Poly = Dict[Tuple[int, ...], Fraction]

# nonzero scalars drawn by the generators; small so that sizes do not
# depend much on the seed
_SCALARS = tuple(Fraction(v) for v in (1, -1, 2, -2, 3, -3)) + (
    Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3))


def nonzero(rng: random.Random) -> Fraction:
    return rng.choice(_SCALARS)


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------

def pconst(n: int, c) -> Poly:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def pvar(n: int, i: int) -> Poly:
    return {tuple(1 if j == i else 0 for j in range(n)): Fraction(1)}


def padd(*ps: Poly) -> Poly:
    out: Poly = {}
    for p in ps:
        for e, c in p.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def pscale(p: Poly, c) -> Poly:
    return {e: v * c for e, v in p.items()} if c else {}


def pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def pdiff(p: Poly, i: int) -> Poly:
    out: Poly = {}
    for e, c in p.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = out.get(d, 0) + c * e[i]
    return {e: c for e, c in out.items() if c}


def pembed(p: Poly, n: int) -> Poly:
    """The same polynomial in n >= len(exponents) variables (new ones last)."""
    return {e + (0,) * (n - len(e)): c for e, c in p.items()}


def random_poly(shape: random.Random, rng: random.Random, n: int, degrees,
                terms: int) -> Poly:
    """`terms` distinct monomials with total degree in `degrees`, chosen
    by `shape`, with coefficients drawn from `rng`."""
    monos = [e for e in _monomials(n, max(degrees)) if sum(e) in degrees]
    return {e: nonzero(rng) for e in shape.sample(monos, min(terms, len(monos)))}


def _monomials(n: int, d: int):
    if n == 0:
        return [()]
    out = []
    for a in range(d + 1):
        out += [(a,) + rest for rest in _monomials(n - 1, d - a)]
    return out


# ---------------------------------------------------------------------------
# Lie algebras given by structure constants c_ij^k (1-based, i < j)
# ---------------------------------------------------------------------------

Struct = Dict[Tuple[int, int, int], Fraction]


def _matrix_algebra(mats, coords) -> Struct:
    """Structure constants of a matrix Lie algebra: `mats` are sparse
    matrices {(row, col): value}, `coords` writes a matrix in the basis."""
    def mul(a, b):
        out = {}
        for (r, m), x in a.items():
            for (m2, c), y in b.items():
                if m == m2:
                    out[(r, c)] = out.get((r, c), 0) + x * y
        return out

    struct: Struct = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            ab, ba = mul(mats[i], mats[j]), mul(mats[j], mats[i])
            comm = {rc: ab.get(rc, 0) - ba.get(rc, 0) for rc in set(ab) | set(ba)}
            for k, v in coords({rc: v for rc, v in comm.items() if v}).items():
                if v:
                    struct[(i + 1, j + 1, k + 1)] = Fraction(v)
    return struct


def gl(n: int, units=None) -> Tuple[int, Struct]:
    """gl(n), or its subalgebra spanned by the matrix units `units`,
    in the basis of matrix units E_ab."""
    units = units or [(a, b) for a in range(n) for b in range(n)]
    pos = {u: k for k, u in enumerate(units)}

    def coords(m):
        if any(rc not in pos for rc in m):
            raise ValueError("matrix units do not span a subalgebra")
        return {pos[rc]: v for rc, v in m.items()}

    return len(units), _matrix_algebra([{u: 1} for u in units], coords)


def so(n: int) -> Tuple[int, Struct]:
    """so(n) in the basis L_ab = E_ab - E_ba, a < b."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pos = {p: k for k, p in enumerate(pairs)}
    mats = [{(a, b): 1, (b, a): -1} for a, b in pairs]
    return len(pairs), _matrix_algebra(
        mats, lambda m: {pos[(a, b)]: v for (a, b), v in m.items() if a < b})


def heisenberg(m: int) -> Tuple[int, Struct]:
    """h_{2m+1}: [x_i, y_i] = z with basis x_1..x_m, y_1..y_m, z."""
    return 2 * m + 1, {(i, m + i, 2 * m + 1): Fraction(1) for i in range(1, m + 1)}


def rescale(struct: Struct, s: List[Fraction]) -> Struct:
    """Constants in the basis e'_i = s_i e_i: c'_ij^k = s_i s_j c_ij^k / s_k."""
    return {(i, j, k): c * s[i - 1] * s[j - 1] / s[k - 1]
            for (i, j, k), c in struct.items()}


def lie_bracket(struct: Struct, u: Dict[int, Fraction], v: Dict[int, Fraction]):
    out: Dict[int, Fraction] = {}
    for (i, j, k), c in struct.items():
        x = u.get(i, 0) * v.get(j, 0) - u.get(j, 0) * v.get(i, 0)
        if x:
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def jacobi_holds(rank: int, struct: Struct) -> bool:
    """The Jacobi identity of constant structure constants on basis triples."""
    e = [{i: Fraction(1)} for i in range(rank + 1)]
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            for k in range(j + 1, rank + 1):
                tot: Dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for key, x in lie_bracket(struct, lie_bracket(struct, e[a], e[b]),
                                              e[c]).items():
                        tot[key] = tot.get(key, 0) + x
                if any(tot.values()):
                    return False
    return True


# ---------------------------------------------------------------------------
# Algebroids with a cocycle
# ---------------------------------------------------------------------------

@dataclass
class AlgebroidData:
    """A local algebroid patch with cocycle, as plain polynomials over the
    base coordinates, plus the set of verification checks that must fail
    (empty for a valid pair).  `poisson` is set for the cotangent family:
    the linear bivector whose cotangent algebroid this is."""

    family: str
    base: Tuple[str, ...]
    rank: int
    struct: Dict[Tuple[int, int, int], Poly]
    anchor: Dict[Tuple[int, int], Poly]
    phi: List[Poly]
    failing: FrozenSet[str] = frozenset()
    poisson: Optional[Dict[Tuple[int, int], Poly]] = None

    @property
    def positive(self) -> bool:
        return not self.failing


def _rho_apply(anchor, i: int, f: Poly) -> Poly:
    """rho(e_i)(f) for an anchor {(l, i): poly}."""
    return padd(*(pmul(p, pdiff(f, l)) for (l, ii), p in anchor.items() if ii == i))


def lie_algebra(rng: random.Random, family: str) -> AlgebroidData:
    """gl(n), so(n) or a Heisenberg algebra over a point, in a seeded
    rescaled basis, with a seeded cocycle (a cocycle of a Lie algebra is a
    form vanishing on the derived algebra)."""
    kind, n = family[:-1], int(family[-1])
    if kind == "gl":
        rank, struct = gl(n)
        lam = nonzero(rng)
        phi = [lam if a == b else Fraction(0) for a in range(n) for b in range(n)]
    elif kind == "so":
        rank, struct = so(n)
        phi = [Fraction(0)] * rank          # so(n), n >= 3, is perfect
    elif kind == "heis":
        rank, struct = heisenberg((n - 1) // 2)
        phi = [nonzero(rng) for _ in range(rank - 1)] + [Fraction(0)]
    else:
        raise ValueError(family)
    s = [nonzero(rng) for _ in range(rank)]
    return AlgebroidData(
        family, (), rank,
        {key: pconst(0, c) for key, c in rescale(struct, s).items()}, {},
        [pconst(0, p * si) for p, si in zip(phi, s)])


def action_algebroid(shape: random.Random, rng: random.Random, units=None,
                     f_terms: int = 9) -> AlgebroidData:
    """The action algebroid of (a subalgebra of) gl(2) on R^2, rho(E_ab) =
    -x_b d/dx_a, in a seeded rescaled basis, with the exact cocycle
    phi_i = rho(e_i)(f) for a seeded f of degree at most 3."""
    units = units or [(a, b) for a in range(2) for b in range(2)]
    rank, struct = gl(2, units)
    s = [nonzero(rng) for _ in range(rank)]
    anchor = {(a, i + 1): pscale(pvar(2, b), -s[i]) for i, (a, b) in enumerate(units)}
    f = random_poly(shape, rng, 2, (1, 2, 3), f_terms)
    phi = [_rho_apply(anchor, i, f) for i in range(1, rank + 1)]
    family = "action_gl2" if rank == 4 else "action_aff1"
    return AlgebroidData(family, ("x1", "x2"), rank,
                         {key: pconst(2, c) for key, c in rescale(struct, s).items()},
                         anchor, phi)


def cotangent_algebroid(shape: random.Random, rng: random.Random, algebra: str,
                        f_degrees=(1, 2), f_terms: int = 4) -> AlgebroidData:
    """T*g* for the linear (Lie-Poisson) bivector L^ij = c_ij^k x_k of a
    seeded rescaled Lie algebra: c_ij^k = dL^ij/dx_k, rho(dx^i) = L^ij
    d/dx_j, with the exact cocycle phi_i = rho(dx^i)(f)."""
    if algebra == "aff1":
        rank, struct = gl(2, [(0, 0), (0, 1)])
    else:
        rank, struct = {"so3": so(3), "heis3": heisenberg(1), "gl2": gl(2)}[algebra]
    m = rank
    struct = rescale(struct, [nonzero(rng) for _ in range(m)])
    L: Dict[Tuple[int, int], Poly] = {}
    for (i, j, k), c in struct.items():
        L[(i - 1, j - 1)] = padd(L.get((i - 1, j - 1), {}), pscale(pvar(m, k - 1), c))
    anchor: Dict[Tuple[int, int], Poly] = {}
    for (i, j), p in L.items():
        if p:
            anchor[(j, i + 1)] = p                   # rho(dx^i) gets L^ij d/dx_j
            anchor[(i, j + 1)] = pscale(p, -1)       # rho(dx^j) gets L^ji d/dx_i
    f = random_poly(shape, rng, m, f_degrees, f_terms)
    phi = [_rho_apply(anchor, i, f) for i in range(1, m + 1)]
    return AlgebroidData(f"cotangent_{algebra}", tuple(f"x{l}" for l in range(1, m + 1)),
                         m, {key: pconst(m, c) for key, c in struct.items()},
                         anchor, phi, poisson={k: p for k, p in L.items() if p})


def perturb(shape: random.Random, rng: random.Random,
            data: AlgebroidData) -> AlgebroidData:
    """Change one phi_k or one c_ij^k by a nonzero constant delta, and
    record which checks must then fail.

    All structure functions here are constants, so the constant delta is
    killed by every anchor and the residuals change predictably:
    - phi_k += delta, with e_k in the derived algebra (some c_ij^k != 0):
      only the cocycle condition of (i, j) gets the residual c_ij^k delta;
    - c_ij^k += delta, with rho(e_k) != 0 (families with an anchor only):
      anchor_morphism gets delta rho(e_k), cocycle_condition gets
      delta phi_k, and the Jacobi identity reduces to that of the
      perturbed constants.
    """
    nb = len(data.base)
    delta = nonzero(rng)
    anchored = sorted({i for (_, i) in data.anchor})
    if anchored and shape.random() < 0.5:
        i, j = sorted(shape.sample(range(1, data.rank + 1), 2))
        k = shape.choice(anchored)
        struct = dict(data.struct)
        struct[(i, j, k)] = padd(struct.get((i, j, k), {}), pconst(nb, delta))
        consts = {key: p.get((0,) * nb, Fraction(0)) for key, p in struct.items()}
        failing = {"anchor_morphism"}
        if not jacobi_holds(data.rank, {key: c for key, c in consts.items() if c}):
            failing.add("jacobi_identity")
        if data.phi[k - 1]:
            failing.add("cocycle_condition")
        return AlgebroidData(data.family, data.base, data.rank, struct, data.anchor,
                             data.phi, frozenset(failing))
    derived = sorted({k for (_, _, k), p in data.struct.items() if p})
    k = shape.choice(derived)
    phi = list(data.phi)
    phi[k - 1] = padd(phi[k - 1], pconst(nb, delta))
    return AlgebroidData(data.family, data.base, data.rank, data.struct, data.anchor,
                         phi, frozenset({"cocycle_condition"}))


def family_case(shape: random.Random, rng: random.Random, family: str) -> AlgebroidData:
    """One valid pair of the named family.  `shape` fixes the sizes (which
    monomials appear), `rng` the values, so that the cost of an input
    depends on its slot in the mix and hardly on the seed."""
    if family == "action_gl2":
        return action_algebroid(shape, rng)
    if family == "action_aff1":
        return action_algebroid(shape, rng, units=[(0, 0), (0, 1)])
    if family.startswith("cotangent_"):
        return cotangent_algebroid(shape, rng, family[len("cotangent_"):])
    return lie_algebra(rng, family)


# ---------------------------------------------------------------------------
# The forward map by construction
# ---------------------------------------------------------------------------

def dual_coords(data: AlgebroidData) -> List[Tuple[str, str]]:
    return ([(n, "base") for n in data.base]
            + [(f"mu{i}", "fiber") for i in range(1, data.rank + 1)])


def forward(data: AlgebroidData):
    """(lambda, E) on the dual chart (base coordinates, then mu_1..mu_n):

        lambda = sum c_ij^k mu_k d/dmu_i^d/dmu_j + sum rho^l_i d/dmu_i^d/dx_l
                 + Delta ^ phi^v,        E = -phi^v,

    with Delta ^ phi^v = sum_{i<j} (mu_i phi_j - mu_j phi_i) d/dmu_i^d/dmu_j.
    Components are keyed by increasing index pairs.
    """
    nb, n = len(data.base), data.rank
    dim = nb + n
    fib = [nb + i for i in range(n)]
    mu = [pvar(dim, f) for f in fib]
    lam: Dict[Tuple[int, int], Poly] = {}

    def acc(a, b, p):
        lam[(a, b)] = padd(lam.get((a, b), {}), p)

    for (i, j, k), c in data.struct.items():
        acc(fib[i - 1], fib[j - 1], pmul(pembed(c, dim), mu[k - 1]))
    for (l, i), p in data.anchor.items():
        acc(l, fib[i - 1], pscale(pembed(p, dim), -1))
    phi = [pembed(p, dim) for p in data.phi]
    for i in range(n):
        for j in range(i + 1, n):
            acc(fib[i], fib[j], padd(pmul(mu[i], phi[j]), pscale(pmul(mu[j], phi[i]), -1)))
    efield = {(fib[i],): pscale(phi[i], -1) for i in range(n) if phi[i]}
    return {k: p for k, p in lam.items() if p}, efield


def bracket_value(data: AlgebroidData, a: str, b: str) -> Poly:
    """{a, b} of the forward Jacobi pair for a = mu_i and b = mu_j or x_l:
    {mu_i, mu_j} = sum_k c_ij^k mu_k and {mu_i, x_l} = rho^l_i + phi_i x_l."""
    nb, n = len(data.base), data.rank
    dim = nb + n
    i = int(a[2:])
    if b.startswith("mu"):
        j = int(b[2:])
        sign, (i, j) = (1, (i, j)) if i < j else (-1, (j, i))
        return padd(*(pscale(pmul(pembed(c, dim), pvar(dim, nb + k - 1)), sign)
                      for (ii, jj, k), c in data.struct.items() if (ii, jj) == (i, j)))
    l = data.base.index(b)
    return padd(pembed(data.anchor.get((l, i), {}), dim),
                pmul(pembed(data.phi[i - 1], dim), pvar(dim, l)))


# ---------------------------------------------------------------------------
# Contact forms and bivectors on R^{2m+1} and R^{2m}
# ---------------------------------------------------------------------------

def unipotent_map(shape: random.Random, rng: random.Random, dim: int,
                  shears: int, degree: int) -> List[Poly]:
    """F_k = x_k + p_k, p_k in the variables after x_k, nonzero for
    `shears` of the k: a polynomial automorphism with Jacobian det 1."""
    F = [pvar(dim, k) for k in range(dim)]
    for k in shape.sample(range(dim - 1), min(shears, dim - 1)):
        later = [e for e in _monomials(dim, degree)
                 if 1 <= sum(e) <= degree and not any(e[:k + 1])]
        F[k] = padd(F[k], {e: nonzero(rng) for e in shape.sample(later, min(2, len(later)))})
    return F


def contact_form(shape: random.Random, rng: random.Random, m: int, shears: int,
                 degree: int) -> List[Poly]:
    """Components of F^* eta on R^{2m+1}, eta = dz - sum_i y_i dx_i in
    coordinates (x_1..x_m, y_1..y_m, z):

        (F^* eta)_j = dF_z/dx_j - sum_i F_{y_i} dF_{x_i}/dx_j.

    The pullback keeps det(d eta + eta (x) eta) = 1, so the contact solve
    is exact, and its Reeb field E satisfies eta(E) = 1, i_E d eta = 0.
    """
    dim = 2 * m + 1
    F = unipotent_map(shape, rng, dim, shears, degree)
    out = []
    for j in range(dim):
        comp = pdiff(F[2 * m], j)
        for i in range(m):
            comp = padd(comp, pscale(pmul(F[m + i], pdiff(F[i], j)), -1))
        out.append(comp)
    return out


def unimodular_bivector(shape: random.Random, rng: random.Random, m: int,
                        entries: int, degree: int,
                        degenerate: bool) -> Dict[Tuple[int, int], Poly]:
    """Components B_jk (j < k) of M^T W M on R^{2m}, where M = U C with U
    upper unitriangular with `entries` polynomial entries of degree <=
    `degree`, C lower unitriangular with constant entries, and W the
    standard symplectic matrix in coordinates (x_1..x_m, y_1..y_m).
    Pf(M^T W M) = det(M) Pf(W) = +-1: verdict "nondegenerate_constant".
    With `degenerate`, the last pair is dropped from W, whose rank is then
    2m - 2, so Pf = 0: verdict "degenerate"."""
    dim = 2 * m
    U = [[pconst(dim, 1 if a == b else 0) for b in range(dim)] for a in range(dim)]
    upper = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    for a, b in shape.sample(upper, min(entries, len(upper))):
        U[a][b] = random_poly(shape, rng, dim, range(1, degree + 1), 2)
    C = [[pconst(dim, 1 if a == b else (nonzero(rng) if a > b else 0))
          for b in range(dim)] for a in range(dim)]
    M = [[padd(*(pmul(U[a][c], C[c][b]) for c in range(dim))) for b in range(dim)]
         for a in range(dim)]
    pairs = range(m - 1 if degenerate else m)
    B = {}
    for j in range(dim):
        for k in range(j + 1, dim):
            p = padd(*(padd(pmul(M[i][j], M[m + i][k]),
                            pscale(pmul(M[m + i][j], M[i][k]), -1)) for i in pairs))
            if p:
                B[(j, k)] = p
    return B


def contact_coords(dim: int) -> List[str]:
    """x_1..x_m, y_1..y_m, and z when dim = 2m + 1 is odd."""
    m = dim // 2
    names = [f"x{i}" for i in range(1, m + 1)] + [f"y{i}" for i in range(1, m + 1)]
    return names + ["z"] if dim % 2 else names


# ---------------------------------------------------------------------------
# Spec-file mutations with a known error position
# ---------------------------------------------------------------------------

BAD_CHARS = "@$%&!?;:~|{}'\".<>"


def mutate(rng: random.Random, text: str, kind: str, rank: int):
    """Return (mutated text, line, col) where the parser must stop.

    - truncate: a line with ' = ' is cut right after the '=': the parser
      expects a term at the end of that line;
    - index: the first out-of-range reference on a line: e_k with k > rank
      on a c[i,j] line, or d/dmu_k with k > rank on a jacobi line;
    - token: a character no token can start with is inserted at the start
      of a token: the tokenizer stops right there.
    """
    lines = text.split("\n")
    if kind == "truncate":
        cands = [n for n, s in enumerate(lines) if " = " in s]
        n = rng.choice(cands)
        lines[n] = lines[n][:lines[n].index(" = ") + 2]
        return "\n".join(lines), n + 1, len(lines[n]) + 1
    if kind == "index":
        tok = "*e_" if "\nalgebroid" in "\n" + text else "*d/dmu"
        cands = [n for n, s in enumerate(lines) if tok in s]
        n = rng.choice(cands)
        s = lines[n]
        k = rank + rng.randint(1, 3)
        at = s.index(tok) + 1
        end = at + len(tok) - 1
        while end < len(s) and s[end].isdigit():
            end += 1
        lines[n] = s[:at] + tok[1:] + str(k) + s[end:]
        return "\n".join(lines), n + 1, at + 1
    if kind == "token":
        cands = [n for n, s in enumerate(lines) if s.strip()]
        n = rng.choice(cands)
        s = lines[n]
        starts = [len(s) - len(s.lstrip())]
        if " = " in s:
            starts.append(s.index(" = ") + 3)
        at = rng.choice(starts)
        lines[n] = s[:at] + rng.choice(BAD_CHARS) + s[at:]
        return "\n".join(lines), n + 1, at + 1
    raise ValueError(kind)
