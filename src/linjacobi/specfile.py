"""A small line-oriented text format for charts, algebroid data, cocycles
and Jacobi pairs, with a recursive-descent expression parser that reports
line:col on every failure; a column counts characters from the start of
its line, a tab being one.

Layout (each section closed by `end`; the patch, if any, comes first and
the other sections may follow in any order; the algebroid's `rank` must
precede every c, rho and phi entry; each index lies in 1..rank, and no
entry is given twice, c[j,i] counting as c[i,j]):

    patch
      x1 base
      mu1 fiber
    end

    algebroid
      rank 2
      basis e1 e2
      c[1,2] = (1)*e_2
      rho[1] = (1)*d/dx1
    end

    cocycle
      phi[1] = 2
      phi[2] = 0
    end

    jacobi
      lambda = (-1*mu2)*d/dmu1^d/dmu2
      efield = (-2)*d/dmu1
    end

Scalar expressions follow  expr := term (('+'|'-') term)*;
term := factor ('*' factor)*;  factor := '-'* atom;
atom := rational | ident | ident '^' int | 'exp' '(' int '*' t ')' | '(' expr ')'.
Parentheses nest at most MAX_NESTING deep, and an exponent of 2^63 or more,
written or reached by a product, is an error at its token or at the '*'.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import gcd
from typing import Any, Callable, Dict, List, Optional, Tuple

from .chart import Chart, ChartError
from .ring import LIMIT, ExpPoly, FieldOverflowError, _fitted, _past_the_field
from .exterior import Multivector
from .algebroid import AlgebroidError, AlgebroidPatch, Cocycle
from .jacobi import JacobiStructure


class SpecError(ValueError):
    """Parse or validation failure with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class SpecFile:
    chart: Chart = Chart(())
    rank: Optional[int] = None
    basis_names: Optional[Tuple[str, ...]] = None
    structure: Dict[Tuple[int, int, int], ExpPoly] = field(default_factory=dict)
    anchor: Dict[Tuple[int, int], ExpPoly] = field(default_factory=dict)
    cocycle: Optional[Tuple[ExpPoly, ...]] = None
    lam: Optional[Multivector] = None
    e_field: Optional[Multivector] = None
    # the base and time coordinates of `chart`, kept by the parser so that
    # they are restricted once; None means base_chart() restricts `chart`
    base: Optional[Chart] = field(default=None, init=False, repr=False, compare=False)

    @property
    def has_algebroid(self) -> bool:
        return self.rank is not None

    @property
    def has_jacobi(self) -> bool:
        return self.lam is not None

    def base_chart(self) -> Chart:
        if self.base is None:
            return self.chart.restrict(("base", "time"))
        return self.base

    def to_algebroid(self) -> AlgebroidPatch:
        if not self.has_algebroid:
            raise AlgebroidError("no algebroid section")
        return AlgebroidPatch(self.base_chart(), self.rank, self.structure,
                              self.anchor, basis_names=self.basis_names)

    def to_cocycle(self) -> Cocycle:
        if self.cocycle is None:
            raise AlgebroidError("no cocycle section")
        return Cocycle(self.cocycle)

    def to_jacobi(self) -> JacobiStructure:
        if not self.has_jacobi:
            raise AlgebroidError("no jacobi section")
        e = self.e_field
        if e is None:
            e = Multivector.zero(self.chart, 1)
        return JacobiStructure(self.chart, self.lam, e)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One match per token, taking the blanks and the comment after it along.
# A symbol's kind is the symbol itself (the unnamed group 6), and a
# character no token can start with falls to the last group.
_TOKEN_RE = re.compile(r"""
    (?:
        (?P<nl>\n)
      | (?P<ddn>d/d[A-Za-z_][A-Za-z0-9_]*)
      | (?P<basis>e_[0-9]+)
      | (?P<number>[0-9]+(?:/[0-9]+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | ([-+*^()\[\],=])
      | (?P<bad>.)
    )
    [ \t]*(?:\#[^\n]*)?
""", re.VERBOSE | re.DOTALL)
_BLANK_RE = re.compile(r"[ \t]*(?:\#[^\n]*)?")  # what precedes the first token

_Tok = Tuple[str, str, int]  # (kind, text, offset)


def _position(text: str, offset: int) -> Tuple[int, int]:
    """The 1-based (line, column) of a character offset; a column counts
    characters from the start of its line, a tab being one."""
    start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, start) + 1, offset - start + 1


def _tokenize(text: str) -> List[_Tok]:
    """Every token, then ("eof", "", len(text)); an unexpected character
    is an error before anything is parsed."""
    toks = [(m.lastgroup or m[6], m[m.lastindex], m.start())
            for m in _TOKEN_RE.finditer(text, _BLANK_RE.match(text).end())]
    for kind, chunk, offset in toks:
        if kind == "bad":
            raise SpecError(f"unexpected character {chunk!r}", *_position(text, offset))
    toks.append(("eof", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# entries indexed by 1..rank, so the rank must be known before them
_RANKED = {"c": "structure functions", "rho": "anchor components",
           "phi": "cocycle components"}


# parentheses nested deeper than this are an error at the next '(': each
# level costs two frames of the recursive descent, so this stays well
# below Python's default recursion limit of 1000
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0  # index of the current token
        self.full_chart = SpecFile.chart  # the empty chart until a patch
        self.base = SpecFile.chart  # its base and time coordinates
        self.section_end: Optional[_Tok] = None  # `end` of the last section
        self.nesting = 0  # open parentheses around the current factor

    # -- token plumbing ------------------------------------------------

    def error(self, message: str, tok: Optional[_Tok] = None) -> SpecError:
        """A SpecError at tok, by default at the current token."""
        if tok is None:
            tok = self.toks[self.i]
        return SpecError(message, *_position(self.text, tok[2]))

    def skip_blank(self) -> None:
        while self.toks[self.i][0] == "nl":
            self.i += 1

    def expect(self, kind: str, what: Optional[str] = None) -> _Tok:
        """The current token, which must be of `kind`; a symbol is its own
        kind and names itself in the message."""
        t = self.toks[self.i]
        if t[0] != kind:
            raise self.error(f"expected {what or repr(kind)}, "
                             f"found {t[1] or 'end of input'!r}")
        self.i += 1
        return t

    def end_line(self) -> None:
        kind, text, _ = self.toks[self.i]
        if kind == "nl":
            self.i += 1
        elif kind != "eof":
            raise self.error(f"trailing input {text!r}")

    def int_of(self, digits: str, t: _Tok) -> int:
        """A digit string of token t; one too long for int() is an error at t."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"integer literal of {len(digits)} digits is too long",
                             t) from None

    def fitted(self, m: int, t: _Tok) -> int:
        """An exponent or |k| that fits the ring's field, else an error at t."""
        try:
            return _fitted(m)
        except FieldOverflowError as exc:
            raise self.error(str(exc), t) from None

    def expect_int(self, what: str = "integer") -> int:
        neg = self.toks[self.i][0] == "-"
        if neg:
            self.i += 1
        t = self.expect("number", what)
        if "/" in t[1]:
            raise self.error(f"expected {what}, found rational {t[1]!r}", t)
        v = self.int_of(t[1], t)
        return -v if neg else v

    def expect_index(self, rank: int, what: str) -> int:
        """An integer in 1..rank; out of range is an error at its first token."""
        t = self.toks[self.i]
        v = self.expect_int(what)
        if not 1 <= v <= rank:
            raise self.error(f"{what} {v} out of range", t)
        return v

    def need_rank(self, spec: SpecFile, t: _Tok) -> int:
        if spec.rank is None:
            raise self.error(f"rank must precede {_RANKED[t[1]]}", t)
        return spec.rank

    # -- sections ------------------------------------------------------

    def parse_file(self) -> SpecFile:
        spec = SpecFile()
        seen = set()
        self.skip_blank()
        while self.toks[self.i][0] != "eof":
            t = self.expect("ident", "section name")
            if t[1] in seen:
                raise self.error(f"duplicate section {t[1]!r}", t)
            if t[1] == "patch" and seen:
                # the sections read so far were parsed on the empty chart
                raise self.error("patch must come before every other section", t)
            seen.add(t[1])
            self.end_line()
            if t[1] == "patch":
                self._parse_patch(spec)
            elif t[1] == "algebroid":
                self._parse_algebroid(spec)
            elif t[1] == "cocycle":
                self._parse_cocycle(spec)
            elif t[1] == "jacobi":
                self._parse_jacobi(spec)
            else:
                raise self.error(f"unknown section {t[1]!r}", t)
            self.skip_blank()
        return spec

    def _section_lines(self):
        while True:
            self.skip_blank()
            kind, text, _ = self.toks[self.i]
            if kind == "eof":
                raise self.error("section not closed by 'end'")
            if kind == "ident" and text == "end":
                self.section_end = self.expect("ident")
                self.end_line()
                return
            yield

    def _parse_patch(self, spec: SpecFile) -> None:
        coords: List[Tuple[str, str]] = []
        name_toks: List[_Tok] = []
        for _ in self._section_lines():
            name_toks.append(self.expect("ident", "coordinate name"))
            role_tok = self.expect("ident", "coordinate role")
            if role_tok[1] not in ("base", "fiber", "time"):
                raise self.error(f"unknown role {role_tok[1]!r}", role_tok)
            coords.append((name_toks[-1][1], role_tok[1]))
            self.end_line()
        try:
            spec.chart = Chart(coords)
        except ChartError as exc:
            # at the first coordinate line that no chart can take
            for k, t in enumerate(name_toks):
                try:
                    Chart(coords[:k + 1])
                except ChartError:
                    raise self.error(str(exc), t) from None
        self.full_chart = spec.chart
        self.base = spec.base = spec.chart.restrict(("base", "time"))

    def _parse_algebroid(self, spec: SpecFile) -> None:
        base = self.base
        seen = set()

        def once(key, name: str, t: _Tok) -> None:
            if key in seen:
                raise self.error(f"second entry for {name}", t)
            seen.add(key)

        for _ in self._section_lines():
            t = self.expect("ident", "algebroid entry")
            if t[1] in ("rank", "basis"):
                once(t[1], t[1], t)
            if t[1] == "rank":
                v = self.expect_int("rank")
                if v < 1:
                    raise self.error("rank must be positive", t)
                spec.rank = v
            elif t[1] == "basis":
                names = []
                while self.toks[self.i][0] in ("ident", "basis"):
                    names.append(self.toks[self.i][1])
                    self.i += 1
                if not names:
                    raise self.error("expected basis names")
                spec.basis_names = tuple(names)
            elif t[1] == "c":
                rank = self.need_rank(spec, t)
                self.expect("[")
                i = self.expect_index(rank, "basis index")
                self.expect(",")
                j = self.expect_index(rank, "basis index")
                once(("c", min(i, j), max(i, j)), f"c[{i},{j}] or c[{j},{i}]", t)
                self.expect("]")
                self.expect("=")
                for k, p in self._sum(base, lambda: self._basis_ref(rank)):
                    if i == j and not p.is_zero:
                        raise self.error("diagonal structure function must be zero", t)
                    key = (i, j, k)
                    spec.structure[key] = spec.structure.get(
                        key, ExpPoly.zero(base)) + p
            elif t[1] == "rho":
                rank = self.need_rank(spec, t)
                self.expect("[")
                i = self.expect_index(rank, "basis index")
                once(("rho", i), f"rho[{i}]", t)
                self.expect("]")
                self.expect("=")
                for l, p in self._sum(base, lambda: self._derivation(base)):
                    key = (l, i)
                    spec.anchor[key] = spec.anchor.get(
                        key, ExpPoly.zero(base)) + p
            else:
                raise self.error(f"unknown algebroid entry {t[1]!r}", t)
            self.end_line()

    def _parse_cocycle(self, spec: SpecFile) -> None:
        base = self.base
        comps: Dict[int, ExpPoly] = {}
        for _ in self._section_lines():
            t = self.expect("ident", "cocycle entry")
            if t[1] != "phi":
                raise self.error(f"unknown cocycle entry {t[1]!r}", t)
            rank = self.need_rank(spec, t)
            self.expect("[")
            i = self.expect_index(rank, "component index")
            if i in comps:
                raise self.error(f"second entry for phi[{i}]", t)
            self.expect("]")
            self.expect("=")
            comps[i] = self.parse_expr(base)
            self.end_line()
        if comps:
            # the rank is known here, as it precedes every phi entry
            if max(comps) != spec.rank:
                raise self.error("cocycle components do not match the rank",
                                 self.section_end)
            spec.cocycle = tuple(comps.get(i, ExpPoly.zero(base))
                                 for i in range(1, spec.rank + 1))

    def _parse_jacobi(self, spec: SpecFile) -> None:
        chart = spec.chart
        seen = set()
        for _ in self._section_lines():
            t = self.expect("ident", "jacobi entry")
            if t[1] in seen:
                raise self.error(f"second entry for {t[1]}", t)
            seen.add(t[1])
            self.expect("=")
            if t[1] == "lambda":
                spec.lam = self._multivector(chart, 2)
            elif t[1] == "efield":
                spec.e_field = self._multivector(chart, 1)
            else:
                raise self.error(f"unknown jacobi entry {t[1]!r}", t)
            self.end_line()

    # -- expressions ---------------------------------------------------

    def parse_expr(self, chart: Chart) -> ExpPoly:
        p = self._product(chart)
        toks = self.toks
        while True:
            op = toks[self.i][0]
            if op != "+" and op != "-":
                return p
            self.i += 1
            q = self._product(chart)
            p = p + q if op == "+" else p - q

    def _product(self, chart: Chart, coefficient: bool = False) -> ExpPoly:
        """factor ('*' factor)*, factor := '-'* atom.  Literals, coordinate
        powers and exp(k*t) multiply into one packed key, numerator and
        denominator; only parenthesised factors go through the ring.  The
        bound on exponents grows and is checked at each '*' as in
        ExpPoly.__mul__, until a factor is zero.  A coefficient takes '-'
        signs before its first factor only, may be empty (the value 1), and
        ends at a '*' before a d/d or e_k token, which it consumes."""
        toks = self.toks
        key, num, den = 0, 1, 1
        top = 0  # the bound on every exponent and |k| of the product
        zero = False
        polys: List[ExpPoly] = []  # the parenthesised factors
        star = None  # the '*' before the current factor
        while True:
            if star is None or not coefficient:
                while toks[self.i][0] == "-":
                    self.i += 1
                    num = -num
            t = toks[self.i]
            kind = t[0]
            f = 0  # the factor's bound
            if kind == "number":
                self.i += 1
                a, slash, b = t[1].partition("/")
                a = self.int_of(a, t)
                if slash:
                    b = self.int_of(b, t)
                    if not b:
                        raise self.error("zero denominator", t)
                    den *= b
                num *= a
                zero = zero or not a
            elif kind == "ident" and t[1] == "exp":
                self.i += 1
                self.expect("(")
                kt = toks[self.i]
                k = self.expect_int("integer exponent")
                self.expect("*")
                tv = self.expect("ident", "time coordinate")
                if not chart.has_time or chart.names[chart.time_index] != tv[1]:
                    raise self.error(
                        f"{tv[1]!r} is not the time coordinate of the patch", tv)
                self.expect(")")
                f = self.fitted(abs(k), kt)
                key += k
            elif kind == "ident":
                name = t[1]
                if not chart.has(name):
                    if self.full_chart.has(name):
                        raise self.error(
                            f"fiber coordinate {name!r} not allowed in this section", t)
                    raise self.error(f"undeclared coordinate {name!r}", t)
                self.i += 1
                f = 1
                if toks[self.i][0] == "^":
                    self.i += 1
                    et = toks[self.i]
                    f = self.expect_int("exponent")
                    if f < 0:
                        raise self.error("negative exponent", t)
                    self.fitted(f, et)
                key += f * chart.units[chart.index(name)]
            elif kind == "(":
                if self.nesting == MAX_NESTING:
                    raise self.error(f"expression nested deeper than {MAX_NESTING} "
                                     "parentheses")
                self.i += 1
                self.nesting += 1
                p = self.parse_expr(chart)
                self.nesting -= 1
                self.expect(")")
                zero = zero or p.is_zero
                polys.append(p)
                f = p.top
            elif coefficient:
                break
            else:
                raise self.error(f"expected an expression, found "
                                 f"{t[1] or 'end of input'!r}")
            if f and not zero:
                top += f
                if top >= LIMIT:
                    raise self.error(str(_past_the_field(top)), toks[star])
            if toks[self.i][0] != "*":
                break
            star = self.i
            self.i += 1
            if coefficient and toks[self.i][0] in ("ddn", "basis"):
                break
        if zero:
            return ExpPoly.zero(chart)
        atoms_top = top - sum(p.top for p in polys)
        if polys and not key and num == den and not atoms_top:
            p, polys = polys[0], polys[1:]  # the atoms multiply to 1
        else:
            g = gcd(num, den)
            p = ExpPoly._make(chart, {key: num // g}, den // g, atoms_top)
        for q in polys:
            p = p * q
        return p

    def _sum(self, chart: Chart,
             symbol: Callable[[], Any]) -> List[Tuple[Any, ExpPoly]]:
        """coeff*symbol terms joined by + and - (or a lone 0) as
        (key, coeff) pairs; symbol() reads one e_k, d/dx or d/dx^d/dy...
        and returns its key."""
        out: List[Tuple[Any, ExpPoly]] = []
        toks = self.toks
        if toks[self.i][:2] == ("number", "0") \
                and toks[self.i + 1][0] in ("nl", "eof"):
            self.i += 1
            return out
        while True:
            p = self._product(chart, coefficient=True)
            out.append((symbol(), p))
            op = toks[self.i][0]
            if op == "+":
                self.i += 1
            elif op != "-":  # a minus is read as a sign by the next coefficient
                return out

    def _basis_ref(self, rank: int) -> int:
        t = self.expect("basis", "basis reference e_<k>")
        k = self.int_of(t[1][2:], t)
        if not 1 <= k <= rank:
            raise self.error(f"basis index {k} out of range", t)
        return k

    def _derivation(self, chart: Chart) -> int:
        t = self.expect("ddn", "derivation d/d<coordinate>")
        name = t[1][3:]
        if not chart.has(name):
            raise self.error(f"undeclared coordinate {name!r}", t)
        return chart.index(name)

    def _derivations(self, chart: Chart, grade: int) -> Tuple[int, ...]:
        """d/dx^d/dy^... with exactly `grade` factors."""
        idx = []
        while True:
            t = self.toks[self.i]
            idx.append(self._derivation(chart))
            if self.toks[self.i][0] != "^":
                break
            self.i += 1
        if len(idx) != grade:
            raise self.error(f"expected a grade-{grade} term, got {len(idx)} factors", t)
        return tuple(idx)

    def _multivector(self, chart: Chart, grade: int) -> Multivector:
        comps: Dict[Tuple[int, ...], ExpPoly] = {}
        for idx, p in self._sum(chart, lambda: self._derivations(chart, grade)):
            q = comps.get(idx)
            comps[idx] = p if q is None else q + p
        return Multivector(chart, grade, comps)


def parse_expression(text: str, chart: Chart) -> ExpPoly:
    """Parse a single scalar expression against an existing chart."""
    p = _Parser(text)
    p.full_chart = chart
    p.skip_blank()
    out = p.parse_expr(chart)
    p.skip_blank()
    p.end_line()  # past the blank lines, only the end of input may follow
    return out


def parse_spec(text) -> SpecFile:
    """Parse UTF-8 text (str or bytes) into a validated SpecFile."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecError(f"not valid UTF-8: {exc.reason}", 1, 1)
    return _Parser(text).parse_file()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _coeff_str(p: ExpPoly) -> str:
    return f"({p.render()})"


def _mv_str(mv: Multivector) -> str:
    if mv.is_zero:
        return "0"
    names = mv.chart.names
    parts = []
    for idx in sorted(mv.comps):
        wedge = "^".join(f"d/d{names[i]}" for i in idx)
        parts.append(f"{_coeff_str(mv.comps[idx])}*{wedge}")
    return " + ".join(parts)


def render_spec(spec: SpecFile) -> str:
    lines: List[str] = []
    if spec.chart.dim:
        lines.append("patch")
        for name, role in spec.chart.coords:
            lines.append(f"  {name} {role}")
        lines.append("end")
        lines.append("")
    if spec.has_algebroid:
        base = spec.base_chart()
        lines.append("algebroid")
        lines.append(f"  rank {spec.rank}")
        if spec.basis_names:
            lines.append("  basis " + " ".join(spec.basis_names))
        by_ij: Dict[Tuple[int, int], List[Tuple[int, ExpPoly]]] = {}
        for (i, j, k), p in spec.structure.items():
            if not p.is_zero:
                by_ij.setdefault((i, j), []).append((k, p))
        for (i, j) in sorted(by_ij):
            terms = " + ".join(f"{_coeff_str(p)}*e_{k}"
                               for k, p in sorted(by_ij[(i, j)]))
            lines.append(f"  c[{i},{j}] = {terms}")
        by_i: Dict[int, List[Tuple[int, ExpPoly]]] = {}
        for (l, i), p in spec.anchor.items():
            if not p.is_zero:
                by_i.setdefault(i, []).append((l, p))
        for i in sorted(by_i):
            terms = " + ".join(f"{_coeff_str(p)}*d/d{base.names[l]}"
                               for l, p in sorted(by_i[i]))
            lines.append(f"  rho[{i}] = {terms}")
        lines.append("end")
        lines.append("")
    if spec.cocycle is not None:
        lines.append("cocycle")
        for i, p in enumerate(spec.cocycle, start=1):
            lines.append(f"  phi[{i}] = {p.render()}")
        lines.append("end")
        lines.append("")
    if spec.has_jacobi:
        lines.append("jacobi")
        lines.append(f"  lambda = {_mv_str(spec.lam)}")
        e = spec.e_field
        if e is None:
            e = Multivector.zero(spec.chart, 1)
        lines.append(f"  efield = {_mv_str(e)}")
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Converters from in-memory objects
# ---------------------------------------------------------------------------

def spec_from_algebroid(A: AlgebroidPatch,
                        cocycle: Optional[Cocycle] = None) -> SpecFile:
    spec = SpecFile(chart=A.base_chart, rank=A.rank, basis_names=A.basis_names,
                    structure=dict(A.structure), anchor=dict(A.anchor))
    if cocycle is not None:
        spec.cocycle = cocycle.components
    return spec


def spec_from_jacobi(J: JacobiStructure) -> SpecFile:
    return SpecFile(chart=J.chart, lam=J.lam, e_field=J.e_field)
