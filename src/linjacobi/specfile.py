"""A small line-oriented text format for charts, algebroid data, cocycles
and Jacobi pairs, with a recursive-descent expression parser that reports
line/column positions on every failure.

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
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

from .chart import Chart, ChartError
from .ring import ExpPoly, FieldOverflowError
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

    @property
    def has_algebroid(self) -> bool:
        return self.rank is not None

    @property
    def has_jacobi(self) -> bool:
        return self.lam is not None

    def base_chart(self) -> Chart:
        return self.chart.restrict(("base", "time"))

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

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<ddn>d/d[A-Za-z_][A-Za-z0-9_]*)
  | (?P<basis>e_[0-9]+)
  | (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[-+*^()\[\],=])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str   # ddn | basis | number | ident | sym | nl | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind == "nl":
            toks.append(Token("nl", "\n", line, col))
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append(Token(kind, chunk, line, col))
            col += len(chunk)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# entries indexed by 1..rank, so the rank must be known before them
_RANKED = {"c": "structure functions", "rho": "anchor components",
           "phi": "cocycle components"}


# parentheses nested deeper than this are an error at the next '(': each
# level costs three frames of the recursive descent, so this stays well
# below Python's default recursion limit of 1000
MAX_NESTING = 100


def _int(text: str, t: Token) -> int:
    """The value of a digit string within token t; a literal too long for
    int() is an error at that token."""
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"integer literal of {len(text)} digits is too long",
                        t.line, t.col) from None


class _Parser:
    def __init__(self, toks: List[Token]):
        self.toks = toks
        self.i = 0
        self.full_chart = Chart(())
        self.section_end: Optional[Token] = None  # `end` of the last section
        self.nesting = 0  # open parentheses around the current factor

    # -- token plumbing ------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def error(self, message: str) -> SpecError:
        t = self.cur
        return SpecError(message, t.line, t.col)

    def advance(self) -> Token:
        t = self.cur
        if t.kind != "eof":
            self.i += 1
        return t

    def skip_blank(self) -> None:
        while self.cur.kind == "nl":
            self.advance()

    def at_sym(self, ch: str) -> bool:
        return self.cur.kind == "sym" and self.cur.text == ch

    def expect_sym(self, ch: str) -> Token:
        if not self.at_sym(ch):
            raise self.error(f"expected {ch!r}, found {self.cur.text or 'end of input'!r}")
        return self.advance()

    def expect(self, kind: str, what: str) -> Token:
        if self.cur.kind != kind:
            raise self.error(f"expected {what}, found {self.cur.text or 'end of input'!r}")
        return self.advance()

    def end_line(self) -> None:
        if self.cur.kind == "eof":
            return
        if self.cur.kind != "nl":
            raise self.error(f"trailing input {self.cur.text!r}")
        self.advance()

    def expect_int(self, what: str = "integer") -> int:
        neg = False
        if self.at_sym("-"):
            self.advance()
            neg = True
        t = self.expect("number", what)
        if "/" in t.text:
            raise SpecError(f"expected {what}, found rational {t.text!r}", t.line, t.col)
        v = _int(t.text, t)
        return -v if neg else v

    def expect_index(self, rank: int, what: str) -> int:
        """An integer in 1..rank; out of range is an error at its first token."""
        t = self.cur
        v = self.expect_int(what)
        if not 1 <= v <= rank:
            raise SpecError(f"{what} {v} out of range", t.line, t.col)
        return v

    def need_rank(self, spec: SpecFile, t: Token) -> int:
        if spec.rank is None:
            raise SpecError(f"rank must precede {_RANKED[t.text]}", t.line, t.col)
        return spec.rank

    # -- sections ------------------------------------------------------

    def parse_file(self) -> SpecFile:
        spec = SpecFile()
        seen = set()
        self.skip_blank()
        while self.cur.kind != "eof":
            t = self.expect("ident", "section name")
            if t.text in seen:
                raise SpecError(f"duplicate section {t.text!r}", t.line, t.col)
            if t.text == "patch" and seen:
                # the sections read so far were parsed on the empty chart
                raise SpecError("patch must come before every other section",
                                t.line, t.col)
            seen.add(t.text)
            self.end_line()
            if t.text == "patch":
                self._parse_patch(spec)
            elif t.text == "algebroid":
                self._parse_algebroid(spec)
            elif t.text == "cocycle":
                self._parse_cocycle(spec)
            elif t.text == "jacobi":
                self._parse_jacobi(spec)
            else:
                raise SpecError(f"unknown section {t.text!r}", t.line, t.col)
            self.skip_blank()
        return spec

    def _section_lines(self):
        while True:
            self.skip_blank()
            if self.cur.kind == "eof":
                raise self.error("section not closed by 'end'")
            if self.cur.kind == "ident" and self.cur.text == "end":
                self.section_end = self.advance()
                self.end_line()
                return
            yield

    def _parse_patch(self, spec: SpecFile) -> None:
        coords: List[Tuple[str, str]] = []
        for _ in self._section_lines():
            name = self.expect("ident", "coordinate name").text
            role_tok = self.expect("ident", "coordinate role")
            if role_tok.text not in ("base", "fiber", "time"):
                raise SpecError(f"unknown role {role_tok.text!r}",
                                role_tok.line, role_tok.col)
            coords.append((name, role_tok.text))
            self.end_line()
        try:
            spec.chart = Chart(tuple(coords))
        except ChartError as exc:
            raise SpecError(str(exc), self.cur.line, self.cur.col)
        self.full_chart = spec.chart

    def _parse_algebroid(self, spec: SpecFile) -> None:
        base = spec.base_chart()
        seen = set()

        def once(key, name: str, t: Token) -> None:
            if key in seen:
                raise SpecError(f"second entry for {name}", t.line, t.col)
            seen.add(key)

        for _ in self._section_lines():
            t = self.expect("ident", "algebroid entry")
            if t.text in ("rank", "basis"):
                once(t.text, t.text, t)
            if t.text == "rank":
                v = self.expect_int("rank")
                if v < 1:
                    raise SpecError("rank must be positive", t.line, t.col)
                spec.rank = v
            elif t.text == "basis":
                names = []
                while self.cur.kind in ("ident", "basis"):
                    names.append(self.advance().text)
                if not names:
                    raise self.error("expected basis names")
                spec.basis_names = tuple(names)
            elif t.text == "c":
                rank = self.need_rank(spec, t)
                self.expect_sym("[")
                i = self.expect_index(rank, "basis index")
                self.expect_sym(",")
                j = self.expect_index(rank, "basis index")
                once(("c", min(i, j), max(i, j)), f"c[{i},{j}] or c[{j},{i}]", t)
                self.expect_sym("]")
                self.expect_sym("=")
                for k, p in self._sum(base, lambda: self._basis_ref(rank)):
                    if i == j and not p.is_zero:
                        raise SpecError("diagonal structure function must be zero",
                                        t.line, t.col)
                    key = (i, j, k)
                    spec.structure[key] = spec.structure.get(
                        key, ExpPoly.zero(base)) + p
            elif t.text == "rho":
                rank = self.need_rank(spec, t)
                self.expect_sym("[")
                i = self.expect_index(rank, "basis index")
                once(("rho", i), f"rho[{i}]", t)
                self.expect_sym("]")
                self.expect_sym("=")
                for l, p in self._sum(base, lambda: self._derivation(base)):
                    key = (l, i)
                    spec.anchor[key] = spec.anchor.get(
                        key, ExpPoly.zero(base)) + p
            else:
                raise SpecError(f"unknown algebroid entry {t.text!r}",
                                t.line, t.col)
            self.end_line()

    def _parse_cocycle(self, spec: SpecFile) -> None:
        base = spec.base_chart()
        comps: Dict[int, ExpPoly] = {}
        for _ in self._section_lines():
            t = self.expect("ident", "cocycle entry")
            if t.text != "phi":
                raise SpecError(f"unknown cocycle entry {t.text!r}", t.line, t.col)
            rank = self.need_rank(spec, t)
            self.expect_sym("[")
            i = self.expect_index(rank, "component index")
            if i in comps:
                raise SpecError(f"second entry for phi[{i}]", t.line, t.col)
            self.expect_sym("]")
            self.expect_sym("=")
            comps[i] = self.parse_expr(base)
            self.end_line()
        if comps:
            # the rank is known here, as it precedes every phi entry
            if max(comps) != spec.rank:
                t = self.section_end
                raise SpecError("cocycle components do not match the rank",
                                t.line, t.col)
            spec.cocycle = tuple(comps.get(i, ExpPoly.zero(base))
                                 for i in range(1, spec.rank + 1))

    def _parse_jacobi(self, spec: SpecFile) -> None:
        chart = spec.chart
        seen = set()
        for _ in self._section_lines():
            t = self.expect("ident", "jacobi entry")
            if t.text in seen:
                raise SpecError(f"second entry for {t.text}", t.line, t.col)
            seen.add(t.text)
            self.expect_sym("=")
            if t.text == "lambda":
                spec.lam = self._multivector(chart, 2)
            elif t.text == "efield":
                spec.e_field = self._multivector(chart, 1)
            else:
                raise SpecError(f"unknown jacobi entry {t.text!r}", t.line, t.col)
            self.end_line()

    # -- expressions ---------------------------------------------------

    def parse_expr(self, chart: Chart) -> ExpPoly:
        p = self._term(chart)
        while self.at_sym("+") or self.at_sym("-"):
            op = self.advance().text
            q = self._term(chart)
            p = p + q if op == "+" else p - q
        return p

    def _term(self, chart: Chart) -> ExpPoly:
        p = self._factor(chart)
        while self.at_sym("*"):
            star = self.advance()
            p = _times(p, self._factor(chart), star)
        return p

    def _factor(self, chart: Chart) -> ExpPoly:
        negate = False
        while self.at_sym("-"):
            self.advance()
            negate = not negate
        p = self._atom(chart)
        return -p if negate else p

    def _atom(self, chart: Chart) -> ExpPoly:
        t = self.cur
        if t.kind == "number":
            self.advance()
            if "/" in t.text:
                a, b = t.text.split("/")
                a, b = _int(a, t), _int(b, t)
                if b == 0:
                    raise SpecError("zero denominator", t.line, t.col)
                return ExpPoly.const(chart, Fraction(a, b))
            return ExpPoly.const(chart, _int(t.text, t))
        if self.at_sym("("):
            if self.nesting == MAX_NESTING:
                raise self.error(f"expression nested deeper than {MAX_NESTING} "
                                 "parentheses")
            self.advance()
            self.nesting += 1
            p = self.parse_expr(chart)
            self.nesting -= 1
            self.expect_sym(")")
            return p
        if t.kind == "ident":
            if t.text == "exp":
                self.advance()
                self.expect_sym("(")
                kt = self.cur
                k = self.expect_int("integer exponent")
                self.expect_sym("*")
                tv = self.expect("ident", "time coordinate")
                if not chart.has_time or chart.names[chart.time_index] != tv.text:
                    raise SpecError(
                        f"{tv.text!r} is not the time coordinate of the patch",
                        tv.line, tv.col)
                self.expect_sym(")")
                try:
                    return ExpPoly.s_power(chart, k)
                except FieldOverflowError as exc:
                    raise SpecError(str(exc), kt.line, kt.col) from None
            if not chart.has(t.text):
                if self.full_chart.has(t.text):
                    raise SpecError(
                        f"fiber coordinate {t.text!r} not allowed in this section",
                        t.line, t.col)
                raise SpecError(f"undeclared coordinate {t.text!r}", t.line, t.col)
            self.advance()
            e, et = 1, t
            if self.at_sym("^"):
                self.advance()
                et = self.cur
                e = self.expect_int("exponent")
                if e < 0:
                    raise SpecError("negative exponent", t.line, t.col)
            i = chart.index(t.text)
            exps = tuple(e if j == i else 0 for j in range(chart.dim))
            try:
                return ExpPoly(chart, {(exps, 0): 1})
            except FieldOverflowError as exc:
                raise SpecError(str(exc), et.line, et.col) from None
        raise self.error(f"expected an expression, found {t.text or 'end of input'!r}")

    def _coefficient(self, chart: Chart):
        """Product of scalar factors terminating at a d/d or e_k token;
        returns (coefficient, negated?) -- empty coefficient means 1."""
        sign = 1
        while self.at_sym("-"):
            self.advance()
            sign = -sign
        p = star = None
        while self.cur.kind in ("number", "ident") or self.at_sym("("):
            q = self._factor(chart)
            p = q if p is None else _times(p, q, star)
            if self.at_sym("*"):
                nxt = self.toks[self.i + 1]
                star = self.advance()
                if nxt.kind in ("ddn", "basis"):
                    break
                continue
            break
        if p is None:
            p = ExpPoly.const(chart, 1)
        return p if sign > 0 else -p

    def _sum(self, chart: Chart,
             symbol: Callable[[], Any]) -> List[Tuple[Any, ExpPoly]]:
        """coeff*symbol terms joined by + and - (or a lone 0) as
        (key, coeff) pairs; symbol() reads one e_k, d/dx or d/dx^d/dy...
        and returns its key."""
        out: List[Tuple[Any, ExpPoly]] = []
        if self.cur.kind == "number" and self.cur.text == "0" \
                and self.toks[self.i + 1].kind in ("nl", "eof"):
            self.advance()
            return out
        while True:
            p = self._coefficient(chart)
            out.append((symbol(), p))
            if self.at_sym("+"):
                self.advance()
            elif not self.at_sym("-"):  # a minus is read as a sign by _coefficient
                return out

    def _basis_ref(self, rank: int) -> int:
        t = self.expect("basis", "basis reference e_<k>")
        k = _int(t.text[2:], t)
        if not 1 <= k <= rank:
            raise SpecError(f"basis index {k} out of range", t.line, t.col)
        return k

    def _derivation(self, chart: Chart) -> int:
        t = self.expect("ddn", "derivation d/d<coordinate>")
        name = t.text[3:]
        if not chart.has(name):
            raise SpecError(f"undeclared coordinate {name!r}", t.line, t.col)
        return chart.index(name)

    def _derivations(self, chart: Chart, grade: int) -> Tuple[int, ...]:
        """d/dx^d/dy^... with exactly `grade` factors."""
        idx = []
        while True:
            t = self.cur
            idx.append(self._derivation(chart))
            if not self.at_sym("^"):
                break
            self.advance()
        if len(idx) != grade:
            raise SpecError(f"expected a grade-{grade} term, got {len(idx)} factors",
                            t.line, t.col)
        return tuple(idx)

    def _multivector(self, chart: Chart, grade: int) -> Multivector:
        comps: Dict[Tuple[int, ...], ExpPoly] = {}
        for idx, p in self._sum(chart, lambda: self._derivations(chart, grade)):
            q = comps.get(idx)
            comps[idx] = p if q is None else q + p
        return Multivector(chart, grade, comps)


def _times(p: ExpPoly, q: ExpPoly, star: Token) -> ExpPoly:
    """p * q, whose exponents past the ring's field width are an error at
    the '*' token."""
    try:
        return p * q
    except FieldOverflowError as exc:
        raise SpecError(str(exc), star.line, star.col) from None


def parse_expression(text: str, chart: Chart) -> ExpPoly:
    """Parse a single scalar expression against an existing chart."""
    p = _Parser(_tokenize(text))
    p.full_chart = chart
    p.skip_blank()
    out = p.parse_expr(chart)
    p.skip_blank()
    if p.cur.kind != "eof":
        raise p.error(f"trailing input {p.cur.text!r}")
    return out


def parse_spec(text) -> SpecFile:
    """Parse UTF-8 text (str or bytes) into a validated SpecFile."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SpecError(f"not valid UTF-8: {exc.reason}", 1, 1)
    return _Parser(_tokenize(text)).parse_file()


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
