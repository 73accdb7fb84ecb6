"""Command-line surface: parse spec files, run verification commands, and
emit reports as aligned text or JSON.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 parse or
validation error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from .chart import ChartError
from .ring import ChartMismatchError
from .algebroid import AlgebroidError, verify_algebroid, verify_cocycle
from .jacobi import check_C1, check_C2, jacobi_bracket, verify_jacobi
from .correspondence import (AlgebroidWithCocycle, _recover, forward_report,
                             psi_forward, roundtrip_check)
from .gallery import GalleryError, build_case
from .report import Check, Report
from .specfile import (SpecError, SpecFile, parse_expression, parse_spec,
                       render_spec, spec_from_algebroid, spec_from_jacobi)

MAX_RANK = 8
MAX_DIM = 4
MAX_DEGREE = 6


class CapError(ValueError):
    pass


class CommandFailure(ValueError):
    """A validation problem that is not a check failure (exit code 2)."""


def _strip_ms(rep: Report) -> Report:
    """Zero the timing field so identical inputs emit identical bytes."""
    out = Report()
    for c in rep.checks:
        out.checks.append(Check(c.name, c.verdict, c.residual, 0.0))
    return out


def emit_report(rep: Report, fmt: str) -> str:
    rep = _strip_ms(rep)
    return rep.to_json() if fmt == "json" else rep.to_text()


def _enforce_caps(spec: SpecFile) -> None:
    if spec.chart.dim > MAX_DIM:
        raise CapError(f"chart dimension {spec.chart.dim} exceeds cap {MAX_DIM} "
                       "(use --no-caps to override)")
    if spec.rank is not None and spec.rank > MAX_RANK:
        raise CapError(f"rank {spec.rank} exceeds cap {MAX_RANK} "
                       "(use --no-caps to override)")
    polys = list(spec.structure.values()) + list(spec.anchor.values())
    if spec.cocycle:
        polys += list(spec.cocycle)
    for mv in (spec.lam, spec.e_field):
        if mv is not None:
            polys += list(mv.comps.values())
    for p in polys:
        if p.total_degree() > MAX_DEGREE:
            raise CapError(f"expression degree {p.total_degree()} exceeds cap "
                           f"{MAX_DEGREE} (use --no-caps to override)")


def _load(path: str, no_caps: bool) -> SpecFile:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CommandFailure(f"cannot read {path}: {exc}")
    spec = parse_spec(raw)
    if not no_caps:
        _enforce_caps(spec)
    return spec


def _need_pair(spec: SpecFile) -> Tuple[Optional[AlgebroidWithCocycle], Report]:
    """The spec's verified pair (None when verification fails) and its
    verification report."""
    if not spec.has_algebroid:
        raise CommandFailure("spec file has no algebroid section")
    A = spec.to_algebroid()
    phi = spec.to_cocycle() if spec.cocycle is not None else None
    try:
        pair = verified = AlgebroidWithCocycle(A, phi)
    except AlgebroidError as exc:
        if exc.algebroid_report is None:
            raise
        pair, verified = None, exc
    rep = Report()
    rep.extend(verified.algebroid_report, "algebroid.")
    rep.extend(verified.cocycle_report, "cocycle.")
    return pair, rep


def _aggregate(name: str, rep: Report) -> Check:
    """Collapse a sub-report into one named check (first failing residual)."""
    for c in rep.checks:
        if c.verdict != "pass":
            return Check(name, c.verdict, c.residual, 0.0)
    return Check(name, "pass", "", 0.0)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_verify_algebroid(args) -> Tuple[int, Report, str]:
    spec = _load(args.file, args.no_caps)
    if not spec.has_algebroid:
        raise CommandFailure("spec file has no algebroid section")
    rep = verify_algebroid(spec.to_algebroid())
    return (0 if rep.passed else 1), rep, ""


def _cmd_verify_cocycle(args) -> Tuple[int, Report, str]:
    spec = _load(args.file, args.no_caps)
    if not spec.has_algebroid:
        raise CommandFailure("spec file has no algebroid section")
    if spec.cocycle is None:
        raise CommandFailure("spec file has no cocycle section")
    A = spec.to_algebroid()
    rep = verify_algebroid(A)
    rep.extend(verify_cocycle(A, spec.to_cocycle()))
    return (0 if rep.passed else 1), rep, ""


def _cmd_verify_jacobi(args) -> Tuple[int, Report, str]:
    spec = _load(args.file, args.no_caps)
    if not spec.has_jacobi:
        raise CommandFailure("spec file has no jacobi section")
    rep = verify_jacobi(spec.to_jacobi())
    return (0 if rep.passed else 1), rep, ""


def _cmd_forward(args) -> Tuple[int, Report, str]:
    spec = _load(args.file, args.no_caps)
    pair, rep = _need_pair(spec)
    if pair is None:
        return 1, rep, ""
    J = psi_forward(pair)
    rep.extend(forward_report(pair, J))
    return (0 if rep.passed else 1), rep, render_spec(spec_from_jacobi(J))


def _cmd_invert(args) -> Tuple[int, Report, str]:
    spec = _load(args.file, args.no_caps)
    if not spec.has_jacobi:
        raise CommandFailure("spec file has no jacobi section")
    J = spec.to_jacobi()
    rep = Report()
    rep.extend(verify_jacobi(J), "jacobi.")
    rep.checks.append(_aggregate("C1", check_C1(J)))
    rep.checks.append(_aggregate("C2", check_C2(J)))
    if not rep.passed:
        return 1, rep, ""
    # C1 and C2 passed above; the recovered pair is verified when built
    pair = AlgebroidWithCocycle(*_recover(J))
    rep.extend(pair.algebroid_report, "recovered.")
    text = render_spec(spec_from_algebroid(pair.algebroid, pair.cocycle))
    return 0, rep, text


def _cmd_roundtrip(args) -> Tuple[int, Report, str]:
    spec = _load(args.file, args.no_caps)
    pair, rep = _need_pair(spec)
    if pair is None:
        return 1, rep, ""
    rep.extend(roundtrip_check(pair))
    return (0 if rep.passed else 1), rep, ""


def _cmd_bracket(args) -> Tuple[int, Report, str]:
    spec = _load(args.file, args.no_caps)
    if not spec.has_jacobi:
        raise CommandFailure("spec file has no jacobi section")
    J = spec.to_jacobi()
    f = parse_expression(args.f, J.chart)
    g = parse_expression(args.g, J.chart)
    value = jacobi_bracket(J, f, g)
    return 0, Report(), value.render()


def _cmd_gallery(args) -> Tuple[int, Report, str]:
    try:
        case = build_case(args.name)
    except GalleryError as exc:
        raise CommandFailure(str(exc))
    if args.spec:
        if case.pair is not None:
            text = render_spec(spec_from_algebroid(case.pair.algebroid,
                                                   case.pair.cocycle))
        else:
            text = render_spec(spec_from_jacobi(case.jacobi))
        return 0, Report(), text
    rep = case.run()
    return (0 if rep.passed else 1), rep, ""


_COMMANDS = {
    "verify-algebroid": _cmd_verify_algebroid,
    "verify-cocycle": _cmd_verify_cocycle,
    "verify-jacobi": _cmd_verify_jacobi,
    "forward": _cmd_forward,
    "invert": _cmd_invert,
    "roundtrip": _cmd_roundtrip,
    "bracket": _cmd_bracket,
    "gallery": _cmd_gallery,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linjacobi",
        description="Exact checks for Lie algebroid / linear Jacobi data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.add_argument("--out", metavar="FILE",
                       help="write the report to FILE instead of stdout")
        p.add_argument("--no-caps", action="store_true",
                       help="lift the desk-scale size caps")

    for name in ("verify-algebroid", "verify-cocycle", "verify-jacobi",
                 "forward", "invert", "roundtrip"):
        p = sub.add_parser(name)
        p.add_argument("file")
        common(p)
    p = sub.add_parser("bracket")
    p.add_argument("file")
    p.add_argument("--f", required=True, metavar="EXPR")
    p.add_argument("--g", required=True, metavar="EXPR")
    common(p)
    p = sub.add_parser("gallery")
    p.add_argument("name")
    p.add_argument("--spec", action="store_true",
                   help="print the case as a spec file instead of running it")
    common(p)
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def run_command(argv: List[str]) -> Tuple[int, str]:
    """Dispatch one CLI invocation; returns (exit code, output text)."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), ""
    try:
        code, rep, extra = _COMMANDS[args.command](args)
    except (SpecError, CapError, CommandFailure, ChartError, AlgebroidError,
            ChartMismatchError, ValueError, RecursionError) as exc:
        return 2, f"error: {exc}"
    fmt = "json" if args.json else "text"
    body = emit_report(rep, fmt) if rep.checks else ""
    if args.out and body:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            return 2, f"error: cannot write {args.out}: {exc}"
        body = ""
    parts = [p for p in (body, extra) if p]
    return code, "\n\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    code, output = run_command(argv)
    if output:
        stream = sys.stderr if code == 2 else sys.stdout
        print(output, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
