"""Command-line surface: parse spec files, run verification commands, and
emit reports as aligned text or JSON.

`run_command` is the one pipeline. It reads and parses the spec file,
enforces the caps, checks that the sections the command needs are present,
runs the command and reads the exit code off its report; `emit_report`
zeroes every `ms` so that identical inputs emit identical bytes.

Exit codes: 0 all checks passed (a command without checks exits 0), 1 at
least one check failed, 2 parse or validation error, including a missing
section.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from typing import List, Optional, Sequence, Tuple

from .algebroid import AlgebroidError, verify_algebroid, verify_cocycle
from .jacobi import check_C1, check_C2, jacobi_bracket, verify_jacobi
from .correspondence import (AlgebroidWithCocycle, _recover, forward_report,
                             psi_forward, roundtrip_check)
from .gallery import build_case
from .report import Check, Report
from .specfile import (SpecFile, parse_expression, parse_spec, render_spec,
                       spec_from_algebroid, spec_from_jacobi)

MAX_RANK = 8
MAX_DIM = 4
MAX_DEGREE = 6


class CapError(ValueError):
    pass


class CommandFailure(ValueError):
    """A validation problem that is not a check failure (exit code 2)."""


def emit_report(rep: Report, fmt: str) -> str:
    """Render with every ms zeroed so identical inputs emit identical bytes."""
    rep = Report([Check(c.name, c.verdict, c.residual) for c in rep.checks])
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


def _load(path: str, no_caps: bool, sections: Sequence[str]) -> SpecFile:
    """Read, parse and cap the spec file, then require each of `sections`."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CommandFailure(f"cannot read {path}: {exc}")
    spec = parse_spec(raw)
    if not no_caps:
        _enforce_caps(spec)
    present = {"algebroid": spec.has_algebroid, "jacobi": spec.has_jacobi,
               "cocycle": spec.cocycle is not None}
    for name in sections:
        if not present[name]:
            raise CommandFailure(f"spec file has no {name} section")
    return spec


def _verified_pair(spec: SpecFile
                   ) -> Tuple[Optional[AlgebroidWithCocycle], Report]:
    """The spec's verified pair (None when verification fails) and its
    verification report."""
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
# Commands: (spec, args) -> (report, text printed after the report)
# ---------------------------------------------------------------------------

def _cmd_verify_algebroid(spec, args) -> Tuple[Report, str]:
    return verify_algebroid(spec.to_algebroid()), ""


def _cmd_verify_cocycle(spec, args) -> Tuple[Report, str]:
    A = spec.to_algebroid()
    rep = verify_algebroid(A)
    rep.extend(verify_cocycle(A, spec.to_cocycle()))
    return rep, ""


def _cmd_verify_jacobi(spec, args) -> Tuple[Report, str]:
    return verify_jacobi(spec.to_jacobi()), ""


def _cmd_forward(spec, args) -> Tuple[Report, str]:
    pair, rep = _verified_pair(spec)
    if pair is None:
        return rep, ""
    J = psi_forward(pair)
    rep.extend(forward_report(pair, J))
    return rep, render_spec(spec_from_jacobi(J))


def _cmd_invert(spec, args) -> Tuple[Report, str]:
    J = spec.to_jacobi()
    rep = Report()
    rep.extend(verify_jacobi(J), "jacobi.")
    rep.checks.append(_aggregate("C1", check_C1(J)))
    rep.checks.append(_aggregate("C2", check_C2(J)))
    if not rep.passed:
        return rep, ""
    # C1 and C2 passed above; the recovered pair is verified when built
    pair = AlgebroidWithCocycle(*_recover(J))
    rep.extend(pair.algebroid_report, "recovered.")
    return rep, render_spec(spec_from_algebroid(pair.algebroid, pair.cocycle))


def _cmd_roundtrip(spec, args) -> Tuple[Report, str]:
    pair, rep = _verified_pair(spec)
    if pair is not None:
        rep.extend(roundtrip_check(pair))
    return rep, ""


def _cmd_bracket(spec, args) -> Tuple[Report, str]:
    J = spec.to_jacobi()
    f = parse_expression(args.f, J.chart)
    g = parse_expression(args.g, J.chart)
    return Report(), jacobi_bracket(J, f, g).render()


def _cmd_gallery(spec, args) -> Tuple[Report, str]:
    case = build_case(args.name)
    if not args.spec:
        return case.run(), ""
    if case.pair is not None:
        return Report(), render_spec(spec_from_algebroid(case.pair.algebroid,
                                                         case.pair.cocycle))
    return Report(), render_spec(spec_from_jacobi(case.jacobi))


# name -> (command, the sections its spec file needs in check order, or None
# for a command that reads no spec file, extra (flag, add_argument keywords))
_COMMANDS = {
    "verify-algebroid": (_cmd_verify_algebroid, ("algebroid",), ()),
    "verify-cocycle": (_cmd_verify_cocycle, ("algebroid", "cocycle"), ()),
    "verify-jacobi": (_cmd_verify_jacobi, ("jacobi",), ()),
    "forward": (_cmd_forward, ("algebroid",), ()),
    "invert": (_cmd_invert, ("jacobi",), ()),
    "roundtrip": (_cmd_roundtrip, ("algebroid",), ()),
    "bracket": (_cmd_bracket, ("jacobi",), (
        ("--f", dict(required=True, metavar="EXPR")),
        ("--g", dict(required=True, metavar="EXPR")))),
    "gallery": (_cmd_gallery, None, (
        ("--spec", dict(action="store_true", help="print the case as a spec "
                        "file instead of running it")),)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linjacobi",
        description="Exact checks for Lie algebroid / linear Jacobi data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, sections, extra) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("name" if sections is None else "file")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.add_argument("--out", metavar="FILE",
                       help="write the report to FILE instead of stdout")
        p.add_argument("--no-caps", action="store_true",
                       help="lift the desk-scale size caps")
    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def run_command(argv: List[str]) -> Tuple[int, str]:
    """Dispatch one CLI invocation; returns (exit code, output text).
    Nothing is written to stdout or stderr: for `--help` and for usage
    errors the output is argparse's text without its final newline."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    said = io.StringIO()  # argparse's help and usage text
    try:
        with contextlib.redirect_stdout(said), contextlib.redirect_stderr(said):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 2), said.getvalue().removesuffix("\n")
    command, sections, _ = _COMMANDS[args.command]
    try:
        spec = (None if sections is None
                else _load(args.file, args.no_caps, sections))
        rep, extra = command(spec, args)
    except (ValueError, RecursionError) as exc:
        return 2, f"error: {exc}"
    body = emit_report(rep, "json" if args.json else "text") if rep.checks else ""
    if args.out and body:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            return 2, f"error: cannot write {args.out}: {exc}"
        body = ""
    return (0 if rep.passed else 1), "\n\n".join(p for p in (body, extra) if p)


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
