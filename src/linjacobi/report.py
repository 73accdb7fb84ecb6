"""Check records and reports shared by all verification operations."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class Check:
    name: str
    verdict: str
    residual: str = ""
    ms: float = 0.0


@dataclass
class Report:
    checks: List[Check] = field(default_factory=list)

    @contextmanager
    def timed(self, name: str) -> Iterator[List[str]]:
        """Yields a list for residual lines and records the check when the
        block exits: pass iff no line was added, else fail with the lines
        joined by "; "; ms is the block's wall time."""
        lines: List[str] = []
        t0 = time.perf_counter()
        yield lines
        self.checks.append(Check(name, FAIL if lines else PASS, "; ".join(lines),
                                 (time.perf_counter() - t0) * 1000.0))

    def extend(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.verdict, c.residual, c.ms))

    @property
    def n_pass(self) -> int:
        return sum(1 for c in self.checks if c.verdict == PASS)

    @property
    def n_fail(self) -> int:
        return sum(1 for c in self.checks if c.verdict != PASS)

    @property
    def passed(self) -> bool:
        return all(c.verdict == PASS for c in self.checks)

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    # -- rendering -----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "checks": [
                {"name": c.name, "verdict": c.verdict, "residual": c.residual,
                 "ms": round(c.ms, 3)}
                for c in self.checks
            ],
            "summary": {"pass": self.n_pass, "fail": self.n_fail},
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_text(self) -> str:
        if not self.checks:
            return "no checks\nsummary: 0 pass, 0 fail"
        wname = max(len(c.name) for c in self.checks)
        wverd = max(len(c.verdict) for c in self.checks)
        lines = []
        for c in self.checks:
            line = f"{c.name:<{wname}}  {c.verdict:<{wverd}}"
            if c.residual:
                line += f"  residual: {c.residual}"
            lines.append(line)
        lines.append(f"summary: {self.n_pass} pass, {self.n_fail} fail")
        return "\n".join(lines)
