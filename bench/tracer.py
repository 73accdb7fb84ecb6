"""Outside-in tracer: spans around calls into linjacobi, taken without
changing a line of the package.

`Tracer.install()` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, item id) in memory.  A
function imported with `from .x import f` is bound once per importing
module, and a class may alias one function under two names
(`__radd__ = __add__`), so every binding of a traced object in every
`linjacobi.*` module and traced class is rebound, and `uninstall()` puts
each one back.  Spans are written out by `write()` when the run ends.

Self time is a span's duration minus the time its child spans cover; the
calls are nested and single-threaded, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import json
import re
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (layer span name, module, attribute); a dotted attribute is Class.member
FUNCTIONS = (
    ("ring.construct", "ring", "ExpPoly.__init__"),
    ("ring.add", "ring", "ExpPoly.__add__"),
    ("ring.add", "ring", "ExpPoly.__sub__"),
    ("ring.add", "ring", "ExpPoly.__rsub__"),
    ("ring.add", "ring", "ExpPoly.__neg__"),
    ("ring.mul", "ring", "ExpPoly.__mul__"),
    ("ring.partial", "ring", "ExpPoly.partial"),
    ("ring.transfer", "ring", "ExpPoly.transfer"),
    ("ring.render", "ring", "ExpPoly.render"),
    ("chart", "chart", "Chart.index"),
    ("chart", "chart", "Chart.has"),
    ("chart", "chart", "Chart.dim"),
    ("chart", "chart", "Chart.names"),
    ("chart", "chart", "Chart.has_time"),
    ("chart", "chart", "Chart.time_index"),
    ("chart", "chart", "Chart.fiber_indices"),
    ("chart", "chart", "Chart.fiber_names"),
    ("exterior.wedge", "exterior", "GradedSkew.wedge"),
    ("exterior.sn_bracket", "exterior", "sn_bracket"),
    ("exterior.exterior_d", "exterior", "exterior_d"),
    ("exterior.interior", "exterior", "interior"),
    ("exterior.pairing", "exterior", "pairing"),
    ("exterior.check_nondegenerate", "exterior", "check_nondegenerate"),
    ("algebroid.bracket_sections", "algebroid", "bracket_sections"),
    ("algebroid.verify_algebroid", "algebroid", "verify_algebroid"),
    ("algebroid.verify_cocycle", "algebroid", "verify_cocycle"),
    ("jacobi.jacobi_bracket", "jacobi", "jacobi_bracket"),
    ("jacobi.verify_jacobi", "jacobi", "verify_jacobi"),
    ("jacobi.check_C", "jacobi", "check_C1"),
    ("jacobi.check_C", "jacobi", "check_C2"),
    ("jacobi.contact_to_jacobi", "jacobi", "contact_to_jacobi"),
    ("correspondence.psi_forward", "correspondence", "psi_forward"),
    ("correspondence.psi_inverse", "correspondence", "psi_inverse"),
    ("correspondence.forward_report", "correspondence", "forward_report"),
    ("correspondence.roundtrip_check", "correspondence", "roundtrip_check"),
    ("correspondence.poissonization", "correspondence", "poissonization"),
    ("correspondence.hat_algebroid", "correspondence", "hat_algebroid"),
    ("gallery.build_case", "gallery", "build_case"),
    ("gallery.run_case", "gallery", "run_case"),
    ("specfile.parse_spec", "specfile", "parse_spec"),
    ("specfile.render_spec", "specfile", "render_spec"),
    ("report.render", "report", "Report.to_json"),
    ("report.render", "report", "Report.to_text"),
    ("cli.run_command", "cli", "run_command"),
)

# classes whose dictionaries are searched for aliases of traced members
CLASSES = (("ring", "ExpPoly"), ("chart", "Chart"), ("exterior", "GradedSkew"),
           ("report", "Report"))

# layer spans whose call counts and self times are reported
COUNTED = ("ring.construct", "ring.add", "ring.mul", "ring.partial", "ring.transfer",
           "exterior.wedge", "exterior.sn_bracket", "exterior.exterior_d",
           "exterior.interior", "exterior.pairing", "exterior.check_nondegenerate",
           "algebroid.bracket_sections", "algebroid.verify_algebroid",
           "algebroid.verify_cocycle", "jacobi.jacobi_bracket", "jacobi.verify_jacobi",
           "jacobi.check_C", "jacobi.contact_to_jacobi", "correspondence.psi_inverse",
           "specfile.parse_spec")
TIMED = COUNTED + ("ring.render", "correspondence.psi_forward",
                   "correspondence.forward_report", "correspondence.roundtrip_check",
                   "correspondence.poissonization", "correspondence.hat_algebroid",
                   "gallery.build_case", "gallery.run_case", "specfile.render_spec",
                   "report.render", "cli.run_command")
ARITHMETIC = ("ring.add", "ring.mul", "ring.partial", "ring.transfer")


def sanitize(name: str) -> str:
    """A gallery case name as a metric name part: aff1(2) -> aff1-2."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", name).strip("-")


def metric_names(cases) -> List[Tuple[str, str]]:
    """Every per-layer metric (name, unit) the traced run reports, in order."""
    out = []
    for span in TIMED:
        if span in COUNTED:
            out.append((span + ".calls", "count"))
        out.append((span + ".self_ms", "ms"))
    out += [("chart.calls", "count"), ("chart.self_ms", "ms"),
            ("ring.construct_per_op", "ratio"), ("ring.mul.terms_max", "terms"),
            ("algebroid.verify_repeat_ratio", "ratio")]
    out += [(f"gallery.case.{sanitize(c)}.ms", "ms") for c in cases]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Spans kept in parallel arrays, one entry per traced call."""

    def __init__(self):
        self.names: List[str] = []
        self.ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.item = array("i")
        self.current = [-1]          # item id of the call in progress
        self.stack = [-1]            # open spans, innermost last
        self.mul_terms_max = 0
        self.patches: Dict[int, object] = {}   # id -> patch, kept alive
        self.restore: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, span: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        nid = self._id(span)
        name, start, end, parent, item = (self.name, self.start, self.end,
                                          self.parent, self.item)
        stack, current, clock = self.stack, self.current, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            item.append(current[0])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return traced

    # -- hooks that measure sizes --------------------------------------

    def _after_mul(self, args, out) -> None:
        terms = getattr(out, "terms", None)
        if terms is not None and len(terms) > self.mul_terms_max:
            self.mul_terms_max = len(terms)

    def _after_verify(self, args, out) -> None:
        self.patches[id(args[0])] = args[0]

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "linjacobi" or k.startswith("linjacobi.")}
        after = {"ring.mul": self._after_mul,
                 "algebroid.verify_algebroid": self._after_verify}
        swap: Dict[int, object] = {}      # id(original) -> replacement
        for span, mod, attr in FUNCTIONS:
            owner = mods["linjacobi." + mod]
            if "." in attr:
                cls, member = attr.split(".")
                original = vars(getattr(owner, cls))[member]
            else:
                original = getattr(owner, attr)
            if isinstance(original, property):
                swap[id(original)] = property(self.wrap(span, original.fget))
            else:
                swap[id(original)] = self.wrap(span, original, after.get(span))
        # rebind every binding of every original: module-level names
        # (including `from .x import f` copies) and class members (aliases)
        owners = list(mods.values())
        owners += [getattr(mods["linjacobi." + m], c) for m, c in CLASSES]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if id(value) in swap:
                    self.restore.append((owner, attr, value))
                    setattr(owner, attr, swap[id(value)])

    def uninstall(self) -> None:
        while self.restore:
            owner, attr, value = self.restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------

    def self_times(self) -> array:
        """Per span: duration minus the durations of its direct children."""
        n = len(self.name)
        child = array("q", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return array("q", (end[i] - start[i] - child[i] for i in range(n)))

    def metrics(self, labels: List[str], cases, overhead: float) -> Dict[str, float]:
        """The per-layer metrics; `labels[i]` names item i."""
        selfs = self.self_times()
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for nid, s in zip(self.name, selfs):
            calls[nid] += 1
            self_ns[nid] += s
        by = {n: (calls[i], self_ns[i] / 1e6) for i, n in enumerate(self.names)}
        out: Dict[str, float] = {}
        for span in TIMED:
            c, ms = by.get(span, (0, 0.0))
            if span in COUNTED:
                out[span + ".calls"] = c
            out[span + ".self_ms"] = ms
        out["chart.calls"], out["chart.self_ms"] = by.get("chart", (0, 0.0))
        ops = sum(by.get(s, (0, 0))[0] for s in ARITHMETIC)
        out["ring.construct_per_op"] = by.get("ring.construct", (0, 0))[0] / ops if ops else 0.0
        out["ring.mul.terms_max"] = self.mul_terms_max
        verified = by.get("algebroid.verify_algebroid", (0, 0))[0]
        out["algebroid.verify_repeat_ratio"] = (verified / len(self.patches)
                                                if self.patches else 0.0)
        case_ns = {sanitize(c): 0 for c in cases}
        run_case = self.ids.get("gallery.run_case")
        for i, nid in enumerate(self.name):
            if nid == run_case and self.item[i] >= 0:
                key = sanitize(labels[self.item[i]])
                if key in case_ns:
                    case_ns[key] += self.end[i] - self.start[i]
        for key, ns in case_ns.items():
            out[f"gallery.case.{key}.ms"] = ns / 1e6
        out["trace.overhead_ratio"] = overhead
        return out

    def write(self, stem: str, labels: List[str]) -> None:
        """Write the spans as STEM.json (span names, item labels, layout)
        and STEM.bin (the five arrays, one after the other, native byte
        order), which array.fromfile reads back."""
        arrays = (("name", self.name), ("start_ns", self.start), ("end_ns", self.end),
                  ("parent", self.parent), ("item", self.item))
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"spans": len(self.name), "names": self.names, "items": labels,
                       "arrays": [[key, a.typecode, a.itemsize] for key, a in arrays],
                       "byteorder": sys.byteorder}, fh, indent=1)
        with open(stem + ".bin", "wb") as fh:
            for _, a in arrays:
                a.tofile(fh)
