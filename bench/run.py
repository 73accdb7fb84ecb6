"""linjacobi benchmark: one seeded, closed-loop workload per run.

    python3 bench/run.py --workload gallery --seed 1 --seconds 20 --trace 0

One caller, one process, one thread: the next item starts when the last
one has returned.  The run imports linjacobi from `src/` next to this
directory, builds the workload's inputs from the seed, warms up, then
runs whole rounds of items until `--seconds` of timed work is done and
at least MIN_ITEMS items ran.  Every item's outcome is checked against
its known answer.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the
per-layer metrics instead: it times round 0 untraced for half of
`--seconds`, runs it once more under the tracer, and writes the spans
to .bench_work/trace-WORKLOAD.{json,bin}.  Either way the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 15       # set-up is repeated and its median reported
FAILURES_SHOWN = 3    # failing items whose details go to stderr
CALIBRATION_REPS = 5  # passes of the calibration loop after a traced run
MIN_ITEMS = 100       # so that the p90 has at least ten samples beyond it
MAX_WALL_S = 150      # stop starting rounds past this, to end within 180 s

END_TO_END = (("item_ms_p50", "ms"), ("item_ms_p90", "ms"), ("items_per_s", "1/s"),
              ("ok_ratio", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def fresh_import():
    """Import linjacobi from the checkout's src/, dropping any copy
    imported before, so that every set-up pays the import."""
    if not os.path.isfile(os.path.join(SRC, "linjacobi", "__init__.py")):
        raise RuntimeError(f"no linjacobi package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "linjacobi" or m.startswith("linjacobi.")]:
        del sys.modules[name]
    lj = importlib.import_module("linjacobi")
    importlib.import_module("linjacobi.cli")
    if not os.path.abspath(lj.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"linjacobi imported from {lj.__file__}, not {SRC}")
    return lj


class Runner:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.shown = FAILURES_SHOWN

    def call(self, label, check) -> None:
        """Run one item; an exception or a wrong answer is a failure."""
        try:
            ok = check()
        except Exception:
            ok = False
            if self.shown:
                traceback.print_exc()
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.shown:
                self.shown -= 1
                print(f"item {label!r}: outcome differs from the known answer",
                      file=sys.stderr)

    def timed_round(self, items, durations=None) -> float:
        t0 = time.perf_counter()
        for label, check in items:
            a = time.perf_counter()
            self.call(label, check)
            if durations is not None:
                durations.append((time.perf_counter() - a) * 1000.0)
        return time.perf_counter() - t0


def calibration_ms() -> float:
    """Time of one pass of a fixed pure-Python loop (dict and integer
    work, like the ring's).  Its median over a run is printed beside the
    metrics, so that the host's speed during the run is recorded rather
    than assumed."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(60000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * i
    return (time.perf_counter() - t0) * 1000.0


def setup(name: str, seed: int):
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # collect the previous repetition's package outside the timing
        t0 = time.perf_counter()
        lj = fresh_import()
        wl = workloads.WORKLOADS[name](lj, seed, WORKDIR)
        first = wl.round(0)
        wl.warmup()
        times.append(time.perf_counter() - t0)
    return wl, first, statistics.median(times)


def end_to_end(wl, first, seconds: float, runner: Runner, wall0: float):
    durations, host = [], []
    busy, r, items = 0.0, 0, first
    while True:
        busy += runner.timed_round(items, durations)
        host.append(calibration_ms())
        r += 1
        if busy >= seconds and len(durations) >= MIN_ITEMS:
            break
        if time.perf_counter() - wall0 > MAX_WALL_S:
            break
        items = wl.round(r)
    ordered = sorted(durations)
    n = len(ordered)
    return {
        "item_ms_p50": statistics.median(ordered),
        "item_ms_p90": ordered[max(math.ceil(0.9 * n) - 1, 0)],
        "items_per_s": n / busy,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "calibration_ms": statistics.median(host),
    }


def traced(wl, first, seconds: float, runner: Runner):
    busy, done = 0.0, 0
    while busy < seconds / 2 or not done:
        busy += runner.timed_round(first)
        done += len(first)
    untraced_rate = done / busy
    labels = [label for label, _ in first]
    t = tr.Tracer()
    t.install()
    try:
        t0 = time.perf_counter()
        for i, (label, check) in enumerate(first):
            t.current[0] = i
            runner.call(label, check)
        t.current[0] = -1
        traced_rate = len(first) / (time.perf_counter() - t0)
    finally:
        t.uninstall()
    metrics = t.metrics(labels, workloads.CATALOG, untraced_rate / traced_rate)
    t.write(os.path.join(WORKDIR, f"trace-{wl.name}"), labels)
    metrics["calibration_ms"] = statistics.median(
        calibration_ms() for _ in range(CALIBRATION_REPS))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wall0 = time.perf_counter()
    try:
        os.makedirs(WORKDIR, exist_ok=True)
        wl, first, setup_s = setup(args.workload, args.seed)
    except Exception as exc:
        print(f"set-up failed: {exc!r}", file=sys.stderr)
        return 2
    runner = Runner()
    if args.trace:
        values = traced(wl, first, args.seconds, runner)
        units = dict(tr.metric_names(workloads.CATALOG))
    else:
        values = end_to_end(wl, first, args.seconds, runner, wall0)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    for key, unit in units.items():
        print(f"{args.workload:9s} {key:44s} {values[key]:>14.6g} {unit}")
    print(f"{args.workload:9s} {'calibration_ms':44s} {values['calibration_ms']:>14.6g} ms")
    print(f"{args.workload:9s} {'items attempted':44s} {runner.attempted:>14d}")
    print(f"{args.workload:9s} {'fail_ratio':44s} "
          f"{runner.failed / runner.attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
