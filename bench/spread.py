"""Run one workload over several seeds and summarise each metric.

    python3 bench/spread.py --workload families --seeds 1-10
    python3 bench/spread.py --workload gallery --seeds 1,2,3 --trace 1 --out s.json

Each run is `run.py` in a child process, with BENCHMARK.json's
run_seconds.  For every metric it prints the median of the runs and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, the figure
the bounds in BENCHMARK.json are set against.  Each run's calibration_ms
(the host's speed during the run) is kept beside its metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarise(runs):
    out = {}
    for key in runs[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
        out[key] = {"median": med, "spread": (q[2] - q[0]) / med if med else 0.0,
                    "min": min(values), "max": max(values),
                    "unit": runs[0]["metrics"][key]["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 1,4,9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the runs and the summary as JSON")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        doc = json.loads(lines[-1])
        doc["seed"] = seed
        doc["calibration_ms"] = next(float(line.split()[2]) for line in lines
                                     if line.split()[1:2] == ["calibration_ms"])
        runs.append(doc)
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} calibration_ms={doc['calibration_ms']:.2f}",
              flush=True)
    summary = summarise(runs)
    for key, s in summary.items():
        print(f"{key:44s} median {s['median']:>12.6g} {s['unit']:6s} spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
