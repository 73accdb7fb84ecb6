"""Capture the golden outputs that every benchmark run compares byte for
byte, and that a change claiming identical behaviour must reproduce:

- golden/gallery.json: exit code and output of `gallery NAME --json` and
  `gallery NAME --spec` for every catalog case;
- golden/cli.json: the cli corpus of GOLDEN_SEED (its spec files, and
  each call's exit code and output).

    python3 bench/capture_golden.py

Run it only at a commit whose outputs are the reference.  It refuses to
write a corpus call whose outcome differs from its known answer.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    lj = run.fresh_import()
    gallery = {}
    for name in workloads.CATALOG:
        for flag in ("--json", "--spec"):
            argv = ["gallery", name, flag]
            code, out = lj.cli.run_command(argv)
            gallery[" ".join(argv)] = {"code": code, "output": out}

    files, calls = workloads.cli_corpus(lj, workloads.GOLDEN_SEED)
    tmp = os.path.join(run.WORKDIR, "golden-capture")
    os.makedirs(tmp, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    recorded = []
    for command, file, extra, answer in calls:
        argv = [command, os.path.join(tmp, file)] + list(extra)
        code, out = lj.cli.run_command(argv)
        recorded.append({"command": command, "file": file, "extra": list(extra),
                         "code": code, "output": out})
    # every recorded call must also meet its known answer
    bad = [c for c in calls if not workloads.known_call(lj.cli, tmp, *c)[1]()]
    if bad:
        print(f"{len(bad)} corpus calls differ from their known answers: {bad[:3]}",
              file=sys.stderr)
        return 1

    for name, doc in (("gallery", gallery),
                      ("cli", {"seed": workloads.GOLDEN_SEED, "files": files,
                               "calls": recorded})):
        path = os.path.join(workloads.GOLDEN_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
