"""Golden gate: every gallery `--json`/`--spec` output and the seed-0 cli
corpus, replayed through run_command and compared byte for byte with the
outputs recorded under bench/golden/."""

import json
from pathlib import Path

import pytest

from linjacobi.cli import run_command

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


def _load(name):
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


GALLERY = _load("gallery")
CLI = _load("cli")


@pytest.mark.parametrize("call", sorted(GALLERY))
def test_gallery_golden(call):
    want = GALLERY[call]
    assert run_command(call.split(" ")) == (want["code"], want["output"])


def test_cli_golden(tmp_path):
    for name, text in CLI["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for call in CLI["calls"]:
        argv = [call["command"], str(tmp_path / call["file"])] + call["extra"]
        assert run_command(argv) == (call["code"], call["output"]), argv
