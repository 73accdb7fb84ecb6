"""Command dispatcher: exit codes, report formats, emitted spec files."""

import json
import os
import random
import string
import subprocess
import sys
import time

import pytest

from linjacobi import Chart, cli
from linjacobi.cli import main, run_command

from conftest import count_calls

AFF1 = """\
algebroid
  rank 2
  c[1,2] = (1)*e_2
end

cocycle
  phi[1] = 2
  phi[2] = 0
end
"""

REMARK = """\
patch
  x fiber
  y fiber
end

jacobi
  lambda = (1*x*y)*d/dx^d/dy
  efield = (1*x)*d/dx
end
"""


@pytest.fixture
def aff1_spec(tmp_path):
    p = tmp_path / "aff1.spec"
    p.write_text(AFF1)
    return str(p)


@pytest.fixture
def remark_spec(tmp_path):
    p = tmp_path / "remark.spec"
    p.write_text(REMARK)
    return str(p)


def test_verify_algebroid_passes(aff1_spec):
    code, out = run_command(["verify-algebroid", aff1_spec])
    assert code == 0
    assert "summary: 3 pass, 0 fail" in out


def test_verify_cocycle(aff1_spec):
    code, out = run_command(["verify-cocycle", aff1_spec])
    assert code == 0
    assert "cocycle_condition" in out


def test_broken_input_exits_one(tmp_path):
    p = tmp_path / "bad.spec"
    p.write_text("algebroid\n  rank 3\n  c[1,2] = (1)*e_1\n"
                 "  c[2,3] = (1)*e_2\nend\n")
    code, out = run_command(["verify-algebroid", str(p)])
    assert code == 1
    assert "jacobi_identity" in out and "fail" in out


def test_forward_emits_jacobi_spec(aff1_spec):
    code, out = run_command(["forward", aff1_spec])
    assert code == 0
    assert "lambda = (-1*mu2)*d/dmu1^d/dmu2" in out
    assert "efield = (-2)*d/dmu1" in out


def test_invert_on_counterexample(remark_spec):
    code, out = run_command(["invert", remark_spec])
    assert code == 1
    assert "C2" in out
    assert "-1*x" in out


def test_invert_json_schema(remark_spec):
    code, out = run_command(["invert", remark_spec, "--json"])
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"checks", "summary"}
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["C2"]["verdict"] == "fail"
    assert by_name["C2"]["residual"] == "-1*x"
    assert doc["summary"]["fail"] == 1
    # identical invocations must emit identical bytes
    assert run_command(["invert", remark_spec, "--json"])[1] == out


def test_roundtrip(aff1_spec):
    code, out = run_command(["roundtrip", aff1_spec])
    assert code == 0
    assert "inverse_after_forward" in out


def test_invert_of_forward_output(tmp_path, aff1_spec):
    _, out = run_command(["forward", aff1_spec])
    jspec = tmp_path / "forward.spec"
    jspec.write_text(out.split("\n\n", 1)[1] + "\n")
    code, out2 = run_command(["invert", str(jspec)])
    assert code == 0
    assert "c[1,2] = (1)*e_2" in out2
    assert "phi[1] = 2" in out2


def test_bracket_prints_value(remark_spec):
    code, out = run_command(["bracket", remark_spec, "--f", "x", "--g", "y"])
    assert code == 0
    assert out.strip() == "0"
    code, out = run_command(["bracket", remark_spec, "--f", "x*y", "--g", "x"])
    assert code == 0


def test_parse_error_exits_two(tmp_path):
    p = tmp_path / "junk.spec"
    p.write_text("patch\n  x wobble\nend\n")
    code, out = run_command(["verify-jacobi", str(p)])
    assert code == 2
    assert "2:5" in out


def test_missing_file_exits_two():
    code, out = run_command(["verify-jacobi", "/nonexistent/never.spec"])
    assert code == 2


def test_caps_enforced(tmp_path):
    p = tmp_path / "big.spec"
    coords = "\n".join(f"  x{i} base" for i in range(1, 6))
    p.write_text(f"patch\n{coords}\nend\n\njacobi\n  lambda = 0\nend\n")
    code, out = run_command(["verify-jacobi", str(p)])
    assert code == 2 and "cap" in out
    code, _ = run_command(["verify-jacobi", str(p), "--no-caps"])
    assert code == 0


def test_degree_cap(tmp_path):
    p = tmp_path / "deep.spec"
    p.write_text("patch\n  x fiber\n  y fiber\nend\n\n"
                 "jacobi\n  lambda = (x^7)*d/dx^d/dy\nend\n")
    code, out = run_command(["verify-jacobi", str(p)])
    assert code == 2 and "degree" in out


def test_out_flag_writes_report(tmp_path, aff1_spec):
    target = tmp_path / "report.json"
    code, out = run_command(["verify-algebroid", aff1_spec, "--json",
                             "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["summary"] == {"pass": 3, "fail": 0}


def test_gallery_command(capsys):
    assert main(["gallery", "so3"]) == 0
    assert "summary" in capsys.readouterr().out
    assert main(["gallery", "remark_counterexample"]) == 1
    assert main(["gallery", "not_a_case"]) == 2


def test_gallery_spec_round_trip(tmp_path):
    code, text = run_command(["gallery", "heisenberg3", "--spec"])
    assert code == 0
    p = tmp_path / "h3.spec"
    p.write_text(text if text.endswith("\n") else text + "\n")
    assert run_command(["roundtrip", str(p)])[0] == 0


def test_quick_fuzz(tmp_path):
    """Random garbage must never escape the exit-code contract."""
    rng = random.Random(99)
    charset = string.ascii_lowercase + string.digits + " \n\t[],=*^()-+/#_"
    p = tmp_path / "fuzz.spec"
    for _ in range(500):
        text = "".join(rng.choice(charset)
                       for _ in range(rng.randint(0, 120)))
        p.write_text(text)
        code, _ = run_command(["verify-jacobi", str(p)])
        assert code in (0, 1, 2)


NOT_AN_ALGEBROID = """\
algebroid
  rank 3
  c[1,2] = (1)*e_1
  c[2,3] = (1)*e_2
end

cocycle
  phi[1] = 1
  phi[2] = 0
  phi[3] = 0
end
"""


@pytest.mark.parametrize("command", ["forward", "roundtrip"])
def test_unverified_pair_prints_both_reports(tmp_path, command):
    p = tmp_path / "bad.spec"
    p.write_text(NOT_AN_ALGEBROID)
    code, out = run_command([command, str(p)])
    assert code == 1
    assert out.split("\n") == [
        "algebroid.skew_symmetry    pass",
        "algebroid.jacobi_identity  fail  residual: (1,2,3): -1 e1",
        "algebroid.anchor_morphism  pass",
        "cocycle.cocycle_condition  fail  residual: (1,2): 1",
        "summary: 2 pass, 2 fail",
    ]


def test_huge_exponent_is_capped_quickly(tmp_path):
    p = tmp_path / "huge.spec"
    p.write_text("patch\n  x base\n  mu fiber\nend\n\n"
                 "jacobi\n  lambda = x^3000000*d/dx^d/dmu\nend\n")
    start = time.perf_counter()
    code, out = run_command(["verify-jacobi", str(p)])
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "error: expression degree 3000000 exceeds cap 6 "
                              "(use --no-caps to override)")


def test_huge_exponents_under_no_caps(tmp_path):
    """Exponents below 2^63 are exact under --no-caps; a product that
    would reach 2^63 is an error at its '*'."""
    p = tmp_path / "huge.spec"
    p.write_text("patch\n  x base\n  y base\nend\n\n"
                 "jacobi\n  lambda = (x^2000000000*x^2000000000)*d/dx^d/dy\nend\n")
    assert run_command(["verify-jacobi", str(p), "--no-caps"])[0] == 0
    p.write_text("patch\n  x base\n  y base\nend\n\n"
                 "jacobi\n  lambda = (x^4611686018427387904*x^4611686018427387904)"
                 "*d/dx^d/dy\nend\n")
    code, out = run_command(["verify-jacobi", str(p), "--no-caps"])
    assert code == 2 and out.startswith("error: 7:34: ")


@pytest.mark.parametrize("flags", [[], ["--no-caps"]])
def test_deep_nesting_fails_at_its_parenthesis_quickly(tmp_path, flags):
    p = tmp_path / "deep.spec"
    p.write_text("patch\n  x base\n  y base\nend\n\njacobi\n  lambda = "
                 + "(" * 400 + "x" + ")" * 400 + "*d/dx^d/dy\nend\n")
    start = time.perf_counter()
    code, out = run_command(["verify-jacobi", str(p)] + flags)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "error: 7:112: expression nested deeper than 100 "
                              "parentheses")


def test_huge_cocycle_index_fails_at_its_line_quickly(tmp_path):
    p = tmp_path / "huge.spec"
    p.write_text("algebroid\n  rank 2\nend\ncocycle\n  phi[3000000] = 1\nend\n")
    start = time.perf_counter()
    code, out = run_command(["verify-cocycle", str(p)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "error: 5:7: component index 3000000 out of range")


def test_structure_and_anchor_index_errors_carry_position(tmp_path):
    p = tmp_path / "bad.spec"
    p.write_text("algebroid\n  rank 2\n  c[1,5] = (1)*e_2\nend\n")
    assert run_command(["verify-algebroid", str(p)]) == (
        2, "error: 3:7: basis index 5 out of range")
    p.write_text("patch\n  x base\nend\nalgebroid\n  rank 2\n  rho[7] = (1)*d/dx\nend\n")
    assert run_command(["verify-algebroid", str(p)]) == (
        2, "error: 6:7: basis index 7 out of range")


def test_parser_is_built_once(monkeypatch, aff1_spec):
    monkeypatch.setattr(cli, "_PARSER", None)
    calls = count_calls(monkeypatch, cli._build_parser)
    argv = ["verify-algebroid", aff1_spec, "--json"]
    before = run_command(argv)
    assert before[0] == 0
    outs = [run_command(argv) for _ in range(24)]
    code, usage = run_command(["nope"])
    assert code == 2 and usage.startswith("usage: linjacobi")
    assert "linjacobi: error: argument command: invalid choice: 'nope'" in usage
    outs += [run_command(argv) for _ in range(24)]
    assert outs == [before] * 48
    assert len(calls) == 1


def test_invert_checks_C1_and_C2_once(tmp_path, aff1_spec, monkeypatch):
    _, out = run_command(["forward", aff1_spec])
    jspec = tmp_path / "forward.spec"
    jspec.write_text(out.split("\n\n", 1)[1] + "\n")
    c1, c2 = count_calls(monkeypatch, cli.check_C1), count_calls(monkeypatch, cli.check_C2)
    code, out = run_command(["invert", str(jspec)])
    assert code == 0, out
    assert len(c1) == 1 and len(c2) == 1


LONG = "9" * 5000


@pytest.mark.parametrize("text, at", [
    (f"algebroid\n  rank {LONG}\nend\n", "2:8"),
    (f"algebroid\n  rank 1\nend\ncocycle\n  phi[1] = {LONG}\nend\n", "5:12"),
    (f"algebroid\n  rank 1\nend\ncocycle\n  phi[1] = 1/{LONG}\nend\n", "5:12"),
    (f"algebroid\n  rank 2\n  c[1,2] = (1)*e_{LONG}\nend\n", "3:16"),
], ids=["integer", "number", "rational", "basis"])
def test_overlong_integer_literal_fails_at_its_token(tmp_path, text, at):
    p = tmp_path / "long.spec"
    p.write_text(text)
    assert run_command(["verify-cocycle", str(p)]) == (
        2, f"error: {at}: integer literal of 5000 digits is too long")


NOT_INVARIANT = """\
patch
  x fiber
  y fiber
end

jacobi
  lambda = (1*x)*d/dx^d/dy
  efield = (1)*d/dx
end
"""

ALGEBROID_ONLY = "algebroid\n  rank 2\n  c[1,2] = (1)*e_2\nend\n"


def _file_args(name, path, f="x", g="y"):
    return [name, path] + (["--f", f, "--g", g] if name == "bracket" else [])


def test_exit_code_is_read_off_the_report(tmp_path):
    """For every command the code is 0 exactly when the --json summary
    counts no failure; a command without checks exits 0."""
    def spec(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    aff1, bad_pair = spec("aff1.spec", AFF1), spec("bad.spec", NOT_AN_ALGEBROID)
    _, forward = run_command(["forward", aff1])
    jac = spec("jac.spec", forward.split("\n\n", 1)[1] + "\n")
    bad_jac = spec("bad_jac.spec", NOT_INVARIANT)
    cases = {
        "verify-algebroid": [aff1, bad_pair],
        "verify-cocycle": [aff1, bad_pair],
        "verify-jacobi": [jac, bad_jac],
        "forward": [aff1, bad_pair],
        "invert": [jac, bad_jac],
        "roundtrip": [aff1, bad_pair],
        "bracket": [jac],
        "gallery": ["so3", "remark_counterexample"],
    }
    assert set(cases) == set(cli._COMMANDS)
    codes = []
    for name, inputs in cases.items():
        for arg in inputs:
            code, out = run_command(_file_args(name, arg, "mu1", "mu2")
                                    + ["--json"])
            if name == "bracket":
                assert (code, out) == (0, "1*mu2")
                continue
            summary = json.JSONDecoder().raw_decode(out)[0]["summary"]
            assert code == (0 if summary["fail"] == 0 else 1), (name, arg)
            codes.append(code)
    assert codes == [0, 1] * 7
    assert run_command(["gallery", "remark_counterexample", "--spec"])[0] == 0


@pytest.mark.parametrize("text, missing", [
    (ALGEBROID_ONLY, {"verify-cocycle": "cocycle", "verify-jacobi": "jacobi",
                      "invert": "jacobi", "bracket": "jacobi"}),
    (REMARK, {"verify-algebroid": "algebroid",
              "verify-cocycle": "algebroid", "forward": "algebroid",
              "roundtrip": "algebroid"}),
], ids=["algebroid-only", "jacobi-only"])
def test_missing_section_exits_two(tmp_path, text, missing):
    p = tmp_path / "part.spec"
    p.write_text(text)
    for name in [n for n in cli._COMMANDS if n != "gallery"]:
        code, out = run_command(_file_args(name, str(p)))
        if name in missing:
            assert (code, out) == (
                2, f"error: spec file has no {missing[name]} section"), name
        else:
            assert code in (0, 1), (name, out)


def test_missing_section_is_reported_before_construction(tmp_path):
    p = tmp_path / "basis.spec"
    p.write_text("algebroid\n  rank 2\n  basis a b c\nend\n")
    assert run_command(["verify-cocycle", str(p)]) == (
        2, "error: spec file has no cocycle section")
    assert run_command(["verify-algebroid", str(p)]) == (
        2, "error: need rank distinct basis names")


def _argparse_says(capsys, argv):
    """What argparse itself prints for argv: (exit code, stdout, stderr)."""
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", [
    ["--help"], ["gallery", "--help"], ["nope"], ["gallery"],
    ["verify-jacobi", "x.spec", "--bogus"], [],
])
def test_argparse_text_is_returned_and_main_prints_it_unchanged(capsys, argv):
    code, out, err = _argparse_says(capsys, argv)
    want = 0 if code in (0, None) else 2
    assert (out if want == 0 else err).startswith("usage: linjacobi")
    assert run_command(argv) == (want, (out or err).removesuffix("\n"))
    assert capsys.readouterr() == ("", "")
    assert main(argv) == want
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv", [["gallery", "so3", "--json"], ["--help"]])
def test_module_entry_point_prints_the_run_command_output(argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "linjacobi.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_command(argv)[1] + "\n"


def test_patch_after_another_section_exits_two_with_position(tmp_path):
    p = tmp_path / "late.spec"
    p.write_text("algebroid\n  rank 2\n  c[1,2] = (1)*e_2\nend\npatch\n  x base\nend\n")
    for command in ("verify-algebroid", "forward"):
        assert run_command([command, str(p)]) == (
            2, "error: 5:1: patch must come before every other section")


def test_forward_restricts_the_parsed_chart_once(monkeypatch, tmp_path):
    """The parser keeps the base chart it restricts; building the
    algebroid and rendering the spec read it back."""
    p = tmp_path / "patched.spec"
    p.write_text("patch\n  x base\n  y base\nend\n\n"
                 "algebroid\n  rank 1\n  rho[1] = x*d/dy\nend\n")
    calls = []
    restrict = Chart.restrict

    def spy(self, roles):
        calls.append(roles)
        return restrict(self, roles)

    monkeypatch.setattr(Chart, "restrict", spy)
    code, _ = run_command(["forward", str(p)])
    assert code == 0
    assert len(calls) == 1
