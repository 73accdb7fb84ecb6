"""Tests of the benchmark itself (not of linjacobi):

    python3 -m pytest -q bench/tests
"""

import json
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import generators as gen  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def lj():
    return run.fresh_import()


def _spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _outcomes(items):
    runner = run.Runner()
    for label, check in items:
        runner.call(label, check)
    return runner


# -- generated inputs ------------------------------------------------------

@pytest.mark.parametrize("cls", [workloads.Families, workloads.Contact])
def test_same_seed_same_inputs(lj, tmp_path, cls):
    a = cls(lj, 7, str(tmp_path)).inputs(1)
    b = cls(lj, 7, str(tmp_path)).inputs(1)
    c = cls(lj, 8, str(tmp_path)).inputs(1)
    assert repr(a).encode() == repr(b).encode()
    assert repr(a) != repr(c)


def test_same_seed_same_cli_corpus(lj):
    assert workloads.cli_corpus(lj, 3) == workloads.cli_corpus(lj, 3)
    assert workloads.cli_corpus(lj, 3)[0] != workloads.cli_corpus(lj, 4)[0]


def test_known_answers_hold_at_this_commit(lj, tmp_path):
    for cls in (workloads.Families, workloads.Contact, workloads.Cli):
        wl = cls(lj, 11, str(tmp_path))
        items = wl.round(0)
        if cls is workloads.Families:     # keep the test quick
            items = [it for it in items if not it[0].startswith(("gl3", "so4", "heis7"))]
        assert _outcomes(items).failed == 0, cls.name


def test_mutation_positions():
    text = "algebroid\n  rank 2\n  c[1,2] = (1)*e_2\nend\n"
    rng = gen.random.Random(0)
    bad, line, col = gen.mutate(rng, text, "truncate", 2)
    assert bad.split("\n")[2] == "  c[1,2] =" and (line, col) == (3, 11)
    bad, line, col = gen.mutate(rng, text, "index", 2)
    assert bad.split("\n")[2][col - 1:].startswith("e_") and line == 3
    bad, line, col = gen.mutate(rng, text, "token", 2)
    assert bad.split("\n")[line - 1][col - 1] in gen.BAD_CHARS


# -- failures are counted ----------------------------------------------------

def test_corrupted_golden_is_a_failure(lj, tmp_path):
    wl = workloads.Gallery(lj, 1, str(tmp_path))
    key = "gallery so3 --spec"
    wl.golden[key] = dict(wl.golden[key], output=wl.golden[key]["output"] + " ")
    runner = _outcomes(wl.round(0))
    assert (runner.attempted, runner.failed) == (32, 1)


def test_wrong_exit_code_is_a_failure(lj, tmp_path):
    workloads.Cli(lj, 1, str(tmp_path))     # writes both corpora
    golden = workloads.load_golden("cli")
    call = dict(golden["calls"][0])
    directory = os.path.join(str(tmp_path), "cli-golden")
    assert _outcomes([workloads.golden_call(lj.cli, directory, **call)]).failed == 0
    call["code"] = 1 - call["code"] if call["code"] < 2 else 0
    assert _outcomes([workloads.golden_call(lj.cli, directory, **call)]).failed == 1
    # a mutated file run with the answer of a valid one
    _, calls = workloads.cli_corpus(lj, 1)
    command, file, extra, answer = next(c for c in calls if c[3][0] == "error")
    seeded = os.path.join(str(tmp_path), "cli-1")
    assert _outcomes([workloads.known_call(lj.cli, seeded, command, file,
                                           extra, answer)]).failed == 0
    assert _outcomes([workloads.known_call(lj.cli, seeded, command, file,
                                           extra, ("exit", 0))]).failed == 1


def test_exception_is_a_failure():
    def boom():
        raise ValueError("raised by the program")
    assert _outcomes([("x", boom)]).failed == 1


# -- metric names --------------------------------------------------------------

def test_metric_names():
    spec = _spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == [n for n, _ in run.END_TO_END]
    assert layer == [n for n, _ in tr.metric_names(workloads.CATALOG)]
    assert {m["unit"] for m in spec["per_layer"]} == {
        u for _, u in tr.metric_names(workloads.CATALOG)}
    for name in e2e + layer + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


# -- tracer ----------------------------------------------------------------

def _traced_gallery(lj, tmp_path, names=("so3", "contact_R(1)", "lcs_T*R2")):
    wl = workloads.Gallery(lj, 1, str(tmp_path))
    items = [wl.item(n, f) for n in names for f in ("--json", "--spec")]
    t = tr.Tracer()
    t.install()
    try:
        runner = run.Runner()
        for i, (label, check) in enumerate(items):
            t.current[0] = i
            runner.call(label, check)
    finally:
        t.uninstall()
    return t, runner, [label for label, _ in items]


def test_traced_run_gives_the_same_bytes_and_restores(lj, tmp_path):
    originals = {m: dict(vars(mod)) for m, mod in sys.modules.items()
                 if m.startswith("linjacobi")}
    add = vars(lj.ExpPoly)["__add__"]
    t, runner, _ = _traced_gallery(lj, tmp_path)
    assert runner.attempted == 6 and runner.failed == 0
    assert len(t.name) > 1000
    assert vars(lj.ExpPoly)["__add__"] is add and vars(lj.ExpPoly)["__radd__"] is add
    for m, names in originals.items():
        assert dict(vars(sys.modules[m])) == names, m


def test_aliases_are_traced(lj):
    t = tr.Tracer()
    t.install()
    try:
        wrapped = lj.exterior.sn_bracket
        assert wrapped is lj.algebroid.sn_bracket is lj.jacobi.sn_bracket
        assert wrapped is lj.correspondence.sn_bracket is lj.gallery.sn_bracket
        assert wrapped is lj.sn_bracket
        assert vars(lj.ExpPoly)["__radd__"] is vars(lj.ExpPoly)["__add__"]
        x = lj.ExpPoly.var(lj.Chart([("x", "base")]), "x")
        before = len(t.name)
        assert (1 + x).render() == "1*x + 1"
    finally:
        t.uninstall()
    assert lj.algebroid.sn_bracket is not wrapped
    assert [t.names[n] for n in t.name[before:]].count("ring.add") == 1


def test_self_times_are_within_their_spans(lj, tmp_path):
    t, _, labels = _traced_gallery(lj, tmp_path)
    selfs = t.self_times()
    for i, s in enumerate(selfs):
        assert 0 <= s <= t.end[i] - t.start[i]
        p = t.parent[i]
        assert p < i and (p < 0 or t.start[p] <= t.start[i] <= t.end[i] <= t.end[p])
    m = t.metrics(labels, workloads.CATALOG, 1.0)
    assert all(v >= 0 for v in m.values())
    assert m["gallery.case.so3.ms"] > 0 and m["gallery.case.abelian2.ms"] == 0


def test_counts_repeat_exactly(lj, tmp_path):
    counts = []
    for _ in range(2):
        t, _, labels = _traced_gallery(lj, tmp_path)
        m = t.metrics(labels, workloads.CATALOG, 1.0)
        counts.append({k: v for k, v in m.items()
                       if k.endswith((".calls", "construct_per_op", "terms_max",
                                      "verify_repeat_ratio"))})
    assert counts[0] == counts[1]


def test_spans_are_written(lj, tmp_path):
    t, _, labels = _traced_gallery(lj, tmp_path, names=("abelian2",))
    stem = os.path.join(str(tmp_path), "trace")
    t.write(stem, labels)
    with open(stem + ".json") as fh:
        head = json.load(fh)
    assert head["spans"] == len(t.name) and head["items"] == labels
    with open(stem + ".bin", "rb") as fh:
        arrays = []
        for _, code, _ in head["arrays"]:
            a = tr.array(code)
            a.fromfile(fh, head["spans"])
            arrays.append(a)
    assert list(arrays[0]) == list(t.name) and list(arrays[3]) == list(t.parent)
