"""The four workloads.  Each one turns a seed into rounds of items; an item
is one CLI call, one full checklist, or one contact solve or
nondegeneracy verdict, and carries its known answer.

A workload is built from the `linjacobi` package object handed to it, so
that the runner can time the import, and it calls into the package only
through module attributes looked up at call time, so that the tracer's
rebinding is seen.  Why each workload exists, and which layers and
ROADMAP items it loads, is in README.md.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, Dict, List, Tuple

import generators as gen

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

# the catalog at the commit the goldens were captured from
CATALOG = (
    "abelian2", "aff1(0)", "aff1(1)", "aff1(2)", "heisenberg3", "so3", "sl2",
    "trivial_tangent(1)", "trivial_tangent(2)", "lcs_T*R2",
    "tangent_lift_so3star", "contact_R(1)", "contact_R(2)", "jacobi_lift_R",
    "poissonization_aff1", "remark_counterexample",
)

# A checker returns True when the outcome matches the known answer; an
# exception raised by the program counts as a mismatch.
Item = Tuple[str, Callable[[], bool]]


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _poly(lj, chart, p):
    return lj.ExpPoly(chart, {(e, 0): c for e, c in p.items()})


def _coords(names):
    return tuple((n, "base") for n in names)


class Workload:
    """Rounds of items.  Round r draws its values from a generator seeded
    by (seed, workload, r), so a round is the same on every run with the
    same seed and the traced round is the first untraced one."""

    name = ""

    def __init__(self, lj, seed: int, workdir: str):
        self.lj = lj
        self.seed = seed
        self.workdir = workdir

    def rng(self, r) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{r}")

    def round(self, r: int) -> List[Item]:
        raise NotImplementedError

    def warmup(self) -> None:
        """Run a few cheap items once, so that first-call costs land in
        set-up and not in the first timed item."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# gallery: the same 32 CLI calls every round, in a seeded order
# ---------------------------------------------------------------------------

class Gallery(Workload):
    name = "gallery"

    def __init__(self, lj, seed, workdir):
        super().__init__(lj, seed, workdir)
        self.golden = load_golden("gallery")

    def item(self, name: str, flag: str) -> Item:
        argv = ["gallery", name, flag]
        want = self.golden[" ".join(argv)]
        cli = self.lj.cli

        def check():
            code, out = cli.run_command(argv)
            return code == want["code"] and out == want["output"]
        return name, check

    def round(self, r):
        items = [self.item(name, flag) for name in CATALOG
                 for flag in ("--json", "--spec")]
        self.rng(r).shuffle(items)
        return items

    def warmup(self):
        for flag in ("--json", "--spec"):
            self.item("abelian2", flag)[1]()


# ---------------------------------------------------------------------------
# families: fresh algebroids past the desk caps, through library calls
# ---------------------------------------------------------------------------

# (family, positives, negatives) per round: 38 items, 7 of them negatives.
# The mix is laid out in cost blocks so that each reported percentile sits
# inside a block of like-cost items, well apart from the next block, and
# contention on a shared host cannot move it across a jump between
# families: 8 items under 15 ms; 18 items of 20-60 ms holding the median;
# 6 items of 100-400 ms; 6 cotangent gl(2) checklists of about 500 ms
# holding the p90.  gl(3) runs as a negative only: its full checklist
# would take a third of a round.
FAMILY_MIX = (
    ("so3", 3, 0), ("heis3", 2, 1), ("action_gl2", 1, 1),
    ("cotangent_aff1", 3, 0), ("cotangent_gl2", 6, 1), ("heis7", 1, 1),
    ("gl2", 8, 0), ("so4", 1, 1), ("cotangent_heis3", 4, 1), ("heis5", 1, 0),
    ("cotangent_so3", 1, 0), ("gl3", 0, 1),
)


class Families(Workload):
    name = "families"

    def to_patch(self, data: gen.AlgebroidData):
        lj = self.lj
        base = lj.Chart(_coords(data.base))
        A = lj.AlgebroidPatch(base, data.rank,
                              {k: _poly(lj, base, p) for k, p in data.struct.items()},
                              {k: _poly(lj, base, p) for k, p in data.anchor.items()})
        return A, lj.Cocycle(tuple(_poly(lj, base, p) for p in data.phi))

    def positive(self, data: gen.AlgebroidData) -> Item:
        lj = self.lj

        def check():
            A, phi = self.to_patch(data)
            if data.poisson is not None:
                # the input is the bivector; the patch must come out as built
                base = A.base_chart
                L = lj.Multivector(base, 2, {k: _poly(lj, base, p)
                                             for k, p in data.poisson.items()})
                got = lj.cotangent_algebroid(L)
                if got.structure != A.structure or got.anchor != A.anchor:
                    return False
                A = got
            pair = lj.AlgebroidWithCocycle(A, phi)
            rep = lj.run_case(lj.GalleryCase(data.family, pair=pair,
                                             dual=A.dual_chart()))
            return rep.passed
        return data.family + " positive", check

    def negative(self, data: gen.AlgebroidData) -> Item:
        lj = self.lj

        def check():
            A, phi = self.to_patch(data)
            checks = lj.verify_algebroid(A).checks + lj.verify_cocycle(A, phi).checks
            return {c.name for c in checks if c.verdict != "pass"} == data.failing
        return data.family + " negative", check

    def inputs(self, r) -> List[gen.AlgebroidData]:
        rng = self.rng(r)
        out = []
        for family, npos, nneg in FAMILY_MIX:
            for slot in range(npos + nneg):
                shape = random.Random(f"families/{family}/{slot}")
                data = gen.family_case(shape, rng, family)
                out.append(data if slot < npos else gen.perturb(shape, rng, data))
        rng.shuffle(out)
        return out

    def round(self, r):
        return [self.positive(d) if d.positive else self.negative(d)
                for d in self.inputs(r)]

    def warmup(self):
        rng = self.rng("warmup")
        shape = random.Random("families/warmup")
        data = gen.family_case(shape, rng, "heis3")
        self.positive(data)[1]()
        self.negative(gen.perturb(shape, rng, data))[1]()


# ---------------------------------------------------------------------------
# cli: run_command over small spec files written once in set-up
# ---------------------------------------------------------------------------

# families small enough for the desk caps on both sides of the map:
# rank <= 4, base dimension <= 2, degree <= 3, dual dimension <= 4
CLI_FAMILIES = ("gl2", "so3", "heis3", "action_aff1", "cotangent_aff1")
GOLDEN_SEED = 0


def cli_corpus(lj, seed: int):
    """Spec files and calls for one seed, with known answers.

    Returns (files, calls): files maps a file name to its text, and each
    call is (command, file, extra args, answer), where answer is
    ("exit", 0), ("spec", text) for the spec part of forward/invert,
    ("value", text) for a bracket, or ("error", line, col) for a mutated
    file.  Every call runs with and without --json, except the calls on
    mutated files, which draw one of the two.
    """
    sp = lj.specfile
    rng = random.Random(f"{seed}/cli")
    files: Dict[str, str] = {}
    calls = []
    for family in CLI_FAMILIES:
        data = gen.family_case(random.Random(f"cli/{family}"), rng, family)
        base = lj.Chart(_coords(data.base))
        dual = lj.Chart(tuple(gen.dual_coords(data)))
        alg_text = sp.render_spec(sp.SpecFile(
            chart=base, rank=data.rank,
            basis_names=tuple(f"e{i}" for i in range(1, data.rank + 1)),
            structure={k: _poly(lj, base, p) for k, p in data.struct.items()},
            anchor={k: _poly(lj, base, p) for k, p in data.anchor.items()},
            cocycle=tuple(_poly(lj, base, p) for p in data.phi)))
        lam, efield = gen.forward(data)
        jac_text = sp.render_spec(sp.SpecFile(
            chart=dual,
            lam=lj.Multivector(dual, 2, {k: _poly(lj, dual, p) for k, p in lam.items()}),
            e_field=lj.Multivector(dual, 1, {k: _poly(lj, dual, p)
                                             for k, p in efield.items()})))
        alg, jac = family + ".spec", family + ".jacobi.spec"
        files[alg], files[jac] = alg_text, jac_text
        valid = [(command, alg, [], ("exit", 0))
                 for command in ("verify-algebroid", "verify-cocycle", "roundtrip")]
        valid.append(("forward", alg, [], ("spec", jac_text)))
        valid.append(("verify-jacobi", jac, [], ("exit", 0)))
        valid.append(("invert", jac, [], ("spec", alg_text)))
        i = rng.randint(1, data.rank)
        other = rng.choice([f"mu{j}" for j in range(1, data.rank + 1) if j != i]
                           + list(data.base))
        value = _poly(lj, dual, gen.bracket_value(data, f"mu{i}", other)).render()
        valid.append(("bracket", jac, ["--f", f"mu{i}", "--g", other], ("value", value)))
        calls += [(c, f, a + flag, ans) for c, f, a, ans in valid
                  for flag in ([], ["--json"])]
        for kind in ("truncate", "index", "token"):
            on_alg = rng.random() < 0.5
            text = alg_text if on_alg else jac_text
            bad, line, col = gen.mutate(rng, text, kind, data.rank)
            name = f"{family}.{kind}.spec"
            files[name] = bad
            command = rng.choice(("verify-algebroid", "verify-cocycle", "forward",
                                  "roundtrip") if on_alg else
                                 ("verify-jacobi", "invert"))
            calls.append((command, name, rng.choice(([], ["--json"])),
                          ("error", line, col)))
    return files, calls


def known_call(cli, directory, command, file, extra, answer) -> Item:
    """A corpus call checked against its known answer (see cli_corpus)."""
    argv = [command, os.path.join(directory, file)] + list(extra)

    def check():
        code, out = cli.run_command(argv)
        kind = answer[0]
        if kind == "error":
            return code == 2 and out.startswith(f"error: {answer[1]}:{answer[2]}: ")
        if code != 0:
            return False
        if kind == "spec":
            return out.split("\n\n", 1)[1] == answer[1]
        if kind == "value":
            return out == answer[1]
        return True
    return command, check


def golden_call(cli, directory, command, file, extra, code, output) -> Item:
    """A golden corpus call: exit code and output must match byte for byte."""
    argv = [command, os.path.join(directory, file)] + list(extra)

    def check():
        return cli.run_command(argv) == (code, output)
    return command, check


class Cli(Workload):
    name = "cli"

    def __init__(self, lj, seed, workdir):
        super().__init__(lj, seed, workdir)
        seeded = os.path.join(workdir, f"cli-{seed}")
        golden_dir = os.path.join(workdir, "cli-golden")
        files, calls = cli_corpus(lj, seed)
        golden = load_golden("cli")
        for directory, corpus in ((seeded, files), (golden_dir, golden["files"])):
            os.makedirs(directory, exist_ok=True)
            for name, text in corpus.items():
                with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        self.golden = [golden_call(lj.cli, golden_dir, **call) for call in golden["calls"]]
        self.items = [known_call(lj.cli, seeded, *call) for call in calls] + self.golden

    def round(self, r):
        items = list(self.items)
        self.rng(r).shuffle(items)
        return items

    def warmup(self):
        # the golden calls are the same for every seed, so set-up is too
        for _, check in self.golden[:2]:
            check()


# ---------------------------------------------------------------------------
# contact: contact solves and nondegeneracy verdicts
# ---------------------------------------------------------------------------

# (m, count, shears, degree, shape) of contact forms on R^{2m+1} and
# (m, count, entries, degree, shape) of bivectors on R^{2m}, every other
# one degenerate, per round: 30 items.  All items of a kind share one
# shape (which monomials appear), picked to lay the round out in cost
# blocks as in FAMILY_MIX: 6 bivectors on R^4 and R^6 under 15 ms; 18
# items of 40-65 ms (solves on R^3 and R^5, verdicts on R^8) holding the
# median; 6 solves on R^7 of about 250 ms holding the p90.
CONTACT_MIX = ((1, 6, 2, 2, 2), (2, 6, 2, 1, 0), (3, 6, 1, 1, 2))
BIVECTOR_MIX = ((2, 2, 3, 1, 0), (3, 4, 3, 1, 1), (4, 6, 3, 1, 4))


class Contact(Workload):
    name = "contact"

    def solve(self, m: int, comps) -> Item:
        lj = self.lj

        def check():
            chart = lj.Chart(_coords(gen.contact_coords(2 * m + 1)))
            eta = lj.DiffForm(chart, 1, {(i,): _poly(lj, chart, p)
                                         for i, p in enumerate(comps) if p})
            J = lj.contact_to_jacobi(eta)
            E = J.e_field
            return (lj.interior(E, eta) == lj.ExpPoly.const(chart, 1)
                    and lj.interior(E, lj.exterior_d(eta)).is_zero
                    and lj.verify_jacobi(J).passed)
        return f"contact{2 * m + 1}", check

    def verdict(self, m: int, comps, want: str) -> Item:
        lj = self.lj

        def check():
            chart = lj.Chart(_coords(gen.contact_coords(2 * m)))
            L = lj.Multivector(chart, 2, {k: _poly(lj, chart, p) for k, p in comps.items()})
            return lj.check_nondegenerate(L) == want
        return f"bivector{2 * m}", check

    def inputs(self, r):
        """("contact", m, components) and ("bivector", m, components, verdict)."""
        rng = self.rng(r)
        out = []
        for m, count, shears, degree, shape in CONTACT_MIX:
            for slot in range(count):
                out.append(("contact", m, gen.contact_form(
                    random.Random(f"contact/{m}/{shape}"), rng, m, shears, degree)))
        for m, count, entries, degree, shape in BIVECTOR_MIX:
            for slot in range(count):
                degenerate = slot % 2 == 1
                comps = gen.unimodular_bivector(random.Random(f"bivector/{m}/{shape}"),
                                                rng, m, entries, degree, degenerate)
                out.append(("bivector", m, comps,
                            "degenerate" if degenerate else "nondegenerate_constant"))
        rng.shuffle(out)
        return out

    def round(self, r):
        return [self.solve(*x[1:]) if x[0] == "contact" else self.verdict(*x[1:])
                for x in self.inputs(r)]

    def warmup(self):
        rng = self.rng("warmup")
        shape = random.Random("contact/warmup")
        self.solve(1, gen.contact_form(shape, rng, 1, 1, 1))[1]()
        self.verdict(2, gen.unimodular_bivector(shape, rng, 2, 1, 1, False),
                     "nondegenerate_constant")[1]()


WORKLOADS = {w.name: w for w in (Gallery, Families, Cli, Contact)}
