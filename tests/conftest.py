import random
import sys
from fractions import Fraction

from linjacobi import Chart, ExpPoly, Multivector


def random_poly(rng: random.Random, chart: Chart, max_terms=3, max_deg=2):
    """Small random polynomial with coefficients in {-3..3}\\{0}."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * chart.dim
        for _ in range(rng.randint(0, max_deg)):
            if chart.dim:
                exps[rng.randrange(chart.dim)] += 1
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        key = (tuple(exps), 0)
        terms[key] = terms.get(key, 0) + Fraction(c)
    return ExpPoly(chart, terms)


def random_multivector(rng: random.Random, chart: Chart, grade: int,
                       max_terms=2, max_deg=2):
    if grade == 0:
        return random_poly(rng, chart, max_terms, max_deg)
    if grade > chart.dim:
        return Multivector.zero(chart, grade)
    comps = {}
    for _ in range(rng.randint(0, max_terms)):
        idx = tuple(sorted(rng.sample(range(chart.dim), grade)))
        p = random_poly(rng, chart, 2, max_deg)
        comps[idx] = comps.get(idx, ExpPoly.zero(chart)) + p
    return Multivector(chart, grade, comps)


def base_chart(dim: int) -> Chart:
    return Chart(tuple((f"x{i}", "base") for i in range(1, dim + 1)))


def count_calls(monkeypatch, fn):
    """Rebind every `linjacobi` module's reference to `fn` to a counting
    wrapper; returns the list that records one entry per call."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "linjacobi" or name.startswith("linjacobi."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, spy)
    return calls
