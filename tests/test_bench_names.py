"""Every (module, attribute) the benchmark tracer wraps exists on the
package, so a deletion that would break `bench/run.py --trace 1` fails
here.  Like test_golden.py, this only reads bench/."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _literal(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


@pytest.mark.parametrize("span,mod,attr", _literal("FUNCTIONS"))
def test_traced_function_resolves(span, mod, attr):
    owner = importlib.import_module("linjacobi." + mod)
    if "." in attr:
        # the tracer looks class members up in the class's own dictionary
        cls, member = attr.split(".")
        assert member in vars(getattr(owner, cls)), (span, attr)
    else:
        assert callable(getattr(owner, attr)), (span, attr)


@pytest.mark.parametrize("mod,cls", _literal("CLASSES"))
def test_traced_class_resolves(mod, cls):
    assert isinstance(getattr(importlib.import_module("linjacobi." + mod), cls), type)
