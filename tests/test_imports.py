"""Every name a module of the package imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "linjacobi"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# names a module keeps bound without reading them, for outside readers:
# bench/tests checks that the tracer rebinds every module-level copy of
# sn_bracket, this one included
KEPT = {"correspondence.py": ["sn_bracket"]}


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str):
    """Names bound by an import statement and never read afterwards;
    quoted annotations ("ExpPoly") count as reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    trees = [tree]
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    used = {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = [name for _, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == KEPT.get(path.name, [])


def test_the_scan_finds_an_unused_import():
    source = ("from typing import Dict, List\n"
              "import os\n"
              "def f(x: 'Dict') -> None:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(1, "List")]
