"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import hypercircles

MODULES = sorted(Path(hypercircles.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name that the module never reads and
    does not list in `__all__`, unless its import statement is marked
    `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append((node.lineno, name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nfrom re import sub  # noqa: F401\nlcm(1)\n"
    assert unused_imports(source) == [(1, "os"), (2, "gcd")]
