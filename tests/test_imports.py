"""Every name a module of the package, the tests or the benchmark imports
is used in that module, every private helper the package defines is used
somewhere in it, every public name it defines is read by the package, the
tests or the benchmark, no module of the package imports inside a
function or rebinds its own globals, and importing the package loads
neither `dataclasses` nor `inspect`."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hypercircles

MODULES = sorted(Path(hypercircles.__file__).parent.glob("*.py"))
_ROOT = Path(__file__).resolve().parent.parent
# read only: the benchmark's files are checked, never changed by the check
SCRIPTS = sorted(_ROOT.glob("tests/*.py")) + sorted(_ROOT.glob("perfbench/*.py"))


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


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[str(p.relative_to(_ROOT)) for p in SCRIPTS]
)
def test_every_import_of_the_tests_and_the_benchmark_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom math import gcd, lcm\nfrom re import sub  # noqa: F401\nlcm(1)\n"
    assert unused_imports(source) == [(1, "os"), (2, "gcd")]


def function_imports(source):
    """(line, name) of each name imported inside a function: such an import
    runs only when the function is called, so it hides a dependency, and
    any cycle it closes, from the module's header."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    out.update((inner.lineno, a.asname or a.name) for a in inner.names)
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_inside_a_function(path):
    assert function_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_import_inside_a_function():
    # a module-level optional import, as of the compiled kernel, is fine
    source = (
        "try:\n    from . import _kernel\nexcept ImportError:\n    pass\n"
        "def f():\n    from .b import g as h\n    def inner():\n        import os\n"
        "class C:\n    def m(self):\n        import re\n"
    )
    assert function_imports(source) == [(6, "h"), (8, "os"), (11, "re")]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node):
    """How often each name is read inside node: as a name, an attribute or
    an imported name."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def _unread(sources, readers, wanted):
    """(module, line, name) of each top-level function or class, and each
    method of a top-level class, in the modules {name: source} whose name
    `wanted` accepts and that no module of sources or readers reads outside
    the definition itself."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    used += sum((_references(ast.parse(source)) for source in readers.values()), Counter())
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += node.body
            for d in members:
                if (
                    isinstance(d, _DEFS)
                    and wanted(d.name)
                    and used[d.name] == _references(d)[d.name]
                ):
                    out.append((name, d.lineno, d.name))
    return out


def orphaned_helpers(sources):
    """The private helpers, dunders aside, of the modules {name: source}
    that none of them reads (`_unread`)."""
    return _unread(sources, {}, lambda name: name.startswith("_") and not name.endswith("__"))


def orphaned_public(sources, readers):
    """The public functions, classes and methods of the modules
    {name: source} that neither they nor the readers read (`_unread`)."""
    return _unread(sources, readers, lambda name: not name.startswith("_"))


def test_every_private_helper_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    assert orphaned_helpers(sources) == []


def test_the_check_sees_an_orphaned_helper():
    a = (
        "def _used():\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _C:\n    def _m(self):\n        pass\n    def __len__(self):\n        return 0\n"
    )
    b = "from a import _used\n_used()\n"
    assert orphaned_helpers({"a.py": a, "b.py": b}) == [
        ("a.py", 3, "_recursive"),
        ("a.py", 5, "_C"),
        ("a.py", 6, "_m"),
    ]


def test_every_public_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = {str(p.relative_to(_ROOT)): p.read_text(encoding="utf-8") for p in SCRIPTS}
    assert orphaned_public(sources, readers) == []


def test_the_check_sees_an_orphaned_public_name():
    a = (
        "def used():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def _private():\n    pass\n"
        "class C:\n    def m(self):\n        pass\n    def read(self):\n        pass\n"
    )
    b = "from a import C\nC().read()\n"
    tests = "import a\na.used()\n"
    assert orphaned_public({"a.py": a, "b.py": b}, {"test_a.py": tests}) == [
        ("a.py", 3, "recursive"),
        ("a.py", 8, "m"),
    ]
    assert orphaned_public({"a.py": a, "b.py": b}, {}) == [
        ("a.py", 1, "used"),
        ("a.py", 3, "recursive"),
        ("a.py", 8, "m"),
    ]


def test_no_module_has_a_global_statement():
    # module state that a function rebinds is hidden state shared by every
    # caller: a result goes back to its caller instead
    found = [
        (p.name, node.lineno)
        for p in MODULES
        for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert found == []


def test_the_package_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter's `import hypercircles` is the benchmark's setup
    # time; dataclasses alone brought in inspect, ast and dis
    code = "import sys, hypercircles; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(hypercircles.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    loaded = proc.stdout.split()
    assert "hypercircles.hypercircle" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
