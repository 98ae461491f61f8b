"""The compiled kernel `_tensorcore`, built from its C source once per test
session: every entry point against the pure loops of `numberfield`, no
memory kept over repeated calls, and whole decisions on a copy of the
package that loads it, against the same decisions on the pure loops.  A
build that lacks an entry point leaves the pure loops in place,
`rationals.BACKEND` names the kernel that loaded, and `setup.py` with no
compiler warns and exits 0."""

import ast
import gc
import importlib.util
import math
import operator
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypercircles import numberfield as nf, rationals

SRC = Path(nf.__file__).resolve().parents[1]
ENTRY_POINTS = (
    "tadd", "tsub", "tneg", "tscale", "tdiv", "tbool", "tcontent", "conv_reduce", "matvec",
)


def _pure_loops():
    """The pure loops of `numberfield`, read from its source: in this
    process the compiled kernel may have replaced them."""
    names = {"_" + e for e in ENTRY_POINTS}
    body = [
        node
        for node in ast.parse(Path(nf.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name in names
        or isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names
    ]
    namespace = {"add": operator.add, "mul": operator.mul, "_int_gcd": math.gcd}
    exec(compile(ast.Module(body, []), nf.__file__, "exec"), namespace)
    return {e: namespace["_" + e] for e in ENTRY_POINTS}


PURE = _pure_loops()


@pytest.fixture(scope="session")
def kernel_path(tmp_path_factory):
    """The kernel compiled with the interpreter's C compiler, every warning
    an error; skipped only where there is no compiler or no Python.h."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler ({cc[0]})")
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no Python.h")
    out = tmp_path_factory.mktemp("kernel") / ("_tensorcore" + sysconfig.get_config_var("EXT_SUFFIX"))
    source = SRC / "hypercircles" / "_tensorcore.c"
    cmd = [*cc, "-shared", "-fPIC", "-O2", "-Wall", "-Werror", f"-I{include}", str(source), "-o", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="session")
def kernel(kernel_path):
    spec = importlib.util.spec_from_file_location("_tensorcore", kernel_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the sizes of the identity proof's packed operands
# (`ratfunc.moebius_composer`): every t-coefficient of one coordinate in
# one int, thousands of bits
packed = st.integers(min_value=2**2000, max_value=2**6000)

entries = st.one_of(
    st.just(0),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-(2**700), max_value=2**700),
    packed,
    packed.map(operator.neg),
)


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


def matrices(rows, n):
    return st.lists(vectors(n), min_size=rows, max_size=rows)


def _same(kernel, name, *args):
    got, want = getattr(kernel, name)(*args), PURE[name](*args)
    assert got == want and type(got) is type(want), (name, args)
    if type(got) is tuple:
        assert all(type(x) is int for x in got), name


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_entry_points_match_the_pure_loops(kernel, data):
    n = data.draw(st.integers(min_value=0, max_value=20), label="length")
    a, b = data.draw(vectors(n)), data.draw(vectors(n))
    k = data.draw(entries)
    _same(kernel, "tadd", a, b)
    _same(kernel, "tsub", a, b)
    _same(kernel, "tneg", a)
    _same(kernel, "tscale", a, k)
    _same(kernel, "tbool", a)
    _same(kernel, "tbool", (0,) * n)
    _same(kernel, "tcontent", a)
    _same(kernel, "tcontent", a, k)
    if k:
        _same(kernel, "tdiv", a, k)
    # the reduction rows of a field are lists; any rows reduce the same way
    rows = data.draw(matrices(max(n - 1, 0), n))
    _same(kernel, "conv_reduce", a, b, [list(r) for r in rows])
    _same(kernel, "conv_reduce", a, b, tuple(rows))
    height = data.draw(st.integers(min_value=0, max_value=6), label="rows")
    rows = data.draw(matrices(height, n))
    _same(kernel, "matvec", tuple(rows), a)
    _same(kernel, "matvec", [list(r) for r in rows], a)
    # over Q a linear map is one row: the images of the basis as ints
    _same(kernel, "matvec", (a,), b)


@pytest.mark.parametrize(
    "name, args",
    [
        ("tadd", ((1, 2), (3,))),
        ("tsub", ((1, 2), (3, 4.0))),
        ("tscale", ((1, 2), 1.5)),
        ("tcontent", ((1,), 2, 3)),
        ("tcontent", ((4, "6"),)),
        ("conv_reduce", ((1, 2), (3, 4), [])),
        ("conv_reduce", ((1, 2), (3, 4), [[5]])),
        ("matvec", (((1, 2), (3,)), (5, 6))),
        ("matvec", (7, (5, 6))),
        ("tbool", ()),
    ],
)
def test_entry_points_reject_what_the_contract_excludes(kernel, name, args):
    """Only tuples or lists of exact ints, with the lengths a product pairs
    agreeing, and the right number of arguments."""
    with pytest.raises((TypeError, ValueError)):
        getattr(kernel, name)(*args)


def test_repeated_calls_keep_no_memory(kernel):
    """Fresh 700-bit inputs on every round, so a reference the kernel kept
    to an argument, a result or an intermediate would keep memory alive;
    the error paths run too."""
    rng = random.Random("tensorcore-leaks")

    def vector(n=8):
        return tuple(rng.getrandbits(700) - (1 << 699) for _ in range(n))

    def one_round():
        a, b, k = vector(), vector(), rng.getrandbits(300) + 1
        rows = [list(vector()) for _ in range(7)]
        for name, args in [
            ("tadd", (a, b)), ("tsub", (a, b)), ("tneg", (a,)), ("tscale", (a, k)),
            ("tdiv", (a, k)), ("tbool", (a,)), ("tcontent", (a, k)),
            ("conv_reduce", (a, b, rows)), ("matvec", (rows, a)),
        ]:
            getattr(kernel, name)(*args)
        for name, args in [
            ("tadd", (a, b[:-1])), ("tscale", (a, float(k))), ("tcontent", (a + (None,), k)),
            ("conv_reduce", (a, b, rows[:3])), ("conv_reduce", (a, b + (None,), rows)),
            ("matvec", (rows + [list(b[:5])], a)), ("matvec", (rows, a + (None,))),
        ]:
            with pytest.raises((TypeError, ValueError)):
                getattr(kernel, name)(*args)

    for _ in range(50):
        one_round()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            one_round()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


DECIDE = """
import json, sys
from hypercircles import cli, numberfield, rationals
from hypercircles.generators import canonical_minpoly, gen_instance
n, degree, path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
with open(path, "w") as fh:
    json.dump(gen_instance("defined", degree, minpoly=canonical_minpoly(n), seed=0), fh)
print(rationals.BACKEND, sorted({getattr(numberfield, "_" + e).__module__ for e in sys.argv[4:]}))
sys.exit(cli.main(["compute", path, "--check"]))
"""


# what `DECIDE` prints first with the pure loops: `_tbool` is `any`
PURE_LOOPS = "pure ['builtins', 'hypercircles.numberfield']"


def _package_copy(root, kernel_file=None):
    """A copy of the package's source under root, without any build of the
    kernel, plus the given file in its place."""
    src = root / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("*.so", "*.pyd", "__pycache__"))
    if kernel_file is not None:
        shutil.copy(kernel_file, src / "hypercircles" / Path(kernel_file).name)
    return src


def _decide(src, n, degree, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", DECIDE, str(n), str(degree), str(tmp_path / "instance.json"),
         *ENTRY_POINTS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    backend, rest = proc.stdout.split("\n", 1)
    return backend, rest


@pytest.mark.parametrize("n, degree", [(2, 14), (5, 6)])
def test_compiled_decision_matches_the_pure_one(kernel_path, tmp_path, n, degree):
    """x^2 + 1 at degree 14 and x^5 - 2 at degree 6, decided and re-proved
    by `compute --check`: verdict, every u, phi and the certificate check
    read the same with the compiled kernel as with the pure loops."""
    pure_src = _package_copy(tmp_path / "pure")
    compiled_src = _package_copy(tmp_path / "compiled", kernel_path)
    pure_backend, pure_out = _decide(pure_src, n, degree, tmp_path)
    compiled_backend, compiled_out = _decide(compiled_src, n, degree, tmp_path)
    assert pure_backend == PURE_LOOPS
    assert compiled_backend == "_tensorcore ['hypercircles._tensorcore']"
    assert compiled_out == pure_out
    assert pure_out.startswith("verdict: DefinedOverK")
    assert pure_out.endswith("certificate check: passed\n")


STALE_KERNEL = '''"""A kernel built before `matvec` existed: every other entry point."""


def _stale(*args):
    raise AssertionError("the stale kernel ran")


tadd = tsub = tneg = tscale = tdiv = tbool = tcontent = conv_reduce = _stale
'''


def test_a_kernel_without_an_entry_point_leaves_the_pure_loops(tmp_path):
    stale = tmp_path / "_tensorcore.py"
    stale.write_text(STALE_KERNEL)
    src = _package_copy(tmp_path / "stale", stale)
    backend, out = _decide(src, 2, 6, tmp_path)
    assert backend == PURE_LOOPS
    assert out.startswith("verdict: DefinedOverK")
    assert out.endswith("certificate check: passed\n")


def test_backend_names_the_loaded_kernel():
    compiled = nf._matvec.__module__ == "hypercircles._tensorcore"
    assert rationals.BACKEND == ("_tensorcore" if compiled else "pure")
    for e in ENTRY_POINTS:
        assert (getattr(nf, f"_{e}").__module__ == "hypercircles._tensorcore") == compiled, e


def test_a_failed_build_is_a_warning(tmp_path):
    # setup.py marks the kernel optional: with no compiler the build warns,
    # exits 0 and leaves no kernel behind
    env = dict(os.environ, CC=str(tmp_path / "no-cc"))
    cmd = [sys.executable, "setup.py", "build_ext",
           "--build-lib", str(tmp_path / "lib"), "--build-temp", str(tmp_path / "tmp")]
    proc = subprocess.run(cmd, cwd=SRC.parent, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert 'building extension "hypercircles._tensorcore" failed' in proc.stderr
    assert not list(tmp_path.rglob("_tensorcore*"))
