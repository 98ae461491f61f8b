"""Record the CLI's outputs on a fixed instance grid, or compare two records.

    python tests/output_sweep.py SRC OUT.json
    python tests/output_sweep.py --compare A.json B.json

The first form imports the package from SRC (a checkout's `src`
directory), generates every instance of the grid with `gen` through
`cli.main`, then runs `compute --check`, `definable` and `minfield` on each
one, and writes to OUT.json the exit code and the SHA-256 of stdout and
stderr of every invocation, and the SHA-256 of every generated file.  The
grid is defined and twisted instances over x^2+1, x^3-2, x^5-2, x^6-2 and
Phi_7 at degree 3-6, seeds 0 and 1, and adversarial instances over x^2+1 at
degree 2-8, Phi_5 at degree 4-7, and Phi_7 and Phi_9 at degree 6-7.

The second form prints every difference between two records and exits 1
if there is any, else 0.  Run it on the records of two checkouts to show
that a change leaves every output byte-identical.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

FIELDS = {
    "x2+1": ["1", "0", "1"],
    "x3-2": ["-2", "0", "0", "1"],
    "x5-2": ["-2", "0", "0", "0", "0", "1"],
    "x6-2": ["-2", "0", "0", "0", "0", "0", "1"],
    "phi5": ["1"] * 5,
    "phi7": ["1"] * 7,
    "phi9": ["1", "0", "0", "1", "0", "0", "1"],
}

COMMANDS = (["compute", "--check"], ["definable"], ["minfield"])


def grid():
    """(kind, field name, degree, seed) for every instance, in run order."""
    for kind in ("defined", "twisted"):
        for name in ("x2+1", "x3-2", "x5-2", "x6-2", "phi7"):
            for degree in range(3, 7):
                for seed in (0, 1):
                    yield kind, name, degree, seed
    for name, degrees in (
        ("x2+1", range(2, 9)), ("phi5", range(4, 8)), ("phi7", (6, 7)), ("phi9", (6, 7))
    ):
        for degree in degrees:
            yield "adversarial", name, degree, 0


def _sha(data):
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _run(main, argv):
    """main(argv)'s exit code and the hashes of what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return {"exit": status, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}


def record(src):
    """The record of every invocation on the grid, keyed by a readable
    name, with the package imported from src.  It runs in a scratch
    directory, so every path the CLI prints is the same in every checkout."""
    sys.path.insert(0, os.path.abspath(src))
    from hypercircles import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, coeffs in FIELDS.items():
                with open(f"{name}.json", "w", encoding="utf-8") as fh:
                    json.dump(coeffs, fh)
            for kind, name, degree, seed in grid():
                inst = f"{kind}-{name}-d{degree}-s{seed}"
                path = f"{inst}.json"
                argv = ["gen", "--kind", kind, "--degree", str(degree),
                        "--minpoly-file", f"{name}.json", "--seed", str(seed), "-o", path]
                out[f"{inst} gen"] = _run(cli.main, argv)
                if not os.path.exists(path):
                    continue
                with open(path, encoding="utf-8") as fh:
                    out[f"{inst} file"] = _sha(fh.read())
                for command in COMMANDS:
                    out[f"{inst} {command[0]}"] = _run(cli.main, command + [path])
        finally:
            os.chdir(here)
    return out


def compare(a, b):
    """Every key whose entry differs between records a and b, as lines."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            lines.append(f"{key}: {a.get(key)} != {b.get(key)}")
    return lines


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        with open(argv[1], encoding="utf-8") as fa, open(argv[2], encoding="utf-8") as fb:
            lines = compare(json.load(fa), json.load(fb))
        for line in lines:
            print(line)
        print(f"{len(lines)} differences")
        return 1 if lines else 0
    if len(argv) == 2:
        rec = record(argv[0])
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=1, sort_keys=True)
        runs = [v for k, v in rec.items() if not k.endswith((" gen", " file"))]
        codes = sorted({r["exit"] for r in runs})
        counts = ", ".join(f"{sum(r['exit'] == c for r in runs)} exit {c}" for c in codes)
        print(f"{sum(k.endswith(' file') for k in rec)} instances, {len(runs)} invocations: {counts}")
        return 0
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
