"""The command-line interface: the bench CSV and its input checks, a reader
that stops early, malformed or unusable minimal-polynomial files, and the
exit codes of `definable`, `minfield` and `compute --verify-witness` (within
the witness oracle's limits and beyond them)."""

import csv
import json
import os
import subprocess
import sys

import pytest

from hypercircles import cli
from hypercircles.generators import gen_instance

from conftest import CIRCLE_DOC

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_bench_csv_header_and_rows(tmp_path):
    out = tmp_path / "bench.csv"
    argv = ["bench", "--degrees", "3", "--seeds", "1", "--jobs", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.CSV_HEADER
    assert len(rows) == 2
    row = dict(zip(rows[0], rows[1]))
    assert (row["degree"], row["n"], row["seed"]) == ("3", "2", "0")
    assert row["verdict"] == "DefinedOverK"


def test_bench_rejects_negative_jobs(capsys):
    argv = ["bench", "--degrees", "3", "--seeds", "1", "--jobs", "-1"]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert "--jobs" in capsys.readouterr().err


def test_compute_into_closed_pipe_has_no_traceback(tmp_path):
    inst = tmp_path / "circle.json"
    inst.write_text(json.dumps(CIRCLE_DOC), encoding="utf-8")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hypercircles.cli", "compute", str(inst)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE


@pytest.mark.parametrize(
    "doc, message",
    [([1, 0, 1], "rational string"), ({"field": []}, "'minpoly'")],
    ids=["numbers", "field-list"],
)
def test_gen_rejects_malformed_minpoly_file(tmp_path, capsys, doc, message):
    path = tmp_path / "minpoly.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["gen", "--kind", "defined", "--degree", "3", "--minpoly-file", str(path)]
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_gen_adversarial_rejects_a_field_that_is_not_normal(tmp_path, capsys):
    # x^3 - 2 has one real root and two complex ones: Q(2^(1/3)) is not normal
    path = tmp_path / "minpoly.json"
    path.write_text(json.dumps(["-2", "0", "0", "1"]), encoding="utf-8")
    argv = ["gen", "--kind", "adversarial", "--degree", "4", "--minpoly-file", str(path)]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: the adversarial construction requires a normal extension"
    )
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "coeffs, message",
    [(["1"], "at least 2"), ([], "at least 2"), (["-1", "0", "1"], "reducible")],
    ids=["constant", "empty", "reducible"],
)
def test_bench_rejects_unusable_minpoly(tmp_path, capsys, coeffs, message):
    path = tmp_path / "minpoly.json"
    path.write_text(json.dumps(coeffs), encoding="utf-8")
    argv = ["bench", "--degrees", "3", "--seeds", "1", "--jobs", "1", "--minpoly-file", str(path)]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid, message",
    [
        (["--degrees", "0,3", "--seeds", "1"], "degree must be at least 2"),
        (["--degrees", "3", "--seeds", "-1"], "--seeds"),
    ],
    ids=["degree-zero", "negative-seeds"],
)
def test_bench_rejects_bad_grid(tmp_path, capsys, grid, message):
    out = tmp_path / "bench.csv"
    argv = ["bench", *grid, "--jobs", "1", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert not out.exists()


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    """A defined n=2 and a twisted n=3 instance of degree 3, as files."""
    folder = tmp_path_factory.mktemp("instances")
    paths = {}
    for kind, n in (("defined", 2), ("twisted", 3)):
        path = folder / f"{kind}.json"
        doc = gen_instance(kind, 3, ext_degree=n, seed=0)
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[kind] = str(path)
    return paths


def test_definable_exit_codes(instance_files, capsys):
    assert cli.main(["definable", instance_files["defined"]]) == cli.EXIT_OK
    assert "verdict: DefinedOverK" in capsys.readouterr().out
    assert cli.main(["definable", instance_files["twisted"]]) == cli.EXIT_NOT_DEFINED
    assert "verdict: NotDefinedOverK" in capsys.readouterr().out


def test_minfield_of_twisted_instance(instance_files, capsys):
    assert cli.main(["minfield", instance_files["twisted"]]) == cli.EXIT_OK
    assert "minimum field degree: 3" in capsys.readouterr().out


def test_compute_verify_witness_exit_codes(instance_files, capsys):
    argv = ["compute", "--verify-witness", instance_files["defined"]]
    assert cli.main(argv) == cli.EXIT_OK
    assert "witness check: passed" in capsys.readouterr().out
    argv = ["compute", "--verify-witness", instance_files["twisted"]]
    assert cli.main(argv) == cli.EXIT_NOT_DEFINED
    assert "witness check" not in capsys.readouterr().out


def test_compute_verify_witness_beyond_oracle_limits(tmp_path, capsys):
    # n = 5 is past the witness oracle's limits: an input error, reported
    # before the decision prints anything
    path = tmp_path / "quintic.json"
    doc = gen_instance("defined", 3, ext_degree=5, seed=0)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["compute", "--verify-witness", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "witness oracle budget exceeded" in captured.err
