"""The command-line interface: the bench CSV, a reader that stops early and
malformed or unusable minimal-polynomial files."""

import csv
import json
import os
import subprocess
import sys

import pytest

from hypercircles import cli

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
