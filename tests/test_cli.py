"""The command-line interface: the bench CSV and a reader that stops early."""

import csv
import json
import os
import subprocess
import sys

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
