"""`output_sweep`, the record-and-compare tool that shows a change leaves
every CLI output byte-identical: `compare` finds changed and missing
entries, `--compare` exits by them, and a record of a one-instance grid
holds every key of that instance."""

import json
import os
import sys

import output_sweep

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

RUN = {"exit": 0, "stdout": "aa", "stderr": "bb"}


def test_compare_reports_a_changed_hash_and_a_missing_key():
    a = {"one compute": RUN, "two gen": RUN}
    b = {"one compute": dict(RUN, stdout="cc")}
    assert output_sweep.compare(a, a) == []
    assert output_sweep.compare(a, b) == [
        f"one compute: {RUN} != {dict(RUN, stdout='cc')}",
        f"two gen: {RUN} != None",
    ]


def test_compare_exits_by_the_differences(tmp_path, capsys):
    paths = []
    for name, rec in [("a", {"k": RUN}), ("b", {"k": RUN}), ("c", {"k": dict(RUN, exit=1)})]:
        paths.append(str(tmp_path / f"{name}.json"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(rec, fh)
    a, b, c = paths
    assert output_sweep.main(["--compare", a, b]) == 0
    assert capsys.readouterr().out == "0 differences\n"
    assert output_sweep.main(["--compare", a, c]) == 1
    assert capsys.readouterr().out.endswith("\n1 differences\n")


def test_record_of_one_instance(tmp_path, monkeypatch, capsys):
    # a defined x^2 + 1 instance of degree 3: every command exits 0
    monkeypatch.setattr(output_sweep, "grid", lambda: iter([("defined", "x2+1", 3, 0)]))
    monkeypatch.setattr(sys, "path", list(sys.path))
    out = tmp_path / "record.json"
    assert output_sweep.main([SRC, str(out)]) == 0
    assert capsys.readouterr().out == "1 instances, 3 invocations: 3 exit 0\n"
    rec = json.loads(out.read_text(encoding="utf-8"))
    inst = "defined-x2+1-d3-s0"
    parts = ("gen", "file", "compute", "definable", "minfield")
    assert sorted(rec) == sorted(f"{inst} {part}" for part in parts)
    assert all(rec[f"{inst} {part}"]["exit"] == 0 for part in parts if part != "file")
