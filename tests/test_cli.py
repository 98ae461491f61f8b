"""The command-line interface: a reader that stops early, unreadable,
malformed or unusable input files, output that cannot be written, and the
exit codes of `gen`, `definable`, `minfield` (with its certificate check,
which a moving class reported as fixing fails) and `compute --check` (at
n = 5, on a twisted instance, and on a class whose candidate u both fail
before its not-attained pair), and of all three on a non-proper input;
exact outputs too long for Python's integer-string limit, printed in full;
exit code 3 for a phi that fails its check and for any unexpected exception;
and a package import that leaves the test oracles out."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from hypercircles import cli, hypercircle
from hypercircles.errors import InternalInvariantError
from hypercircles.generators import gen_instance
from hypercircles.hypercircle import standard_parametrization, trace_term
from hypercircles.instances import load_instance, serialize_instance
from hypercircles.ratfunc import MoebiusTransform

from conftest import CIRCLE_DOC, NONPROPER_DOC
from test_certificate import moved_after_a_failed_fit
from test_minfield import sextic_subfield_instance

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
    [
        ([1, 0, 1], "rational string"),
        ({"field": []}, "'minpoly'"),
        (["1"], "at least 2"),
        ([], "at least 2"),
        (["-1", "0", "1"], "reducible"),
        (["1", "0", "2", "0", "1"], "reducible"),
        # 4x^4 + 1 = (2x^2 + 2x + 1)(2x^2 - 2x + 1): its root beta = -1/4 of
        # P = 4x + 1 is in -4 Q^4, Capelli's exception
        (["1", "0", "0", "0", "4"], "reducible"),
    ],
    ids=[
        "numbers",
        "field-list",
        "constant",
        "empty",
        "reducible",
        "square",
        "minus-4-fourth",
    ],
)
def test_gen_rejects_malformed_minpoly_file(tmp_path, capsys, doc, message):
    path = tmp_path / "minpoly.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["gen", "--kind", "defined", "--degree", "3", "--minpoly-file", str(path)]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["definable"],
        ["gen", "--kind", "defined", "--degree", "3", "--minpoly-file"],
    ],
    ids=["instance", "minpoly-file"],
)
def test_non_utf8_input_file_is_an_input_error(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    assert cli.main([*argv, str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read {path}")
    assert captured.out == ""


def test_gen_rejects_degree_below_two(capsys):
    argv = ["gen", "--kind", "defined", "--degree", "1", "--ext-degree", "2"]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: degree must be at least 2")
    assert captured.out == ""


def test_gen_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    argv = ["gen", "--kind", "defined", "--degree", "3", "--ext-degree", "2", "-o", str(target)]
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {target}")
    assert captured.out == ""
    assert not target.exists()


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


def test_minfield_of_defined_instance_does_not_rerun(
    instance_files, capsys, monkeypatch
):
    # L = Q: the one decision and its re-proved certificate prove it, as
    # they do for every instance
    calls = []

    def counted(psi):
        calls.append(psi)
        return standard_parametrization(psi)

    monkeypatch.setattr(cli, "standard_parametrization", counted)
    assert cli.main(["minfield", instance_files["defined"]]) == cli.EXIT_OK
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "minimum field degree: 1" in out
    assert "rerun" not in out
    assert out.endswith("minpoly over L: x^2 + 1\ncertificate check: passed\n")


@pytest.fixture
def sextic_over_sqrt2(tmp_path):
    """A curve over Q(sqrt 2) written over Q(2^(1/6)), as a file: its
    minimum field L = Q(sqrt 2) has relative degree 3."""
    path = tmp_path / "sextic_over_sqrt2.json"
    path.write_text(serialize_instance(*sextic_subfield_instance(2, 4)), encoding="utf-8")
    return str(path)


def test_minfield_of_a_relative_cubic_prints_m_l_and_its_check(
    sextic_over_sqrt2, capsys, monkeypatch
):
    # M_L and the decision's certificate prove L with no second decision
    calls = []

    def counted(psi):
        calls.append(psi)
        return standard_parametrization(psi)

    monkeypatch.setattr(cli, "standard_parametrization", counted)
    assert cli.main(["minfield", sextic_over_sqrt2]) == cli.EXIT_OK
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "minimum field degree: 2" in out
    assert "primitive minpoly: x^2 - 2" in out
    assert out.endswith("minpoly over L: x^3 - a^3\ncertificate check: passed\n")


@pytest.mark.parametrize(
    "fixes, name",
    [(False, "x + a"), (True, "x^2 + a*x + a^2")],
    ids=["moving-reported-fixing", "fixing-reported-moving"],
)
def test_minfield_of_a_misreported_class_exits_3(
    sextic_over_sqrt2, capsys, monkeypatch, fixes, name
):
    # the first class that fixes (or moves) the curve is reported the other
    # way round, by dropping its u (or giving it the identity): its
    # certificate no longer holds
    def tampered(psi):
        res = standard_parametrization(psi)
        reports = list(res.reports)
        i = next(i for i, rep in enumerate(reports) if rep.fixes == fixes)
        u = None if fixes else MoebiusTransform.identity(reports[i].cls.relative_field)
        reports[i] = dataclasses.replace(reports[i], u=u)
        return dataclasses.replace(res, reports=tuple(reports))

    monkeypatch.setattr(cli, "standard_parametrization", tampered)
    assert cli.main(["minfield", sextic_over_sqrt2]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: class {name}: its certificate does not hold\n"


def test_corrupted_trace_term_is_an_internal_error(
    instance_files, capsys, monkeypatch
):
    # one bumped numerator coefficient breaks sum phi_i alpha^i = t
    def corrupted(m_alpha, cls, u):
        numerators, g = trace_term(m_alpha, cls, u)
        return [numerators[0] + 1] + numerators[1:], g

    monkeypatch.setattr(hypercircle, "trace_term", corrupted)
    _, psi = load_instance(instance_files["defined"])
    with pytest.raises(InternalInvariantError):
        standard_parametrization(psi)
    assert cli.main(["compute", instance_files["defined"]]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")


def test_compute_check_passes_at_n5(tmp_path, capsys):
    path = tmp_path / "quintic.json"
    doc = gen_instance("defined", 3, ext_degree=5, seed=0)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["compute", "--check", str(path)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("verdict: DefinedOverK")
    assert out.endswith("certificate check: passed\n")


def test_compute_check_of_twisted_instance(instance_files, capsys):
    argv = ["compute", "--check", instance_files["twisted"]]
    assert cli.main(argv) == cli.EXIT_NOT_DEFINED
    out = capsys.readouterr().out
    assert out.startswith("verdict: NotDefinedOverK")
    assert out.endswith("certificate check: passed\n")


@pytest.fixture
def failed_fit_file(tmp_path):
    """(t, t + i (t^3 - t)) over Q(i), as a file: the jet and the fit both
    give u = t, which fails the identity, and t = 2 and t = -2 are not
    attained."""
    path = tmp_path / "failed_fit.json"
    psi = moved_after_a_failed_fit()
    path.write_text(serialize_instance(psi.field, psi), encoding="utf-8")
    return str(path)


def test_definable_of_a_class_whose_candidates_fail(failed_fit_file, capsys):
    assert cli.main(["definable", failed_fit_file]) == cli.EXIT_NOT_DEFINED
    out = capsys.readouterr().out
    assert "values at t=2 and t=-2 are not attained by the conjugate" in out
    assert out.endswith("parameters tried (max per class): 5\n")


def test_compute_check_of_a_class_whose_candidates_fail(failed_fit_file, capsys):
    argv = ["compute", "--check", failed_fit_file]
    assert cli.main(argv) == cli.EXIT_NOT_DEFINED
    out = capsys.readouterr().out
    assert out.startswith("verdict: NotDefinedOverK")
    assert out.endswith("certificate check: passed\n")


@pytest.mark.parametrize(
    "argv", [["compute", "--check"], ["definable"], ["minfield"]], ids=lambda a: a[0]
)
def test_a_non_proper_input_exits_2(tmp_path, capsys, argv):
    # the class x + a leaves psi(1) and psi(-1) unattained, but only because
    # psi(t) = psi(-t): no sample of any class is good, so psi is not proven
    # proper, and the curve is in fact defined over Q
    path = tmp_path / "nonproper.json"
    path.write_text(json.dumps(NONPROPER_DOC), encoding="utf-8")
    assert cli.main(argv + [str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "non-proper" in captured.err


def _big_coefficient_doc(digits):
    """psi = ((t + N a)/(t + 1), (t + 1)/(t + N a)) over Q(a), a^2 = -1, with
    N = 10^digits written out (no int-to-string conversion)."""
    n = "1" + "0" * digits
    return {
        "field": {"generator": "a", "minpoly": ["1", "0", "1"]},
        "parametrization": [
            {"num": [["0", n], ["1", "0"]], "den": [["1", "0"], ["1", "0"]]},
            {"num": [["1", "0"], ["1", "0"]], "den": [["0", n], ["1", "0"]]},
        ],
    }


@pytest.fixture(scope="module")
def big_coefficient_instance(tmp_path_factory):
    """The instance at N = 10^4250, whose inputs are within Python's
    4300-digit limit on integer-string conversion while phi's are not, as
    its path, the loaded instance, and its decision (made once: it takes
    seconds)."""
    path = tmp_path_factory.mktemp("big") / "big.json"
    path.write_text(json.dumps(_big_coefficient_doc(4250)), encoding="utf-8")
    loaded = load_instance(str(path))
    return str(path), loaded, standard_parametrization(loaded[1])


@pytest.mark.parametrize("command", ["compute", "definable", "minfield"])
def test_outputs_beyond_the_digit_limit_print_in_full(
    big_coefficient_instance, capsys, monkeypatch, command
):
    path, loaded, result = big_coefficient_instance
    # `minfield` checks the result against psi: both come from one load
    monkeypatch.setattr(cli, "load_instance", lambda _: loaded)
    monkeypatch.setattr(cli, "standard_parametrization", lambda psi: result)
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    assert cli.main([command, path]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("verdict: DefinedOverK")
    assert max(len(run) for run in re.findall(r"\d+", captured.out)) > 8000
    if command == "compute":
        assert "1" + "0" * 8500 in captured.out  # N^2, exactly
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == before


def test_input_beyond_the_digit_limit_is_an_input_error(tmp_path, capsys):
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on integer-string conversion")
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_big_coefficient_doc(4400)), encoding="utf-8")
    assert cli.main(["compute", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: parametrization[0].num[0][1]")
    assert captured.out == ""


def test_unexpected_exception_exits_3_with_its_traceback(
    instance_files, capsys, monkeypatch
):
    def broken(psi):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "standard_parametrization", broken)
    assert cli.main(["definable", instance_files["defined"]]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert "RuntimeError: unexpected" in captured.err


def test_package_import_leaves_the_oracles_out():
    code = "import sys, hypercircles; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    loaded = proc.stdout.split()
    assert "hypercircles.hypercircle" in loaded
    assert "hypercircles.weil" not in loaded and "oracles" not in loaded
