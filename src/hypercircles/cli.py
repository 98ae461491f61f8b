"""Command-line interface.

Subcommands:

* ``compute <file> [--check]`` — decide K-definability and print the
  standard parametrization phi (instance format) plus the per-class Moebius
  transforms; with ``--check`` the verdict is also re-proved from its
  certificate (`check_certificate`, at every size) before anything is
  printed, and ``certificate check: passed`` ends the output.
* ``definable <file>`` — verdict plus a human-readable certificate.
* ``minfield <file>`` — minimum field of definition L: basis, primitive
  element, its minimal polynomial, and alpha's minimal polynomial M_L over
  L; the verdict is re-proved from its certificate before anything is
  printed, and ``certificate check: passed`` ends the output.
* ``gen`` — write a generated instance (kinds: defined, twisted,
  adversarial).

Exit codes: 0 success / DefinedOverK; 1 NotDefinedOverK; 2 bad input;
3 internal invariant violation, or any other exception (its traceback goes to
standard error); 141 standard output closed early by its reader
(``compute ... | head``), reported without a traceback.

Outputs are exact, so integers of any length are printed; Python's limit on
integer-string conversion still applies to the input files.
"""

import argparse
import contextlib
import json
import os
import sys
import traceback

from .errors import (
    InstanceError,
    InternalInvariantError,
    NonProperParametrization,
)
from .generators import gen_instance
from .hypercircle import check_certificate, standard_parametrization
from .instances import _rat_from_str, instance_doc, load_instance, read_text
from .minfield import minimum_field
from .polynomials import UniPoly
from .rationals import QQ

EXIT_OK = 0
EXIT_NOT_DEFINED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the shell's status for a closed pipe


def _read_minpoly_file(path):
    """A minimal polynomial from a JSON file: either a bare ascending
    coefficient list of rational strings, or an object carrying one under
    "minpoly" (a full instance file works too)."""
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise InstanceError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from None
    if isinstance(doc, dict):
        fdoc = doc.get("field")
        if "minpoly" not in doc and isinstance(fdoc, dict):
            doc = fdoc
        doc = doc.get("minpoly")
    if not isinstance(doc, list):
        raise InstanceError(
            f"{path}: expected a coefficient list or an object with 'minpoly'"
        )
    return UniPoly(QQ, [_rat_from_str(s, f"{path}[{k}]") for k, s in enumerate(doc)])


@contextlib.contextmanager
def _exact_output():
    """Lift Python's limit on integer-string conversion (3.10.7 and up) for
    the duration of the output, so exact results of any length print."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _print_result_header(result, out):
    print(f"verdict: {result.verdict}", file=out)
    for rep in result.reports:
        print(f"  {rep.describe()}", file=out)


def _cmd_compute(args, out=sys.stdout):
    field, psi = load_instance(args.file)
    result = standard_parametrization(psi)
    if args.check:
        check_certificate(psi, result)
    with _exact_output():
        _print_result_header(result, out)
        if result.defined:
            print("phi:", file=out)
            print(json.dumps(instance_doc(field, result.phi), indent=2), file=out)
    if args.check:
        print("certificate check: passed", file=out)
    return EXIT_OK if result.defined else EXIT_NOT_DEFINED


def _cmd_definable(args, out=sys.stdout):
    _, psi = load_instance(args.file)
    result = standard_parametrization(psi)
    with _exact_output():
        _print_result_header(result, out)
    print(f"parameters tried (max per class): {result.parameters_tried}", file=out)
    return EXIT_OK if result.defined else EXIT_NOT_DEFINED


def _cmd_minfield(args, out=sys.stdout):
    field, psi = load_instance(args.file)
    result = standard_parametrization(psi)
    check_certificate(psi, result)
    fixed = minimum_field(field, [rep.cls for rep in result.reports if rep.fixes])
    with _exact_output():
        _print_result_header(result, out)
        basis = ", ".join(str(b) for b in fixed.basis)
        print(f"minimum field degree: {fixed.degree}", file=out)
        print(f"basis: {basis}", file=out)
        print(f"primitive element: {fixed.primitive}", file=out)
        print(f"primitive minpoly: {fixed.primitive_minpoly.render('x')}", file=out)
        print(f"minpoly over L: {fixed.relative_minpoly.render('x')}", file=out)
    print("certificate check: passed", file=out)
    return EXIT_OK


def _cmd_gen(args, out=sys.stdout):
    minpoly = None
    if args.minpoly_file is not None:
        minpoly = _read_minpoly_file(args.minpoly_file)
    doc = gen_instance(
        args.kind,
        args.degree,
        minpoly=minpoly,
        ext_degree=args.ext_degree,
        seed=args.seed,
    )
    text = json.dumps(doc, indent=2) + "\n"
    if args.output is None:
        out.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InstanceError(f"cannot write {args.output}: {exc}") from None
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hypercircles",
        description=(
            "Exact K-definability of rational curve parametrizations, "
            "standard hypercircle parametrizations, and minimum fields of "
            "definition."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute the standard parametrization")
    p.add_argument("file", help="instance file (JSON)")
    p.add_argument(
        "--check",
        action="store_true",
        help="re-prove the verdict from its certificate",
    )
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("definable", help="verdict plus certificate")
    p.add_argument("file", help="instance file (JSON)")
    p.set_defaults(func=_cmd_definable)

    p = sub.add_parser("minfield", help="minimum field of definition")
    p.add_argument("file", help="instance file (JSON)")
    p.set_defaults(func=_cmd_minfield)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--kind", required=True, choices=("defined", "twisted", "adversarial"))
    p.add_argument("--degree", required=True, type=int)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--minpoly-file", help="JSON file holding the minimal polynomial")
    grp.add_argument("--ext-degree", type=int, help="use a stock minimal polynomial of this degree")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args, sys.stdout)
        sys.stdout.flush()
        return status
    except (InstanceError, NonProperParametrization) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # The reader closed the pipe (`compute ... | head`).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception:  # noqa: BLE001 - a bug, never the NotDefinedOverK code
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main(argv=None))
