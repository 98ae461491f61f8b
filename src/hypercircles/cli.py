"""Command-line interface.

Subcommands:

* ``compute <file> [--verify-witness]`` — decide K-definability and print the
  standard parametrization phi (instance format) plus the per-class Moebius
  transforms; with ``--verify-witness`` additionally check phi against the
  implicit witness-variety system (an instance beyond the oracle's limits,
  n > 3 or degree > 6, exits 2 before anything is printed).
* ``definable <file>`` — verdict plus a human-readable certificate.
* ``minfield <file>`` — minimum field of definition: basis, primitive
  element, and its minimal polynomial.
* ``gen`` — write a generated instance (kinds: defined, twisted,
  adversarial).
* ``bench`` — run the generator + pipeline over a degree/seed grid on a
  worker pool and emit CSV timing rows; a row's ``ms`` covers parsing and
  the decision, not instance generation.

Exit codes: 0 success / DefinedOverK; 1 NotDefinedOverK; 2 bad input;
3 internal invariant violation; 141 standard output closed early by its
reader (``compute ... | head``), reported without a traceback.
"""

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .errors import (
    InstanceError,
    InternalInvariantError,
    NonProperParametrization,
)
from .generators import _check_minpoly, canonical_minpoly, gen_instance
from .hypercircle import standard_parametrization
from .instances import instance_doc, load_instance, parse_instance
from .minfield import minimum_field
from .polynomials import UniPoly
from .rationals import QQ
from .weil import check_on_witness, weil_substitution

EXIT_OK = 0
EXIT_NOT_DEFINED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the shell's status for a closed pipe

CSV_HEADER = ["degree", "n", "seed", "verdict", "params_tried", "ms"]


def _read_minpoly_file(path):
    """A minimal polynomial from a JSON file: either a bare ascending
    coefficient list of rational strings, or an object carrying one under
    "minpoly" (a full instance file works too)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from None
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
    for s in doc:
        if not isinstance(s, str):
            raise InstanceError(
                f"{path}: expected each coefficient as a rational string, got {s!r}"
            )
    try:
        coeffs = [QQ.from_str(s) for s in doc]
    except (ValueError, ZeroDivisionError) as exc:
        raise InstanceError(f"{path}: {exc}") from None
    return UniPoly(QQ, coeffs)


def _print_result_header(result, out):
    print(f"verdict: {result.verdict}", file=out)
    for rep in result.reports:
        print(f"  {rep.describe()}", file=out)


def _cmd_compute(args, out=sys.stdout):
    field, psi = load_instance(args.file)
    # the witness system is built first: an instance beyond the oracle's
    # limits is an input error, reported before anything is printed
    system = weil_substitution(psi) if args.verify_witness else None
    result = standard_parametrization(psi)
    _print_result_header(result, out)
    if not result.defined:
        return EXIT_NOT_DEFINED
    print("phi:", file=out)
    print(json.dumps(instance_doc(field, result.phi), indent=2), file=out)
    if system is not None:
        if not check_on_witness(system, result.phi):
            raise InternalInvariantError(
                "computed parametrization fails the witness-variety check"
            )
        print("witness check: passed", file=out)
    return EXIT_OK


def _cmd_definable(args, out=sys.stdout):
    _, psi = load_instance(args.file)
    result = standard_parametrization(psi)
    _print_result_header(result, out)
    print(f"parameters tried (max per class): {result.parameters_tried}", file=out)
    return EXIT_OK if result.defined else EXIT_NOT_DEFINED


def _cmd_minfield(args, out=sys.stdout):
    field, psi = load_instance(args.file)
    result = standard_parametrization(psi)
    _print_result_header(result, out)
    fixing = [rep.cls for rep in result.reports if rep.fixes]
    fixed = minimum_field(field, fixing)
    basis = ", ".join(str(b) for b in fixed.basis)
    print(f"minimum field degree: {fixed.degree}", file=out)
    print(f"basis: {basis}", file=out)
    print(f"primitive element: {fixed.primitive}", file=out)
    print(f"primitive minpoly: {fixed.primitive_minpoly.render('x')}", file=out)
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
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _bench_one(task):
    """One bench cell: generate, then time parse and decision.  Runs in a
    worker.  Generation is not timed: for twisted instances it reruns the
    decision pipeline."""
    kind, degree, minpoly_coeffs, seed = task
    minpoly = UniPoly(QQ, [QQ.from_str(s) for s in minpoly_coeffs])
    n = minpoly.degree
    t0 = None
    try:
        text = json.dumps(gen_instance(kind, degree, minpoly=minpoly, seed=seed))
        t0 = time.perf_counter()
        field, psi = parse_instance(text)
        result = standard_parametrization(psi)
        verdict = result.verdict
        tried = result.parameters_tried
        err = None
    except Exception as exc:  # noqa: BLE001 - failed rows must not kill the run
        verdict = "error"
        tried = 0
        err = f"{type(exc).__name__}: {exc}"
    ms = 0 if t0 is None else int(round((time.perf_counter() - t0) * 1000))
    return {
        "degree": degree,
        "n": n,
        "seed": seed,
        "verdict": verdict,
        "params_tried": tried,
        "ms": ms,
    }, err


def _cmd_bench(args, out=sys.stdout):
    if args.jobs < 0:
        raise InstanceError(f"--jobs must be 0 (CPU count) or positive, got {args.jobs}")
    if args.degrees.strip():
        try:
            degrees = [int(s) for s in args.degrees.split(",")]
        except ValueError:
            raise InstanceError(
                f"--degrees must be a comma-separated integer list, got {args.degrees!r}"
            ) from None
    else:
        degrees = []
    for d in degrees:
        if d < 2:
            raise InstanceError(f"--degrees: degree must be at least 2, got {d}")
    if args.seeds < 0:
        raise InstanceError(f"--seeds must be 0 or positive, got {args.seeds}")
    if args.minpoly_file is not None:
        minpoly = _check_minpoly(_read_minpoly_file(args.minpoly_file))
    else:
        minpoly = canonical_minpoly(args.ext_degree)
    coeff_strs = [str(c) for c in minpoly.coeffs]
    tasks = [
        (args.kind, d, coeff_strs, seed)
        for d in degrees
        for seed in range(args.seeds)
    ]
    rows = []
    if tasks:
        jobs = args.jobs or os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            for row, err in pool.map(_bench_one, tasks):
                rows.append(row)
                if err is not None:
                    print(
                        f"instance d={row['degree']} seed={row['seed']} failed: {err}",
                        file=sys.stderr,
                    )
    close = False
    if args.output is None:
        fh = out
    else:
        fh = open(args.output, "w", encoding="utf-8", newline="")
        close = True
    try:
        writer = csv.DictWriter(fh, fieldnames=CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if close:
            fh.close()
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
        "--verify-witness",
        action="store_true",
        help="additionally verify phi against the witness-variety system",
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

    p = sub.add_parser("bench", help="run the benchmark grid, emit CSV")
    p.add_argument("--degrees", default="", help="comma-separated degree list")
    p.add_argument("--minpoly-file", help="JSON file holding the minimal polynomial")
    p.add_argument("--ext-degree", type=int, default=2, help="stock minimal polynomial degree (default 2)")
    p.add_argument("--seeds", type=int, default=3, help="seeds 0..k-1 per degree (default 3)")
    p.add_argument("--kind", default="defined", choices=("defined", "twisted"))
    p.add_argument("--jobs", type=int, default=0, help="worker processes (default: CPU count)")
    p.add_argument("-o", "--output", help="output CSV file (default: stdout)")
    p.set_defaults(func=_cmd_bench)

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


if __name__ == "__main__":
    sys.exit(main(argv=None))
