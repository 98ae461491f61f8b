"""Decision benchmark: time the K-definability decision end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.

The workload's instance set is generated from the seed (never timed), sized
so that generating and deciding it takes about S seconds on the reference
host.  Each pass is a fresh interpreter that decides its share of the set
one instance at a time (a closed loop with one client) and checks each
answer outside the timer.  Every instance in a pass is distinct.

The host's speed drifts by up to a third within seconds to minutes, so
every timed step is bracketed by a fixed pure-Python probe (hostspeed.py)
and reported in reference-host time: measured time * REF_NS / probe time.
The raw wall times are printed beside the result.

With --trace 0 the set is split over PASSES passes, each decision runs
once, and the run reports the end-to-end metrics:

  batch_s        seconds to decide the whole instance set once
  decide_ms_p50  median time of one decision
  setup_s        median time for a fresh interpreter to `import hypercircles`,
                 sampled SETUP_SAMPLES times before every pass
  peak_rss_mb    median over the passes of the pass process's peak RSS

With --trace 1 the set is half as large, and the run makes one untraced and
one traced pass over all of it.  It reports each layer's self time and call
count, the kernel counters, and the tracing overhead: traced minus
untraced batch time.

Spans, per-pass records and a summary go to .perfbench_runs/ in the working
directory.  The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from hostspeed import REF_NS

HERE = os.path.dirname(os.path.abspath(__file__))
PASSES = 3
SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {HERE!r})
from hostspeed import probe_ns
probe_ns()
before = probe_ns()
start = time.perf_counter_ns()
import hypercircles
took = time.perf_counter_ns() - start
print(took, (before + probe_ns()) // 2)
"""


class BenchError(Exception):
    """The run cannot produce a result."""


def reference_ns(took_ns, probe_ns):
    """A measured time scaled to the reference host's speed."""
    return took_ns * REF_NS / probe_ns


class Runner:
    """Starts the run's child processes, one at a time, under one deadline."""

    def __init__(self, src, out_dir):
        self.env = dict(os.environ, PYTHONPATH=src)
        self.src = src
        self.out_dir = out_dir
        self.deadline = time.monotonic() + HARD_LIMIT_S

    def _run(self, cmd):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        try:
            proc = subprocess.run(
                cmd,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
                check=False,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{cmd[1]} exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(f"{cmd[1]} exited with {proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    def import_ns(self):
        """(raw, reference-host) nanoseconds of one fresh import."""
        out = self._run([sys.executable, "-c", SETUP_CODE])
        took, probe = (int(x) for x in out.split())
        return took, reference_ns(took, probe)

    def decide_pass(self, tag, insts, trace):
        """Run decide.py on `insts` in a fresh interpreter; its record."""
        path = os.path.join(self.out_dir, f"{tag}.instances.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(insts, fh)
        out = os.path.join(self.out_dir, f"{tag}.json")
        spans = os.path.join(self.out_dir, f"{tag}.spans.jsonl")
        cmd = [sys.executable, os.path.join(HERE, "decide.py"), path, out]
        if trace:
            cmd.append(spans)
        self._run(cmd)
        with open(out, encoding="utf-8") as fh:
            rec = json.load(fh)
        package = os.path.dirname(rec["package"])
        if os.path.dirname(package) != self.src:
            raise BenchError(f"the pass imported hypercircles from {package}")
        rec["ref_ns"] = [
            reference_ns(t, p) for t, p in zip(rec["decide_ns"], rec["probe_ns"])
        ]
        if trace:
            import tracer

            rec["spans"] = tracer.load_spans(spans)
        return rec


def end_to_end(runner, insts):
    setup = []
    passes = []
    for p in range(PASSES):
        setup.extend(runner.import_ns() for _ in range(SETUP_SAMPLES))
        passes.append(runner.decide_pass(f"pass{p}", insts[p::PASSES], False))
    ok = [
        (raw, ref)
        for rec in passes
        for raw, ref, err in zip(rec["decide_ns"], rec["ref_ns"], rec["errors"])
        if err is None
    ]
    if not ok:
        raise BenchError("every decision failed")
    raw, ref = zip(*ok)
    metrics = {
        "batch_s": (sum(ref) / 1e9, "s"),
        "decide_ms_p50": (statistics.median(ref) / 1e6, "ms"),
        "setup_s": (statistics.median(s[1] for s in setup) / 1e9, "s"),
        "peak_rss_mb": (
            statistics.median(r["peak_rss_kb"] for r in passes) / 1024,
            "MB",
        ),
    }
    notes = {
        "batch_s": f"{len(ref)} decisions in {len(passes)} passes; "
        f"raw wall {sum(raw) / 1e9:.4g} s",
        "decide_ms_p50": f"median of {len(ref)} decisions; "
        f"raw wall {statistics.median(raw) / 1e6:.4g} ms",
        "setup_s": f"median of {len(setup)} fresh imports; "
        f"raw wall {statistics.median(s[0] for s in setup) / 1e9:.4g} s",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    return passes, metrics, notes


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(runner, insts):
    import tracer

    plain = runner.decide_pass("untraced", insts, False)
    traced = runner.decide_pass("traced", insts, True)
    try:
        layers = tracer.decision_layers(traced.pop("spans"))
    except ValueError as exc:
        raise BenchError(f"inconsistent trace: {exc}") from None
    counts = traced["counts"]
    # each decision's self times scaled like the decision itself
    self_ns = {}
    calls = {}
    wall_ns = 0
    for i, (wall, selfs, ncalls) in layers.items():
        scale = REF_NS / traced["probe_ns"][i]
        wall_ns += wall * scale
        for name, v in selfs.items():
            self_ns[name] = self_ns.get(name, 0) + v * scale
        for name, v in ncalls.items():
            calls[name] = calls.get(name, 0) + v

    def secs(name):
        return self_ns.get(name, 0) / 1e9

    def count(key):
        return counts.get(key, 0)

    tried = calls.get("hypercircle.classify", 0)
    layer_ns = sum(v for k, v in self_ns.items() if k != tracer.ROOT)
    traced_s = sum(traced["ref_ns"]) / 1e9
    metrics = {
        "instances.parse_s": (secs("instances.parse"), "s"),
        "ratfunc.gcd_s": (secs("ratfunc.gcd"), "s"),
        "ratfunc.gcd_calls": (calls.get("ratfunc.gcd", 0), "count"),
        "factoring.classes_s": (secs("factoring.classes"), "s"),
        "hypercircle.classify_s": (secs("hypercircle.classify"), "s"),
        "hypercircle.params_tried": (tried, "count"),
        "hypercircle.good_frac": (_ratio(count("hypercircle.good"), tried), "ratio"),
        "modp.fold_s": (secs("modp.fold"), "s"),
        "modp.fold_empty": (count("modp.fold_empty"), "count"),
        "modp.fold_root": (count("modp.fold_root"), "count"),
        "modp.fold_degree": (count("modp.fold_degree"), "count"),
        "modp.fallback_s": (secs("modp.fallback"), "s"),
        "modp.fallback_calls": (calls.get("modp.fallback", 0), "count"),
        "ratfunc.fit_s": (secs("ratfunc.fit"), "s"),
        "hypercircle.verify_s": (secs("hypercircle.verify"), "s"),
        "hypercircle.verify_pass_frac": (
            _ratio(count("hypercircle.verify_pass"), calls.get("hypercircle.verify", 0)),
            "ratio",
        ),
        "hypercircle.trace_s": (secs("hypercircle.trace"), "s"),
        "minfield.minfield_s": (secs("minfield.minfield"), "s"),
        "numberfield.nf_mul_calls": (count("numberfield.nf_mul_calls"), "count"),
        "numberfield.nf_inv_calls": (count("numberfield.nf_inv_calls"), "count"),
        "polynomials.poly_mul_calls": (count("polynomials.poly_mul_calls"), "count"),
        "decide.other_s": (secs(tracer.ROOT), "s"),
        "trace.layer_frac": (_ratio(layer_ns, wall_ns), "ratio"),
        "trace.batch_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - sum(plain["ref_ns"]) / 1e9, "s"),
    }
    notes = {
        "decide.other_s": "decision time outside every named layer",
        "trace.layer_frac": "share of traced decision time in named layers",
    }
    return [plain, traced], metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hypercircles", "__init__.py")):
        print(f"perfbench: no src/hypercircles under {root}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(
        root, ".perfbench_runs", f"{workload.name}-seed{args.seed}-trace{args.trace}"
    )
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(src, out_dir)

    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        insts = workloads.instance_set(
            workload,
            args.seed,
            workloads.block_count(workload, seconds),
            runner.env,
            runner.deadline - time.monotonic(),
        )
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    kinds = {}
    for inst in insts:
        kinds[inst["kind"]] = kinds.get(inst["kind"], 0) + 1

    try:
        runner.import_ns()  # byte-compiles the package; not a sample
        if args.trace:
            passes, metrics, notes = per_layer(runner, insts)
        else:
            passes, metrics, notes = end_to_end(runner, insts)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    errors = [(p, err) for p, rec in enumerate(passes) for err in rec["errors"]]
    attempted = len(errors)
    failed = sum(err is not None for _, err in errors)
    backend = passes[0]["backend"]
    python = passes[0]["python"]
    print(
        f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
        f"{len(insts)} instances {kinds}, {len(passes)} passes, "
        f"backend={backend} python={python}"
    )
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    print(f"  fail_frac {failed / attempted:g} ({failed} of {attempted} decisions)")
    for p, err in errors:
        if err is not None:
            print(f"  pass {p}: {err}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    summary = dict(
        result,
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        instances=len(insts),
        passes=len(passes),
        backend=backend,
        python=python,
    )
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
