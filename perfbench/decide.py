"""One timed pass: decide every instance of a set once, in this process.

    python3 perfbench/decide.py INSTANCES OUT [SPANS]

INSTANCES is the JSON list written by run.py.  A decision is
`parse_instance`, then `standard_parametrization`, then `minimum_field`
over the fixing classes when the verdict is NotDefinedOverK.  Only that is
timed, with a host-speed probe right before and after it; the correctness
gate runs after the timer stops.  With SPANS the layer wrappers are
installed and the spans are written there at the end.  OUT receives the
per-decision times and probe times, gate outcomes, peak RSS and counters.
"""

import contextlib
import json
import platform
import resource
import sys
import time

import hypercircles
from hostspeed import probe_ns
from hypercircles import hypercircle, instances, minfield, rationals
from hypercircles.ratfunc import RatFunc


def gate(inst, field, result, fixed):
    """None when the decision is right for its instance, else the reason."""
    if inst["kind"] == "defined":
        if not result.defined:
            return f"expected DefinedOverK, got {result.verdict}"
        # the defining property of the standard parametrization
        acc = RatFunc.constant(field, field.zero)
        power = field.one
        for comp in result.phi:
            acc = acc + comp * power
            power = power * field.gen
        if acc != RatFunc.gen(field):
            return "sum of phi_i * alpha^i is not t"
        return None
    if result.defined:
        return "expected NotDefinedOverK, got DefinedOverK"
    if fixed.degree != inst["min_field_degree"]:
        return (
            f"minimum field of degree {fixed.degree}, "
            f"expected {inst['min_field_degree']}"
        )
    return None


def decide(text):
    field, psi = instances.parse_instance(text)
    result = hypercircle.standard_parametrization(psi)
    fixed = None
    if not result.defined:
        fixing = [r.cls for r in result.reports if r.fixes]
        fixed = minfield.minimum_field(field, fixing)
    return field, result, fixed


def run_pass(insts, tracer=None):
    """Decide each instance; returns (times, probes, errors) per instance.

    Each decision is bracketed by host-speed probes; its probe time is the
    mean of the two.
    """
    times = []
    probes = []
    errors = []
    probe_ns()  # warm-up, not a sample
    for i, inst in enumerate(insts):
        span = tracer.decision(i) if tracer else contextlib.nullcontext()
        before = probe_ns()
        t0 = time.perf_counter_ns()
        try:
            with span:
                field, result, fixed = decide(inst["text"])
        except Exception as exc:  # noqa: BLE001 - a failed decision is counted
            err = f"{type(exc).__name__}: {exc}"
        else:
            err = None
        times.append(time.perf_counter_ns() - t0)
        probes.append((before + probe_ns()) // 2)
        if err is None:
            try:
                err = gate(inst, field, result, fixed)
            except Exception as exc:  # noqa: BLE001
                err = f"gate raised {type(exc).__name__}: {exc}"
        if err is not None:
            err = f"{inst['kind']} instance of degree {inst['degree']}: {err}"
        errors.append(err)
    return times, probes, errors


def peak_rss_kb():
    """This process's peak resident set size since its exec.

    Linux carries ru_maxrss over an exec, so it would include the parent's
    size at fork; VmHWM belongs to the new address space only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    with open(argv[0], encoding="utf-8") as fh:
        insts = json.load(fh)
    counts = None
    if len(argv) == 3:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            times, probes, errors = run_pass(insts, tracer)
        tracer.dump(argv[2])
        counts = tracer.counts
    else:
        times, probes, errors = run_pass(insts)
    out = {
        "decide_ns": times,
        "probe_ns": probes,
        "errors": errors,
        "peak_rss_kb": peak_rss_kb(),
        "counts": counts,
        "backend": rationals.BACKEND,
        "python": platform.python_version(),
        "package": hypercircles.__file__,
    }
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
