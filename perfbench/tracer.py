"""Layer spans and kernel counters, installed from outside the package.

`Tracer.installed()` replaces the module-level entry points the pipeline
calls with wrappers that record a span per call (name, start, end, parent,
decision id) and count outcomes; the kernel methods get count-only
wrappers.  Nothing under the package is edited: each wrapper is bound to
the name the caller looks up, so `hypercircle.poly_gcd` (the exact fallback)
and `ratfunc.poly_gcd` (RatFunc normalization) are separate layers although
they are the same function.

Spans stay in memory until `dump` writes them as JSON lines; `self_times`
and `decision_layers` derive each layer's self time from them.
"""

import contextlib
import functools
import json
import time

from hypercircles import hypercircle, instances, minfield, ratfunc
from hypercircles.numberfield import NFElement
from hypercircles.polynomials import UniPoly

ROOT = "decide"

# (module, attribute, layer name, outcome counter or None)
LAYERS = (
    (instances, "parse_instance", "instances.parse", None),
    (ratfunc, "poly_gcd", "ratfunc.gcd", None),
    (hypercircle, "conjugacy_classes", "factoring.classes", None),
    (
        hypercircle,
        "classify_parameter",
        "hypercircle.classify",
        lambda v: "hypercircle.good" if v.kind == hypercircle.GOOD else None,
    ),
    (hypercircle, "fold_common_root", "modp.fold", lambda r: f"modp.fold_{r[0]}"),
    (hypercircle, "poly_gcd", "modp.fallback", None),
    (hypercircle, "moebius_from_three_points", "ratfunc.fit", None),
    (
        hypercircle,
        "verify_identity",
        "hypercircle.verify",
        lambda ok: "hypercircle.verify_pass" if ok else None,
    ),
    (hypercircle, "trace_term", "hypercircle.trace", None),
    (minfield, "minimum_field", "minfield.minfield", None),
)

# (class, method, counter name)
KERNELS = (
    (NFElement, "__mul__", "numberfield.nf_mul_calls"),
    (NFElement, "__rmul__", "numberfield.nf_mul_calls"),
    (NFElement, "inverse", "numberfield.nf_inv_calls"),
    (UniPoly, "__mul__", "polynomials.poly_mul_calls"),
    (UniPoly, "__rmul__", "polynomials.poly_mul_calls"),
)


class Tracer:
    """Records spans and counts for one process."""

    def __init__(self):
        # span i: [decision, name, parent index or -1, start_ns, end_ns]
        self.spans = []
        self.counts = {}
        self._stack = []
        self._decision = None

    def _count(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1

    def span(self, name, fn, outcome=None):
        """`fn` wrapped so that each call inside a decision records a span
        named `name` and counts `outcome(result)` unless that is None."""
        spans = self.spans
        stack = self._stack
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside a decision: the correctness gate
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([self._decision, name, stack[-1], 0, 0])
            stack.append(idx)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[idx][3:] = (start, end)
            if outcome is not None:
                key = outcome(result)
                if key is not None:
                    self._count(key)
            return result

        return traced

    def counter(self, key, fn):
        """`fn` wrapped so that each call inside a decision counts `key`."""
        stack = self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                self._count(key)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Install every layer and kernel wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, outcome in LAYERS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.span(name, fn, outcome))
            for cls, attr, key in KERNELS:
                fn = cls.__dict__[attr]
                saved.append((cls, attr, fn))
                setattr(cls, attr, self.counter(key, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def decision(self, ident):
        """Root span of one decision; every layer span inside nests under it."""
        self._decision = ident
        idx = len(self.spans)
        self.spans.append([ident, ROOT, -1, 0, 0])
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx][3:] = (start, end)
            self._decision = None

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (dec, name, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "decision": dec,
                            "name": name,
                            "parent": parent,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def load_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Raises ValueError if a span is not nested inside its parent or belongs
    to another decision than its parent, since self times would then not
    add up to the decisions' wall time.
    """
    covered = [0] * len(spans)
    for s in spans:
        p = s["parent"]
        if p < 0:
            if s["name"] != ROOT:
                raise ValueError(f"span {s['id']} ({s['name']}) outside a decision")
            continue
        parent = spans[p]
        if parent["decision"] != s["decision"] or not (
            parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
        ):
            raise ValueError(f"span {s['id']} is not nested in its parent {p}")
        covered[p] += s["end_ns"] - s["start_ns"]
    return [s["end_ns"] - s["start_ns"] - c for s, c in zip(spans, covered)]


def decision_layers(spans):
    """Per decision id: (wall ns, {layer: self ns}, {layer: calls}).

    The self times of a decision's spans, ROOT included, sum to its wall
    time exactly, since both are integer nanoseconds from one clock.
    """
    out = {}
    for s, st in zip(spans, self_times(spans)):
        rec = out.setdefault(s["decision"], [0, {}, {}])
        if s["parent"] < 0:
            rec[0] = s["end_ns"] - s["start_ns"]
        name = s["name"]
        rec[1][name] = rec[1].get(name, 0) + st
        rec[2][name] = rec[2].get(name, 0) + 1
    return out
