"""The names the benchmark's tracer wraps still exist in the package, and a
traced decision records the classification, fold, identity and trace
layers, so a rename cannot silently empty the benchmark's layer rows."""

import importlib.util
import json
from pathlib import Path

from hypercircles import QQ, UniPoly, gen_instance, parse_instance, standard_parametrization

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    for module, attr, name, _ in tracer.LAYERS:
        assert callable(getattr(module, attr, None)), (module.__name__, attr, name)
    for cls, attr, key in tracer.KERNELS:
        assert attr in cls.__dict__, (cls.__name__, attr, key)


def traced(doc):
    """The tracer after one traced decision of the instance doc, which must
    be defined."""
    tracer = load_tracer().Tracer()
    with tracer.installed(), tracer.decision(0):
        _, psi = parse_instance(json.dumps(doc))
        assert standard_parametrization(psi).defined
    return tracer


def test_traced_decision_records_classify_and_fold():
    # a plane2-sized decision: x^2 + 1, defined, degree 14
    tracer = traced(gen_instance("defined", 14, minpoly=UniPoly(QQ, [1, 0, 1]), seed=0))
    names = {span[1] for span in tracer.spans}
    assert {"hypercircle.classify", "modp.fold"} <= names
    assert tracer.counts.get("modp.fold_root", 0) >= 1


def test_traced_sextic_decision_records_classes_and_fold():
    # a sextic_mixed-sized decision: over x^6 - 2, m(alpha, x) has degree 5
    # and is factored into classes, where over x^2 + 1 it is linear
    sextic = UniPoly(QQ, [-2, 0, 0, 0, 0, 0, 1])
    tracer = traced(gen_instance("defined", 6, minpoly=sextic, seed=0))
    names = {span[1] for span in tracer.spans}
    assert {"factoring.classes", "modp.fold"} <= names


def test_traced_quintic_decision_records_trace_and_verify():
    # a tower5-sized decision: over x^5 - 2 the one class has size 4, and
    # its u is proven and its term traced down, each in its own layer
    quintic = UniPoly(QQ, [-2, 0, 0, 0, 0, 1])
    tracer = traced(gen_instance("defined", 6, minpoly=quintic, seed=0))
    names = {span[1] for span in tracer.spans}
    assert {"hypercircle.trace", "hypercircle.verify"} <= names
