"""Checks of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json

import pytest

from decide import decide, gate
from hypercircles import hypercircle
from hypercircles.generators import gen_instance
from hypercircles.polynomials import UniPoly
from hypercircles.rationals import QQ
from tracer import ROOT, Tracer, decision_layers
from workloads import X2_MINUS_2, X3_MINUS_2, X5_MINUS_2, X6_MINUS_2, embed_subfield


def _twisted_over(sub_minpoly, degree, seed):
    return gen_instance(
        "twisted", degree, minpoly=UniPoly(QQ, list(sub_minpoly)), seed=seed
    )


@pytest.mark.parametrize("sub_minpoly, expected", [(X2_MINUS_2, 2), (X3_MINUS_2, 3)])
def test_subfield_rewrite_on_sextic(sub_minpoly, expected):
    doc = embed_subfield(_twisted_over(sub_minpoly, 3, "t"), X6_MINUS_2)
    assert doc["field"]["minpoly"] == ["-2", "0", "0", "0", "0", "0", "1"]
    field, result, fixed = decide(json.dumps(doc))
    assert field.degree == 6
    assert result.verdict == "NotDefinedOverK"
    assert fixed.degree == expected
    inst = {"kind": "subfield", "min_field_degree": expected}
    assert gate(inst, field, result, fixed) is None
    wrong = dict(inst, min_field_degree=6)
    assert "expected 6" in gate(wrong, field, result, fixed)


def test_subfield_rewrite_rejects_non_divisor():
    doc = _twisted_over(X2_MINUS_2, 3, "t")
    with pytest.raises(ValueError):
        embed_subfield(doc, X5_MINUS_2)


def test_gate_rejects_wrong_verdict():
    doc = gen_instance("defined", 3, ext_degree=2, seed="g")
    field, result, fixed = decide(json.dumps(doc))
    assert gate({"kind": "defined"}, field, result, fixed) is None
    twisted = {"kind": "twisted", "min_field_degree": 2}
    assert "NotDefinedOverK" in gate(twisted, field, result, fixed)


def test_trace_self_times_add_up_and_wrappers_are_removed():
    original = hypercircle.verify_identity
    text = json.dumps(gen_instance("defined", 4, ext_degree=2, seed="s"))
    tracer = Tracer()
    with tracer.installed():
        assert hypercircle.verify_identity is not original
        for i in range(2):
            with tracer.decision(i):
                decide(text)
        decide(text)  # outside a decision: recorded nowhere
    assert hypercircle.verify_identity is original
    spans = [
        {"id": k, "decision": d, "name": n, "parent": p, "start_ns": s, "end_ns": e}
        for k, (d, n, p, s, e) in enumerate(tracer.spans)
    ]
    per = decision_layers(spans)
    assert sorted(per) == [0, 1]
    for wall, self_ns, calls in per.values():
        assert sum(self_ns.values()) == wall
        assert calls[ROOT] == 1 and calls["instances.parse"] == 1
        assert calls["hypercircle.verify"] >= 1
    assert per[0][2] == per[1][2]


def _counts_of_one_decision(text):
    tracer = Tracer()
    with tracer.installed():
        with tracer.decision(0):
            decide(text)
    return tracer.counts


def test_kernel_counts_repeat_exactly():
    text = json.dumps(gen_instance("twisted", 3, ext_degree=3, seed="k"))
    first = _counts_of_one_decision(text)
    assert first["numberfield.nf_mul_calls"] > 0
    assert first["polynomials.poly_mul_calls"] > 0
    assert _counts_of_one_decision(text) == first


def test_generation_shards_cover_the_set_in_order():
    from workloads import GEN_WORKERS, WORKLOADS, _jobs, _shard

    jobs = _jobs(WORKLOADS["tower5"], 3, 5)
    shards = [_shard(jobs, k) for k in range(GEN_WORKERS)]
    assert [job for share in shards for job in share] == jobs
    assert max(map(len, shards)) - min(map(len, shards)) <= 1
