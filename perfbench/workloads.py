"""Workload definitions and instance generation for the decision benchmark.

A workload is a block of instance specifications repeated enough times to
fill the run.  Every instance comes from `gen_instance`, optionally followed
by the subfield rewrite, and reaches the timed child only as JSON text
together with the verdict the correctness gate expects.

Degrees are fixed per slot, so two seeds differ only in the random content
of each instance, not in its size.
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

from hypercircles.generators import gen_instance
from hypercircles.polynomials import UniPoly
from hypercircles.rationals import QQ

X2_PLUS_1 = (1, 0, 1)
X2_MINUS_2 = (-2, 0, 1)
X3_MINUS_2 = (-2, 0, 0, 1)
X5_MINUS_2 = (-2, 0, 0, 0, 0, 1)
X6_MINUS_2 = (-2, 0, 0, 0, 0, 0, 1)

GEN_WORKERS = 2


@dataclass(frozen=True)
class Spec:
    """One instance slot: what to generate and what the gate expects.

    `kind` is "defined" or "twisted" (passed to `gen_instance`) or
    "subfield": a twisted instance over Q(b) with minpoly `sub_minpoly`,
    rewritten into the field of `minpoly` by `embed_subfield`.
    `min_field_degree` is the expected degree of the minimum field of
    definition for negative instances (None for defined ones).
    """

    kind: str
    degree: int
    minpoly: tuple
    sub_minpoly: tuple = None
    min_field_degree: int = None


@dataclass(frozen=True)
class Workload:
    name: str
    block: tuple
    # Wall seconds to generate and decide one block on the reference host
    # (2-core x86-64 VM, pure kernels), averaged over its fast and slow
    # phases; sizes the instance set from --seconds.
    block_s: float


def _defined(degree, minpoly):
    return Spec("defined", degree, minpoly)


def _twisted(degree, minpoly):
    return Spec("twisted", degree, minpoly, min_field_degree=len(minpoly) - 1)


def _subfield(degree, minpoly, sub_minpoly):
    return Spec("subfield", degree, minpoly, sub_minpoly, len(sub_minpoly) - 1)


# The reasons for each workload are recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # verify_identity and the RatFunc gcd dominate; m(alpha, x) is
        # linear, so no factoring
        Workload(
            "plane2",
            tuple(_defined(d, X2_PLUS_1) for d in (14, 15, 16, 17, 18, 16)),
            1.3,
        ),
        # a class of size 4 (relative degree 20); twisted instances prove
        # "empty" in the modular fold beside the defined ones' root lifting
        Workload(
            "tower5",
            (
                _defined(6, X5_MINUS_2),
                _defined(7, X5_MINUS_2),
                _defined(6, X5_MINUS_2),
                _twisted(7, X5_MINUS_2),
            ),
            3.2,
        ),
        # Trager factoring into classes of size 1, 2, 2; the only negatives,
        # with minimum fields of degree 6, 2 and 3
        Workload(
            "sextic_mixed",
            (
                _defined(6, X6_MINUS_2),
                _twisted(6, X6_MINUS_2),
                _subfield(6, X6_MINUS_2, X2_MINUS_2),
                _subfield(6, X6_MINUS_2, X3_MINUS_2),
            ),
            4.2,
        ),
    )
}


def embed_subfield(doc, minpoly):
    """Rewrite an instance over Q(b) into Q(a) through b -> a^(n/m).

    `doc` is an instance document over Q(b) with minpoly x^m - c, and
    `minpoly` is the coefficient tuple of x^n - c with m dividing n, so
    a^(n/m) is a root of b's minpoly.  Each coordinate vector
    (v_0, ..., v_(m-1)) over 1, b, ..., b^(m-1) becomes the length-n vector
    with v_k at position k * n/m.  Works on the JSON structure only.
    """
    sub = [int(s) for s in doc["field"]["minpoly"]]
    m = len(sub) - 1
    n = len(minpoly) - 1
    if n % m or sub != [minpoly[0]] + [0] * (m - 1) + [1]:
        raise ValueError(f"no embedding b -> a^(n/m) from {sub} into {list(minpoly)}")
    step = n // m

    def vector(v):
        out = ["0"] * n
        for k, c in enumerate(v):
            out[k * step] = c
        return out

    def poly(p):
        return [vector(v) for v in p]

    return {
        "field": {
            "generator": doc["field"]["generator"],
            "minpoly": [str(c) for c in minpoly],
        },
        "parametrization": [
            {"num": poly(comp["num"]), "den": poly(comp["den"])}
            for comp in doc["parametrization"]
        ],
    }


def _generate(spec, seed):
    if spec.kind == "subfield":
        doc = gen_instance(
            "twisted", spec.degree, minpoly=UniPoly(QQ, list(spec.sub_minpoly)), seed=seed
        )
        return embed_subfield(doc, spec.minpoly)
    return gen_instance(
        spec.kind, spec.degree, minpoly=UniPoly(QQ, list(spec.minpoly)), seed=seed
    )


def block_count(workload, seconds):
    """Blocks in the instance set, so that generating and deciding it takes
    about `seconds` on the reference host."""
    return max(1, round(seconds / workload.block_s))


def _jobs(workload, seed, blocks):
    """(spec, seed string) for every instance of the set, in order."""
    return [
        (spec, f"{seed}.{b}.{slot}")
        for b in range(blocks)
        for slot, spec in enumerate(workload.block)
    ]


def _shard(jobs, shard):
    """The contiguous share of `jobs` that worker `shard` generates."""
    n = len(jobs)
    return jobs[shard * n // GEN_WORKERS : (shard + 1) * n // GEN_WORKERS]


def instance_set(workload, seed, blocks, env, timeout):
    """The run's instances: a list of dicts with the JSON `text`, the
    instance `kind` and `degree`, and the expected `min_field_degree`.

    Generation is untimed and runs in GEN_WORKERS child interpreters (this
    file run as a script, with `env`), each of which is ended and waited
    for before this returns, also when generation fails or exceeds
    `timeout` seconds (then RuntimeError).
    """
    jobs = _jobs(workload, seed, blocks)
    deadline = time.monotonic() + timeout
    procs = []
    try:
        for shard in range(GEN_WORKERS):
            cmd = [sys.executable, os.path.abspath(__file__), workload.name]
            cmd += [str(seed), str(blocks), str(shard)]
            procs.append(
                subprocess.Popen(
                    cmd,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
            )
        docs = []
        for proc in procs:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                out, err = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise RuntimeError("instance generation exceeded the time limit") from None
            if proc.returncode != 0:
                raise RuntimeError(f"instance generation exited with {proc.returncode}:\n{err}")
            docs.extend(json.loads(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
    if len(docs) != len(jobs):
        raise RuntimeError(f"generated {len(docs)} instances, expected {len(jobs)}")
    return [
        {
            "kind": spec.kind,
            "degree": spec.degree,
            "min_field_degree": spec.min_field_degree,
            "text": json.dumps(doc),
        }
        for (spec, _), doc in zip(jobs, docs)
    ]


if __name__ == "__main__":
    # python3 workloads.py WORKLOAD SEED BLOCKS SHARD: print the shard's
    # instance documents as one JSON list
    name, seed, blocks, shard = sys.argv[1:]
    share = _shard(_jobs(WORKLOADS[name], int(seed), int(blocks)), int(shard))
    json.dump([_generate(spec, s) for spec, s in share], sys.stdout)
