"""One digest line per classify-batch input, and per spec of a fixed list
of its own, to check that a change keeps the classifier's output.

Builds the inputs of the benchmark's classify-batch workload for seeds
1-3 and runs each as that workload does (``bench/workloads.py`` and
``bench/worker.py``, used as they are), on the ``src/`` next to this
script, and prints

    <seed> <index> <kind> <case> <report> <system> <omegas> <reduced>

where the last four are short hashes of the classification report, the
canonical determining system's report (both as sorted-key JSON), the bytes
of every array and flag of the numeric omegas, and the report of the
reduced system the canonical one is written from (``reduce_ansatz``, as
sorted-key JSON).  The benchmark draws nothing for C6-C8, so a second
list, EXTRA_SPECS, adds numeric-omega specs it does not reach, each
printed the same way with the seed ``extra`` and the spec's name as its
kind.  Last come the specs of the built-in scenarios (``ndelie
paper-suite``), with the seed ``scenario`` and the scenario's name as its
kind.  Run it in two checkouts and diff the outputs:

    python3 tools/report_digest.py > before.txt    # in the parent
    python3 tools/report_digest.py > after.txt     # in the change
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def extra_specs(nd):
    """(name, spec) of the numeric-omega classes, beside the benchmark's
    inputs: C8 with d = t and d = t^3, C6-C8 with other k, r and t0, C5
    with a d read from a table and with an omega that overflows at its
    first node, and C3 with other k, one of them with an omega that
    crosses zero."""
    make = nd.equation.NdeSpec.make
    grid = [-4.0 + 0.05 * i for i in range(241)]
    table = nd.equation.CoeffDescriptor.from_table(
        grid, [2.0 + math.sin(t) / 4 for t in grid])
    return [
        ("C8-t", make(c="t", d="t", k=1, r=1.0, t0=0.5)),
        ("C8-t3", make(c="t^3", d="t^3", k=1, r=1.0, t0=0.5)),
        ("C6-k2", make(c="exp(t)/2", d="exp(t)", k=2, r=0.5, t0=0.25)),
        ("C7-k3/2", make(c="sin(t)", d="sin(t)", k=Fraction(3, 2), r=0.75,
                         t0=-0.5)),
        ("C8-k1/2", make(c="2*t^2", d="t^2", k=Fraction(1, 2), r=1.5,
                         t0=1.0)),
        ("C5-table", make(c=1, d=table, k=Fraction(3, 4), r=1.0)),
        ("C5-one-node", make(c=1, d="2 + sin(t)", k=Fraction(1, 10 ** 300),
                             r=1.0)),
        ("C3-k5/2", make(b=Fraction(3, 2), c=1, k=Fraction(5, 2), r=1.0)),
        ("C3-k1/3", make(b="2 + t/4", c=1, k=Fraction(1, 3), r=0.5,
                         t0=0.5)),
        ("C3-cross", make(b="1/(1 - t)", c=1, k=2, r=1.0)),
    ]


def _json_hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _omega_hash(result) -> str:
    h = hashlib.sha256()
    for gen in result.generators:
        sol = gen.omega_numeric
        if sol is None:
            continue
        for arr in (sol.ts, sol.w, sol.w1, sol.w2, sol.w3, sol.conserved):
            h.update(b"-" if arr is None else arr.tobytes())
        h.update(b"T" if sol.truncated else b"F")
    return h.hexdigest()[:16]


def inputs(nd):
    """(seed, index, kind, spec) of every input, in the order printed: the
    classify-batch inputs of SEEDS, extra_specs, then the scenarios."""
    runs = [(seed, i, item.expected["kind"], item.payload["spec"])
            for seed in SEEDS
            for i, item in enumerate(
                workloads.classify_inputs(seed, nd, "full")[0])]
    runs += [("extra", i, name, spec)
             for i, (name, spec) in enumerate(extra_specs(nd))]
    runs += [("scenario", i, sc.name, sc.spec)
             for i, sc in enumerate(nd.suite.build_scenarios())]
    return runs


def main():
    nd = worker.load_package()
    for seed, i, kind, spec in inputs(nd):
        system, result = workloads.run_classify(nd, {"spec": spec})
        reduced = nd.detsys.reduce_ansatz(nd.detsys.determine(spec))
        print(seed, i, kind, result.case_id, _json_hash(result.to_json()),
              _json_hash(system.to_report()), _omega_hash(result),
              _json_hash(reduced.to_report()))


if __name__ == "__main__":
    main()
