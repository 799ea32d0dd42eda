"""One digest line per classify-batch input, to check that a change keeps
the classifier's output.

Builds the inputs of the benchmark's classify-batch workload for seeds
1-3 and runs each as that workload does (``bench/workloads.py`` and
``bench/worker.py``, used as they are), on the ``src/`` next to this
script, and prints

    <seed> <index> <kind> <case> <report> <system> <omegas>

where the last three are short hashes of the classification report, the
determining system's report (both as sorted-key JSON), and the bytes of
every array and flag of the numeric omegas.  Run it in two checkouts and
diff the outputs:

    python3 tools/report_digest.py > before.txt    # in the parent
    python3 tools/report_digest.py > after.txt     # in the change
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import worker  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


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


def main():
    nd = worker.load_package()
    for seed in SEEDS:
        items, _, _ = workloads.classify_inputs(seed, nd, "full")
        for i, item in enumerate(items):
            system, result = workloads.run_classify(nd, item.payload)
            print(seed, i, item.expected["kind"], result.case_id,
                  _json_hash(result.to_json()),
                  _json_hash(system.to_report()), _omega_hash(result))


if __name__ == "__main__":
    main()
