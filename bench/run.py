"""Benchmark for ndelie: one seeded workload per run, in a fresh
single-threaded process, with every output checked.

    python3 bench/run.py --workload paper-suite --seed 1 --seconds 30 --trace 0

The workloads, metrics and checks are described in ``README.md`` next to
this file and listed in ``BENCHMARK.json`` at the repository root.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` the package is wrapped by ``tracing.py`` and the line
carries the per-layer metrics, per item.  The line before it records the
environment and the details behind the metrics.  Set-up time is the median
over the measured process and ``SETUP_PROBES`` more processes that only set
up.  Spans of a traced run go to ``.bench_out/`` in the checkout.

Exits non-zero, printing no result, if the package sources are missing or a
child process fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper-suite", "classify-batch", "long-integrate")
SETUP_PROBES = 6
# every child process, the measured one and the set-up probes, ends within
# this many seconds of the start, or the run fails
BUDGET_S = 170
# the child processes run single-threaded; nothing outside them changes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("ok_ratio", "ratio"),
    ("margin_dec", "dec"),
    ("peak_rss_mb", "MB"),
)

_SELF = "s/item"
_COUNT = "count/item"
PER_LAYER = (
    ("flowverify.prolonged_flow.self_s", _SELF),
    ("flowverify.prolonged_flow.jet_substeps", _COUNT),
    ("flowverify.prolonged_flow.domain_exits", _COUNT),
    ("flowverify.flow.self_s", _SELF),
    ("flowverify.flow.jet_substeps", _COUNT),
    ("flowverify.flow.domain_exits", _COUNT),
    ("flowverify.transform_solution.self_s", _SELF),
    ("flowverify.finite_check.self_s", _SELF),
    ("flowverify.infinitesimal_check.self_s", _SELF),
    ("flowverify.identity_error.self_s", _SELF),
    ("flowverify.inverse_error.self_s", _SELF),
    ("flowverify.closure_error.self_s", _SELF),
    ("symexpr.normalize.calls", _COUNT),
    ("symexpr.normalize.self_s", _SELF),
    ("detsys.determine.self_s", _SELF),
    ("detsys.reduce.self_s", _SELF),
    ("detsys.is_zero.calls", _COUNT),
    ("detsys.is_zero.sampled", _COUNT),
    ("detsys.is_zero.skipped_points", _COUNT),
    ("prolong.apply_operator.self_s", _SELF),
    ("classify.classify.self_s", _SELF),
    ("classify.omega_ode_solve.calls", _COUNT),
    ("classify.omega_ode_solve.self_s", _SELF),
    ("classify.compatibility_c.self_s", _SELF),
    ("ndesolve.integrate.self_s", _SELF),
    ("ndesolve.integrate.steps", _COUNT),
    ("ndesolve.integrate.rhs_evals", _COUNT),
    ("ndesolve.residual.self_s", _SELF),
    ("symexpr.compile_numeric.compiled", _COUNT),
    ("symexpr.numeric_evals", _COUNT),
    ("equation.coeff_evals", _COUNT),
    ("suite.run_scenario.self_s", _SELF),
    ("traced.items_per_s", "1/s"),
    ("traced.self_share", "ratio"),
    ("inputs.repeat_share", "ratio"),
)


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than 21 samples, where that
    percentile would fall below the median."""
    srt = sorted(latencies)
    n = len(srt)
    if n < 21:
        return srt[-1], 100
    return srt[n - 11], math.floor(100 * (n - 10) / n)


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline):
    """Run worker.py with args; its last output line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
        env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {args} printed nothing")
    return json.loads(lines[-1])


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def throughput(lat, block):
    """Items per second of item time, as the median over the run's blocks
    (a block holds every kind once), so a few seconds of load from another
    tenant moves one block and not the result."""
    sums = [sum(lat[i:i + block]) for i in range(0, len(lat), block)]
    return block / statistics.median(sums)


def timings(lat, block):
    return {"items_per_s": throughput(lat, block),
            "item_p50_s": statistics.median(lat),
            "item_tail_s": tail(lat)[0]}


def end_to_end(res, setup_s):
    """The timings come from the latencies corrected for the host's speed
    (pace.py); the detail line keeps the wall-clock ones."""
    lat = res["latencies"]
    attempted = len(lat)
    return {
        "setup_s": setup_s,
        **timings(res["paced"], res["block"]),
        "ok_ratio": (attempted - res["failed"]) / attempted,
        "margin_dec": min(res["margins"].values()),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res):
    lat = res["latencies"]
    n = len(lat)
    totals = res["trace"]
    out = {name: totals.get(name, 0) / n for name, _ in PER_LAYER
           if not name.startswith(("traced.", "inputs."))}
    out["traced.items_per_s"] = throughput(lat, res["block"])
    out["traced.self_share"] = res["trace_self_s"] / sum(lat)
    out["inputs.repeat_share"] = res["repeat_share"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "ndelie" / "__init__.py").is_file():
        print(f"run.py: no package sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    worker_args = [*common, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
    spans = None
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.npz"
        worker_args += ["--spans-out", str(spans)]
    try:
        res = run_child(worker_args, deadline)
        setups = [res["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_child([*common, "--setup-only"],
                                        deadline)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    if not res["margins"]:
        print("run.py: no item produced an accuracy margin", file=sys.stderr)
        return 1

    lat = res["latencies"]
    _, tail_pct = tail(lat)
    attempted, failed = len(lat), res["failed"]
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "items": attempted, "item_tail_percentile": tail_pct,
        "fail_ratio": failed / attempted, "errors": res["errors"],
        "margins_dec": res["margins"],
        # below 1 when the box was busy: the share of item wall time this
        # process spent on a core
        "cpu_share": res["cpu_s"] / sum(lat),
        "input_digest": res["input_digest"],
        "repeat_share": res["repeat_share"],
        "setup_samples_s": setups,
        "spans": str(spans.relative_to(ROOT)) if spans else None,
        "env": {"git_sha": git_sha(), **res["versions"],
                "nproc": os.cpu_count(),
                "threads": "BLAS/OpenMP thread variables pinned to 1 in "
                           "the benchmark's child processes",
                "note": f"shared {os.cpu_count()}-core box; load from "
                        "other tenants is not controlled"},
    }
    if args.trace:
        detail["spans_dropped"] = res["spans_dropped"]
        values, units = per_layer(res), dict(PER_LAYER)
    else:
        detail["wall"] = timings(lat, res["block"])
        detail["probe"] = {"median_s": res["probe_s"],
                           "samples": res["probe_samples"]}
        values, units = end_to_end(res, statistics.median(setups)), \
            dict(END_TO_END)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
