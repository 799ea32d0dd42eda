"""One workload in one fresh process: import the package from ``src/``,
generate the seeded inputs, run the items back to back until the time is up
(closed loop, one caller), check every output, and print one JSON line.

Started by ``run.py``, which pins the BLAS/OpenMP thread variables to 1 and
turns the line into metrics.  An untraced run also times the host-speed
probe of ``pace.py`` and reports each latency corrected by it (``paced``).
With ``--setup-only`` it stops after the inputs are built and prints only
the set-up time.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from before any import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODULES = ("symexpr", "prolong", "equation", "detsys", "classify",
           "ndesolve", "flowverify", "suite")


def load_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ndelie

    if Path(ndelie.__file__).resolve().parent != src / "ndelie":
        raise SystemExit(f"imported ndelie from {ndelie.__file__}, not from "
                         f"{src}")
    return SimpleNamespace(**{m: importlib.import_module(f"ndelie.{m}")
                              for m in MODULES})


def run_loop(items, block, run_item, check, reference, nd, seconds, tracer,
             pacer):
    """Items back to back, cycling through the list, in whole blocks of
    `block` items: the run ends at the block boundary nearest to `seconds`,
    after one block at least.  Checks run between items and are not part of
    an item's latency; neither is the time the pacer's probe takes."""
    lat, spans, errors = [], [], []
    margins = {}
    cpu = failed = 0
    seen, repeats = set(), 0
    start = time.perf_counter()
    i = 0
    while True:
        if i and i % block == 0:
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / (i // block) / 2 >= seconds:
                break
        item = items[i % len(items)]
        repeats += item.key in seen
        seen.add(item.key)
        if tracer is not None:
            tracer.item, tracer.paused = i, False
        probe_s = pacer.spent if pacer else 0.0
        t, c = time.perf_counter(), time.process_time()
        try:
            out, exc = run_item(nd, item.payload), None
        except Exception as err:  # counted as a failed item
            out, exc = None, err
        t1, c1 = time.perf_counter(), time.process_time()
        probe_s = (pacer.spent if pacer else 0.0) - probe_s
        lat.append(t1 - t - probe_s)
        spans.append((t, t1))
        cpu += c1 - c - probe_s
        if tracer is not None:
            tracer.paused = True
        if exc is None:
            try:
                ok, item_margins, note = check(item, out, reference)
            except Exception as err:  # a check that cannot run fails
                ok, item_margins, note = False, {}, f"check raised {err!r}"
        else:
            ok, item_margins, note = False, {}, f"raised {exc!r}"
        for kind, value in item_margins.items():
            margins[kind] = min(value, margins.get(kind, value))
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(f"item {i}: {note}")
        i += 1
    return {"latencies": lat, "spans": spans, "block": block, "cpu_s": cpu,
            "margins": margins,
            "failed": failed, "errors": errors,
            "repeat_share": repeats / len(lat)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    import workloads

    nd = load_package()
    make_inputs, run_item, check = workloads.WORKLOADS[args.workload]
    items, described, block = make_inputs(args.seed, nd, args.size)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    reference = None
    if args.workload == "paper-suite":
        reference = json.loads((BENCH / "suite_reference.json").read_text())
    tracer = pacer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(nd)
    else:
        from pace import Pacer

        pacer = Pacer()
        pacer.start()
    try:
        res = run_loop(items, block, run_item, check, reference, nd,
                       args.seconds, tracer, pacer)
    finally:
        if pacer is not None:
            pacer.stop()
    spans = res.pop("spans")
    if pacer is not None:
        # latencies at the probe speed of a quiet host; see pace.py
        res["paced"] = [x * k for x, k in zip(res["latencies"],
                                              pacer.scale(spans))]
        res["probe_s"] = statistics.median(pacer.took)
        res["probe_samples"] = len(pacer.took)
    res.update({
        "setup_s": setup_s,
        "input_digest": workloads.digest(described),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0],
                     "numpy": metadata.version("numpy"),
                     "scipy": metadata.version("scipy")},
    })
    if tracer is not None:
        tracer.uninstall()
        res["trace"] = tracer.totals()
        res["trace_self_s"] = tracer.self_total()
        res["spans_dropped"] = tracer.dropped
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
