"""Repeat the benchmark over seeds and summarise the runs, for a baseline or
a before/after record.

    python3 bench/collect.py run --raw .bench_out/raw.json [--seeds 1-10]
    python3 bench/collect.py summarize --raw .bench_out/raw.json \\
        --out bench/baseline.json

``run`` makes one untraced run per seed and one traced run (first seed) for
every workload in ``BENCHMARK.json``, one after another, and stores each
run's two output lines.  ``summarize`` gives, per workload and end-to-end
metric, the median, the quartiles and their distance as a share of the
median (``statistics.quantiles(values, n=4)``), the traced run's per-layer
metrics, and inclusive span times read from its span file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_all(raw_path, seeds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    data = {}
    for wl in (w["name"] for w in spec["workloads"]):
        runs = data.setdefault(wl, [])
        for trace, group in ((0, seeds), (1, seeds[:1])):
            for seed in group:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", wl,
                     "--seed", str(seed), "--seconds",
                     str(spec["run_seconds"]), "--trace", str(trace)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
                if proc.returncode != 0:
                    raise SystemExit(f"{wl} seed {seed} trace {trace}: exit "
                                     f"{proc.returncode}")
                lines = proc.stdout.strip().splitlines()
                runs.append({"seed": seed, "trace": trace,
                             "detail": json.loads(lines[-2]),
                             "result": json.loads(lines[-1])})
                print(wl, seed, trace, runs[-1]["result"]["correct"],
                      flush=True)
                Path(raw_path).write_text(json.dumps(data))


def quartiles(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def span_times(path):
    """Per item: inclusive seconds per span name, and self seconds."""
    with np.load(ROOT / path) as z:
        z = dict(z)
    names = [str(n) for n in z["names"]]
    ids, parent, item, kind = z["id"], z["parent"], z["item"], z["name"]
    dur = z["end"] - z["start"]
    child = np.zeros(len(ids))
    pos = {int(s): k for k, s in enumerate(ids)}
    for k, p in enumerate(parent):
        if p >= 0 and int(p) in pos:
            child[pos[int(p)]] += dur[k]
    out = {}
    for k in range(len(ids)):
        rec = out.setdefault(int(item[k]), {})
        name = names[int(kind[k])]
        incl, own = rec.get(name, (0.0, 0.0))
        rec[name] = (incl + dur[k], own + dur[k] - child[k])
    return out, int(z["dropped"])


def item_labels(workload, seed, count):
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    from types import SimpleNamespace

    import workloads

    nd = SimpleNamespace(**{m: importlib.import_module(f"ndelie.{m}")
                            for m in ("symexpr", "equation", "classify",
                                      "detsys", "ndesolve", "suite")})
    items, _, _ = workloads.WORKLOADS[workload][0](seed, nd, "full")
    return [it.expected.get("name") or it.expected["kind"]
            for it in (items[i % len(items)] for i in range(count))]


def summarize(raw_path, out_path):
    data = json.loads(Path(raw_path).read_text())
    summary = {"workloads": {}}
    for wl, runs in data.items():
        plain = [r for r in runs if r["trace"] == 0]
        traced = [r for r in runs if r["trace"] == 1]
        names = plain[0]["result"]["metrics"].keys()
        entry = {
            "seeds": [r["seed"] for r in plain],
            "end_to_end": {
                n: {"unit": plain[0]["result"]["metrics"][n]["unit"],
                    **quartiles([r["result"]["metrics"][n]["value"]
                                 for r in plain]),
                    "values": [r["result"]["metrics"][n]["value"]
                               for r in plain]}
                for n in names},
            # the timings as the wall clock read them, before the host-speed
            # correction (pace.py)
            "wall": {
                n: quartiles([r["detail"]["wall"][n] for r in plain])
                for n in plain[0]["detail"]["wall"]},
            "probe_s": quartiles([r["detail"]["probe"]["median_s"]
                                  for r in plain]),
            "items_per_run": [r["detail"]["items"] for r in plain],
            "tail_percentile": [r["detail"]["item_tail_percentile"]
                                for r in plain],
            "fail_ratio": [r["detail"]["fail_ratio"] for r in plain],
            "margins_dec": {
                k: statistics.median(r["detail"]["margins_dec"][k]
                                     for r in plain)
                for k in plain[0]["detail"]["margins_dec"]},
            "cpu_share": [round(r["detail"]["cpu_share"], 3)
                          for r in plain],
            "correct": all(r["result"]["correct"] for r in runs),
        }
        if wl == "paper-suite":
            # one pass per run: the serial suite time, by the wall clock
            entry["pass_s"] = quartiles(
                [r["detail"]["items"] / r["detail"]["wall"]["items_per_s"]
                 for r in plain])
        summary.setdefault("env", plain[0]["detail"]["env"])
        if traced:
            t = traced[0]
            metrics = t["result"]["metrics"]
            entry["traced"] = {
                "seed": t["seed"], "items": t["detail"]["items"],
                "per_layer": {n: v["value"] for n, v in metrics.items()},
                # both by the wall clock: the traced run has no probe
                "overhead": (entry["wall"]["items_per_s"]["median"]
                             / metrics["traced.items_per_s"]["value"]),
                # the traced self times summed, against the untraced time
                # per item
                "self_s_per_item": sum(v["value"] for n, v in metrics.items()
                                       if n.endswith(".self_s")),
                "untraced_s_per_item": 1 / entry["wall"]["items_per_s"][
                    "median"],
            }
            spans, dropped = span_times(t["detail"]["spans"])
            labels = item_labels(wl, t["seed"], t["detail"]["items"])
            entry["traced"]["spans_dropped"] = dropped
            entry["traced"]["by_item"] = by_item(wl, spans, labels)
        summary["workloads"][wl] = entry
    Path(out_path).write_text(json.dumps(summary, indent=1, sort_keys=True)
                              + "\n")


def by_item(wl, spans, labels):
    """The per-item figures ROADMAP "Recent" quotes, from the span file."""
    if wl == "paper-suite":
        out = {}
        for i, label in enumerate(labels):
            if i not in spans:  # spans past the cap were not kept
                continue
            rec = spans[i]
            item_s = rec["suite.run_scenario"][0]
            out[label] = {
                "item_s": item_s,
                "classify_s": rec.get("classify.classify", (0.0, 0.0))[0],
                "flowverify_self_share": sum(
                    own for n, (_, own) in rec.items()
                    if n.startswith("flowverify.")) / item_s,
                "prolonged_flow_self_share": rec.get(
                    "flowverify.prolonged_flow", (0.0, 0.0))[1] / item_s,
            }
        return out
    per_kind = {}
    for i, label in enumerate(labels):
        if i not in spans:
            continue
        rec = spans[i]
        if wl == "classify-batch":
            value = sum(rec.get(n, (0.0, 0.0))[0]
                        for n in ("detsys.determine", "detsys.reduce"))
            key = "determine_reduce_canonical_s"
        else:
            value = rec.get("ndesolve.integrate", (0.0, 0.0))[0]
            key = "integrate_s"
        per_kind.setdefault(label, []).append(value)
    return {label: {key: statistics.median(v)}
            for label, v in sorted(per_kind.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--raw", required=True)
    p_run.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p_sum = sub.add_parser("summarize")
    p_sum.add_argument("--raw", required=True)
    p_sum.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if args.cmd == "run":
        run_all(args.raw, args.seeds)
    else:
        summarize(args.raw, args.out)


if __name__ == "__main__":
    main()
