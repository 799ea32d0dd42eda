"""Smoke test of the benchmark at a tiny input size.

    python3 bench/smoke.py

For every workload, in both modes, it checks that the result line names
every metric ``BENCHMARK.json`` lists, with the same unit and a finite value,
that the outputs were checked and correct, and that an untraced run timed
the host-speed probe.  It checks that one seed gives identical inputs twice
and another seed different ones, and that the benchmark fails without
printing a result when only ``BENCHMARK.json`` and the benchmark's own files
are present.  Exits non-zero on the first failure.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)


def result(workload, seed, trace):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds",
               "0.1", "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(label, res, declared):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, label
    assert res["correct"] is True and res["failed"] == 0, (label, res)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, label
    got = res["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    assert set(got) == set(want), (label, set(got) ^ set(want))
    for name, entry in got.items():
        assert set(entry) == {"value", "unit"}, (label, name)
        assert entry["unit"] == want[name], (label, name, entry["unit"])
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (label, name, value)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in spec["workloads"]:
        name = wl["name"]
        detail0, res0 = result(name, 7, 0)
        check_metrics(f"{name} trace=0", res0, spec["end_to_end"])
        detail1, res1 = result(name, 7, 1)
        check_metrics(f"{name} trace=1", res1, spec["per_layer"])
        assert detail0["probe"]["samples"] > 0, name
        assert detail0["input_digest"] == detail1["input_digest"], name
        detail2, _ = result(name, 8, 0)
        assert detail2["input_digest"] != detail0["input_digest"], name
        print(f"ok  {name}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), \
            "ran without the package sources"
    finally:
        shutil.rmtree(bare)
    print("ok  fails without the package sources")


if __name__ == "__main__":
    main()
