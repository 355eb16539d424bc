"""Run the benchmark over ten seeds per workload and record the run-set spread.

From the repository root:

    python3 bench/spread.py

Runs ``bench/run.py --trace 0`` once per seed (1 .. RUNS) for each workload,
one run at a time, with the ``run_seconds`` of BENCHMARK.json, then one
``--trace 1`` run at seed 1.  For every end-to-end metric it prints the
median of the run values, their quartiles, and the spread (third minus
first quartile, as a share of the median) next to the metric's bound.

Every set is appended to ``baseline.json`` with its per-run values, its
summary, the traced run's per-layer values and the environment of its first
run, and the file's ``bounds`` table is made again over all recorded sets:
for each workload and metric, the spread of every set, the drift of the
set medians between the sets made with the newest set's harness and run
length, and whether the bound held in all of them.  A metric whose bound
did not hold is unresolved, not unchanged, when a later change is compared
on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE = BENCH_DIR / "baseline.json"
RUNS = 10


def summarize(values: list, bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "bound": bound}


def harness_digest() -> str:
    """sha256 prefix of the harness code, so sets of one harness group."""
    h = hashlib.sha256()
    for name in ("run.py", "workloads.py", "tracer.py", "digests.json"):
        h.update((BENCH_DIR / name).read_bytes())
    h.update((ROOT / "BENCHMARK.json").read_bytes())
    return h.hexdigest()[:16]


def bounds_table(sets: list, bounds: dict) -> dict:
    newest = sets[-1]
    same = [s for s in sets if s["harness"] == newest["harness"]
            and s["run_seconds"] == newest["run_seconds"]]
    table = {}
    for name in dict.fromkeys(n for s in sets for n in s["workloads"]):
        table[name] = {}
        for metric, bound in bounds.items():
            spreads = [s["workloads"][name]["summary"][metric]["spread"]
                       for s in sets if name in s["workloads"]]
            medians = [s["workloads"][name]["summary"][metric]["median"]
                       for s in same if name in s["workloads"]]
            drift = (max(medians) - min(medians)) / min(medians) \
                if len(medians) > 1 else None
            table[name][metric] = {
                "bound": bound, "spreads": spreads,
                "median_drift": drift, "sets_for_drift": len(medians),
                "holds": max(spreads) <= bound
                and (drift is None or drift <= bound)}
    return table


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"harness": harness_digest(), "run_seconds": spec["run_seconds"],
              "workloads": {}}

    def bench(name, seed, trace):
        proc = subprocess.run(
            [*spec["command"], "--workload", name, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} seed {seed}: exit {proc.returncode}\n"
                               f"{proc.stderr}")
        record.setdefault("environment",
                          json.loads(lines[0])["environment"])
        return [json.loads(line) for line in lines[1:]]

    for name in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(1, RUNS + 1):
            result = bench(name, seed, 0)[-1]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        summary = {metric: summarize([r[metric] for r in runs], bound)
                   for metric, bound in bounds.items()}
        for metric, s in summary.items():
            print(f"  {metric:14s} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}  bound {s['bound']}", flush=True)
        trace_info, traced = bench(name, 1, 1)
        print(f"  traced: {trace_info}", flush=True)
        record["workloads"][name] = {
            "runs": runs, "summary": summary,
            "traced": {**trace_info, "correct": traced["correct"],
                       "metrics": {k: v["value"]
                                   for k, v in traced["metrics"].items()}}}

    baseline = json.loads(BASELINE.read_text())
    baseline["sets"].append(record)
    baseline["bounds"] = bounds_table(baseline["sets"], bounds)
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    for name, metrics in baseline["bounds"].items():
        print(name, " ".join(f"{m}={'holds' if v['holds'] else 'UNRESOLVED'}"
                             for m, v in metrics.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
