#!/usr/bin/env python3
"""Measure how steady the end-to-end metrics are.

    python3 perfbench/steadiness.py [--out perfbench/steadiness.json]

Runs `run.py --trace 0` ten times per workload of BENCHMARK.json in each
of two sets, each run with its own seed (set s, run i uses seed
1000*s + i), with
BENCHMARK.json's run_seconds. For every metric it records the median
and quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) as a
share of the median, and the bound from BENCHMARK.json. `drift` is how
much worse the last set's median is than the first's, as a share of
the first (negative = better).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(HERE, "steadiness.json"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "runs": RUNS,
              "workloads": {}}
    provenance = None
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            values = {}
            for i in range(RUNS):
                seed = 1000 * (s + 1) + i
                p = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
                lines = p.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                provenance = json.loads(lines[-2])["provenance"]
                for key in ("workload", "seed", "trace"):
                    provenance.pop(key)
                if not result["correct"]:
                    sys.exit(f"{workload} seed {seed}: incorrect result")
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(workload, s, seed, {k: round(v[-1], 6)
                                          for k, v in values.items()},
                      flush=True)
            sets.append({k: summarize(v) for k, v in values.items()})
        entry = {}
        for name, m in metrics.items():
            first, last = sets[0][name]["median"], sets[-1][name]["median"]
            worse = (last - first) if m["better"] == "lower" else (first - last)
            entry[name] = {
                "bound": m["bound"],
                "sets": [st[name] for st in sets],
                "drift": worse / first if first else 0.0,
            }
        report["workloads"][workload] = entry
    report["provenance"] = provenance
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for workload, entry in report["workloads"].items():
        for name, e in entry.items():
            spreads = " ".join(f"{st['spread']:.4f}" for st in e["sets"])
            print(f"{workload:9s} {name:13s} bound {e['bound']:.2f} "
                  f"spread {spreads} drift {e['drift']:+.4f}")


if __name__ == "__main__":
    main()
