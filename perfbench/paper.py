"""Reproduced headline numbers and their distance from the paper.

`headline(workload, runs)` reduces the run documents of one workload's
stats log to the numbers the paper's figure reports, computed the way
the figure benches (bench/fig08_cilk.cc, fig09_ustm_throughput.cc,
fig10_ustm_breakdown.cc, fig11_stamp.cc) compute their averages.
`error_pp` is the mean absolute difference, in percentage points, from
the paper's values in paper_reference.json.
"""

import json
import os
import statistics

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "paper_reference.json")
DESIGNS = ("S+", "WS+", "W+", "Wee")


def reference():
    with open(REFERENCE) as f:
        return json.load(f)


def _by_app(runs):
    apps = {}
    for r in runs:
        apps.setdefault(r["workload"], {})[r["design"]] = r
    for name, designs in apps.items():
        if set(designs) != set(DESIGNS):
            raise ValueError(f"{name}: designs {sorted(designs)}, "
                             f"expected {list(DESIGNS)}")
    return apps


def _active(r):
    b = r["breakdown"]
    return b["busy"] + b["fenceStall"] + b["otherStall"]


def _fence_pct(r):
    a = _active(r)
    return 100.0 * r["breakdown"]["fenceStall"] / a if a else 0.0


def _mean_ratio(apps, design, value):
    """Mean over apps of value(design run) / value(S+ run)."""
    ratios = []
    for designs in apps.values():
        base = value(designs["S+"])
        ratios.append(value(designs[design]) / base if base else 0.0)
    return statistics.mean(ratios)


def headline(workload, runs):
    apps = _by_app(runs)
    out = {"splus_fence_stall_pct": statistics.mean(
        _fence_pct(d["S+"]) for d in apps.values())}
    for d in DESIGNS[1:]:
        if workload == "ustm":
            tput = _mean_ratio(
                apps, d, lambda r: r["metrics"]["commits"] / r["cycles"])
            cpt = _mean_ratio(
                apps, d, lambda r: (_active(r) / r["metrics"]["commits"]
                                    if r["metrics"]["commits"] else 0.0))
            out[f"throughput_gain_pct.{d}"] = 100.0 * (tput - 1.0)
            out[f"per_txn_cycles_change_pct.{d}"] = 100.0 * (cpt - 1.0)
        else:
            norm = _mean_ratio(apps, d, lambda r: r["cycles"])
            out[f"time_reduction_pct.{d}"] = 100.0 * (1.0 - norm)
    return out


def error_pp(workload, numbers):
    values = reference()["workloads"][workload]["values"]
    return statistics.mean(abs(numbers[v["metric"]] - v["paper"])
                           for v in values)
