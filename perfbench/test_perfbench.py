#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py          # all (builds perfbench)
    python3 perfbench/test_perfbench.py PaperError   # no build needed

PaperError recomputes paper_err_pp from fixed stats logs: a hand-made
one whose answer is worked out below, and trimmed logs of every
workload (testdata/) whose values are pinned. SeedIdentity runs each
workload's job list under two seeds and requires identical per-job
documents in a different job order, which catches per-run state that
leaks from one job into the next, and the same probed steps (summing
to the repetition's wall_s).
"""

import json
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import paper  # noqa: E402
import run  # noqa: E402


def fake_run(app, design, cycles, busy, fence, other, commits=0):
    return {"workload": app, "design": design, "cores": 8, "cycles": cycles,
            "valid": True, "metrics": {"commits": commits},
            "breakdown": {"busy": busy, "fenceStall": fence,
                          "otherStall": other, "idle": 0}}


class PaperError(unittest.TestCase):
    def test_completion_figures(self):
        # A: S+ fence share 25%, time 0.9/0.8/1.0 of S+.
        # B: S+ fence share 10%, time 0.9/1.0/0.8 of S+.
        runs = [
            fake_run("A", "S+", 1000, 50, 25, 25),
            fake_run("A", "WS+", 900, 1, 0, 0),
            fake_run("A", "W+", 800, 1, 0, 0),
            fake_run("A", "Wee", 1000, 1, 0, 0),
            fake_run("B", "S+", 2000, 80, 10, 10),
            fake_run("B", "WS+", 1800, 1, 0, 0),
            fake_run("B", "W+", 2000, 1, 0, 0),
            fake_run("B", "Wee", 1600, 1, 0, 0),
        ]
        h = paper.headline("cilk", runs)
        self.assertAlmostEqual(h["splus_fence_stall_pct"], 17.5)
        for d in ("WS+", "W+", "Wee"):
            self.assertAlmostEqual(h[f"time_reduction_pct.{d}"], 10.0)
        # |17.5 - 13| and three |10 - 9|, averaged.
        self.assertAlmostEqual(paper.error_pp("cilk", h), 7.5 / 4)
        # Fig. 11 reads 13 / 7 / 19 / 11.
        self.assertAlmostEqual(paper.error_pp("campaign", h),
                               (4.5 + 3 + 9 + 1) / 4)

    def test_throughput_figures(self):
        runs = [fake_run("A", d, 100_000, 400_000, f, 800_000 - 400_000 - f,
                         commits=c)
                for d, f, c in (("S+", 400_000, 100), ("WS+", 0, 150),
                                ("W+", 0, 160), ("Wee", 0, 110))]
        h = paper.headline("ustm", runs)
        self.assertAlmostEqual(h["splus_fence_stall_pct"], 50.0)
        self.assertAlmostEqual(h["throughput_gain_pct.WS+"], 50.0)
        self.assertAlmostEqual(h["throughput_gain_pct.W+"], 60.0)
        self.assertAlmostEqual(h["throughput_gain_pct.Wee"], 10.0)
        self.assertAlmostEqual(h["per_txn_cycles_change_pct.WS+"],
                               100 * (100 / 150 - 1))
        expected = (12 + 2 + 4 + 4 + abs(100 * (100 / 150 - 1) + 24) +
                    abs(100 * (100 / 160 - 1) + 35) +
                    abs(100 * (100 / 110 - 1) + 11)) / 7
        self.assertAlmostEqual(paper.error_pp("ustm", h), expected)

    def test_missing_design_is_an_error(self):
        with self.assertRaises(ValueError):
            paper.headline("cilk", [fake_run("A", "S+", 1, 1, 0, 0)])

    def test_fixed_logs(self):
        # Trimmed logs (run documents without `system`) of each workload,
        # recorded from the simulator at the commit that added them.
        pinned = {"cilk": 15.311320615876811,
                  "ustm": 24.30588911711658,
                  "campaign": 6.555525878162912}
        for workload, value in pinned.items():
            with open(os.path.join(HERE, "testdata", f"{workload}.json")) as f:
                runs = json.load(f)["runs"]
            err = paper.error_pp(workload, paper.headline(workload, runs))
            self.assertAlmostEqual(err, value, places=9, msg=workload)

    def test_reference_cites_every_value(self):
        ref = paper.reference()["workloads"]
        self.assertEqual(set(ref), set(run.WORKLOADS))
        for workload, entry in ref.items():
            self.assertTrue(entry["values"])
            for v in entry["values"]:
                self.assertRegex(v["cite"], r"^Figs?\. \d+: ")
        self.assertTrue(ref["campaign"]["held_out"])


class SeedIdentity(unittest.TestCase):
    def test_two_seeds_same_documents(self):
        run.build()
        for workload in run.WORKLOADS:
            seen = []
            for seed in (1, 2):
                rundir = os.path.join(run.RUNS, "test", f"{workload}-{seed}")
                rep = run.run_binary("run", workload, seed, rundir)
                _, failed, _, digests, runs = run.check_repetition(
                    workload, rep, rundir, rep["jobs"])
                shutil.rmtree(rundir, ignore_errors=True)
                self.assertEqual(failed, 0, workload)
                # One step per job; on campaign one per cold and per warm
                # job plus two submits and two merges. Together they are
                # the repetition's wall_s, and each lies between probes.
                steps = run.scaled_steps(rep)
                jobs = rep["jobs"]
                if workload == "campaign":
                    jobs = 2 * jobs + 4
                self.assertEqual(len(steps), jobs, workload)
                self.assertAlmostEqual(sum(st["s"] for st in rep["steps"]),
                                       rep["wall_s"], places=9, msg=workload)
                for st in rep["steps"]:
                    self.assertGreater(st["probe_before_s"], 0, workload)
                    self.assertGreater(st["probe_after_s"], 0, workload)
                seen.append((digests, [run.job_key(r) for r in runs],
                             set(steps)))
            (d1, order1, p1), (d2, order2, p2) = seen
            self.assertEqual(d1, d2, workload)
            self.assertNotEqual(order1, order2, workload)
            self.assertEqual(p1, p2, workload)
        shutil.rmtree(os.path.join(run.RUNS, "test"), ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
