#!/usr/bin/env python3
"""Paper-suite benchmark for the asymmetric-fence simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload cilk|ustm|campaign \
        --seed N --seconds S --trace 0|1

Builds the simulator library with the repository's default CMake
configuration plus the `perfbench` binary (perfbench/perfbench.cc) into
`.bench_build/`, then:

  --trace 0  runs the workload's whole job list again and again, each
             repetition in a fresh process, until S seconds have passed;
             checks every output; prints the end-to-end metrics as
             medians over the repetitions, timings of the job list
             scaled to a reference host speed by probes between jobs.
  --trace 1  runs one untraced repetition, then one traced process
             (spans around every public call, A/B runs with each
             run-loop / observatory switch off); checks that the traced
             drive describes the same program; prints per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it holds
provenance and the reproduced paper numbers. Exit code 0 only when a
result was printed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("cilk", "ustm", "campaign")
# Extra set-up-only processes after every repetition, so the setup_s
# median is taken over a few dozen set-ups spread across the run.
SETUPS_PER_REP = 2
# The host-speed probe's (perfbench.cc, probeSeconds) time on the host
# the benchmark was tuned on (4 vCPU Intel Xeon, idle): the speed that
# scaled timings are reported at.
REF_PROBE_S = 0.006

sys.path.insert(0, HERE)
import paper  # noqa: E402


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


# --- one repetition ---------------------------------------------------------

def run_binary(command, workload, seed, rundir):
    shutil.rmtree(rundir, ignore_errors=True)
    p = subprocess.run([BINARY, command, "--workload", workload,
                        "--seed", str(seed), "--dir", rundir],
                       stdout=subprocess.PIPE, text=True, timeout=170)
    if p.returncode != 0:
        raise BenchError(f"perfbench {command} exited with {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def log_runs(path):
    """The run documents of a stats-JSON log, as (raw text, parsed)."""
    with open(path) as f:
        lines = f.read().split("\n")
    if not lines[0].startswith('{"schemaVersion":4,"runs":['):
        raise BenchError(f"{path}: not a schemaVersion-4 stats log")
    raw = [ln.rstrip(",") for ln in lines[1:] if ln.startswith("{")]
    return [(r, json.loads(r)) for r in raw]


def system_text(raw_run):
    """The `system` document of one raw run line, byte for byte."""
    return raw_run[raw_run.index('"system":') + len('"system":'):-1]


def job_key(run):
    return f'{run["workload"]}/{run["design"]}/{run["cores"]}c'


def check_repetition(workload, rep, rundir, n_jobs):
    """Validate one untraced repetition. Returns (attempted, failed,
    instructions, {job: digest}, runs)."""
    if workload == "campaign":
        cold_path = os.path.join(rundir, "cold.json")
        runs = log_runs(cold_path)
        with open(cold_path, "rb") as a, \
                open(os.path.join(rundir, "warm.json"), "rb") as b:
            warm_same = a.read() == b.read()
        attempted = 2 * n_jobs
        cold, warm = rep["cold"], rep["warm"]
        # A cold job passes only when it ran and wrote the cache: a hit
        # would mean service state leaked in from outside the fresh store.
        failed = (n_jobs - cold["executed"] + cold["failures"] +
                  cold["cacheHits"])
        warm_bad = max(warm["failures"], warm["executed"] - warm["cacheHits"])
        warm_bad += n_jobs - warm["executed"]
        failed += n_jobs if not warm_same else warm_bad
    else:
        runs = log_runs(os.path.join(rundir, "stats.json"))
        attempted = n_jobs
        failed = n_jobs - len(runs)
    failed += sum(1 for _, r in runs if not r["valid"])
    digests = {job_key(r): hashlib.sha256(raw.encode()).hexdigest()
               for raw, r in runs}
    if len(digests) != n_jobs:
        failed = max(failed, n_jobs - len(digests))
    instr = sum(r["metrics"]["instrRetired"] for _, r in runs)
    return attempted, min(failed, attempted), instr, digests, [r for _, r in runs]


def scaled_steps(rep):
    """A repetition's steps (runner calls; on campaign, submits, one
    drain shard per job and merges) in seconds at the reference host
    speed: each step's time times REF_PROBE_S over the mean of the
    host-speed probes just before and just after it."""
    return {st["name"]: st["s"] * 2 * REF_PROBE_S /
            (st["probe_before_s"] + st["probe_after_s"])
            for st in rep["steps"]}


def rep_seed(seed, k):
    """Job-order seed of repetition k: every repetition runs the list in
    another order, so per-job documents that depend on what ran before
    them show up as a mismatch between repetitions."""
    return (seed * 1000 + k) % 2**64


def untraced(workload, seed, seconds, tag):
    walls, setups, rss = [], [], []
    scaled = None  # step -> its scaled times, one per repetition
    attempted = failed = 0
    reference = None
    instr = 0
    headline = None
    deadline = time.monotonic() + seconds
    k = 0
    while True:
        rundir = os.path.join(RUNS, f"{tag}-{k}")
        rep = run_binary("run", workload, rep_seed(seed, k), rundir)
        a, f, instr, digests, runs = check_repetition(
            workload, rep, rundir, rep["jobs"])
        if reference is None:
            reference = digests
            headline = paper.headline(workload, runs)
        elif digests != reference:
            f = max(f, sum(1 for k2 in reference
                           if digests.get(k2) != reference[k2]))
        steps = scaled_steps(rep)
        if scaled is None:
            scaled = {name: [t] for name, t in steps.items()}
        elif steps.keys() != scaled.keys():
            f = max(f, rep["jobs"])
        else:
            for name, t in steps.items():
                scaled[name].append(t)
        attempted += a
        failed += f
        walls.append(rep["wall_s"])
        setups.append(rep["setup_s"])
        for j in range(SETUPS_PER_REP):
            setups.append(run_binary("setup", workload, rep_seed(seed, k),
                                     rundir)["setup_s"])
        rss.append(rep["peak_rss_kb"])
        shutil.rmtree(rundir, ignore_errors=True)
        k += 1
        if time.monotonic() >= deadline:
            break
    # Host speed changes from one job to the next by up to half. The
    # probes around each step take most of that out, and a median per
    # step over the repetitions most of the rest.
    wall = sum(statistics.median(t) for t in scaled.values())
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "sim_mips": (instr / wall / 1e6, "MIPS"),
        "peak_rss_mb": (statistics.median(rss) / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "paper_err_pp": (paper.error_pp(workload, headline), "pp"),
    }
    info = {
        "repetitions": k,
        "wall_s_reps": walls,
        "wall_s_median": statistics.median(walls),
        "setup_s_reps": setups,
        "jobs_digest": hashlib.sha256(
            json.dumps(reference, sort_keys=True).encode()).hexdigest(),
        "paper_headline": headline,
    }
    return attempted, failed, metrics, info


# --- traced run -------------------------------------------------------------

def span_ms(s):
    return (s["end_ns"] - s["start_ns"]) / 1e6


def traced(workload, seed, tag):
    # Untraced reference for the tracing overhead, same seed, just before.
    ref_dir = os.path.join(RUNS, f"{tag}-untraced")
    ref = run_binary("run", workload, rep_seed(seed, 0), ref_dir)
    shutil.rmtree(ref_dir, ignore_errors=True)

    rundir = os.path.join(RUNS, f"{tag}-traced")
    run_binary("trace", workload, rep_seed(seed, 0), rundir)
    with open(os.path.join(rundir, "trace.json")) as f:
        tr = json.load(f)
    jobs = tr["jobs"]
    spans = tr["spans"]
    n = len(jobs)

    # Correctness: every traced document equals the runner's.
    runner_log = "cold.json" if workload == "campaign" else "stats.json"
    runs = log_runs(os.path.join(rundir, runner_log))
    bad = set()
    for i, job in enumerate(jobs):
        if i >= len(runs):
            bad.add(i)
            continue
        raw, run = runs[i]
        runner = hashlib.sha256(system_text(raw).encode()).hexdigest()
        if (not run["valid"] or
                run["workload"] != job["app"] or run["design"] != job["design"] or
                any(d != runner for d in job["full_digests"]) or
                len(set(job["neutral_digests"])) != 1):
            bad.add(i)
    if workload == "campaign":
        with open(os.path.join(rundir, "cold.json"), "rb") as a, \
                open(os.path.join(rundir, "warm.json"), "rb") as b:
            if a.read() != b.read():
                bad.update(range(n))
        if (tr["cold"]["cacheHits"] != 0 or tr["warm"]["cacheHits"] != n or
                tr["lookup_hits"] != n):
            bad.update(range(n))
    failed = len(bad)

    # Counters: the first base drive of every job (simulated, exact).
    c = {k: sum(j["counters"][k] for j in jobs) for k in jobs[0]["counters"]}
    active = c["busy"] + c["fence_stall"] + c["other_stall"]

    def by(name, mode_prefix=None, mode=None):
        return [s for s in spans if s["name"] == name and
                (mode is None or s["mode"] == mode) and
                (mode_prefix is None or s["mode"].startswith(mode_prefix))]

    def per_job_mean(name):
        """Sum over jobs of the mean base-run duration (ms)."""
        acc = {}
        for s in by(name, mode_prefix="base"):
            acc.setdefault(s["job"], []).append(span_ms(s))
        return sum(statistics.mean(v) for v in acc.values())

    def pair_ms(variant):
        off = sum(span_ms(s) for s in by("drive.job", mode=variant))
        on = sum(span_ms(s) for s in by("drive.job", mode="base:" + variant))
        return on, off

    run_ms = per_job_mean("sys.run")
    ff_on, ff_off = pair_ms("no_fast_forward")
    de_on, de_off = pair_ms("no_direct_exec")
    hl_on, hl_off = pair_ms("no_hot_lines")
    fp_on, fp_off = pair_ms("no_fence_profile")

    base_install = [span_ms(s) for s in by("workloads.install", "base")]
    base_export = [span_ms(s) for s in by("harness.export", "base")]
    if workload == "campaign":
        # The campaign runs its jobs inside runCampaign; time them
        # through the drive instead.
        job_ms = [span_ms(s) for s in by("drive.job", "base")]
    else:
        job_ms = [span_ms(s) for s in by("harness.job")]
    q = statistics.quantiles(job_ms, n=4)
    runner_s = sum(span_ms(s) for s in by("runner")) / 1e3

    def total_ms(name):
        return sum(span_ms(s) for s in by(name))

    def median_or_zero(values):
        return statistics.median(values) if values else 0.0

    svc = workload == "campaign"
    m = {
        "sys.run_s": (run_ms / 1e3, "s"),
        "sys.ns_per_cycle": (run_ms * 1e6 / c["cycles"], "ns"),
        "sys.ff_cycle_frac": (c["ff_cycles"] / c["cycles"], "frac"),
        "sys.direct_cycle_frac": (c["direct_cycles"] / c["cycles"], "frac"),
        "sys.ff_gain_pct": (100 * (ff_off - ff_on) / ff_off, "%"),
        "sys.direct_gain_pct": (100 * (de_off - de_on) / de_off, "%"),
        "sim.events": (c["events"], "count"),
        "sim.events_per_kcycle": (1000 * c["events"] / c["cycles"],
                                  "events/kcycle"),
        "sim.ns_per_event": (run_ms * 1e6 / c["events"], "ns"),
        "mem.l1_miss_rate": (c["load_misses"] / c["loads_executed"], "frac"),
        "mem.dir_txns": (c["dir_txns"], "count"),
        "mem.dir_bounces": (c["dir_bounces"], "count"),
        "mem.dir_nacks": (c["dir_nacks"], "count"),
        "mem.hotline_events": (c["hotline_events"], "count"),
        "mem.hotline_overhead_pct": (100 * (hl_on - hl_off) / hl_off, "%"),
        "noc.packets": (c["packets"], "count"),
        "noc.mean_latency_cycles": (c["latency_sum"] / c["latency_count"],
                                    "cycles"),
        "noc.retry_overhead_pct": (
            100 * (c["bytes_retry"] + c["bytes_grt"]) / c["bytes_base"], "%"),
        "cpu.instr": (c["instr"], "count"),
        "cpu.ipc": (c["instr"] / (active + c["idle"]), "instr/cycle"),
        "cpu.busy_frac": (c["busy"] / active, "frac"),
        "cpu.fence_stall_frac": (c["fence_stall"] / active, "frac"),
        "cpu.l1_miss_stall_frac": (c["l1_miss_stall"] / active, "frac"),
        "cpu.load_squashes": (c["load_squashes"], "count"),
        "fence.strong": (c["fences_strong"], "count"),
        "fence.weak": (c["fences_weak"], "count"),
        "fence.bounced_writes": (c["bounced_writes"], "count"),
        "fence.retries_per_bounce": (
            c["retry_sum"] / c["retry_count"] if c["retry_count"] else 0.0,
            "ratio"),
        "fence.wplus_recoveries": (c["wplus_recoveries"], "count"),
        "fence.profile_overhead_pct": (100 * (fp_on - fp_off) / fp_off, "%"),
        "workloads.install_ms_p50": (statistics.median(base_install), "ms"),
        "harness.job_ms_p50": (statistics.median(job_ms), "ms"),
        "harness.job_ms_p75": (q[2], "ms"),
        "harness.export_ms_p50": (statistics.median(base_export), "ms"),
        "harness.log_bytes_written": (tr["log_bytes_written"], "B"),
        "service.fingerprint_ms": (total_ms("service.fingerprint"), "ms"),
        "service.cold_drain_s": (total_ms("service.cold_drain") / 1e3, "s"),
        "service.warm_drain_ms": (total_ms("service.warm_drain"), "ms"),
        "service.merge_ms": (total_ms("service.merge"), "ms"),
        "service.hit_frac": (
            tr["warm"]["cacheHits"] / tr["warm"]["executed"] if svc else 0.0,
            "frac"),
        "service.lookup_ms_p50": (
            median_or_zero([span_ms(s) for s in by("service.lookup")]), "ms"),
        "service.key_us_p50": (
            1e3 * median_or_zero([span_ms(s) for s in by("service.key")]),
            "us"),
        "service.store_bytes": (tr.get("store_bytes", 0), "B"),
        "trace.overhead_pct": (100 * (runner_s - ref["wall_s"]) /
                               ref["wall_s"], "%"),
    }
    # Total and self time (span minus its children) per span name.
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_ms[s["parent"]] += span_ms(s)
    profile = {}
    for s, kids in zip(spans, child_ms):
        p = profile.setdefault(s["name"], {"count": 0, "total_ms": 0.0,
                                           "self_ms": 0.0})
        p["count"] += 1
        p["total_ms"] += span_ms(s)
        p["self_ms"] += span_ms(s) - kids
    info = {
        "span_profile": profile,
        "traced_runner_wall_s": runner_s,
        "untraced_wall_s": ref["wall_s"],
        "spans": len(spans),
        "not_exercised": [] if svc else ["service.*"],
        "unmeasured": {
            "mem, noc, sim and cpu host time":
                "spent inside System::run, which has no public boundary "
                "per layer; sys.run_s covers them together",
            "check, analysis":
                "serve verification runs, not the paper suite",
        },
    }
    shutil.rmtree(rundir, ignore_errors=True)
    return n, failed, m, info


# --- provenance ---------------------------------------------------------------

def provenance(workload, seed, seconds, trace):
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            src.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                src.update(f.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    with open(os.path.join(BUILD, "build_info.json")) as f:
        build_info = json.load(f)
    return {
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "src_sha256": src.hexdigest(),
        "build": build_info,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "binary_bytes": os.path.getsize(BINARY),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind like any error: subprocess.run kills and waits
    # for the running perfbench, and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        tag = os.path.join(args.workload, f"{os.getpid()}")
        if args.trace:
            attempted, failed, metrics, info = traced(
                args.workload, args.seed, tag)
        else:
            attempted, failed, metrics, info = untraced(
                args.workload, args.seed, args.seconds, tag)
        prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError, ZeroDivisionError, statistics.StatisticsError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    finally:
        shutil.rmtree(os.path.join(RUNS, args.workload), ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass
    if failed:
        log(f"perfbench: {failed} of {attempted} jobs failed their checks")
    print(json.dumps({"provenance": prov, **info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
