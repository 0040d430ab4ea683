/**
 * @file
 * Paper-suite benchmark binary. One invocation runs one workload's job
 * list once, in this process, on one simulation thread, through the
 * public entry points users call:
 *
 *   perfbench run   --workload W --seed N --dir D
 *   perfbench setup --workload W --seed N --dir D
 *   perfbench trace --workload W --seed N --dir D
 *
 * Workloads (all at 8 cores, designs S+/WS+/W+/Wee):
 *   cilk      Fig. 8: every CilkApp run to completion
 *             (harness::runCilkExperiment, stats-JSON log on).
 *   ustm      Figs. 9/10: every ustm bench for the 100k-cycle quick
 *             budget (harness::runUstmExperiment, stats-JSON log on).
 *   campaign  Fig. 11: every STAMP app through the campaign service —
 *             a cold campaign in an empty cache, a warm resubmission
 *             over the same cache, and a merge of both logs.
 *
 * The seed permutes the job order; the jobs themselves are the paper's
 * fixed parameterizations, so every per-job result is seed-independent.
 *
 * `run` times process-level set-up, the whole job list and each runner
 * call, and prints one JSON object. `setup` times the set-up alone. `trace` additionally drives every job through the
 * runner's public sequence (System ctor, workloads::setup*,
 * System::run, harvestStats, dumpStatsJson) with spans around each
 * call, re-runs each job with one run-loop or observatory switch off
 * (A/B pairs, alternating which side runs first), and writes spans and
 * per-job counters to D/trace.json. run.py turns both into metrics.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "service/campaign.hh"
#include "service/config_key.hh"
#include "service/result_cache.hh"
#include "service/sha256.hh"
#include "sim/logging.hh"
#include "sys/system.hh"

using namespace asf;

namespace
{

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// The paper's parameterizations, as the figure benches use them.
constexpr unsigned kCores = 8;
constexpr Tick kUstmBudget = 100'000;        ///< fig09/fig10 --quick
constexpr Tick kCompletionCap = 30'000'000;  ///< runner default cap
constexpr Tick kBenchWatchdog = 1'000'000;   ///< bench binaries' default
constexpr Tick kSpecCycles = kCompletionCap / 100; ///< spec x100 = cap

const FenceDesign kDesigns[] = {FenceDesign::SPlus, FenceDesign::WSPlus,
                                FenceDesign::WPlus, FenceDesign::Wee};

enum class Family
{
    Cilk,
    Ustm,
    Campaign,
};

struct Job
{
    size_t app = 0; ///< index into the family's app list
    FenceDesign design = FenceDesign::SPlus;
};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

size_t
appCount(Family f)
{
    switch (f) {
      case Family::Cilk:
        return workloads::cilkApps().size();
      case Family::Ustm:
        return workloads::ustmBenches().size();
      case Family::Campaign:
        return workloads::stampApps().size();
    }
    return 0;
}

const std::string &
appName(Family f, size_t app)
{
    switch (f) {
      case Family::Cilk:
        return workloads::cilkApps()[app].name;
      case Family::Ustm:
        return workloads::ustmBenches()[app].name;
      case Family::Campaign:
        break;
    }
    return workloads::stampApps()[app].bench.name;
}

uint64_t
splitmix64(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** The figure's job list (apps outer, designs inner), shuffled by
 *  `seed` (Fisher-Yates over splitmix64). */
std::vector<Job>
jobList(Family f, uint64_t seed)
{
    std::vector<Job> jobs;
    for (size_t a = 0; a < appCount(f); a++)
        for (FenceDesign d : kDesigns)
            jobs.push_back({a, d});
    uint64_t state = seed;
    for (size_t i = jobs.size(); i > 1; i--)
        std::swap(jobs[i - 1], jobs[splitmix64(state) % i]);
    return jobs;
}

std::vector<std::string>
specLines(const std::vector<Job> &jobs)
{
    std::vector<std::string> lines;
    for (const Job &j : jobs) {
        service::ExperimentSpec spec;
        spec.workload = "stamp:" + appName(Family::Campaign, j.app);
        spec.design = j.design;
        spec.cores = kCores;
        spec.cycles = kSpecCycles;
        lines.push_back(service::serializeSpec(spec));
    }
    return lines;
}

/** Run one job through the family's experiment runner. */
harness::ExperimentResult
runJob(Family f, const Job &j)
{
    if (f == Family::Cilk)
        return harness::runCilkExperiment(workloads::cilkApps()[j.app],
                                          j.design, kCores);
    return harness::runUstmExperiment(workloads::ustmBenches()[j.app],
                                      j.design, kCores, kUstmBudget);
}

/** Peak resident set of this process image (VmHWM). getrusage's
 *  ru_maxrss would also count the parent's image before exec. */
uint64_t
peakRssKb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

/**
 * Host seconds of one host-speed probe: a fixed piece of work shaped
 * like a discrete-event simulator's inner loop (a 16K-entry event heap:
 * take the earliest event, schedule a new one, bump a counter in a 1 MB
 * table). It calls no simulator code, so a change to the simulator
 * cannot move it, while a host that slows the simulator (shared caches,
 * memory, core) slows it about as much. A plain arithmetic loop does
 * not track the simulator's slowdowns.
 */
double
probeSeconds()
{
    static std::vector<uint64_t> table(1 << 17);
    [[maybe_unused]] static volatile uint64_t sink;
    Clock::time_point t0 = Clock::now();
    std::priority_queue<uint64_t, std::vector<uint64_t>,
                        std::greater<uint64_t>> events;
    uint64_t state = 7;
    for (int i = 0; i < 16384; i++)
        events.push(splitmix64(state) >> 20);
    for (int i = 0; i < 100000; i++) {
        uint64_t t = events.top();
        events.pop();
        events.push(t + (splitmix64(state) & 1023));
        table[(t * 0x9e3779b97f4a7c15ULL) >> 47] += t;
    }
    sink = events.top();
    return secondsBetween(t0, Clock::now());
}

uint64_t
fileSize(const std::string &path)
{
    std::error_code ec;
    uint64_t n = fs::file_size(path, ec);
    return ec ? 0 : n;
}

uint64_t
treeBytes(const std::string &dir)
{
    uint64_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            n += e.file_size(ec);
    return n;
}

void
writeRunStats(harness::JsonWriter &w, const char *key,
              const service::RunStats &s)
{
    w.key(key).beginObject();
    w.field("total", uint64_t(s.total));
    w.field("executed", uint64_t(s.executed));
    w.field("cacheHits", uint64_t(s.cacheHits));
    w.field("failures", uint64_t(s.failures));
    w.endObject();
}

// --- spans ----------------------------------------------------------------

struct Span
{
    const char *name;
    const char *mode; ///< which configuration the span ran under
    int job;          ///< index into the permuted job list, -1 = none
    int parent;       ///< index of the enclosing span, -1 = root
    int64_t startNs;
    int64_t endNs;
};

/** In-memory span log, written once at exit. A disabled log (the
 *  untraced run) records nothing. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    size_t
    open(const char *name, const char *mode, int job)
    {
        if (!enabled_)
            return 0;
        int parent = stack_.empty() ? -1 : int(stack_.back());
        spans_.push_back({name, mode, job, parent, nowNs(), 0});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(size_t id)
    {
        if (!enabled_)
            return;
        spans_[id].endNs = nowNs();
        stack_.pop_back();
    }

    void
    write(harness::JsonWriter &w) const
    {
        w.beginArray();
        for (const Span &s : spans_) {
            w.beginObject();
            w.field("name", s.name);
            w.field("mode", s.mode);
            w.field("job", s.job);
            w.field("parent", s.parent);
            w.field("start_ns", s.startNs);
            w.field("end_ns", s.endNs);
            w.endObject();
        }
        w.endArray();
    }

  private:
    int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** RAII span: open on construction, close on destruction. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, const char *mode = "",
          int job = -1)
        : log_(log), id_(log.open(name, mode, job))
    {
    }
    ~Scope() { log_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    size_t id_;
};

// --- the System-level drive ---------------------------------------------

/** One A/B pair: the variant turns `field` off; its base side runs
 *  the runner's own configuration. */
struct Variant
{
    const char *name;
    const char *baseName;
    bool SystemConfig::*field;
};

const Variant kVariants[] = {
    {"no_fast_forward", "base:no_fast_forward", &SystemConfig::fastForward},
    {"no_direct_exec", "base:no_direct_exec", &SystemConfig::directExec},
    {"no_hot_lines", "base:no_hot_lines", &SystemConfig::hotLineTracking},
    {"no_fence_profile", "base:no_fence_profile",
     &SystemConfig::fenceProfile},
};

/** Per-job outputs of one drive: document digests plus the counters
 *  the per-layer metrics need, read through public accessors. */
struct DriveResult
{
    std::string fullDigest;    ///< dumpStatsJson() with every block
    std::string neutralDigest; ///< no fenceProfile / observatory blocks
    Tick cycles = 0;
    uint64_t events = 0;
    uint64_t ffCycles = 0;
    uint64_t directCycles = 0;
    harness::ExperimentResult r;
    uint64_t l1MissStall = 0;
    uint64_t loadsExecuted = 0;
    uint64_t loadMisses = 0;
    double retrySum = 0.0;
    uint64_t retryCount = 0;
    uint64_t dirTxns = 0;
    uint64_t dirBounces = 0;
    uint64_t dirNacks = 0;
    uint64_t hotLineEvents = 0;
    uint64_t packets = 0;
    double latencySum = 0.0;
    uint64_t latencyCount = 0;
};

/** The SystemConfig the experiment runners build for this job in this
 *  process (raw fence profile, checking and intervals stay off). */
SystemConfig
runnerConfig(FenceDesign d)
{
    SystemConfig cfg;
    cfg.numCores = kCores;
    cfg.design = d;
    cfg.fastForward = harness::fastForwardEnabled();
    cfg.directExec = harness::directExecEnabled();
    cfg.watchdogCycles = harness::watchdogCyclesDefault();
    return cfg;
}

DriveResult
driveJob(Family f, const Job &j, const SystemConfig &cfg, SpanLog &log,
         const char *mode, int job_id)
{
    DriveResult d;
    Scope job(log, "drive.job", mode, job_id);
    std::unique_ptr<System> sys;
    std::unique_ptr<workloads::CilkSetup> cilk;
    std::unique_ptr<workloads::TlrwSetup> tlrw;
    Tick cap = kCompletionCap;
    {
        Scope s(log, "workloads.install", mode, job_id);
        sys = std::make_unique<System>(cfg);
        switch (f) {
          case Family::Cilk:
            cilk = std::make_unique<workloads::CilkSetup>(
                workloads::setupCilkApp(*sys, workloads::cilkApps()[j.app]));
            break;
          case Family::Ustm:
            tlrw = std::make_unique<workloads::TlrwSetup>(
                workloads::setupTlrwWorkload(
                    *sys, workloads::ustmBenches()[j.app], 0));
            cap = kUstmBudget;
            break;
          case Family::Campaign: {
            const workloads::StampApp &app = workloads::stampApps()[j.app];
            tlrw = std::make_unique<workloads::TlrwSetup>(
                workloads::setupTlrwWorkload(*sys, app.bench,
                                             app.txnsPerThread));
            break;
          }
        }
    }
    {
        Scope s(log, "sys.run", mode, job_id);
        sys->run(cap);
    }
    {
        Scope s(log, "harness.harvest", mode, job_id);
        harness::harvestStats(*sys, d.r);
    }
    std::ostringstream full;
    {
        Scope s(log, "harness.export", mode, job_id);
        sys->dumpStatsJson(full);
    }
    std::ostringstream neutral;
    sys->dumpStatsJson(neutral, /*include_profile=*/false,
                       /*include_check=*/true,
                       /*include_observatory=*/false);
    std::string doc = full.str();
    while (!doc.empty() && doc.back() == '\n')
        doc.pop_back();
    d.fullDigest = service::sha256Hex(doc);
    d.neutralDigest = service::sha256Hex(neutral.str());

    d.cycles = sys->now();
    d.events = sys->eventQueue().executedEvents();
    d.ffCycles = sys->fastForwardedCycles();
    d.directCycles = sys->directExecutedCycles();
    d.l1MissStall = d.r.breakdown.bucket(StallBucket::OtherL1Miss);
    for (unsigned i = 0; i < sys->numCores(); i++) {
        StatGroup &cs = sys->core(NodeId(i)).stats();
        d.loadsExecuted += cs.get("loadsExecuted");
        d.loadMisses += cs.get("loadMissesIssued");
        d.retrySum += cs.average("retriesPerBouncedWrite").sum();
        d.retryCount += cs.average("retriesPerBouncedWrite").count();
        StatGroup &ds = sys->directory(NodeId(i)).stats();
        d.dirTxns += ds.get("GetS") + ds.get("GetX");
        d.dirBounces += ds.get("bounces");
        d.dirNacks += ds.get("getxNacked");
    }
    if (const HotLineTracker *hl = sys->hotLines())
        d.hotLineEvents = hl->totalRecorded();
    d.packets = sys->mesh().stats().get("packets");
    d.latencySum = sys->mesh().latency().sum();
    d.latencyCount = sys->mesh().latency().count();
    return d;
}

void
writeDrive(harness::JsonWriter &w, const DriveResult &d)
{
    const harness::ExperimentResult &r = d.r;
    w.beginObject();
    w.field("cycles", uint64_t(d.cycles));
    w.field("events", d.events);
    w.field("ff_cycles", d.ffCycles);
    w.field("direct_cycles", d.directCycles);
    w.field("instr", r.instrRetired);
    w.field("busy", r.breakdown.busy);
    w.field("fence_stall", r.breakdown.fenceStall);
    w.field("other_stall", r.breakdown.otherStall);
    w.field("idle", r.breakdown.idle);
    w.field("l1_miss_stall", d.l1MissStall);
    w.field("load_squashes", r.loadSquashes);
    w.field("loads_executed", d.loadsExecuted);
    w.field("load_misses", d.loadMisses);
    w.field("dir_txns", d.dirTxns);
    w.field("dir_bounces", d.dirBounces);
    w.field("dir_nacks", d.dirNacks);
    w.field("hotline_events", d.hotLineEvents);
    w.field("packets", d.packets);
    w.field("latency_sum", d.latencySum);
    w.field("latency_count", d.latencyCount);
    w.field("bytes_base", r.bytesBase);
    w.field("bytes_retry", r.bytesRetry);
    w.field("bytes_grt", r.bytesGrt);
    w.field("fences_strong", r.fencesStrong);
    w.field("fences_weak", r.fencesWeak);
    w.field("bounced_writes", r.bouncedWrites);
    w.field("retry_sum", d.retrySum);
    w.field("retry_count", d.retryCount);
    w.field("wplus_recoveries", r.wPlusRecoveries);
    w.endObject();
}

// --- commands -------------------------------------------------------------

struct Args
{
    std::string command;
    Family family = Family::Cilk;
    uint64_t seed = 1;
    std::string dir;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        fatal("usage: perfbench run|setup|trace --workload cilk|ustm|campaign "
              "--seed N --dir DIR");
    a.command = argv[1];
    if (a.command != "run" && a.command != "setup" && a.command != "trace")
        fatal("unknown command '%s'", a.command.c_str());
    std::string workload;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (!std::strcmp(argv[i], "--workload"))
            workload = argv[i + 1];
        else if (!std::strcmp(argv[i], "--seed"))
            a.seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (!std::strcmp(argv[i], "--dir"))
            a.dir = argv[i + 1];
        else
            fatal("unknown option '%s'", argv[i]);
    }
    if (workload == "cilk")
        a.family = Family::Cilk;
    else if (workload == "ustm")
        a.family = Family::Ustm;
    else if (workload == "campaign")
        a.family = Family::Campaign;
    else
        fatal("unknown workload '%s'", workload.c_str());
    if (a.dir.empty())
        fatal("--dir is required");
    return a;
}

struct CampaignRun
{
    service::RunStats cold;
    service::RunStats warm;
};

/**
 * The steps of one runner pass, each timed around its public call.
 * When probing, a host-speed probe runs before the first step and after
 * every step, so step i lies between probes i and i + 1; probe time is
 * in no step.
 */
struct Steps
{
    bool probing = false;
    std::vector<std::string> names;
    std::vector<double> seconds;
    std::vector<double> probes;

    template <class F>
    void
    run(std::string name, F &&call)
    {
        if (probing && probes.empty())
            probes.push_back(probeSeconds());
        Clock::time_point t0 = Clock::now();
        call();
        seconds.push_back(secondsBetween(t0, Clock::now()));
        names.push_back(std::move(name));
        if (probing)
            probes.push_back(probeSeconds());
    }
};

void
addStats(service::RunStats &sum, const service::RunStats &s)
{
    sum.total += s.total;
    sum.executed += s.executed;
    sum.cacheHits += s.cacheHits;
    sum.failures += s.failures;
}

std::string
jobName(Family f, const Job &j)
{
    return format("%s/%s", appName(f, j.app).c_str(),
                  fenceDesignName(j.design));
}

/** Cold submit + drain, warm resubmit + drain over the same cache, and
 *  a merge of both logs — the asf_campaign sequence. Each drain runs
 *  one shard per job (RunOptions::shardIndex/shardCount, as
 *  `asf_campaign run --shard i/N` workers do), so every job is a step
 *  of its own. */
CampaignRun
runCampaigns(const std::vector<Job> &jobs,
             const std::vector<std::string> &lines, const std::string &dir,
             const std::string &cache_dir, SpanLog &log, Steps &steps)
{
    CampaignRun out;
    service::Campaign camp[2];
    service::RunStats *stats[2] = {&out.cold, &out.warm};
    const char *side[2] = {"cold", "warm"};
    std::string err;
    for (int k = 0; k < 2; k++) {
        {
            Scope s(log, "service.submit");
            steps.run(format("submit:%s", side[k]), [&] {
                if (!service::submitCampaign(
                        dir + "/" + side[k], lines,
                        format("perfbench-%s", side[k]), cache_dir,
                        camp[k], err))
                    fatal("submit %s campaign: %s", side[k], err.c_str());
            });
        }
        Scope s(log, k == 0 ? "service.cold_drain" : "service.warm_drain");
        for (size_t i = 0; i < jobs.size(); i++) {
            service::RunOptions opt;
            opt.shardIndex = unsigned(i);
            opt.shardCount = unsigned(jobs.size());
            steps.run(format("%s:%s", side[k],
                             jobName(Family::Campaign, jobs[i]).c_str()),
                      [&] { addStats(*stats[k],
                                     service::runCampaign(camp[k], opt)); });
        }
    }
    for (int k = 0; k < 2; k++) {
        Scope s(log, "service.merge");
        steps.run(format("merge:%s", side[k]), [&] {
            if (!service::mergeCampaign(camp[k],
                                        dir + "/" + side[k] + ".json", err))
                fatal("merge %s campaign: %s", side[k], err.c_str());
        });
    }
    return out;
}

/** What process-level set-up leaves for the jobs. */
struct Setup
{
    std::vector<Job> jobs;
    std::vector<std::string> lines; ///< campaign spec lines
    std::unique_ptr<service::ResultCache> cache;
};

/** Process-level set-up: the job list and the stats-log open on every
 *  workload; the result-cache open and the binary fingerprint on the
 *  campaign. */
Setup
setUp(const Args &a, SpanLog &log)
{
    Scope s(log, "setup");
    Setup st;
    st.jobs = jobList(a.family, a.seed);
    if (a.family == Family::Campaign) {
        st.lines = specLines(st.jobs);
        st.cache = std::make_unique<service::ResultCache>(a.dir + "/cache");
        Scope fp(log, "service.fingerprint");
        service::binaryFingerprint();
    } else {
        harness::setWatchdogCyclesDefault(kBenchWatchdog);
        harness::setStatsJsonPath(a.dir + "/stats.json");
    }
    return st;
}

struct RunnerPass
{
    CampaignRun camp;
    uint64_t logBytes = 0; ///< stats-log bytes written (traced only)
    Steps steps;
};

/** The whole job list through the public entry points users call. */
RunnerPass
runnerPass(const Args &a, const Setup &st, SpanLog &log, bool probing)
{
    RunnerPass out;
    out.steps.probing = probing;
    Scope s(log, "runner");
    if (a.family == Family::Campaign) {
        out.camp = runCampaigns(st.jobs, st.lines, a.dir, st.cache->dir(),
                                log, out.steps);
        if (log.enabled())
            out.logBytes = fileSize(a.dir + "/cold.json") +
                           fileSize(a.dir + "/warm.json");
        return out;
    }
    for (size_t i = 0; i < st.jobs.size(); i++) {
        {
            Scope js(log, "harness.job", "runner", int(i));
            out.steps.run(jobName(a.family, st.jobs[i]),
                          [&] { runJob(a.family, st.jobs[i]); });
        }
        if (log.enabled())
            out.logBytes += fileSize(harness::statsJsonPath());
    }
    return out;
}

int
commandRun(const Args &a)
{
    SpanLog off(false);
    Clock::time_point t0 = Clock::now();
    Setup st = setUp(a, off);
    Clock::time_point t1 = Clock::now();
    RunnerPass pass = runnerPass(a, st, off, true);
    const Steps &steps = pass.steps;
    double wall = 0;
    for (double t : steps.seconds)
        wall += t;

    harness::JsonWriter w(std::cout);
    w.beginObject();
    w.field("setup_s", secondsBetween(t0, t1));
    w.field("wall_s", wall);
    w.field("peak_rss_kb", peakRssKb());
    w.field("jobs", uint64_t(st.jobs.size()));
    if (a.family == Family::Campaign) {
        writeRunStats(w, "cold", pass.camp.cold);
        writeRunStats(w, "warm", pass.camp.warm);
    }
    w.key("steps").beginArray();
    for (size_t i = 0; i < steps.names.size(); i++) {
        w.beginObject();
        w.field("name", steps.names[i]);
        w.field("s", steps.seconds[i]);
        w.field("probe_before_s", steps.probes[i]);
        w.field("probe_after_s", steps.probes[i + 1]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    std::cout << std::endl;
    return 0;
}

int
commandSetup(const Args &a)
{
    SpanLog off(false);
    Clock::time_point t0 = Clock::now();
    Setup st = setUp(a, off);
    Clock::time_point t1 = Clock::now();
    std::cout << "{\"setup_s\":" << format("%.9f", secondsBetween(t0, t1))
              << "}" << std::endl;
    return 0;
}

int
commandTrace(const Args &a)
{
    SpanLog log(true);
    Setup st = setUp(a, log);
    const std::vector<Job> &jobs = st.jobs;
    RunnerPass pass = runnerPass(a, st, log, false);

    // Direct key + lookup calls on the campaign's own keys.
    uint64_t lookup_hits = 0;
    if (a.family == Family::Campaign) {
        for (size_t i = 0; i < jobs.size(); i++) {
            const workloads::StampApp &app =
                workloads::stampApps()[jobs[i].app];
            SystemConfig cfg = runnerConfig(jobs[i].design);
            std::string label = format("%s/%s/%uc", app.bench.name.c_str(),
                                       fenceDesignName(jobs[i].design),
                                       kCores);
            service::ConfigKey key;
            {
                Scope s(log, "service.key", "", int(i));
                key = service::makeConfigKey(
                    cfg, label,
                    format("budget %llu",
                           (unsigned long long)kCompletionCap));
            }
            Scope s(log, "service.lookup", "", int(i));
            if (st.cache->lookup(key))
                lookup_hits++;
        }
    }

    // The System-level drive: for every job and every switch, one base
    // and one variant run, alternating which side goes first.
    std::vector<DriveResult> base(jobs.size());
    std::vector<std::vector<std::string>> neutral(jobs.size());
    std::vector<std::vector<std::string>> full(jobs.size());
    {
        Scope s(log, "drive");
        for (size_t i = 0; i < jobs.size(); i++) {
            SystemConfig cfg = runnerConfig(jobs[i].design);
            for (size_t v = 0; v < std::size(kVariants); v++) {
                SystemConfig off = cfg;
                off.*kVariants[v].field = false;
                bool base_first = (i + v) % 2 == 0;
                for (int side = 0; side < 2; side++) {
                    bool is_base = (side == 0) == base_first;
                    DriveResult d = driveJob(
                        a.family, jobs[i], is_base ? cfg : off, log,
                        is_base ? kVariants[v].baseName : kVariants[v].name,
                        int(i));
                    neutral[i].push_back(d.neutralDigest);
                    if (is_base) {
                        full[i].push_back(d.fullDigest);
                        if (base[i].fullDigest.empty())
                            base[i] = std::move(d);
                    }
                }
            }
        }
    }

    std::ofstream f(a.dir + "/trace.json");
    {
        harness::JsonWriter w(f);
        w.beginObject();
        w.field("seed", a.seed);
        w.key("jobs").beginArray();
        for (size_t i = 0; i < jobs.size(); i++) {
            w.beginObject();
            w.field("app", appName(a.family, jobs[i].app));
            w.field("design", fenceDesignName(jobs[i].design));
            w.key("full_digests").beginArray();
            for (const auto &dg : full[i])
                w.value(dg);
            w.endArray();
            w.key("neutral_digests").beginArray();
            for (const auto &dg : neutral[i])
                w.value(dg);
            w.endArray();
            w.key("counters");
            writeDrive(w, base[i]);
            w.endObject();
        }
        w.endArray();
        w.field("log_bytes_written", pass.logBytes);
        w.field("peak_rss_kb", peakRssKb());
        if (a.family == Family::Campaign) {
            writeRunStats(w, "cold", pass.camp.cold);
            writeRunStats(w, "warm", pass.camp.warm);
            w.field("lookup_hits", lookup_hits);
            w.field("store_bytes", treeBytes(st.cache->dir()));
        }
        w.key("spans");
        log.write(w);
        w.endObject();
    }
    f << '\n';
    if (!f)
        fatal("cannot write %s/trace.json", a.dir.c_str());
    std::cout << "{\"trace\":\"" << a.dir << "/trace.json\"}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    Args a = parseArgs(argc, argv);
    fs::create_directories(a.dir);
    if (a.command == "run")
        return commandRun(a);
    return a.command == "setup" ? commandSetup(a) : commandTrace(a);
}
