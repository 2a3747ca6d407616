/**
 * @file
 * Tests for the parallel sweep runner: spec-derived seeding, the
 * content-addressed result cache, and the two properties the repro
 * CLI is built on — a parallel sweep is byte-identical to a serial
 * one, and a warm cache executes zero simulations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/sweep/journal.hh"
#include "harness/sweep/resultcache.hh"
#include "harness/sweep/runspec.hh"
#include "harness/sweep/sandbox.hh"
#include "harness/sweep/sweep.hh"
#include "phys/physcache.hh"
#include "repro/experiments.hh"
#include "sim/eventq.hh"
#include "sim/json.hh"
#include "sim/metrics/heatmap.hh"
#include "sim/prof/prof.hh"

using namespace tlsim;
using namespace tlsim::harness;
using namespace tlsim::harness::sweep;

namespace
{

/** Tiny budgets so a 24-run sweep finishes in well under a second. */
SystemConfig
testConfig()
{
    SystemConfig config;
    config.warmup = 5'000;
    config.measure = 20'000;
    config.functionalWarm = 200'000;
    return config;
}

std::vector<RunSpec>
table6Specs()
{
    return repro::findExperiment("table6")->specs(testConfig());
}

std::string
resultJson(const RunSpec &spec, const RunResult &result)
{
    std::ostringstream os;
    writeResultJson(os, spec, result);
    return os.str();
}

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "tlsim_sweep_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

} // namespace

TEST(RunSpec, SpecKeyNamesEveryField)
{
    RunSpec spec;
    spec.config.design = "DNUCA";
    spec.benchmark = "gcc";
    spec.config.warmup = 1;
    spec.config.measure = 2;
    spec.config.functionalWarm = 3;
    spec.baseSeed = 4;
    // Default machine: the key matches the pre-SystemConfig format
    // exactly, so historical cache entries stay addressable.
    EXPECT_EQ(specKey(spec), "DNUCA/gcc/w1/m2/f3/s4");
}

TEST(RunSpec, SpecKeySuffixesNonDefaultMachines)
{
    RunSpec spec = makeRunSpec("DNUCA", "gcc");
    std::string default_key = specKey(spec);
    EXPECT_EQ(default_key.find("/c"), std::string::npos);

    RunSpec cmp = spec;
    cmp.config.cores = 4;
    std::string cmp_key = specKey(cmp);
    EXPECT_NE(cmp_key.find("/c"), std::string::npos);
    EXPECT_NE(cmp_key, default_key);

    // The suffix depends on the machine, not design or budgets: a
    // different budget moves the key's w/m/f fields, not the hash.
    RunSpec cmp_budget = cmp;
    cmp_budget.config.measure += 1;
    std::string suffix = cmp_key.substr(cmp_key.rfind("/c"));
    EXPECT_EQ(specKey(cmp_budget).substr(specKey(cmp_budget).rfind(
                  "/c")),
              suffix);
}

TEST(RunSpec, TraceSeedIgnoresDesignOnly)
{
    RunSpec tlc = makeRunSpec("TLC", "mcf");
    RunSpec dnuca = tlc;
    dnuca.config.design = "DNUCA";
    // Same trace across designs: normalized comparisons replay the
    // bit-identical reference stream on every design.
    EXPECT_EQ(traceSeed(tlc), traceSeed(dnuca));

    // Same trace across machines, too: a 4-core CMP replays the same
    // per-core reference stream as core 0 of a single-core run.
    RunSpec cmp = tlc;
    cmp.config.cores = 4;
    EXPECT_EQ(traceSeed(tlc), traceSeed(cmp));

    RunSpec other_bench = tlc;
    other_bench.benchmark = "gcc";
    EXPECT_NE(traceSeed(tlc), traceSeed(other_bench));

    RunSpec other_budget = tlc;
    other_budget.config.measure += 1;
    EXPECT_NE(traceSeed(tlc), traceSeed(other_budget));

    RunSpec other_seed = tlc;
    other_seed.baseSeed = 99;
    EXPECT_NE(traceSeed(tlc), traceSeed(other_seed));
}

TEST(RunSpec, CacheKeyIsContentAddressed)
{
    RunSpec a;
    a.benchmark = "gcc";
    RunSpec b = a;
    EXPECT_EQ(cacheKey(a), cacheKey(b));
    EXPECT_EQ(cacheKey(a).size(), 16u);
    b.config.design = "DNUCA";
    EXPECT_NE(cacheKey(a), cacheKey(b));

    // Machine changes (core count, L1 geometry, l2 options) move the
    // cache key as well — the hash suffix feeds the content address.
    RunSpec c = a;
    c.config.cores = 2;
    EXPECT_NE(cacheKey(a), cacheKey(c));
    RunSpec d = a;
    d.config.l2Options["lineErrorRate"] = 1e-9;
    EXPECT_NE(cacheKey(a), cacheKey(d));
}

TEST(ResultCache, RoundTripsEveryField)
{
    RunSpec spec;
    spec.benchmark = "gcc";
    RunResult result;
    result.design = "TLC";
    result.benchmark = "gcc";
    result.cycles = 123456;
    result.instructions = 20000;
    result.ipc = 1.625;
    result.l2RequestsPer1k = 70.25;
    result.l2MissesPer1k = 0.0625;
    result.meanLookupLatency = 13.1234567890123;
    result.predictablePct = 99.5;
    result.banksPerRequest = 1.0;
    result.networkPowerMw = 321.125;
    result.linkUtilizationPct = 2.75;
    result.closeHitPct = 41.5;
    result.promotesPerInsert = 3205.0;
    result.fastMissPct = 0.5;
    result.multiMatchPct = 3.0;
    result.queueWaitMean = 0.25;
    result.wireMean = 8.5;
    result.bankMean = 4.0;
    result.dramMean = 210.0;
    result.queueWaitSamples = 1401;
    result.wireSamples = 1401;
    result.bankSamples = 1401;
    result.dramSamples = 7;

    ResultCache cache(freshDir("roundtrip"));
    EXPECT_FALSE(cache.load(spec).has_value());
    cache.store(spec, result);
    auto loaded = cache.load(spec);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(resultJson(spec, result), resultJson(spec, *loaded));
}

TEST(ResultCache, RejectsWrongSpecAndGarbage)
{
    RunSpec spec;
    spec.benchmark = "gcc";
    RunResult result;
    result.design = "TLC";
    result.benchmark = "gcc";
    std::string text = resultJson(spec, result);

    RunSpec other = spec;
    other.benchmark = "mcf";
    EXPECT_TRUE(readResultJson(text, spec).has_value());
    EXPECT_FALSE(readResultJson(text, other).has_value());
    EXPECT_FALSE(readResultJson("not json", spec).has_value());
    EXPECT_FALSE(readResultJson("{}", spec).has_value());

    // A truncated cache file must read as a miss, not a bad result —
    // and the corrupt entry is discarded so the re-run can store a
    // clean replacement.
    ResultCache cache(freshDir("garbage"));
    cache.store(spec, result);
    std::string path = cache.dir() + "/" + cacheKey(spec) + ".json";
    std::ofstream(path) << text.substr(0, text.size() / 2);
    EXPECT_FALSE(cache.load(spec).has_value());
    EXPECT_FALSE(std::filesystem::exists(path));
    cache.store(spec, result);
    EXPECT_TRUE(cache.load(spec).has_value());

    // Arbitrary garbage (not just truncation) is a miss as well.
    std::ofstream(path) << "\xff\xfe garbage not json at all";
    EXPECT_FALSE(cache.load(spec).has_value());
}

TEST(Sweep, AddUniqueDeduplicates)
{
    std::vector<RunSpec> specs;
    RunSpec a;
    a.benchmark = "gcc";
    RunSpec b;
    b.benchmark = "mcf";
    addUnique(specs, a);
    addUnique(specs, b);
    addUnique(specs, a);
    EXPECT_EQ(specs.size(), 2u);
}

TEST(Sweep, ParallelByteIdenticalToSerial)
{
    auto specs = table6Specs();
    ASSERT_EQ(specs.size(), 24u); // 12 benchmarks x {TLC, DNUCA}

    SweepOptions serial;
    serial.jobs = 1;
    serial.captureStats = true;
    serial.verbose = false;
    auto serial_outcome = runSweep(specs, serial);

    SweepOptions parallel = serial;
    parallel.jobs = 8;
    auto parallel_outcome = runSweep(specs, parallel);

    ASSERT_EQ(serial_outcome.results.size(),
              parallel_outcome.results.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], serial_outcome.results[i]),
                  resultJson(specs[i], parallel_outcome.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(serial_outcome.statsJson[i],
                  parallel_outcome.statsJson[i])
            << specKey(specs[i]);
        EXPECT_FALSE(serial_outcome.statsJson[i].empty());
    }
    EXPECT_EQ(mergedStatsJson(specs, serial_outcome),
              mergedStatsJson(specs, parallel_outcome));
}

TEST(Sweep, WarmCacheExecutesZeroSimulations)
{
    auto specs = table6Specs();

    SweepOptions options;
    options.jobs = 4;
    options.cacheDir = freshDir("warmcache");
    options.verbose = false;

    auto cold = runSweep(specs, options);
    EXPECT_EQ(cold.executed, specs.size());
    EXPECT_EQ(cold.cached, 0u);

    auto warm = runSweep(specs, options);
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.cached, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], cold.results[i]),
                  resultJson(specs[i], warm.results[i]))
            << specKey(specs[i]);
    }
}

TEST(Sweep, DdrFaultSweepDeterministic)
{
    // PR 8 acceptance: a multi-core, fault-enabled sweep on the "ddr"
    // backend is byte-identical serial vs parallel and cold vs warm
    // cache — scheduling reorders and refresh make the model richer,
    // not less deterministic.
    auto specs = table6Specs();
    specs.resize(6);
    for (RunSpec &spec : specs) {
        spec.config.cores = 2;
        spec.config.mem.backend = "ddr";
        spec.config.mem.options["channels"] = 1;
        spec.config.mem.options["tREFI"] = 2'000;
        spec.config.fault.enabled = true;
        spec.config.fault.dramStuckBanks = "0@0,5@10000";
    }
    // The non-default machine mints a content-hash suffix, giving the
    // backend its own result-cache namespace.
    EXPECT_NE(specKey(specs[0]).find("/c"), std::string::npos);

    SweepOptions serial;
    serial.jobs = 1;
    serial.captureStats = true;
    serial.verbose = false;
    serial.cacheDir = freshDir("ddrfault");
    auto cold = runSweep(specs, serial);
    EXPECT_EQ(cold.executed, specs.size());

    SweepOptions parallel = serial;
    parallel.jobs = 8;
    parallel.cacheDir.clear(); // no cache: force re-execution
    auto par = runSweep(specs, parallel);

    ASSERT_EQ(cold.results.size(), par.results.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], cold.results[i]),
                  resultJson(specs[i], par.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(cold.statsJson[i], par.statsJson[i])
            << specKey(specs[i]);
    }

    // The controller stats made it into the captured stats tree.
    EXPECT_NE(cold.statsJson[0].find("row_hits"), std::string::npos);
    EXPECT_NE(cold.statsJson[0].find("lat_bank"), std::string::npos);

    auto warm = runSweep(specs, serial);
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(warm.cached, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], cold.results[i]),
                  resultJson(specs[i], warm.results[i]))
            << specKey(specs[i]);
    }
}

TEST(Sweep, MergedStatsEmitsNullForUncapturedRuns)
{
    RunSpec spec;
    spec.benchmark = "gcc";
    SweepOutcome outcome;
    outcome.results.resize(1);
    outcome.statsJson.resize(1);
    std::string merged = mergedStatsJson({spec}, outcome);
    EXPECT_NE(merged.find("\"" + specKey(spec) + "\": null"),
              std::string::npos);
}

TEST(Sweep, MemoHotByteIdenticalToMemoCold)
{
    auto specs = table6Specs();

    SweepOptions options;
    options.jobs = 1;
    options.captureStats = true;
    options.verbose = false;

    // Memo-cold: the physics cache computes every entry from scratch.
    phys::PhysCache::instance().clear();
    auto cold = runSweep(specs, options);

    // Memo-hot: every physics value resolves from the process-wide
    // memo populated by the cold pass. Results must not move by a bit
    // — the memo returns stored bits, never recomputed ones.
    auto hot = runSweep(specs, options);

    ASSERT_EQ(cold.results.size(), hot.results.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], cold.results[i]),
                  resultJson(specs[i], hot.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(cold.statsJson[i], hot.statsJson[i])
            << specKey(specs[i]);
    }
}

namespace
{

/** RAII guard: enable spatial telemetry for one test body. */
struct SpatialGuard
{
    SpatialGuard()
    {
        metrics::spatialEnabled = true;
        metrics::spatialWindowTicks = 0;
    }
    ~SpatialGuard() { metrics::spatialEnabled = false; }
};

} // namespace

TEST(Telemetry, HeatmapsSerialByteIdenticalToParallel)
{
    // Heatmap rows are keyed by simulated tick, never wall-clock, so
    // the spatial matrices must not move between a 1-worker and an
    // 8-worker sweep.
    auto specs = table6Specs();
    SpatialGuard spatial;

    SweepOptions serial;
    serial.jobs = 1;
    serial.captureStats = true;
    serial.verbose = false;
    auto serial_outcome = runSweep(specs, serial);

    SweepOptions parallel = serial;
    parallel.jobs = 8;
    auto parallel_outcome = runSweep(specs, parallel);

    // The heatmaps are actually present in the captured stats...
    ASSERT_FALSE(serial_outcome.statsJson.empty());
    EXPECT_NE(serial_outcome.statsJson[0].find(
                  "\"kind\": \"heatmap\""),
              std::string::npos);
    // ...and byte-identical across worker counts.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(serial_outcome.statsJson[i],
                  parallel_outcome.statsJson[i])
            << specKey(specs[i]);
    }
    EXPECT_EQ(mergedStatsJson(specs, serial_outcome),
              mergedStatsJson(specs, parallel_outcome));
}

TEST(Telemetry, HeatmapsMemoHotByteIdenticalToMemoCold)
{
    auto specs = table6Specs();
    SpatialGuard spatial;

    SweepOptions options;
    options.jobs = 1;
    options.captureStats = true;
    options.verbose = false;

    phys::PhysCache::instance().clear();
    auto cold = runSweep(specs, options);
    auto hot = runSweep(specs, options);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(cold.statsJson[i], hot.statsJson[i])
            << specKey(specs[i]);
    }
}

TEST(Telemetry, DisabledSpatialTelemetryLeavesStatsShapeAlone)
{
    // With the flag off no heatmap objects are even constructed, so
    // the exported stats tree has exactly the pre-telemetry shape —
    // the guarantee that keeps every paper table/figure bit-identical.
    auto specs = table6Specs();
    ASSERT_FALSE(metrics::spatialEnabled);

    SweepOptions options;
    options.jobs = 2;
    options.captureStats = true;
    options.verbose = false;
    auto outcome = runSweep(specs, options);

    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(outcome.statsJson[i].find("heatmap"),
                  std::string::npos)
            << specKey(specs[i]);
}

TEST(Telemetry, ProfilerChangesNoStatsKey)
{
    // The profiler observes wall-clock only; enabling it must leave
    // every simulation result and every stats key byte-identical.
    auto specs = table6Specs();

    SweepOptions options;
    options.jobs = 2;
    options.captureStats = true;
    options.verbose = false;

    ASSERT_FALSE(prof::enabled());
    auto off = runSweep(specs, options);

    prof::setEnabled(true);
    auto on = runSweep(specs, options);
    prof::setEnabled(false);
    prof::Registry::instance().reset();

    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], off.results[i]),
                  resultJson(specs[i], on.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(off.statsJson[i], on.statsJson[i])
            << specKey(specs[i]);
    }
}

TEST(Journal, PartlyCachedSweepJournalsEveryRunOnce)
{
    // The journal is the sweep's one per-run ledger: a parallel sweep
    // that is half cache hits writes one done record per spec, with
    // its full result, then a complete record matching the outcome.
    auto specs = table6Specs();
    std::string dir = freshDir("journal_ledger");
    std::filesystem::create_directories(dir);

    SweepOptions options;
    options.jobs = 4;
    options.verbose = false;
    options.cacheDir = dir + "/cache";
    std::vector<RunSpec> warm;
    for (std::size_t i = 0; i < specs.size(); i += 2)
        warm.push_back(specs[i]);
    ASSERT_EQ(runSweep(warm, options).executed, warm.size());

    options.journalPath = dir + "/sweep.jsonl";
    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.cached, warm.size());
    EXPECT_EQ(outcome.executed, specs.size() - warm.size());
    EXPECT_EQ(outcome.failed, 0u);

    std::map<std::string, std::size_t> slot;
    for (std::size_t i = 0; i < specs.size(); ++i)
        slot[specKey(specs[i])] = i;
    std::vector<int> done(specs.size(), 0);
    std::vector<std::string> events;
    std::ifstream in(options.journalPath);
    std::string line;
    while (std::getline(in, line)) {
        auto rec = json::parse(line);
        ASSERT_TRUE(rec) << line;
        const std::string *event = rec->findString("event");
        ASSERT_NE(event, nullptr) << line;
        events.push_back(*event);
        if (*event == "done") {
            const std::string *spec = rec->findString("spec");
            const std::string *outcome_name =
                rec->findString("outcome");
            const std::string *result = rec->findString("result");
            ASSERT_TRUE(spec && outcome_name && result) << line;
            ASSERT_EQ(slot.count(*spec), 1u) << *spec;
            std::size_t i = slot[*spec];
            ++done[i];
            EXPECT_EQ(*outcome_name, i % 2 == 0 ? "cached" : "executed")
                << *spec;
            EXPECT_EQ(*result, resultJson(specs[i], outcome.results[i]))
                << *spec;
        } else if (*event == "complete") {
            EXPECT_EQ(rec->find("executed")->asU64(), outcome.executed);
            EXPECT_EQ(rec->find("cached")->asU64(), outcome.cached);
            EXPECT_EQ(rec->find("failed")->asU64(), outcome.failed);
        }
    }
    for (std::size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(done[i], 1) << specKey(specs[i]);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front(), "header");
    EXPECT_EQ(events.back(), "complete");
    EXPECT_EQ(std::count(events.begin(), events.end(), "complete"), 1);
}

namespace
{

/** RAII guard: set one environment variable for a test body. */
struct SetEnv
{
    SetEnv(const char *name_, const std::string &value) : name(name_)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~SetEnv() { ::unsetenv(name); }
    const char *name;
};

/** A handful of table6 specs: enough coverage, sub-second runtime. */
std::vector<RunSpec>
smallSpecs(std::size_t n = 4)
{
    auto specs = table6Specs();
    specs.resize(n);
    return specs;
}

SweepOptions
quietOptions()
{
    SweepOptions options;
    options.jobs = 2;
    options.captureStats = true;
    options.verbose = false;
    return options;
}

/**
 * The verdict of a sandboxed run killed by @p cause. Under
 * AddressSanitizer the child dies another way: ASan handles its
 * deliberate SIGSEGV itself, and its shadow memory trips RLIMIT_AS.
 * Either way the child exits with status 1 before writing a result.
 */
std::string
killVerdict(const std::string &cause)
{
#ifdef __SANITIZE_ADDRESS__
    (void)cause;
    return "child exited with status 1 without a complete result";
#else
    return cause;
#endif
}

} // namespace

TEST(Robustness, ProcessIsolationByteIdenticalToThread)
{
    // The sandbox conformance pin: a forked, pipe-marshalled run is
    // byte-identical (results AND captured stats) to the same run
    // executed in-process under thread isolation.
    auto specs = smallSpecs();

    SweepOptions thread = quietOptions();
    thread.isolate = Isolation::Thread;
    auto thread_outcome = runSweep(specs, thread);

    SweepOptions process = quietOptions();
    process.isolate = Isolation::Process;
    auto process_outcome = runSweep(specs, process);

    EXPECT_EQ(process_outcome.failed, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], thread_outcome.results[i]),
                  resultJson(specs[i], process_outcome.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(thread_outcome.statsJson[i],
                  process_outcome.statsJson[i])
            << specKey(specs[i]);
        EXPECT_FALSE(process_outcome.statsJson[i].empty());
    }
    EXPECT_EQ(mergedStatsJson(specs, thread_outcome),
              mergedStatsJson(specs, process_outcome));
}

TEST(Robustness, SandboxedCrashIsolatedToOneRun)
{
    // Acceptance: a segfaulting run under --isolate=process becomes
    // one failed run ("signal 11"), and every other run of the sweep
    // is byte-identical to a fault-free sweep.
    auto specs = smallSpecs();

    SweepOptions options = quietOptions();
    options.isolate = Isolation::Process;
    auto clean = runSweep(specs, options);
    ASSERT_EQ(clean.failed, 0u);

    std::size_t victim = 1;
    SweepOutcome crashed;
    {
        SetEnv hook("TLSIM_TEST_CRASH_SPEC", specKey(specs[victim]));
        crashed = runSweep(specs, options);
    }
    EXPECT_EQ(crashed.failed, 1u);
    EXPECT_NE(crashed.results[victim].error.find(killVerdict("signal 11")),
              std::string::npos)
        << crashed.results[victim].error;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i == victim)
            continue;
        EXPECT_EQ(resultJson(specs[i], clean.results[i]),
                  resultJson(specs[i], crashed.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(clean.statsJson[i], crashed.statsJson[i])
            << specKey(specs[i]);
    }
}

TEST(Robustness, SandboxWallTimeoutKillsHungRun)
{
    auto specs = smallSpecs(2);

    SweepOptions options = quietOptions();
    options.isolate = Isolation::Process;
    options.runTimeoutSec = 0.25;

    SetEnv hook("TLSIM_TEST_HANG_SPEC", specKey(specs[0]));
    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_NE(outcome.results[0].error.find("timeout after"),
              std::string::npos)
        << outcome.results[0].error;
    EXPECT_TRUE(outcome.results[1].error.empty())
        << outcome.results[1].error;
}

TEST(Robustness, SandboxCpuLimitKillsSpinningRun)
{
    auto specs = smallSpecs(1);

    SweepOptions options = quietOptions();
    options.jobs = 1;
    options.isolate = Isolation::Process;
    options.rlimitCpuSec = 1;

    SetEnv hook("TLSIM_TEST_HANG_SPEC", specKey(specs[0]));
    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_NE(outcome.results[0].error.find("cpu limit"),
              std::string::npos)
        << outcome.results[0].error;
}

TEST(Robustness, SandboxRssLimitKillsAllocatingRun)
{
    auto specs = smallSpecs(1);

    SweepOptions options = quietOptions();
    options.jobs = 1;
    options.isolate = Isolation::Process;
    options.rlimitRssMb = 256;

    SetEnv hook("TLSIM_TEST_OOM_SPEC", specKey(specs[0]));
    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_NE(outcome.results[0].error.find(killVerdict("rss limit")),
              std::string::npos)
        << outcome.results[0].error;
}

#if defined(__linux__)
namespace
{

/** A child of @p parent, found by scanning /proc; -1 if none. */
pid_t
childOf(pid_t parent)
{
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc")) {
        std::string name = entry.path().filename();
        if (name.empty() || !std::isdigit(name[0]))
            continue;
        std::ifstream stat(entry.path() / "stat");
        std::string line;
        if (!std::getline(stat, line))
            continue;
        // "pid (comm) state ppid ...": comm may hold spaces and
        // parentheses, so read on from the last ')'.
        std::istringstream rest(line.substr(line.rfind(')') + 1));
        char state = 0;
        pid_t ppid = 0;
        if (rest >> state >> ppid && ppid == parent)
            return static_cast<pid_t>(std::stol(name));
    }
    return -1;
}

} // namespace

TEST(Robustness, SandboxWorkerDiesWithItsParent)
{
    // A sandboxed run must not outlive the sweep that forked it: an
    // orphan keeps spinning and holds every inherited pipe open. The
    // helper stands in for the sweep. The hung grandchild inherits
    // the write end of `alive`, so EOF on the read end means it died.
    auto specs = smallSpecs(1);
    SetEnv hook("TLSIM_TEST_HANG_SPEC", specKey(specs[0]));
    int alive[2];
    ASSERT_EQ(::pipe(alive), 0);
    pid_t helper = ::fork();
    ASSERT_GE(helper, 0);
    if (helper == 0) {
        ::setpgid(0, 0);
        ::close(alive[0]);
        std::string stats;
        runSandboxed(specs[0], false, stats, SandboxLimits{});
        ::_exit(0);
    }
    ::setpgid(helper, helper);
    ::close(alive[1]);

    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (childOf(helper) < 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    bool forked = childOf(helper) >= 0;
    ::kill(helper, SIGKILL);
    ::waitpid(helper, nullptr, 0);

    struct pollfd pfd = {alive[0], POLLIN, 0};
    char byte = 0;
    bool gone = ::poll(&pfd, 1, 5000) == 1 &&
                ::read(alive[0], &byte, 1) == 0;
    ::close(alive[0]);
    // The grandchild shares the helper's process group: kill a
    // survivor so a failure leaves nothing spinning.
    ::kill(-helper, SIGKILL);
    EXPECT_TRUE(forked);
    EXPECT_TRUE(gone) << "sandboxed run outlived its parent by 5 s";
}
#endif

TEST(Robustness, ThreadIsolationRunTimeout)
{
    // Thread mode can't fork, so --run-timeout rides the watchdog's
    // wall deadline, polled from the cores' wait loops.
    auto specs = smallSpecs(1);
    specs[0].config.measure = 30'000'000;

    SweepOptions options = quietOptions();
    options.jobs = 1;
    options.isolate = Isolation::Thread;
    options.runTimeoutSec = 0.05;

    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_NE(outcome.results[0].error.find("run timeout"),
              std::string::npos)
        << outcome.results[0].error;
}

TEST(Robustness, ArmedButUnfiredTimeoutLeavesResultsAlone)
{
    // The watchdog only observes: a run that finishes under its wall
    // deadline must be byte-identical to an untimed one.
    auto specs = smallSpecs(2);

    SweepOptions untimed = quietOptions();
    auto reference = runSweep(specs, untimed);

    SweepOptions timed = quietOptions();
    timed.runTimeoutSec = 3600.0;
    auto guarded = runSweep(specs, timed);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], reference.results[i]),
                  resultJson(specs[i], guarded.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(reference.statsJson[i], guarded.statsJson[i])
            << specKey(specs[i]);
    }
}

TEST(Journal, ResumeRestoresCompletedRunsByteIdentically)
{
    auto specs = smallSpecs();
    std::string dir = freshDir("journal_resume");
    std::filesystem::create_directories(dir);

    SweepOptions options = quietOptions();
    options.journalPath = dir + "/sweep.jsonl";
    auto first = runSweep(specs, options);
    EXPECT_EQ(first.executed, specs.size());

    // Resume against the completed journal: everything restores,
    // nothing executes, and the merged stats document (the --stats-
    // json payload) is byte-identical.
    options.resume = true;
    auto resumed = runSweep(specs, options);
    EXPECT_EQ(resumed.executed, 0u);
    EXPECT_EQ(resumed.restored, specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], first.results[i]),
                  resultJson(specs[i], resumed.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(first.statsJson[i], resumed.statsJson[i])
            << specKey(specs[i]);
    }
    EXPECT_EQ(mergedStatsJson(specs, first),
              mergedStatsJson(specs, resumed));
}

TEST(Journal, ResumeRequeuesInFlightAndTornRecords)
{
    auto specs = smallSpecs();
    std::string dir = freshDir("journal_requeue");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/sweep.jsonl";

    SweepOptions options = quietOptions();
    options.jobs = 1; // deterministic journal order for the cut
    options.journalPath = path;
    auto first = runSweep(specs, options);
    EXPECT_EQ(first.executed, specs.size());

    // Reconstruct a mid-flight kill: keep the header, the first run's
    // started+done pair, a dangling started for the second run, and a
    // torn final line.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 4u);
    std::ofstream out(path, std::ios::trunc);
    out << lines[0] << "\n"   // header
        << lines[1] << "\n"   // started #0
        << lines[2] << "\n"   // done #0
        << lines[3] << "\n"   // started #1 (in-flight at the "kill")
        << lines[2].substr(0, lines[2].size() / 2); // torn line
    out.close();

    auto state = journal::loadForResume(path, specs);
    ASSERT_TRUE(state.ok) << state.error;
    EXPECT_EQ(state.restored, 1u);
    EXPECT_EQ(state.inFlight, 1u);

    options.resume = true;
    auto resumed = runSweep(specs, options);
    EXPECT_EQ(resumed.restored, 1u);
    EXPECT_EQ(resumed.executed, specs.size() - 1);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], first.results[i]),
                  resultJson(specs[i], resumed.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(first.statsJson[i], resumed.statsJson[i])
            << specKey(specs[i]);
    }
}

TEST(Journal, RejectsIdentityMismatch)
{
    auto specs = smallSpecs();
    std::string dir = freshDir("journal_identity");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/sweep.jsonl";

    SweepOptions options = quietOptions();
    options.journalPath = path;
    runSweep(specs, options);

    // Different spec list (one budget moved): same machine, different
    // identity — the journal must refuse to resume.
    auto other = specs;
    other[0].config.measure += 1;
    auto state = journal::loadForResume(path, other);
    EXPECT_FALSE(state.ok);
    EXPECT_NE(state.error.find("identity mismatch"),
              std::string::npos)
        << state.error;

    // Different machine: same failure mode.
    auto cmp = specs;
    for (auto &spec : cmp)
        spec.config.cores = 2;
    state = journal::loadForResume(path, cmp);
    EXPECT_FALSE(state.ok);

    // A journal with no header is unusable.
    std::ofstream(path, std::ios::trunc)
        << "{\"schema\": \"tlsim-journal-v1\", \"event\": "
           "\"started\", \"spec\": \"x\"}\n";
    state = journal::loadForResume(path, specs);
    EXPECT_FALSE(state.ok);
    EXPECT_NE(state.error.find("header"), std::string::npos);
}

TEST(Journal, EscapeRoundTripsControlCharacters)
{
    std::string nasty = "line1\nline2\t\"quoted\\\"\r\x01\x1f end";
    std::string escaped = json::escape(nasty);
    auto back = json::parse("\"" + escaped + "\"");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->text, nasty);
    // The escaped form is single-line (JSONL-safe).
    EXPECT_EQ(escaped.find('\n'), std::string::npos);

    // A line with a malformed escape is unparseable: corruption in
    // the interior of a journal, a torn record at its end.
    auto specs = smallSpecs(1);
    std::string dir = freshDir("journal_escape");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/sweep.jsonl";
    {
        journal::Writer writer(path, false);
        writer.writeHeader(specs);
    }
    std::string bad = "{\"schema\": \"tlsim-journal-v1\", \"event\": "
                      "\"started\", \"spec\": \"x\\u00\"}";
    std::ofstream(path, std::ios::app) << bad << "\n";
    auto state = journal::loadForResume(path, specs);
    EXPECT_TRUE(state.ok) << state.error;
    std::ofstream(path, std::ios::app) << bad << "\n";
    state = journal::loadForResume(path, specs);
    EXPECT_FALSE(state.ok);
    EXPECT_EQ(state.error, "corrupt journal line 2");
}

TEST(Fsck, QuarantinesCorruptEntriesOnly)
{
    auto specs = smallSpecs(5);
    std::string dir = freshDir("fsck");
    ResultCache cache(dir);

    RunResult result;
    result.design = "TLC";
    result.cycles = 123456;
    result.ipc = 1.25;
    for (const auto &spec : specs) {
        result.benchmark = spec.benchmark;
        cache.store(spec, result);
    }

    auto entryPath = [&](std::size_t i) {
        return dir + "/" + cacheKey(specs[i]) + ".json";
    };
    auto readEntry = [&](std::size_t i) {
        std::ifstream in(entryPath(i));
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    // Rewrite entry @p i with its first @p from replaced by @p to.
    auto mutateEntry = [&](std::size_t i, const std::string &from,
                           const std::string &to) {
        std::string text = readEntry(i);
        std::size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        text.replace(at, from.size(), to);
        std::ofstream(entryPath(i), std::ios::trunc) << text;
    };

    // Corrupt entry 0 (truncate), misfile a copy of entry 1 under a
    // wrong name, flip a digit to a letter in a u64 (entry 3) and a
    // double (entry 4) field, and leave a tmp droppings file around.
    std::string path0 = entryPath(0);
    std::string text0 = readEntry(0);
    std::ofstream(path0, std::ios::trunc)
        << text0.substr(0, text0.size() / 2);
    std::string misfiled = dir + "/0123456789abcdef.json";
    std::ofstream(misfiled) << readEntry(1);
    mutateEntry(3, "\"cycles\": 123456", "\"cycles\": 12x456");
    mutateEntry(4, "\"ipc\": 1.25", "\"ipc\": 1.2x");
    std::ofstream(dir + "/deadbeef.json.tmp.12345") << "partial";
    EXPECT_FALSE(readResultJson(readEntry(3), specs[3]).has_value());
    EXPECT_FALSE(readResultJson(readEntry(4), specs[4]).has_value());

    auto report = fsckCache(dir);
    EXPECT_EQ(report.scanned, 6u); // 5 entries + the misfiled copy
    EXPECT_EQ(report.valid, 2u);
    EXPECT_EQ(report.quarantined, 4u);
    EXPECT_EQ(report.problems.size(), 4u);

    // Quarantined files moved (preserved, not deleted), healthy ones
    // stayed, and the cache no longer sees the corrupt entries.
    EXPECT_FALSE(std::filesystem::exists(path0));
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/quarantine/" + cacheKey(specs[0]) + ".json"));
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/quarantine/0123456789abcdef.json"));
    EXPECT_FALSE(cache.load(specs[0]).has_value());
    EXPECT_TRUE(cache.load(specs[1]).has_value());
    EXPECT_TRUE(cache.load(specs[2]).has_value());

    // A second pass over the now-clean cache finds nothing to do.
    auto clean = fsckCache(dir);
    EXPECT_EQ(clean.scanned, 2u);
    EXPECT_EQ(clean.quarantined, 0u);
}

namespace
{

/** Every paper design on each of @p benchmarks, benchmark-major. */
std::vector<RunSpec>
allDesignSpecs(const std::vector<std::string> &benchmarks,
               const SystemConfig &base = testConfig())
{
    std::vector<RunSpec> specs;
    for (const std::string &bench : benchmarks)
        for (const std::string &design : allDesigns())
            specs.push_back(makeRunSpec(design, bench, base));
    return specs;
}

/**
 * Each spec run alone through runBenchmark, warming itself; a run
 * that throws records the message as thread isolation does.
 */
SweepOutcome
perSpecOutcome(const std::vector<RunSpec> &specs)
{
    SweepOutcome outcome;
    outcome.results.resize(specs.size());
    outcome.statsJson.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        try {
            outcome.results[i] = detail::executeSpec(
                specs[i], true, outcome.statsJson[i], 0.0);
        } catch (const std::exception &e) {
            outcome.results[i].error = e.what();
            outcome.statsJson[i].clear();
        }
    }
    return outcome;
}

/** Results and stats of spec @p i match the per-spec reference. */
void
expectSameRun(const std::vector<RunSpec> &specs, std::size_t i,
              const SweepOutcome &reference, const SweepOutcome &got)
{
    EXPECT_EQ(resultJson(specs[i], reference.results[i]),
              resultJson(specs[i], got.results[i]))
        << specKey(specs[i]);
    EXPECT_EQ(reference.results[i].error, got.results[i].error)
        << specKey(specs[i]);
    EXPECT_EQ(reference.statsJson[i], got.statsJson[i])
        << specKey(specs[i]);
}

void
expectSameSweep(const std::vector<RunSpec> &specs,
                const SweepOutcome &reference, const SweepOutcome &got)
{
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectSameRun(specs, i, reference, got);
    EXPECT_EQ(mergedStatsJson(specs, reference),
              mergedStatsJson(specs, got));
}

/** Count of profiler nodes named @p name anywhere under @p node. */
std::uint64_t
profCount(const prof::Node &node, const std::string &name)
{
    std::uint64_t count = node.name == name ? node.count : 0;
    for (const auto &child : node.children)
        count += profCount(*child, name);
    return count;
}

extern "C" void
ignoreSignal(int)
{}

} // namespace

TEST(WarmShare, SweepMatchesPerSpecRuns)
{
    // Six designs x two benchmarks: two groups of six, each warmed
    // once and replayed five times.
    auto specs = allDesignSpecs({"gcc", "mcf"});
    auto reference = perSpecOutcome(specs);
    for (int jobs : {1, 4}) {
        SweepOptions options = quietOptions();
        options.jobs = jobs;
        auto outcome = runSweep(specs, options);
        EXPECT_EQ(outcome.executed, specs.size());
        EXPECT_EQ(outcome.failed, 0u);
        EXPECT_EQ(outcome.replayed, 10u) << "jobs=" << jobs;
        expectSameSweep(specs, reference, outcome);
    }
}

TEST(WarmShare, DdrFaultCmpSweepMatchesPerSpecRuns)
{
    SystemConfig base = testConfig();
    base.cores = 2;
    base.mem.backend = "ddr";
    base.fault.enabled = true;
    base.fault.bitErrorRate = 1e-3;
    base.fault.dramStuckBanks = "0@0";
    auto specs = allDesignSpecs({"apache"}, base);
    auto reference = perSpecOutcome(specs);

    SweepOptions options = quietOptions();
    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_EQ(outcome.replayed, specs.size() - 1);
    expectSameSweep(specs, reference, outcome);
}

TEST(WarmShare, PartlyCachedSweepMatchesPerSpecRuns)
{
    // Half the specs are cached up front, unevenly per benchmark, so
    // the groups left to run hold 5, 3 and 1 specs.
    auto specs = allDesignSpecs({"gcc", "mcf", "swim"});
    auto reference = perSpecOutcome(specs);
    std::vector<RunSpec> precached;
    std::vector<bool> is_cached(specs.size(), false);
    for (std::size_t b = 0, per = 6; b < 3; ++b) {
        std::size_t take = b == 0 ? 1 : b == 1 ? 3 : 5;
        for (std::size_t d = 0; d < take; ++d) {
            precached.push_back(specs[b * per + d]);
            is_cached[b * per + d] = true;
        }
    }

    SweepOptions options = quietOptions();
    options.jobs = 4;
    options.cacheDir = freshDir("warmshare_cache");
    runSweep(precached, options);

    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.cached, 9u);
    EXPECT_EQ(outcome.executed, 9u);
    EXPECT_EQ(outcome.replayed, 4u + 2u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], reference.results[i]),
                  resultJson(specs[i], outcome.results[i]))
            << specKey(specs[i]);
        EXPECT_EQ(is_cached[i] ? std::string() : reference.statsJson[i],
                  outcome.statsJson[i])
            << specKey(specs[i]);
    }
}

TEST(WarmShare, FailedRecordingHandsNoImage)
{
    // The group's first run records, then trips the watchdog in its
    // timed phase. Its image is discarded: the next run records its
    // own and the other four replay that.
    auto specs = allDesignSpecs({"gcc"});
    specs[0].config.fault.enabled = true;
    specs[0].config.fault.watchdogMaxAge = 1;
    auto reference = perSpecOutcome(specs);
    ASSERT_FALSE(reference.results[0].error.empty());

    SweepOptions options = quietOptions();
    options.jobs = 1;
    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_EQ(outcome.results[0].error, reference.results[0].error);
    EXPECT_EQ(outcome.replayed, specs.size() - 2);
    for (std::size_t i = 1; i < specs.size(); ++i)
        expectSameRun(specs, i, reference, outcome);
}

TEST(WarmShare, TimedOutRecordingHandsNoImage)
{
    // Every run hits --run-timeout after its functional warm: no
    // recording succeeds, so no run replays.
    auto specs = allDesignSpecs({"gcc"});
    specs.resize(3);

    SweepOptions options = quietOptions();
    options.jobs = 1;
    options.runTimeoutSec = 1e-9;
    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.failed, specs.size());
    EXPECT_EQ(outcome.replayed, 0u);
    for (const RunResult &result : outcome.results) {
        EXPECT_NE(result.error.find("run timeout"), std::string::npos)
            << result.error;
    }
}

TEST(WarmShare, ProcessIsolationWarmsEachRunAlone)
{
    auto specs = allDesignSpecs({"gcc"});
    specs.resize(3);
    auto reference = perSpecOutcome(specs);

    SweepOptions options = quietOptions();
    options.isolate = Isolation::Process;
    auto outcome = runSweep(specs, options);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_EQ(outcome.replayed, 0u);
    expectSameSweep(specs, reference, outcome);
}

TEST(WarmShare, ResumeWithPartOfAGroupDone)
{
    // One group of six; the journal is cut after its first two runs
    // finished. The resumed sweep runs the other four as a group of
    // its own: one records, three replay.
    auto specs = allDesignSpecs({"gcc"});
    auto reference = perSpecOutcome(specs);
    std::string dir = freshDir("warmshare_resume");
    std::filesystem::create_directories(dir);
    std::string path = dir + "/sweep.jsonl";

    SweepOptions options = quietOptions();
    options.jobs = 1;
    options.journalPath = path;
    runSweep(specs, options);

    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 5u);
    {
        // Header, then started+done for each of the first two runs.
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i < 5; ++i)
            out << lines[i] << "\n";
    }

    options.resume = true;
    auto resumed = runSweep(specs, options);
    EXPECT_EQ(resumed.restored, 2u);
    EXPECT_EQ(resumed.executed, 4u);
    EXPECT_EQ(resumed.replayed, 3u);
    expectSameSweep(specs, reference, resumed);
}

TEST(WarmShare, InterruptedGroupResumesByteIdentically)
{
    // SIGINT lands once the group's recording run is journaled: the
    // worker drains the run in hand and abandons the rest of the
    // group, and --resume completes it byte-identically.
    auto specs = allDesignSpecs({"gcc"});
    auto reference = perSpecOutcome(specs);
    std::string dir = freshDir("warmshare_interrupt");
    std::filesystem::create_directories(dir);

    SweepOptions options = quietOptions();
    options.jobs = 1;
    options.journalPath = dir + "/sweep.jsonl";

    // The sweep restores this handler when it returns, so a signal
    // that arrives late is ignored rather than killing the test.
    struct sigaction quiet = {};
    struct sigaction previous = {};
    quiet.sa_handler = ignoreSignal;
    sigemptyset(&quiet.sa_mask);
    ::sigaction(SIGINT, &quiet, &previous);
    std::atomic<bool> finished{false};
    std::thread interrupter([&] {
        while (!finished.load()) {
            std::ifstream in(options.journalPath);
            std::string text{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
            if (text.find("\"event\": \"done\"") != std::string::npos) {
                ::kill(::getpid(), SIGINT);
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    auto first = runSweep(specs, options);
    finished = true;
    interrupter.join();
    ::sigaction(SIGINT, &previous, nullptr);

    ASSERT_TRUE(first.interrupted);
    ASSERT_GE(first.executed, 1u);
    ASSERT_LT(first.executed, specs.size());

    options.resume = true;
    auto resumed = runSweep(specs, options);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.restored, first.executed);
    EXPECT_EQ(resumed.executed, specs.size() - first.executed);
    if (resumed.executed >= 2) {
        EXPECT_EQ(resumed.replayed, resumed.executed - 1);
    }
    expectSameSweep(specs, reference, resumed);
}

TEST(Telemetry, ProfilerAttributesWarmReplay)
{
    // On a sharing sweep every replaying run gets one funcwarm.replay
    // scope in place of funcwarm, and results stay byte-identical.
    auto specs = allDesignSpecs({"gcc", "mcf"});
    SweepOptions options = quietOptions();
    auto off = runSweep(specs, options);

    prof::setEnabled(true);
    auto on = runSweep(specs, options);
    prof::setEnabled(false);
    auto tree = prof::Registry::instance().snapshot();
    prof::Registry::instance().reset();

    EXPECT_EQ(on.replayed, 10u);
    EXPECT_EQ(profCount(*tree, "funcwarm.replay"), on.replayed);
    EXPECT_EQ(profCount(*tree, "funcwarm"),
              specs.size() - on.replayed);
    EXPECT_EQ(profCount(*tree, "run"), specs.size());
    expectSameSweep(specs, off, on);
}
