/**
 * @file
 * Tests for the fault-injection & resilience subsystem: the seeded
 * injector, schedule parsing, the deadlock watchdog, FaultConfig's
 * config-plumbing guarantees (default config stays bit-identical to
 * the pre-fault-subsystem format), and end-to-end fault runs (bit
 * errors drive retries; a dead link degrades instead of hanging) with
 * serial/parallel determinism.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "harness/config.hh"
#include "harness/sweep/resultcache.hh"
#include "harness/sweep/runspec.hh"
#include "harness/sweep/sweep.hh"
#include "sim/fault/faultconfig.hh"
#include "sim/fault/injector.hh"
#include "sim/fault/watchdog.hh"
#include "sim/logging.hh"

using namespace tlsim;
using namespace tlsim::fault;
using namespace tlsim::harness;

namespace
{

/** Tiny budgets so each fault run finishes in milliseconds. */
sweep::RunSpec
faultSpec(const std::string &design, const std::string &bench)
{
    sweep::RunSpec spec = sweep::makeRunSpec(design, bench);
    spec.config.warmup = 2'000;
    spec.config.measure = 10'000;
    spec.config.functionalWarm = 100'000;
    return spec;
}

sweep::SweepOptions
quietSweep(int jobs)
{
    sweep::SweepOptions options;
    options.jobs = jobs;
    options.verbose = false;
    return options;
}

std::string
resultJson(const sweep::RunSpec &spec, const RunResult &result)
{
    std::ostringstream os;
    writeResultJson(os, spec, result);
    return os.str();
}

} // namespace

TEST(FaultInjector, SameSeedsSameErrorStream)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.bitErrorRate = 0.25;
    Injector a(cfg, 42), b(cfg, 42), c(cfg, 43);
    bool diverged = false;
    for (int i = 0; i < 256; ++i) {
        bool ea = a.messageError(i % 4);
        EXPECT_EQ(ea, b.messageError(i % 4));
        diverged |= ea != c.messageError(i % 4);
    }
    EXPECT_TRUE(diverged); // different stream seed, different stream
    EXPECT_EQ(a.errorsInjected(), b.errorsInjected());
    EXPECT_GT(a.errorsInjected(), 0u);
}

TEST(FaultInjector, LinkWeightScalesErrorRate)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.bitErrorRate = 0.5;
    Injector inj(cfg, 7);
    inj.setLinkWeight(0, 0.0); // weighted rate 0: never faults
    inj.setLinkWeight(1, 2.0); // weighted rate 1.0: always faults
    for (int i = 0; i < 64; ++i) {
        EXPECT_FALSE(inj.messageError(0));
        EXPECT_TRUE(inj.messageError(1));
    }
    EXPECT_DOUBLE_EQ(inj.linkWeight(0), 0.0);
    EXPECT_DOUBLE_EQ(inj.linkWeight(2), 1.0); // default
}

TEST(FaultInjector, ParsesSchedules)
{
    auto sched = parseSchedule(" 3@100, 5 ,7@0 ", "deadLinks");
    ASSERT_EQ(sched.size(), 3u);
    EXPECT_EQ(sched.at(3), 100u);
    EXPECT_EQ(sched.at(5), 0u); // no '@': dead from the start
    EXPECT_EQ(sched.at(7), 0u);
    EXPECT_TRUE(parseSchedule("", "deadLinks").empty());
    EXPECT_THROW(parseSchedule("x@y", "deadLinks"), FatalError);
    EXPECT_THROW(parseSchedule("1@-5", "deadLinks"), FatalError);
}

TEST(FaultInjector, DeadLinksAndStuckBanksRespectOnset)
{
    FaultConfig cfg;
    cfg.enabled = true;
    cfg.deadLinks = "2@50";
    cfg.stuckBanks = "4";
    Injector inj(cfg, 0);
    EXPECT_TRUE(inj.hasDeadLinks());
    EXPECT_FALSE(inj.linkDead(2, 49));
    EXPECT_TRUE(inj.linkDead(2, 50));
    EXPECT_FALSE(inj.linkDead(3, 1000));
    EXPECT_TRUE(inj.bankStuck(4, 0));
    EXPECT_FALSE(inj.bankStuck(5, 0));
}

TEST(FaultInjector, BackoffIsExponentialAndCapped)
{
    FaultConfig cfg;
    cfg.retryBackoff = 8;
    Injector inj(cfg, 0);
    EXPECT_EQ(inj.backoff(0), 8u);
    EXPECT_EQ(inj.backoff(1), 16u);
    EXPECT_EQ(inj.backoff(3), 64u);
    // The shift saturates: huge attempt counts cannot overflow Tick.
    EXPECT_EQ(inj.backoff(1000), inj.backoff(24));
}

TEST(Watchdog, FiresOnQuiescentQueueWithOutstandingRequests)
{
    Watchdog wd(1'000);
    int client = wd.addClient("core0.l1d");
    wd.onIssue(client, 0x40, 100);
    EXPECT_EQ(wd.outstanding(), 1u);
    EXPECT_THROW(wd.onQuiescent(200), PanicError);
    EXPECT_EQ(wd.firings(), 1u);
}

TEST(Watchdog, QuiescenceWithNothingPendingIsFine)
{
    Watchdog wd(1'000);
    wd.addClient("core0.l1d");
    wd.onQuiescent(500);
    EXPECT_EQ(wd.firings(), 0u);
}

TEST(Watchdog, FiresOnOverAgeRequestOnly)
{
    Watchdog wd(1'000);
    int client = wd.addClient("core0.l1i");
    wd.onIssue(client, 0x80, 100);
    wd.checkAge(500); // within budget: no fire
    EXPECT_EQ(wd.firings(), 0u);
    EXPECT_THROW(wd.checkAge(2'000), PanicError);
    EXPECT_EQ(wd.firings(), 1u);
}

TEST(Watchdog, CompletedRequestsDoNotFire)
{
    Watchdog wd(1'000);
    int client = wd.addClient("core0.l1d");
    wd.onIssue(client, 0x40, 100);
    wd.onComplete(client, 0x40);
    EXPECT_EQ(wd.outstanding(), 0u);
    wd.onQuiescent(5'000); // nothing outstanding: quiescence is fine
    wd.checkAge(5'000);
    EXPECT_EQ(wd.firings(), 0u);
}

TEST(Watchdog, DiagnosticCallbackRunsBeforePanic)
{
    Watchdog wd(10);
    int client = wd.addClient("core0.l1d");
    bool dumped = false;
    wd.setDiagnostic([&] { dumped = true; });
    wd.onIssue(client, 0x40, 0);
    EXPECT_THROW(wd.checkAge(100), PanicError);
    EXPECT_TRUE(dumped);
}

TEST(FaultConfig, DefaultLeavesCanonicalKeyAndHashesUntouched)
{
    // The fault section must not appear for a default FaultConfig:
    // every pre-fault-subsystem canonical key, machine hash, and
    // cache entry stays bit-identical.
    SystemConfig config;
    EXPECT_EQ(config.canonicalKey().find("fault."), std::string::npos);

    SystemConfig faulty;
    faulty.fault.enabled = true;
    faulty.fault.bitErrorRate = 1e-3;
    EXPECT_NE(faulty.canonicalKey().find("fault."), std::string::npos);
    EXPECT_NE(faulty.canonicalKey(), config.canonicalKey());
    EXPECT_NE(faulty.machineHash(), config.machineHash());

    // Spec keys follow: a faulty machine is a non-default machine.
    sweep::RunSpec plain = sweep::makeRunSpec("TLC", "gcc");
    sweep::RunSpec injected = plain;
    injected.config.fault = faulty.fault;
    EXPECT_EQ(sweep::specKey(plain).find("/c"), std::string::npos);
    EXPECT_NE(sweep::specKey(injected).find("/c"), std::string::npos);
    EXPECT_NE(sweep::cacheKey(plain), sweep::cacheKey(injected));
}

TEST(FaultConfig, JsonRoundTripsEveryField)
{
    SystemConfig config;
    config.fault.enabled = true;
    config.fault.bitErrorRate = 2.5e-4;
    config.fault.deriveFromMargin = true;
    config.fault.deadLinks = "0@100,3";
    config.fault.stuckBanks = "7@5000";
    config.fault.maxRetries = 9;
    config.fault.retryBackoff = 16;
    config.fault.requestTimeout = 9999;
    config.fault.crcCycles = 2;
    config.fault.watchdogMaxAge = 123456;
    config.fault.seed = 77;
    SystemConfig loaded = loadConfigJson(configToJson(config));
    EXPECT_EQ(loaded, config);
    EXPECT_EQ(loaded.fault, config.fault);
}

TEST(FaultConfig, LoadsConfigsWrittenBeforeFaultSubsystem)
{
    // Strip the fault object from a saved config to reproduce the
    // pre-fault-subsystem JSON shape; it must still load, with a
    // default FaultConfig.
    SystemConfig config;
    std::string json = configToJson(config);
    std::size_t pos = json.find(",\n  \"fault\"");
    ASSERT_NE(pos, std::string::npos);
    std::string legacy = json.substr(0, pos) + "\n}\n";
    SystemConfig loaded = loadConfigJson(legacy);
    EXPECT_EQ(loaded, config);
    EXPECT_EQ(loaded.fault, FaultConfig{});
}

TEST(FaultRun, BitErrorsDriveRetriesAndFaultLatency)
{
    sweep::RunSpec spec = faultSpec("TLC", "gcc");
    spec.config.fault.enabled = true;
    spec.config.fault.bitErrorRate = 0.02;
    auto outcome = sweep::runSweep({spec}, quietSweep(1));
    ASSERT_EQ(outcome.failed, 0u);
    const RunResult &r = outcome.results[0];
    EXPECT_TRUE(r.error.empty());
    EXPECT_GT(r.linkRetries, 0.0);
    EXPECT_GT(r.faultSamples, 0u);
    EXPECT_GT(r.faultMean, 0.0); // CRC surcharge at minimum
}

TEST(FaultRun, DeadLinkDegradesInsteadOfHanging)
{
    // Kill pair 0's down link (id 0) from t=0: every group whose
    // members ride pair 0 must fall back to the RC path and the run
    // still completes with zero watchdog firings.
    sweep::RunSpec spec = faultSpec("TLC", "gcc");
    spec.config.fault.enabled = true;
    spec.config.fault.deadLinks = "0@0";
    auto outcome = sweep::runSweep({spec}, quietSweep(1));
    ASSERT_EQ(outcome.failed, 0u);
    const RunResult &r = outcome.results[0];
    EXPECT_TRUE(r.error.empty());
    EXPECT_GT(r.degradedRequests, 0.0);
    EXPECT_GT(r.faultSamples, 0u);
}

TEST(FaultRun, MarginDerivedWeightsStayDeterministic)
{
    sweep::RunSpec spec = faultSpec("TLCopt500", "mcf");
    spec.config.fault.enabled = true;
    spec.config.fault.bitErrorRate = 0.01;
    spec.config.fault.deriveFromMargin = true;
    auto first = sweep::runSweep({spec}, quietSweep(1));
    auto second = sweep::runSweep({spec}, quietSweep(1));
    ASSERT_EQ(first.failed, 0u);
    EXPECT_EQ(resultJson(spec, first.results[0]),
              resultJson(spec, second.results[0]));
    EXPECT_GT(first.results[0].linkRetries, 0.0);
}

TEST(FaultRun, ParallelAndWarmCacheMatchSerial)
{
    // The fault stream derives from the spec, not the schedule: a
    // fault sweep is deterministic across --jobs and cache state.
    std::vector<sweep::RunSpec> specs;
    for (const char *bench : {"gcc", "mcf", "apache"}) {
        sweep::RunSpec spec = faultSpec("TLC", bench);
        spec.config.fault.enabled = true;
        spec.config.fault.bitErrorRate = 0.01;
        specs.push_back(spec);
        sweep::RunSpec dead = faultSpec("SNUCA2", bench);
        dead.config.fault.enabled = true;
        dead.config.fault.bitErrorRate = 0.005;
        specs.push_back(dead);
    }

    auto serial = sweep::runSweep(specs, quietSweep(1));
    auto parallel = sweep::runSweep(specs, quietSweep(4));
    ASSERT_EQ(serial.failed, 0u);
    ASSERT_EQ(parallel.failed, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], serial.results[i]),
                  resultJson(specs[i], parallel.results[i]))
            << sweep::specKey(specs[i]);
    }

    std::string dir =
        ::testing::TempDir() + "tlsim_fault_warmcache";
    std::filesystem::remove_all(dir);
    sweep::SweepOptions cached = quietSweep(2);
    cached.cacheDir = dir;
    auto cold = sweep::runSweep(specs, cached);
    auto warm = sweep::runSweep(specs, cached);
    EXPECT_EQ(warm.executed, 0u);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(resultJson(specs[i], serial.results[i]),
                  resultJson(specs[i], warm.results[i]))
            << sweep::specKey(specs[i]);
    }
}

TEST(FaultRun, CrashIsolatedSweepReportsFailureAndCachesSuccesses)
{
    // One healthy spec, one spec that panics during System build
    // (unknown design): the sweep completes, reports the failure, and
    // memoizes only the success.
    sweep::RunSpec good = faultSpec("TLC", "gcc");
    sweep::RunSpec bad = good;
    bad.config.design = "NoSuchDesign";

    std::string dir = ::testing::TempDir() + "tlsim_fault_crash";
    std::filesystem::remove_all(dir);
    sweep::SweepOptions options = quietSweep(2);
    options.cacheDir = dir;
    auto outcome = sweep::runSweep({good, bad}, options);

    EXPECT_EQ(outcome.failed, 1u);
    EXPECT_TRUE(outcome.results[0].error.empty());
    EXPECT_FALSE(outcome.results[1].error.empty());

    // Rerun: the success is warm, the failure executes (and fails)
    // again — a crash must never be served from cache.
    auto rerun = sweep::runSweep({good, bad}, options);
    EXPECT_EQ(rerun.cached, 1u);
    EXPECT_EQ(rerun.executed, 1u);
    EXPECT_EQ(rerun.failed, 1u);
}
