/**
 * @file
 * Tests for the system builder and benchmark runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "harness/system.hh"
#include "mem/l2registry.hh"

using namespace tlsim;
using namespace tlsim::harness;

TEST(Harness, AllSixDesignsBuild)
{
    for (const std::string &design : allDesigns()) {
        EXPECT_TRUE(l2::Registry::known(design)) << design;
        System system(SystemConfig{.design = design});
        EXPECT_EQ(system.l2().designName(), design);
        EXPECT_GT(system.l2().linkCount(), 0);
    }
}

TEST(Harness, DesignNames)
{
    // Paper order.
    EXPECT_EQ(allDesigns()[0], "SNUCA2");
    EXPECT_EQ(allDesigns()[1], "DNUCA");
    EXPECT_EQ(allDesigns()[2], "TLC");
    EXPECT_EQ(allDesigns()[5], "TLCopt350");
}

TEST(Harness, TlcFamilyHasFourMembers)
{
    EXPECT_EQ(tlcFamily().size(), 4u);
    EXPECT_EQ(allDesigns().size(), 6u);
    EXPECT_TRUE(std::equal(tlcFamily().begin(), tlcFamily().end(),
                           allDesigns().begin() + 2));
}

TEST(Harness, ShortRunProducesSaneMetrics)
{
    const auto &profile = workload::profileByName("bzip");
    RunResult result = runBenchmark({.design = "TLC",
                                     .functionalWarm = 500'000,
                                     .warmup = 10'000,
                                     .measure = 50'000},
                                    profile);
    EXPECT_EQ(result.design, "TLC");
    EXPECT_EQ(result.benchmark, "bzip");
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_LE(result.ipc, 4.0);
    EXPECT_GT(result.l2RequestsPer1k, 0.0);
    EXPECT_GT(result.meanLookupLatency, 9.0);
    EXPECT_GT(result.predictablePct, 0.0);
    EXPECT_LE(result.predictablePct, 100.0);
}

TEST(Harness, SameSeedReproducible)
{
    const auto &profile = workload::profileByName("perl");
    SystemConfig config{.design = "SNUCA2",
                        .functionalWarm = 100'000,
                        .warmup = 10'000,
                        .measure = 30'000};
    RunResult a = runBenchmark(config, profile, 7);
    RunResult b = runBenchmark(config, profile, 7);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2RequestsPer1k, b.l2RequestsPer1k);
    EXPECT_EQ(a.meanLookupLatency, b.meanLookupLatency);
}

TEST(Harness, DnucaMetricsPopulated)
{
    const auto &profile = workload::profileByName("gcc");
    RunResult result = runBenchmark({.design = "DNUCA",
                                     .functionalWarm = 2'000'000,
                                     .warmup = 10'000,
                                     .measure = 50'000},
                                    profile);
    EXPECT_GT(result.closeHitPct, 0.0);
    EXPECT_GE(result.promotesPerInsert, 0.0);
}

TEST(Harness, FunctionalWarmReducesColdMisses)
{
    const auto &profile = workload::profileByName("bzip");
    SystemConfig config{.design = "TLC",
                        .functionalWarm = 0,
                        .warmup = 0,
                        .measure = 50'000};
    RunResult cold = runBenchmark(config, profile);
    config.functionalWarm = 5'000'000;
    RunResult warm = runBenchmark(config, profile);
    EXPECT_LT(warm.l2MissesPer1k, cold.l2MissesPer1k);
}

TEST(Harness, TlcLookupLatencyNear13)
{
    const auto &profile = workload::profileByName("perl");
    RunResult result = runBenchmark({.design = "TLC",
                                     .functionalWarm = 1'000'000,
                                     .warmup = 10'000,
                                     .measure = 50'000},
                                    profile);
    // Figure 6: TLC holds ~13 cycles.
    EXPECT_GT(result.meanLookupLatency, 10.0);
    EXPECT_LT(result.meanLookupLatency, 17.0);
}

TEST(Harness, StatsResetBetweenPhases)
{
    System system(SystemConfig{.design = "TLC"});
    workload::TraceGenerator gen(workload::profileByName("bzip"), 0);
    system.core().run(gen, 20'000);
    system.beginMeasurement();
    EXPECT_EQ(system.l2().requests.value(), 0.0);
    EXPECT_EQ(system.core().instructions.value(), 0.0);
}

namespace
{

SystemConfig
warmShareConfig(const std::string &design, int cores)
{
    SystemConfig config;
    config.design = design;
    config.cores = cores;
    config.functionalWarm = 200'000;
    config.warmup = 5'000;
    config.measure = 20'000;
    return config;
}

/** runBenchmark, plus the final stats tree as JSON. */
RunResult
runWithStats(const SystemConfig &config,
             const workload::BenchmarkProfile &profile,
             std::string &stats_json, WarmImage *image = nullptr,
             WarmImageUse use = WarmImageUse::Record)
{
    std::ostringstream stats;
    RunObserver observer;
    observer.onMeasureEnd = [&](System &sys) {
        sys.root().dumpStatsJson(stats);
    };
    RunResult result =
        image ? runBenchmark(config, profile, 11, &observer, *image, use)
              : runBenchmark(config, profile, 11, &observer);
    stats_json = stats.str();
    return result;
}

void
expectSameRecords(workload::TraceGenerator a, workload::TraceGenerator b)
{
    for (int i = 0; i < 1000; ++i) {
        cpu::TraceRecord ra = a.next();
        cpu::TraceRecord rb = b.next();
        ASSERT_EQ(ra.blockAddr, rb.blockAddr) << "record " << i;
        ASSERT_EQ(ra.gap, rb.gap) << "record " << i;
        ASSERT_EQ(ra.isIFetch, rb.isIFetch) << "record " << i;
        ASSERT_EQ(ra.type, rb.type) << "record " << i;
    }
}

} // namespace

TEST(WarmShare, L1StateAndOpStreamAreDesignIndependent)
{
    // The L1s send the L2 functional ops and hear nothing back, so
    // everything a warm image holds is the same on every design.
    const auto &profile = workload::profileByName("gcc");
    for (int cores : {1, 2}) {
        std::optional<WarmImage> first;
        std::string first_l1_bytes;
        for (const std::string &design : allDesigns()) {
            SystemConfig config = warmShareConfig(design, cores);
            WarmImage image;
            runBenchmark(config, profile, 11, nullptr, image,
                         WarmImageUse::Record);
            ASSERT_GT(image.ops.size(), 0u);
            ASSERT_EQ(image.generators.size(),
                      static_cast<std::size_t>(cores));

            // The same L1 state, read through each L1's own
            // saveWarmState, on a machine warmed without a recorder.
            System plain(config);
            for (int c = 0; c < cores; ++c) {
                workload::TraceGenerator gen(profile, 100 + c);
                plain.functionalWarm(gen, config.functionalWarm, c);
            }
            std::ostringstream l1_bytes;
            for (int c = 0; c < cores; ++c) {
                plain.l1i(c).saveWarmState(l1_bytes);
                plain.l1d(c).saveWarmState(l1_bytes);
            }

            if (!first) {
                first = std::move(image);
                first_l1_bytes = l1_bytes.str();
                continue;
            }
            std::string where = design + " cores=" + std::to_string(cores);
            EXPECT_EQ(l1_bytes.str(), first_l1_bytes) << where;
            EXPECT_EQ(image.l1State, first->l1State) << where;
            EXPECT_EQ(image.ops, first->ops) << where;
            for (int c = 0; c < cores; ++c) {
                expectSameRecords(image.generators[c],
                                  first->generators[c]);
            }
        }
    }
}

TEST(WarmShare, ReplayMatchesOwnWarm)
{
    // One design records, every design replays: results and stats
    // are byte-identical to each design warming itself.
    const auto &profile = workload::profileByName("mcf");
    for (int cores : {1, 2}) {
        WarmImage image;
        std::string ignored;
        runWithStats(warmShareConfig("DNUCA", cores), profile, ignored,
                     &image, WarmImageUse::Record);
        for (const std::string &design : allDesigns()) {
            SystemConfig config = warmShareConfig(design, cores);
            std::string own_stats, replay_stats;
            RunResult own = runWithStats(config, profile, own_stats);
            RunResult replayed = runWithStats(
                config, profile, replay_stats, &image,
                WarmImageUse::Replay);
            std::string where = design + " cores=" + std::to_string(cores);
            EXPECT_EQ(own.cycles, replayed.cycles) << where;
            EXPECT_EQ(own.l2MissesPer1k, replayed.l2MissesPer1k)
                << where;
            EXPECT_FALSE(own_stats.empty());
            EXPECT_EQ(own_stats, replay_stats) << where;
        }
    }
}

TEST(WarmShare, OpStreamRoundTrips)
{
    // Deltas of every sign and width, including the widest address.
    std::vector<std::pair<Addr, mem::AccessType>> ops;
    for (mem::AccessType type :
         {mem::AccessType::InstFetch, mem::AccessType::Load,
          mem::AccessType::Store}) {
        for (Addr block : {Addr(0), Addr(5), Addr(1) << 30, Addr(4),
                           (Addr(1) << 62) - 1, Addr(1) << 32})
            ops.emplace_back(block, type);
    }
    WarmOpStream stream;
    for (const auto &[block, type] : ops)
        stream.push(block, type);
    EXPECT_EQ(stream.size(), ops.size());

    std::size_t i = 0;
    stream.forEach([&](Addr block, mem::AccessType type) {
        ASSERT_LT(i, ops.size());
        EXPECT_EQ(block, ops[i].first) << "op " << i;
        EXPECT_EQ(type, ops[i].second) << "op " << i;
        ++i;
    });
    EXPECT_EQ(i, ops.size());
}
