/**
 * @file
 * Cross-module integration tests: whole-system properties that the
 * paper's evaluation relies on, checked on short runs.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "nuca/dnuca.hh"
#include "tlc/tlccache.hh"

using namespace tlsim;
using namespace tlsim::harness;

namespace
{

RunResult
quickRun(const char *design, const char *bench,
         std::uint64_t measure = 200'000)
{
    return runBenchmark({.design = design,
                         .functionalWarm = 3'000'000,
                         .warmup = 20'000,
                         .measure = measure},
                        workload::profileByName(bench));
}

} // namespace

TEST(Integration, SameTrafficAcrossDesigns)
{
    // All designs see the same trace, so demand request rates agree
    // to within L1-noise.
    auto tlc = quickRun("TLC", "gcc");
    auto snuca = quickRun("SNUCA2", "gcc");
    auto dnuca = quickRun("DNUCA", "gcc");
    EXPECT_NEAR(tlc.l2RequestsPer1k, snuca.l2RequestsPer1k,
                0.05 * tlc.l2RequestsPer1k);
    EXPECT_NEAR(tlc.l2RequestsPer1k, dnuca.l2RequestsPer1k,
                0.05 * tlc.l2RequestsPer1k);
}

TEST(Integration, TlcAndSnucaSameMissRates)
{
    // Identical storage organisation (32 x 512 KB, 4-way LRU): the
    // designs differ only in interconnect, so misses match exactly.
    auto tlc = quickRun("TLC", "equake");
    auto snuca = quickRun("SNUCA2", "equake");
    EXPECT_NEAR(tlc.l2MissesPer1k, snuca.l2MissesPer1k,
                0.02 * (tlc.l2MissesPer1k + 1e-9) + 1e-9);
}

TEST(Integration, TlcFasterThanSnuca)
{
    // Figure 5's main effect: TLC's 10-16 cycle window beats
    // SNUCA2's 8-32 spectrum for cache-resident workloads.
    auto tlc = quickRun("TLC", "mcf", 300'000);
    auto snuca = quickRun("SNUCA2", "mcf", 300'000);
    EXPECT_LT(tlc.cycles, snuca.cycles);
    EXPECT_LT(tlc.meanLookupLatency, snuca.meanLookupLatency);
}

TEST(Integration, TlcLatencyMoreConsistentThanDnuca)
{
    // Figure 6's claim: TLC's mean lookup latency stays near 13
    // across benchmarks while DNUCA's swings.
    auto tlc_a = quickRun("TLC", "perl");
    auto tlc_b = quickRun("TLC", "mcf", 300'000);
    auto dnuca_a = quickRun("DNUCA", "perl");
    auto dnuca_b = quickRun("DNUCA", "mcf", 300'000);
    double tlc_spread =
        std::abs(tlc_a.meanLookupLatency - tlc_b.meanLookupLatency);
    double dnuca_spread = std::abs(dnuca_a.meanLookupLatency -
                                   dnuca_b.meanLookupLatency);
    EXPECT_LT(tlc_spread, dnuca_spread);
}

TEST(Integration, TlcMorePredictableThanDnuca)
{
    for (const char *bench : {"gcc", "apache"}) {
        auto tlc = quickRun("TLC", bench);
        auto dnuca = quickRun("DNUCA", bench);
        EXPECT_GT(tlc.predictablePct, dnuca.predictablePct) << bench;
    }
}

TEST(Integration, TlcAccessesOneBankDnucaSeveral)
{
    auto tlc = quickRun("TLC", "gcc");
    auto dnuca = quickRun("DNUCA", "gcc");
    EXPECT_DOUBLE_EQ(tlc.banksPerRequest, 1.0);
    // Demand lookups probe >= 2 banks; writebacks touch 1, pulling
    // the blended mean slightly below 2 on store-heavy mixes.
    EXPECT_GE(dnuca.banksPerRequest, 1.8);
}

TEST(Integration, OptDesignsUseFewerLinksMoreUtilization)
{
    auto base = quickRun("TLC", "swim");
    auto opt = quickRun("TLCopt350", "swim");
    EXPECT_GT(opt.linkUtilizationPct, base.linkUtilizationPct);
}

TEST(Integration, OptDesignPerformanceClose)
{
    // Figure 8: the family performs within a few percent.
    auto base = quickRun("TLC", "gcc", 300'000);
    auto opt = quickRun("TLCopt500", "gcc", 300'000);
    double ratio = static_cast<double>(opt.cycles) /
                   static_cast<double>(base.cycles);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.25);
}

TEST(Integration, StreamingWorkloadInsensitiveToDesign)
{
    // swim/applu: all designs within a few percent of each other
    // (Figure 5's flat region).
    auto snuca = quickRun("SNUCA2", "swim");
    auto tlc = quickRun("TLC", "swim");
    double ratio = static_cast<double>(tlc.cycles) /
                   static_cast<double>(snuca.cycles);
    EXPECT_GT(ratio, 0.9);
    EXPECT_LT(ratio, 1.1);
}

TEST(Integration, MemoryBoundWorkloadThrottledByDram)
{
    auto result = quickRun("TLC", "swim");
    // ~42 misses per 1K instructions with 8 outstanding and 300-cycle
    // DRAM caps IPC well below 1.
    EXPECT_LT(result.ipc, 0.8);
}
