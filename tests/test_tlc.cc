/**
 * @file
 * Unit tests for the TLC design family: Table 2 parameters, latency
 * ranges, hit/miss/store paths, striping, and partial-tag multi-match
 * handling.
 */

#include <gtest/gtest.h>

#include <set>

#include "tlc/tlccache.hh"
#include "mem/dram.hh"
#include "phys/technology.hh"

using namespace tlsim;
using namespace tlsim::tlc;
using tlsim::mem::AccessType;

namespace
{

struct Fixture
{
    explicit Fixture(const TlcConfig &config)
        : root("root"), dram(eq, &root),
          cache(eq, &root, dram, phys::tech45(), config)
    {}

    EventQueue eq;
    stats::StatGroup root;
    mem::Dram dram;
    TlcCache cache;
};

} // namespace

TEST(TlcConfigs, Table2Parameters)
{
    EXPECT_EQ(baseTlc().banks, 32);
    EXPECT_EQ(baseTlc().banksPerBlock, 1);
    EXPECT_EQ(baseTlc().linesPerPair, 128);
    EXPECT_EQ(baseTlc().totalLines(), 2048);

    EXPECT_EQ(tlcOpt1000().banks, 16);
    EXPECT_EQ(tlcOpt1000().banksPerBlock, 2);
    EXPECT_EQ(tlcOpt1000().totalLines(), 1008);

    EXPECT_EQ(tlcOpt500().banksPerBlock, 4);
    EXPECT_EQ(tlcOpt500().totalLines(), 512);

    EXPECT_EQ(tlcOpt350().banksPerBlock, 8);
    EXPECT_EQ(tlcOpt350().totalLines(), 352);
}

TEST(TlcConfigs, AllSixteenMegabytes)
{
    for (const auto &cfg : {baseTlc(), tlcOpt1000(), tlcOpt500(),
                            tlcOpt350()}) {
        EXPECT_EQ(cfg.capacity(), 16u * 1024 * 1024) << cfg.name;
    }
}

TEST(Tlc, BaseLatencyRange10To16)
{
    Fixture f(baseTlc());
    auto [lo, hi] = f.cache.latencyRange();
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 16u);
    EXPECT_EQ(f.cache.bankAccessCycles(), 8);
}

TEST(Tlc, OptLatencyRangeNear12)
{
    for (const auto &cfg : {tlcOpt1000(), tlcOpt500(), tlcOpt350()}) {
        Fixture f(cfg);
        auto [lo, hi] = f.cache.latencyRange();
        EXPECT_GE(lo, 12u) << cfg.name;
        EXPECT_LE(hi, 14u) << cfg.name;
        EXPECT_EQ(f.cache.bankAccessCycles(), 10) << cfg.name;
    }
}

TEST(Tlc, HitLatencyPredictableWhenIdle)
{
    Fixture f(baseTlc());
    Addr addr = 0x1234;
    f.cache.accessFunctional(addr, AccessType::Load);
    Tick issue = 1000, done = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(done - issue, f.cache.uncontendedLoadLatency(addr));
    EXPECT_EQ(f.cache.predictableLookups.value(), 1.0);
}

TEST(Tlc, MissDeterminationSameTiming)
{
    // TLC's key predictability property: a miss is detected with the
    // same timing as a hit would have been delivered.
    Fixture f(baseTlc());
    Addr addr = 0x4321;
    Tick issue = 500;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                   [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.misses.value(), 1.0);
    EXPECT_EQ(f.cache.lookupLatency.mean(),
              static_cast<double>(f.cache.uncontendedLoadLatency(addr)));
    EXPECT_EQ(f.cache.predictableLookups.value(), 1.0);
}

TEST(Tlc, MissFillsAndHitsAfter)
{
    Fixture f(baseTlc());
    Addr addr = 0x99;
    Tick first = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, 0},
                   [&](Tick t) { first = t; });
    f.eq.run();
    EXPECT_GT(first, 300u);
    f.cache.access(mem::MemRequest{addr, AccessType::Load, first + 100},
                   [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.hits.value(), 1.0);
}

TEST(Tlc, BanksAccessedEqualsStriping)
{
    for (const auto &cfg : {baseTlc(), tlcOpt1000(), tlcOpt500(),
                            tlcOpt350()}) {
        Fixture f(cfg);
        f.cache.access(mem::MemRequest{0x5, AccessType::Load, 0}, [](Tick) {});
        f.eq.run();
        EXPECT_DOUBLE_EQ(f.cache.banksAccessed.mean(),
                         cfg.banksPerBlock)
            << cfg.name;
    }
}

TEST(Tlc, StoreWritesWithoutTagComparison)
{
    Fixture f(baseTlc());
    Tick done = MaxTick;
    f.cache.access(mem::MemRequest{0x77, AccessType::Store, 10},
                   [&](Tick t) { done = t; });
    EXPECT_EQ(done, 10u); // accepted immediately
    f.eq.run();
    f.cache.access(mem::MemRequest{0x77, AccessType::Load, 10000},
                   [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.hits.value(), 1.0);
}

TEST(Tlc, DirtyEvictionReachesMemory)
{
    Fixture f(baseTlc());
    // 32 groups x 2048 sets: same (group,set) stride = 65536.
    for (int i = 0; i < 5; ++i) {
        f.cache.access(mem::MemRequest{0x40 + 65536u * i, AccessType::Store,
                                       static_cast<Tick>(i * 3000)},
                       [](Tick) {});
        f.eq.run();
    }
    EXPECT_EQ(f.cache.writebacksToMemory.value(), 1.0);
    EXPECT_EQ(f.dram.writes.value(), 1.0);
}

TEST(Tlc, ContentionDelaysBackToBackSameBank)
{
    Fixture f(baseTlc());
    Addr addr = 0x10;
    f.cache.accessFunctional(addr, AccessType::Load);
    f.cache.accessFunctional(addr + 32, AccessType::Load); // same bank
    Tick d1 = 0, d2 = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, 100},
                   [&](Tick t) { d1 = t; });
    f.cache.access(mem::MemRequest{addr + 32, AccessType::Load, 100},
                   [&](Tick t) { d2 = t; });
    f.eq.run();
    // The second access queues behind the first at the bank.
    EXPECT_GT(d2 - 100, d1 - 100);
    EXPECT_LT(f.cache.predictableLookups.value(), 2.0);
}

TEST(Tlc, DifferentBanksProceedInParallel)
{
    Fixture f(baseTlc());
    Addr a = 0x10, b = 0x11; // adjacent blocks -> different banks
    f.cache.accessFunctional(a, AccessType::Load);
    f.cache.accessFunctional(b, AccessType::Load);
    Tick da = 0, db = 0;
    f.cache.access(mem::MemRequest{a, AccessType::Load, 100},
                   [&](Tick t) { da = t; });
    f.cache.access(mem::MemRequest{b, AccessType::Load, 100},
                   [&](Tick t) { db = t; });
    f.eq.run();
    EXPECT_EQ(da, 100 + f.cache.uncontendedLoadLatency(a));
    EXPECT_EQ(db, 100 + f.cache.uncontendedLoadLatency(b));
}

TEST(Tlc, MultiMatchNeedsSecondRoundTrip)
{
    // Construct two resident blocks in one TLCopt set whose tags
    // share the low 6 bits; a load of either sees a multi-match.
    TlcConfig cfg = tlcOpt1000();
    Fixture f(cfg);
    int groups = cfg.groups(); // 8
    // frame = blockAddr >> 3; set = frame mod 8192; tag = frame >> 13.
    Addr set_bits = Addr(5) << 3;
    Addr a = set_bits | (Addr(0x040) << 16); // tag 0x040
    Addr b = set_bits | (Addr(0x080) << 16); // tag 0x080: same low 6
    ASSERT_EQ(static_cast<int>(a & (groups - 1)),
              static_cast<int>(b & (groups - 1)));
    f.cache.accessFunctional(a, AccessType::Load);
    f.cache.accessFunctional(b, AccessType::Load);

    Tick issue = 1000, done = 0;
    f.cache.access(mem::MemRequest{a, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(f.cache.multiMatches.value(), 1.0);
    EXPECT_EQ(f.cache.hits.value(), 1.0);
    // Two round trips: well above the uncontended single-trip time.
    EXPECT_GT(done - issue, f.cache.uncontendedLoadLatency(a) + 5);
    EXPECT_EQ(f.cache.predictableLookups.value(), 0.0);
}

TEST(Tlc, FalsePartialMatchIsCleanMiss)
{
    TlcConfig cfg = tlcOpt1000();
    Fixture f(cfg);
    Addr set_bits = Addr(5) << 3;
    Addr resident = set_bits | (Addr(0x040) << 16);
    Addr probe = set_bits | (Addr(0x100) << 16); // same low-6 tag bits
    f.cache.accessFunctional(resident, AccessType::Load);
    f.cache.access(mem::MemRequest{probe, AccessType::Load, 100}, [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.falseMatches.value(), 1.0);
    EXPECT_EQ(f.cache.misses.value(), 1.0);
}

TEST(Tlc, LinkUtilizationAccounted)
{
    Fixture f(baseTlc());
    for (Addr a = 0; a < 64; ++a)
        f.cache.access(mem::MemRequest{a, AccessType::Load, a * 2},
                       [](Tick) {});
    f.eq.run();
    f.cache.syncStats();
    EXPECT_GT(f.cache.linkBusyCycles.value(), 0.0);
    EXPECT_GT(f.cache.networkEnergy.value(), 0.0);
    EXPECT_EQ(f.cache.linkCount(), 32);
}

TEST(Tlc, GroupsSpanDistinctPairs)
{
    // Striping invariant: the banks of one group use different pairs
    // so slices transfer in parallel.
    for (const auto &cfg : {tlcOpt1000(), tlcOpt500(), tlcOpt350()}) {
        for (int g = 0; g < cfg.groups(); ++g) {
            std::set<int> pairs;
            for (int m = 0; m < cfg.banksPerBlock; ++m) {
                int bank = g * cfg.banksPerBlock + m;
                pairs.insert(bank % cfg.pairs());
            }
            EXPECT_EQ(static_cast<int>(pairs.size()),
                      cfg.banksPerBlock)
                << cfg.name << " group " << g;
        }
    }
}
