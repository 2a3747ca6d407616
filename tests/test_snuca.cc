/**
 * @file
 * Unit tests for the SNUCA2 baseline design.
 */

#include <gtest/gtest.h>

#include "nuca/snuca.hh"
#include "mem/dram.hh"
#include "phys/technology.hh"

using namespace tlsim;
using namespace tlsim::nuca;
using tlsim::mem::AccessType;

namespace
{

struct Fixture
{
    Fixture()
        : root("root"), dram(eq, &root),
          cache(eq, &root, dram, phys::tech45())
    {}

    EventQueue eq;
    stats::StatGroup root;
    mem::Dram dram;
    SnucaCache cache;
};

} // namespace

TEST(Snuca, LatencyRangeNearTable2)
{
    Fixture f;
    auto [lo, hi] = f.cache.latencyRange();
    // Paper Table 2: 9-32 cycles (our floorplan computes 8-32).
    EXPECT_GE(lo, 8u);
    EXPECT_LE(lo, 10u);
    EXPECT_EQ(hi, 32u);
}

TEST(Snuca, BankAccessEightCycles)
{
    Fixture f;
    EXPECT_EQ(f.cache.bankAccessCycles(), 8);
}

TEST(Snuca, MissGoesToMemoryThenHits)
{
    Fixture f;
    Tick first = 0;
    f.cache.access(mem::MemRequest{0x40, AccessType::Load, 0},
                   [&](Tick t) { first = t; });
    f.eq.run();
    EXPECT_GT(first, 300u); // DRAM latency dominates
    EXPECT_EQ(f.cache.misses.value(), 1.0);

    Tick second = 0;
    // Wait out the fill's bank occupancy before re-accessing.
    Tick issue2 = first + 100;
    f.cache.access(mem::MemRequest{0x40, AccessType::Load, issue2},
                   [&](Tick t) { second = t; });
    f.eq.run();
    EXPECT_EQ(f.cache.hits.value(), 1.0);
    Tick latency = second - issue2;
    EXPECT_EQ(latency,
              f.cache.uncontendedLatency(0x40 & 31));
}

TEST(Snuca, HitLatencyIsUncontendedWhenIdle)
{
    Fixture f;
    f.cache.accessFunctional(0x777, AccessType::Load);
    Tick done = 0;
    f.cache.access(mem::MemRequest{0x777, AccessType::Load, 1000},
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(done - 1000, f.cache.uncontendedLatency(0x777 & 31));
    EXPECT_EQ(f.cache.predictableLookups.value(), 1.0);
}

TEST(Snuca, StoreCompletesImmediately)
{
    Fixture f;
    Tick done = MaxTick;
    f.cache.access(mem::MemRequest{0x99, AccessType::Store, 5},
                   [&](Tick t) { done = t; });
    EXPECT_EQ(done, 5u);
    f.eq.run();
    // The write is installed.
    Tick hit = 0;
    f.cache.access(mem::MemRequest{0x99, AccessType::Load, 2000},
                   [&](Tick t) { hit = t; });
    f.eq.run();
    EXPECT_EQ(f.cache.hits.value(), 1.0);
}

TEST(Snuca, BanksAccessedAlwaysOne)
{
    Fixture f;
    f.cache.accessFunctional(0x1, AccessType::Load);
    f.cache.access(mem::MemRequest{0x1, AccessType::Load, 0}, [](Tick) {});
    f.eq.run();
    EXPECT_DOUBLE_EQ(f.cache.banksAccessed.mean(), 1.0);
}

TEST(Snuca, DirtyL2EvictionWritesToMemory)
{
    Fixture f;
    // Fill one set (4 ways) of one bank with dirty blocks, then push
    // a fifth: 32 banks x 2048 sets -> same (bank,set) stride is
    // 32 * 2048 = 65536.
    Addr base = 0x40;
    for (int i = 0; i < 5; ++i) {
        f.cache.access(mem::MemRequest{base + 65536u * i, AccessType::Store,
                                       static_cast<Tick>(i * 2000)},
                       [](Tick) {});
        f.eq.run();
    }
    EXPECT_EQ(f.cache.writebacksToMemory.value(), 1.0);
    EXPECT_EQ(f.dram.writes.value(), 1.0);
}

TEST(Snuca, UtilizationPositiveUnderLoad)
{
    Fixture f;
    for (Addr a = 0; a < 50; ++a)
        f.cache.access(mem::MemRequest{a, AccessType::Load, a * 3},
                       [](Tick) {});
    f.eq.run();
    f.cache.syncStats();
    EXPECT_GT(f.cache.linkBusyCycles.value(), 0.0);
    EXPECT_GT(f.cache.networkEnergy.value(), 0.0);
}

TEST(Snuca, FunctionalMatchesTimedPlacement)
{
    Fixture f;
    for (Addr a = 100; a < 120; ++a)
        f.cache.accessFunctional(a, AccessType::Load);
    for (Addr a = 100; a < 120; ++a) {
        f.cache.access(mem::MemRequest{a, AccessType::Load, f.eq.now() + 1000},
                       [](Tick) {});
        f.eq.run();
    }
    EXPECT_EQ(f.cache.misses.value(), 0.0);
    EXPECT_EQ(f.cache.hits.value(), 20.0);
}
