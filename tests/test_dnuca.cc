/**
 * @file
 * Unit tests for the DNUCA design: search, promotion, fast misses,
 * tail insertion, and the Table 2 latency spectrum.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "nuca/dnuca.hh"
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
    DnucaCache cache;
};

} // namespace

TEST(Dnuca, LatencyRangeMatchesTable2)
{
    Fixture f;
    auto [lo, hi] = f.cache.latencyRange();
    EXPECT_EQ(lo, 3u);
    EXPECT_EQ(hi, 47u);
}

TEST(Dnuca, BankAccessThreeCycles)
{
    Fixture f;
    EXPECT_EQ(f.cache.bankAccessCycles(), 3);
}

TEST(Dnuca, FastMissWhenNoPartialMatch)
{
    Fixture f;
    Tick done = 0;
    f.cache.access(mem::MemRequest{0x1234, AccessType::Load, 0},
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(f.cache.fastMisses.value(), 1.0);
    EXPECT_EQ(f.cache.misses.value(), 1.0);
    EXPECT_GT(done, 300u);
}

TEST(Dnuca, InsertAtTailThenSearchHit)
{
    Fixture f;
    Addr addr = 0x1234;
    // Miss fills the tail bank.
    f.cache.access(mem::MemRequest{addr, AccessType::Load, 0}, [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.inserts.value(), 1.0);

    // The next access finds it far away via the partial tags.
    Tick issue = f.eq.now() + 100;
    Tick done = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(f.cache.hits.value(), 1.0);
    EXPECT_EQ(f.cache.closeHits.value(), 0.0);
    EXPECT_GT(f.cache.searches.value(), 0.0);
    // Latency covers the close probe plus the far search.
    EXPECT_GT(done - issue, f.cache.uncontendedLatency(1, 4));
}

TEST(Dnuca, HitsPromoteTowardController)
{
    Fixture f;
    Addr addr = 0x1234;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, 0}, [](Tick) {});
    f.eq.run();
    double promotions_before = f.cache.promotions.value();
    for (int i = 0; i < 20; ++i) {
        f.cache.access(mem::MemRequest{addr, AccessType::Load,
                                       f.eq.now() + 100},
                       [](Tick) {});
        f.eq.run();
    }
    EXPECT_GT(f.cache.promotions.value(), promotions_before + 10);
    // After enough hits the block lives in the closest banks.
    Tick issue = f.eq.now() + 100;
    Tick done = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_GT(f.cache.closeHits.value(), 0.0);
}

TEST(Dnuca, CloseHitLatencyPredictable)
{
    Fixture f;
    Addr addr = 7; // column 7, adjacent to the controller
    // Functionally place and promote to the head bank.
    for (int i = 0; i < 20; ++i)
        f.cache.accessFunctional(addr, AccessType::Load);
    Tick issue = 1000;
    Tick done = 0;
    f.cache.access(mem::MemRequest{addr, AccessType::Load, issue},
                   [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(done - issue, f.cache.uncontendedLatency(0, 7));
    EXPECT_EQ(f.cache.predictableLookups.value(), 1.0);
}

TEST(Dnuca, StoreToResidentBlockNoPromotion)
{
    Fixture f;
    Addr addr = 0x777;
    f.cache.accessFunctional(addr, AccessType::Load);
    double promos = f.cache.promotions.value();
    f.cache.access(mem::MemRequest{addr, AccessType::Store, 100}, [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.promotions.value(), promos);
}

TEST(Dnuca, StoreToAbsentBlockInstallsAtTail)
{
    Fixture f;
    f.cache.access(mem::MemRequest{0x888, AccessType::Store, 0}, [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.inserts.value(), 1.0);
}

TEST(Dnuca, FunctionalPromotionMatchesTimed)
{
    Fixture f;
    Addr addr = 0x42;
    for (int i = 0; i < 16; ++i)
        f.cache.accessFunctional(addr, AccessType::Load);
    // Block should now be in a close bank: a timed load close-hits.
    f.cache.access(mem::MemRequest{addr, AccessType::Load, 100}, [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.closeHits.value(), 1.0);
}

TEST(Dnuca, BanksAccessedAtLeastCloseBanks)
{
    Fixture f;
    f.cache.access(mem::MemRequest{0x3, AccessType::Load, 0}, [](Tick) {});
    f.eq.run();
    EXPECT_GE(f.cache.banksAccessed.mean(), 2.0);
}

TEST(Dnuca, TailChurnCannotEvictPromotedBlock)
{
    Fixture f;
    Addr hot = 0x5; // bank set 5
    for (int i = 0; i < 16; ++i)
        f.cache.accessFunctional(hot, AccessType::Load);
    // Stream many conflicting blocks through the same bank set.
    for (int i = 1; i <= 200; ++i) {
        f.cache.accessFunctional(hot + (Addr(i) << 13),
                                 AccessType::Load);
    }
    // The hot block survives (it was promoted away from the tail).
    f.cache.access(mem::MemRequest{hot, AccessType::Load, f.eq.now() + 1000},
                   [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.cache.hits.value(), 1.0);
}

TEST(Dnuca, SearchLatencyExceedsCloseHitLatency)
{
    Fixture f;
    Addr far_block = 0x1111;
    f.cache.accessFunctional(far_block, AccessType::Load); // at tail
    Addr close_block = far_block + (Addr(1) << 13); // same set
    for (int i = 0; i < 16; ++i)
        f.cache.accessFunctional(close_block, AccessType::Load);

    Tick t0 = 1000, far_done = 0, close_done = 0;
    f.cache.access(mem::MemRequest{far_block, AccessType::Load, t0},
                   [&](Tick t) { far_done = t; });
    f.eq.run();
    Tick t1 = f.eq.now() + 1000;
    f.cache.access(mem::MemRequest{close_block, AccessType::Load, t1},
                   [&](Tick t) { close_done = t; });
    f.eq.run();
    EXPECT_GT(far_done - t0, close_done - t1);
}

TEST(Dnuca, PromotionDistanceTwoMovesFaster)
{
    DnucaConfig cfg;
    cfg.promotionDistance = 2;
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    DnucaCache cache(eq, &root, dram, phys::tech45(), cfg);

    Addr addr = 0x42;
    cache.accessFunctional(addr, AccessType::Load); // tail (15)
    for (int i = 0; i < 4; ++i)
        cache.accessFunctional(addr, AccessType::Load);
    // 4 promotions x 2 banks: at row 7 by now; a 16th-distance walk
    // with distance 1 would only reach row 11.
    cache.access(mem::MemRequest{addr, AccessType::Load, 100}, [](Tick) {});
    eq.run();
    // Another 4 accesses reach the close banks.
    for (int i = 0; i < 4; ++i)
        cache.accessFunctional(addr, AccessType::Load);
    cache.access(mem::MemRequest{addr, AccessType::Load, eq.now() + 1000},
                 [](Tick) {});
    eq.run();
    EXPECT_GE(cache.closeHits.value(), 1.0);
}

TEST(Dnuca, HeadInsertionHitsCloseImmediately)
{
    DnucaConfig cfg;
    cfg.insertionBank = 0;
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    DnucaCache cache(eq, &root, dram, phys::tech45(), cfg);

    cache.accessFunctional(0x99, AccessType::Load);
    cache.access(mem::MemRequest{0x99, AccessType::Load, 100}, [](Tick) {});
    eq.run();
    EXPECT_EQ(cache.closeHits.value(), 1.0);
}

TEST(Dnuca, MiddleInsertionLandsMidChain)
{
    DnucaConfig cfg;
    cfg.insertionBank = 8;
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    DnucaCache cache(eq, &root, dram, phys::tech45(), cfg);

    cache.accessFunctional(0x77, AccessType::Load);
    // Not a close hit (row 8), but found via search on next access.
    cache.access(mem::MemRequest{0x77, AccessType::Load, 100}, [](Tick) {});
    eq.run();
    EXPECT_EQ(cache.closeHits.value(), 0.0);
    EXPECT_EQ(cache.hits.value(), 1.0);
}
