/**
 * @file
 * Unit tests for the L1 cache: hit latency, MSHR behaviour,
 * writebacks, and the functional-warm path, against a fake L2.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "mem/dram.hh"
#include "mem/l1cache.hh"
#include "mem/l2cache.hh"
#include "sim/eventq.hh"
#include "sim/rng.hh"

using namespace tlsim;
using namespace tlsim::mem;

namespace
{

/** Fixed-latency L2 stub that records the requests it sees. */
class FakeL2 : public L2Cache
{
  public:
    FakeL2(EventQueue &eq, stats::StatGroup *parent, Dram &dram,
           Cycles latency)
        : L2Cache("fake_l2", eq, parent, dram), latency(latency)
    {}

    using L2Cache::access;

    void
    access(const MemRequest &req, RespCallback cb) override
    {
        ++requests;
        seen.push_back(req);
        if (req.type == AccessType::Store) {
            cb(req.issued);
            return;
        }
        Tick done = req.issued + latency;
        eventq.scheduleCallback(done, std::move(cb));
    }

    void
    accessFunctional(Addr block_addr, AccessType type) override
    {
        seen.push_back({block_addr, type, 0});
    }

    int linkCount() const override { return 0; }
    std::string designName() const override { return "fake"; }

    Cycles latency;
    std::vector<MemRequest> seen;
};

struct Fixture
{
    Fixture(Cycles l2_latency = 20, std::uint64_t bytes = 64 * 1024,
            int mshrs = 8)
        : root("root"), dram(eq, &root),
          l2(eq, &root, dram, l2_latency),
          l1("l1d", eq, &root, l2, bytes, 2, 3, mshrs)
    {}

    EventQueue eq;
    stats::StatGroup root;
    Dram dram;
    FakeL2 l2;
    L1Cache l1;
};

} // namespace

TEST(L1Cache, MissThenHit)
{
    Fixture f;
    Tick first = 0, second = 0;
    f.l1.access(MemRequest{0x100, AccessType::Load, 0},
                [&](Tick t) { first = t; });
    f.eq.run();
    // Miss: tag check (3) + L2 (20).
    EXPECT_EQ(first, 23u);
    f.l1.access(MemRequest{0x100, AccessType::Load, 30},
                [&](Tick t) { second = t; });
    f.eq.run();
    EXPECT_EQ(second, 33u); // hit latency 3
    EXPECT_EQ(f.l1.hits.value(), 1.0);
    EXPECT_EQ(f.l1.misses.value(), 1.0);
}

TEST(L1Cache, CoalescedMissSingleL2Request)
{
    Fixture f;
    int done = 0;
    f.l1.access(MemRequest{0x100, AccessType::Load, 0}, [&](Tick) { ++done; });
    f.l1.access(MemRequest{0x100, AccessType::Load, 1}, [&](Tick) { ++done; });
    f.eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(f.l2.seen.size(), 1u);
    EXPECT_EQ(f.l1.coalescedMisses.value(), 1.0);
}

TEST(L1Cache, StoreMissFetchesAsLoad)
{
    Fixture f;
    f.l1.access(MemRequest{0x200, AccessType::Store, 0}, [](Tick) {});
    f.eq.run();
    ASSERT_EQ(f.l2.seen.size(), 1u);
    EXPECT_EQ(f.l2.seen[0].type, AccessType::Load);
}

TEST(L1Cache, DirtyEvictionWritesBack)
{
    Fixture f;
    // 64 KB, 2-way: 512 sets. Three blocks in one set force an
    // eviction; the dirty one triggers a writeback.
    Addr a = 0x1000, b = a + 512, c = a + 1024;
    f.l1.access(MemRequest{a, AccessType::Store, 0}, [](Tick) {});
    f.eq.run();
    f.l1.access(MemRequest{b, AccessType::Load, 100}, [](Tick) {});
    f.eq.run();
    f.l1.access(MemRequest{c, AccessType::Load, 200}, [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.l1.writebacks.value(), 1.0);
    bool saw_store = false;
    for (const auto &req : f.l2.seen) {
        if (req.type == AccessType::Store && req.blockAddr == a)
            saw_store = true;
    }
    EXPECT_TRUE(saw_store);
}

TEST(L1Cache, MshrLimitQueuesExtraMisses)
{
    Fixture f(1000); // slow L2
    int done = 0;
    for (Addr a = 0; a < 9; ++a) {
        f.l1.access(MemRequest{0x1000 + a, AccessType::Load, 0},
                    [&](Tick) { ++done; });
    }
    // Only 8 MSHRs: the 9th miss waits (L2 requests depart after the
    // 3-cycle tag check).
    f.eq.advanceTo(10);
    EXPECT_EQ(f.l2.seen.size(), 8u);
    f.eq.run();
    EXPECT_EQ(done, 9);
    EXPECT_EQ(f.l2.seen.size(), 9u);
    EXPECT_GT(f.l1.mshrStallCycles.value(), 0.0);
}

TEST(L1Cache, FunctionalAccessWarmsArray)
{
    Fixture f;
    f.l1.accessFunctional(0x300, AccessType::Load);
    EXPECT_EQ(f.l2.seen.size(), 1u); // functional miss forwarded
    Tick done = 0;
    f.l1.access(MemRequest{0x300, AccessType::Load, 0},
                [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(done, 3u); // timed access now hits
}

TEST(L1Cache, FunctionalDirtyEvictionForwarded)
{
    Fixture f;
    Addr a = 0x2000;
    f.l1.accessFunctional(a, AccessType::Store);
    f.l1.accessFunctional(a + 512, AccessType::Load);
    f.l1.accessFunctional(a + 1024, AccessType::Load);
    bool saw_store = false;
    for (const auto &req : f.l2.seen)
        saw_store |= (req.type == AccessType::Store);
    EXPECT_TRUE(saw_store);
}

TEST(L1Cache, AccessesStatCountsEverything)
{
    Fixture f;
    f.l1.access(MemRequest{1, AccessType::Load, 0}, [](Tick) {});
    f.eq.run();
    f.l1.access(MemRequest{1, AccessType::Load, 50}, [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.l1.accesses.value(), 2.0);
}

namespace
{

/** (access number, completion tick), in callback order. */
using Completions = std::vector<std::pair<int, Tick>>;

/** What randomStream leaves behind. */
struct StreamResult
{
    Completions done;
    std::string statsJson;
    double coalesced = 0.0;
    double stallCycles = 0.0;
    double writebacks = 0.0;
};

/**
 * A 100k-access random stream over a small L1 (4 KB, 8 MSHRs) with
 * a 40-cycle L2: hits, coalesced and queued misses and dirty
 * evictions all occur. @p split drives it through tryHit and
 * accessMiss, as the core does; otherwise through access().
 */
StreamResult
randomStream(bool split)
{
    Fixture f(40, 4 * 1024, 8);
    StreamResult r;
    Rng rng(3);
    Tick now = 0;
    for (int i = 0; i < 100'000; ++i) {
        now += rng.below(10);
        f.eq.advanceTo(now);
        auto type = static_cast<AccessType>(rng.below(3));
        MemRequest req{rng.below(160), type, now, 0};
        auto record = [&r, i](Tick t) { r.done.emplace_back(i, t); };
        if (!split) {
            f.l1.access(req, record);
            continue;
        }
        Tick hit_done;
        if (f.l1.tryHit(req, hit_done))
            record(hit_done);
        else
            f.l1.accessMiss(req, record);
    }
    f.eq.run();
    std::ostringstream os;
    f.root.dumpStatsJson(os);
    r.statsJson = os.str();
    r.coalesced = f.l1.coalescedMisses.value();
    r.stallCycles = f.l1.mshrStallCycles.value();
    r.writebacks = f.l1.writebacks.value();
    return r;
}

} // namespace

TEST(L1Cache, SplitHitAndMissPathsMatchAccess)
{
    StreamResult whole = randomStream(false);
    StreamResult split = randomStream(true);
    EXPECT_EQ(whole.done.size(), 100'000u);
    EXPECT_GT(whole.coalesced, 0.0);
    EXPECT_GT(whole.stallCycles, 0.0);
    EXPECT_GT(whole.writebacks, 0.0);
    EXPECT_EQ(split.done, whole.done);
    EXPECT_EQ(split.statsJson, whole.statsJson);
}

TEST(L1Cache, TryHitLeavesMissesToAccessMiss)
{
    Fixture f;
    Tick done = 0;
    MemRequest req{0x100, AccessType::Load, 5, 0};
    EXPECT_FALSE(f.l1.tryHit(req, done));
    EXPECT_EQ(f.l1.accesses.value(), 1.0);
    EXPECT_EQ(f.l1.misses.value(), 0.0);
    EXPECT_TRUE(f.l2.seen.empty());
    f.l1.accessMiss(req, [&](Tick t) { done = t; });
    f.eq.run();
    EXPECT_EQ(done, 5u + 3u + 20u);
    EXPECT_EQ(f.l1.misses.value(), 1.0);

    req.issued = 100;
    f.eq.advanceTo(100);
    ASSERT_TRUE(f.l1.tryHit(req, done));
    EXPECT_EQ(done, 103u);
    EXPECT_EQ(f.l1.hits.value(), 1.0);
    EXPECT_EQ(f.l1.accesses.value(), 2.0);
}

TEST(L1Cache, QueuedAccessAdmittedByFillHitsFilledBlock)
{
    // One MSHR: A misses; two accesses to B queue behind it. A's
    // fill admits the first B (a miss); B's fill admits the second,
    // which then hits the block just filled.
    Fixture f(20, 64 * 1024, 1);
    Completions done;
    auto record = [&done](int n) {
        return [&done, n](Tick t) { done.emplace_back(n, t); };
    };
    f.l1.access(MemRequest{0xA0, AccessType::Load, 0}, record(0));
    f.l1.access(MemRequest{0xB0, AccessType::Load, 1}, record(1));
    f.l1.access(MemRequest{0xB0, AccessType::Load, 2}, record(2));
    EXPECT_EQ(f.l1.outstandingMisses(), 1);
    f.eq.run();
    // A: 0+3+20. B admitted at 23: 23+3+20. Second B hits at 46+3.
    EXPECT_EQ(done, (Completions{{0, 23}, {1, 46}, {2, 49}}));
    EXPECT_EQ(f.l1.accesses.value(), 3.0);
    EXPECT_EQ(f.l1.misses.value(), 2.0);
    EXPECT_EQ(f.l1.hits.value(), 1.0);
    EXPECT_EQ(f.l1.coalescedMisses.value(), 0.0);
    // Queued from 1 to 23 and from 2 to 46.
    EXPECT_EQ(f.l1.mshrStallCycles.value(), 22.0 + 44.0);
    EXPECT_EQ(f.l2.seen.size(), 2u);
    EXPECT_EQ(f.l1.outstandingMisses(), 0);
}

TEST(L1Cache, CoalescedStoreMissFillsDirty)
{
    Fixture f;
    int loads = 0, stores = 0;
    f.l1.access(MemRequest{0x1000, AccessType::Load, 0},
                [&](Tick) { ++loads; });
    f.l1.access(MemRequest{0x1000, AccessType::Store, 1},
                [&](Tick) { ++stores; });
    f.eq.run();
    EXPECT_EQ(loads, 1);
    EXPECT_EQ(stores, 1);
    EXPECT_EQ(f.l1.coalescedMisses.value(), 1.0);
    ASSERT_EQ(f.l2.seen.size(), 1u);
    EXPECT_EQ(f.l2.seen[0].type, AccessType::Load);
    // The store marked the MSHR: the line fills dirty, so evicting
    // it (two more blocks in its set) writes it back.
    f.l1.access(MemRequest{0x1000 + 512, AccessType::Load, 100}, [](Tick) {});
    f.eq.run();
    f.l1.access(MemRequest{0x1000 + 1024, AccessType::Load, 200}, [](Tick) {});
    f.eq.run();
    EXPECT_EQ(f.l1.writebacks.value(), 1.0);
    EXPECT_EQ(f.l2.seen.back().type, AccessType::Store);
    EXPECT_EQ(f.l2.seen.back().blockAddr, 0x1000u);
}

TEST(L1Cache, OutstandingMissesAtMshrLimit)
{
    Fixture f(1000);
    for (Addr a = 0; a < 8; ++a) {
        f.eq.advanceTo(a);
        f.l1.access(MemRequest{0x1000 + a, AccessType::Load, a}, [](Tick) {});
        EXPECT_EQ(f.l1.outstandingMisses(), static_cast<int>(a) + 1);
    }
    // Full: a ninth miss queues, a repeat coalesces; neither takes
    // an MSHR.
    f.l1.access(MemRequest{0x2000, AccessType::Load, 7}, [](Tick) {});
    f.l1.access(MemRequest{0x1003, AccessType::Load, 7}, [](Tick) {});
    EXPECT_EQ(f.l1.outstandingMisses(), 8);
    // The first fill (at 0 + 3 + 1000) frees one entry and the
    // queued miss takes it; the second frees one for good.
    f.eq.advanceTo(1003);
    EXPECT_EQ(f.l1.outstandingMisses(), 8);
    f.eq.advanceTo(1004);
    EXPECT_EQ(f.l1.outstandingMisses(), 7);
    f.eq.run();
    EXPECT_EQ(f.l1.outstandingMisses(), 0);
}

TEST(L1Cache, ReusedMshrFiresOnlyItsOwnTargets)
{
    // A reused MSHR entry must start empty: the callbacks of the
    // miss it held before never fire again.
    Fixture f(20, 64 * 1024, 1);
    int first = 0, second = 0;
    f.l1.access(MemRequest{0x100, AccessType::Load, 0},
                [&](Tick) { ++first; });
    f.l1.access(MemRequest{0x100, AccessType::Load, 1},
                [&](Tick) { ++first; });
    f.eq.run();
    f.l1.access(MemRequest{0x200, AccessType::Load, 50},
                [&](Tick) { ++second; });
    f.eq.run();
    f.l1.access(MemRequest{0x300, AccessType::Load, 100},
                [&](Tick) { ++second; });
    f.eq.run();
    EXPECT_EQ(first, 2);
    EXPECT_EQ(second, 2);
}
