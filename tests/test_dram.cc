/**
 * @file
 * Backend conformance suite for the pluggable main-memory layer:
 * shared contract tests run against both registered backends
 * ("fixed", "ddr") through mem::MemRegistry, plus model-specific
 * tests for the fixed-latency sink and the banked FR-FCFS controller.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/ddr.hh"
#include "mem/dram.hh"
#include "mem/memregistry.hh"
#include "sim/eventq.hh"
#include "sim/fault/injector.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace tlsim;
using namespace tlsim::mem;

namespace
{

/**
 * Options that put the named backend under comparable contention
 * (small service capacity so queueing is observable).
 */
const conf::OptionMap &
conformanceOptions(const std::string &name)
{
    static const conf::OptionMap fixed;
    static const conf::OptionMap ddr = {{"channels", 1},
                                        {"ranksPerChannel", 1},
                                        {"banksPerRank", 2},
                                        {"queueDepth", 4},
                                        {"tREFI", 0}};
    return name == "ddr" ? ddr : fixed;
}

/** One conformance configuration: a registry name plus its options. */
struct BackendParam
{
    const char *name;
    conf::OptionMap options;
};

/**
 * Print a parameter as its registry name, so the listed test names
 * are stable (the default printer dumps the raw bytes, including the
 * load address of the name string).
 */
void
PrintTo(const BackendParam &param, std::ostream *os)
{
    *os << param.name;
}

/**
 * A completion callback that counts its own copies. It is not
 * trivially copyable, so std::function keeps it on the heap and
 * copying the std::function copies (and counts) it.
 */
struct CopyCountingCallback
{
    CopyCountingCallback(int *copies_, Tick *done_)
        : copies(copies_), done(done_)
    {}

    CopyCountingCallback(const CopyCountingCallback &other)
        : copies(other.copies), done(other.done)
    {
        ++*copies;
    }

    CopyCountingCallback(CopyCountingCallback &&) noexcept = default;

    void operator()(Tick t) const { *done = t; }

    int *copies;
    Tick *done;
};

std::string
paramName(const ::testing::TestParamInfo<BackendParam> &info)
{
    return info.param.name;
}

class MemBackendConformance
    : public ::testing::TestWithParam<BackendParam>
{
  protected:
    std::unique_ptr<MemBackend>
    build(EventQueue &eq, stats::StatGroup *root)
    {
        const BackendParam &p = GetParam();
        return MemRegistry::build(
            p.name, MemBuildContext{eq, root, p.options, nullptr});
    }
};

/** Contract tests that need only the backend's registry name. */
class MemBackendContract : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<MemBackend>
    build(EventQueue &eq, stats::StatGroup *root)
    {
        return MemRegistry::build(
            GetParam(), MemBuildContext{eq, root,
                                        conformanceOptions(GetParam()),
                                        nullptr});
    }
};

} // namespace

// ---------------------------------------------------------------------
// Conformance: contract tests every backend must pass.
// ---------------------------------------------------------------------

TEST_P(MemBackendContract, RegistryBuildsNamedBackend)
{
    EventQueue eq;
    stats::StatGroup root("root");
    auto dram = build(eq, &root);
    EXPECT_EQ(dram->backendName(), GetParam());
    EXPECT_TRUE(MemRegistry::known(GetParam()));
}

TEST_P(MemBackendConformance, SameBlockReadsCompleteInIssueOrder)
{
    EventQueue eq;
    stats::StatGroup root("root");
    auto dram = build(eq, &root);
    std::vector<int> order;
    std::vector<Tick> times;
    for (int i = 0; i < 16; ++i) {
        dram->read(0x40, 0, [&, i](Tick t) {
            order.push_back(i);
            times.push_back(t);
        });
    }
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GE(times[i], times[i - 1]);
    EXPECT_EQ(dram->reads.value(), 16.0);
    EXPECT_EQ(dram->inService(), 0);
}

TEST_P(MemBackendConformance, ReadCallbacksAreMovedNeverCopied)
{
    EventQueue eq;
    stats::StatGroup root("root");
    auto dram = build(eq, &root);
    // Enough reads to fill every slot and queue (and, for ddr, spill).
    int copies = 0;
    std::vector<Tick> done(20, 0);
    for (std::size_t i = 0; i < done.size(); ++i) {
        dram->read(0x40 * i, 0, CopyCountingCallback(&copies, &done[i]));
    }
    eq.run();
    for (Tick t : done)
        EXPECT_GT(t, 0u);
    EXPECT_EQ(copies, 0);
}

TEST_P(MemBackendConformance, BackpressureDelaysExcessRequests)
{
    EventQueue eq;
    stats::StatGroup root("root");
    auto dram = build(eq, &root);
    // Lone read: the uncontended service time.
    Tick lone = 0;
    dram->read(0x40, 0, [&](Tick t) { lone = t; });
    eq.run();
    // A burst far beyond any backend's service capacity must stretch
    // past the lone latency (bounded slots / bounded command queues).
    std::vector<Tick> times;
    for (int i = 0; i < 32; ++i)
        dram->read(0x40, lone, [&](Tick t) { times.push_back(t); });
    eq.run();
    ASSERT_EQ(times.size(), 32u);
    EXPECT_GT(times.back() - lone, lone);
    EXPECT_GT(dram->queueDelay.maxValue(), 0.0);
}

TEST_P(MemBackendConformance, WritebacksContendAndSampleQueueDelay)
{
    EventQueue eq;
    stats::StatGroup root("root");
    auto dram = build(eq, &root);
    // Regression (PR 8 satellite): writebacks must sample queueDelay
    // exactly like reads — one sample per request, nonzero under
    // contention.
    for (int i = 0; i < 32; ++i)
        dram->write(0x40, 0);
    Tick done = 0;
    dram->read(0x80, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(dram->writes.value(), 32.0);
    EXPECT_EQ(dram->queueDelay.count(), 33u);
    EXPECT_GT(dram->queueDelay.maxValue(), 0.0);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(dram->inService(), 0);
}

TEST_P(MemBackendContract, ReplayIsDeterministic)
{
    auto run = [&](std::vector<Tick> &times) {
        EventQueue eq;
        stats::StatGroup root("root");
        auto dram = build(eq, &root);
        for (int i = 0; i < 24; ++i) {
            Addr block = static_cast<Addr>((i * 37) % 512);
            if (i % 5 == 2) {
                dram->write(block, 0);
            } else {
                dram->read(block, 0,
                           [&](Tick t) { times.push_back(t); });
            }
        }
        eq.run();
    };
    std::vector<Tick> first, second;
    run(first);
    run(second);
    EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, MemBackendConformance,
    ::testing::Values(
        BackendParam{"fixed", conformanceOptions("fixed")},
        BackendParam{"ddr", conformanceOptions("ddr")}),
    paramName);

INSTANTIATE_TEST_SUITE_P(
    Backends, MemBackendContract,
    ::testing::Values(std::string("fixed"), std::string("ddr")),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// ---------------------------------------------------------------------
// Registry error handling.
// ---------------------------------------------------------------------

TEST(MemRegistry, UnknownBackendAndOptionAreFatal)
{
    EventQueue eq;
    stats::StatGroup root("root");
    conf::OptionMap none;
    EXPECT_THROW(MemRegistry::build(
                     "bogus", MemBuildContext{eq, &root, none, nullptr}),
                 FatalError);
    conf::OptionMap typo{{"latencey", 100}};
    EXPECT_THROW(MemRegistry::build(
                     "fixed", MemBuildContext{eq, &root, typo, nullptr}),
                 FatalError);
    conf::OptionMap not_ddr{{"latency", 100}};
    EXPECT_THROW(
        MemRegistry::build("ddr",
                           MemBuildContext{eq, &root, not_ddr, nullptr}),
        FatalError);
}

TEST(MemRegistry, FixedOptionsConfigureLatencyAndSlots)
{
    EventQueue eq;
    stats::StatGroup root("root");
    conf::OptionMap options{{"latency", 100}, {"maxOutstanding", 1}};
    auto dram = MemRegistry::build(
        "fixed", MemBuildContext{eq, &root, options, nullptr});
    std::vector<Tick> times;
    dram->read(1, 0, [&](Tick t) { times.push_back(t); });
    dram->read(2, 0, [&](Tick t) { times.push_back(t); });
    eq.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 100u);
    EXPECT_EQ(times[1], 200u); // serialized by the single slot
}

// ---------------------------------------------------------------------
// Fixed-backend unit tests (unchanged behavior, paper Table 3).
// ---------------------------------------------------------------------

TEST(Dram, ReadLatency300)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root);
    Tick done = 0;
    dram.read(0x10, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done, 300u);
}

TEST(Dram, CustomLatency)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root, 100, 4);
    Tick done = 0;
    dram.read(0x10, 50, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done, 150u);
}

TEST(Dram, CompletionCallbackIsMovedNeverCopied)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root);
    int copies = 0;
    Tick first = 0, queued = 0;
    dram.read(0x10, 0, CopyCountingCallback(&copies, &first));
    // Fill the other seven slots so the next read waits in the queue.
    for (int i = 0; i < 7; ++i)
        dram.read(0x20 + i, 0, [](Tick) {});
    dram.read(0x30, 0, CopyCountingCallback(&copies, &queued));
    eq.run();
    EXPECT_EQ(first, 300u);
    EXPECT_EQ(queued, 600u);
    EXPECT_EQ(copies, 0);
}

TEST(Dram, EightOverlapOutstanding)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root);
    std::vector<Tick> done;
    for (int i = 0; i < 8; ++i)
        dram.read(i, 0, [&](Tick t) { done.push_back(t); });
    eq.run();
    ASSERT_EQ(done.size(), 8u);
    for (Tick t : done)
        EXPECT_EQ(t, 300u); // all in parallel
}

TEST(Dram, NinthRequestQueues)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root);
    std::vector<Tick> done;
    for (int i = 0; i < 9; ++i)
        dram.read(i, 0, [&](Tick t) { done.push_back(t); });
    eq.run();
    ASSERT_EQ(done.size(), 9u);
    EXPECT_EQ(done.back(), 600u); // waited for a slot
}

TEST(Dram, WritesConsumeSlots)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root);
    for (int i = 0; i < 8; ++i)
        dram.write(i, 0);
    Tick done = 0;
    dram.read(99, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done, 600u);
}

TEST(Dram, StatsCountReadsAndWrites)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root);
    dram.read(1, 0, [](Tick) {});
    dram.write(2, 0);
    dram.write(3, 0);
    eq.run();
    EXPECT_EQ(dram.reads.value(), 1.0);
    EXPECT_EQ(dram.writes.value(), 2.0);
}

TEST(Dram, InServiceTracksOutstanding)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root);
    dram.read(1, 0, [](Tick) {});
    EXPECT_EQ(dram.inService(), 1);
    eq.run();
    EXPECT_EQ(dram.inService(), 0);
}

TEST(Dram, QueueDelayMeasured)
{
    EventQueue eq;
    stats::StatGroup root("root");
    Dram dram(eq, &root, 300, 1);
    dram.read(1, 0, [](Tick) {});
    dram.read(2, 0, [](Tick) {});
    eq.run();
    EXPECT_EQ(dram.queueDelay.count(), 2u);
    EXPECT_GT(dram.queueDelay.maxValue(), 0.0);
}

// ---------------------------------------------------------------------
// DDR-backend unit tests: row buffer, scheduling, refresh, faults,
// and the exact-sum latency partition.
// ---------------------------------------------------------------------

namespace
{

/** Single-channel geometry so ordering effects are observable. */
DdrBackend::Params
smallDdr(int banks = 2)
{
    DdrBackend::Params p;
    p.channels = 1;
    p.ranksPerChannel = 1;
    p.banksPerRank = banks;
    p.tREFI = 0; // refresh off unless a test turns it on
    return p;
}

} // namespace

TEST(Ddr, RowHitFasterThanClosedFasterThanConflict)
{
    EventQueue eq;
    stats::StatGroup root("root");
    DdrBackend::Params p = smallDdr();
    DdrBackend dram(eq, &root, p);
    // With 2 banks and 8 KiB rows (128 blocks), block 0 and block 1
    // share bank 0 row 0; block 512 is bank 0 row 2.
    Tick t_closed = 0, t_hit = 0, t_conflict = 0;
    dram.read(0, 0, [&](Tick t) { t_closed = t; });
    eq.run();
    dram.read(1, 1000, [&](Tick t) { t_hit = t; });
    eq.run();
    dram.read(512, 2000, [&](Tick t) { t_conflict = t; });
    eq.run();
    Cycles closed = t_closed;
    Cycles hit = t_hit - 1000;
    Cycles conflict = t_conflict - 2000;
    EXPECT_EQ(hit, p.tCAS + p.tBurst);
    EXPECT_EQ(closed, p.tRCD + p.tCAS + p.tBurst);
    EXPECT_EQ(conflict, p.tRP + p.tRCD + p.tCAS + p.tBurst);
    EXPECT_LT(hit, closed);
    EXPECT_LT(closed, conflict);
    EXPECT_EQ(dram.rowHits.value(), 1.0);
    EXPECT_EQ(dram.rowMisses.value(), 1.0);
    EXPECT_EQ(dram.rowConflicts.value(), 1.0);
}

TEST(Ddr, FrFcfsReordersRowHitsFcfsDoesNot)
{
    // One bank; X opens row 0, Y wants row 1, Z wants row 0 again.
    // FR-FCFS serves the younger row hit Z before Y; FCFS stays in
    // arrival order.
    auto run = [&](bool fcfs, std::vector<char> &order,
                   double &row_hits) {
        EventQueue eq;
        stats::StatGroup root("root");
        DdrBackend::Params p = smallDdr(1);
        p.fcfs = fcfs;
        DdrBackend dram(eq, &root, p);
        dram.read(0, 0, [&](Tick) { order.push_back('X'); });
        dram.read(128, 0, [&](Tick) { order.push_back('Y'); });
        dram.read(1, 0, [&](Tick) { order.push_back('Z'); });
        eq.run();
        row_hits = dram.rowHits.value();
    };
    std::vector<char> frfcfs_order, fcfs_order;
    double frfcfs_hits = 0.0, fcfs_hits = 0.0;
    run(false, frfcfs_order, frfcfs_hits);
    run(true, fcfs_order, fcfs_hits);
    EXPECT_EQ(frfcfs_order, (std::vector<char>{'X', 'Z', 'Y'}));
    EXPECT_EQ(fcfs_order, (std::vector<char>{'X', 'Y', 'Z'}));
    EXPECT_EQ(frfcfs_hits, 1.0);
    EXPECT_EQ(fcfs_hits, 0.0);
}

TEST(Ddr, ClosedPagePolicyNeverHits)
{
    EventQueue eq;
    stats::StatGroup root("root");
    DdrBackend::Params p = smallDdr();
    p.closedPage = true;
    DdrBackend dram(eq, &root, p);
    dram.read(0, 0, [](Tick) {});
    eq.run();
    dram.read(1, 1000, [](Tick) {});
    eq.run();
    EXPECT_EQ(dram.rowHits.value(), 0.0);
    EXPECT_EQ(dram.rowMisses.value(), 2.0);
}

TEST(Ddr, RefreshBlocksBanksAndCounts)
{
    DdrBackend::Params p = smallDdr(1);
    Tick no_refresh = 0;
    {
        EventQueue eq;
        stats::StatGroup root("root");
        DdrBackend dram(eq, &root, p);
        dram.read(0, 1100, [&](Tick t) { no_refresh = t; });
        eq.run();
    }
    p.tREFI = 1000;
    p.tRFC = 500;
    EventQueue eq;
    stats::StatGroup root("root");
    DdrBackend dram(eq, &root, p);
    Tick refreshed = 0;
    dram.read(0, 1100, [&](Tick t) { refreshed = t; });
    eq.run();
    // The tick-1000 refresh blocks the bank until 1500.
    EXPECT_GE(dram.refreshes.value(), 1.0);
    EXPECT_GT(refreshed, no_refresh);
    EXPECT_EQ(refreshed,
              1500 + p.tRCD + p.tCAS + p.tBurst);
}

TEST(Ddr, BoundedQueueBackpressuresBurst)
{
    EventQueue eq;
    stats::StatGroup root("root");
    DdrBackend::Params p = smallDdr(1);
    p.queueDepth = 2;
    DdrBackend dram(eq, &root, p);
    std::vector<Tick> times;
    for (int i = 0; i < 12; ++i)
        dram.read(1, 0, [&](Tick t) { times.push_back(t); });
    EXPECT_EQ(dram.inService(), 12); // accepted, spill included
    eq.run();
    ASSERT_EQ(times.size(), 12u);
    for (std::size_t i = 1; i < times.size(); ++i)
        EXPECT_GT(times[i], times[i - 1]); // one bank serializes
    EXPECT_EQ(dram.inService(), 0);
    EXPECT_EQ(dram.queueDelay.count(), 12u);
}

TEST(Ddr, StuckDramBankAddsPenalty)
{
    fault::FaultConfig fc;
    fc.enabled = true;
    fc.dramStuckBanks = "0@0";
    fault::Injector injector(fc, 0);
    EventQueue eq;
    stats::StatGroup root("root");
    DdrBackend::Params p = smallDdr(1);
    DdrBackend dram(eq, &root, p, &injector);
    Tick done = 0;
    dram.read(0, 0, [&](Tick t) { done = t; });
    eq.run();
    EXPECT_EQ(done,
              p.tRCD + p.tCAS + p.stuckBankPenalty + p.tBurst);
    EXPECT_EQ(dram.stuckBankAccesses.value(), 1.0);
}

TEST(Ddr, LatencyPartitionSumsExactly)
{
    EventQueue eq;
    stats::StatGroup root("root");
    DdrBackend::Params p = smallDdr();
    p.queueDepth = 3;
    DdrBackend dram(eq, &root, p);
    // Reads only, all issued at t=0, so each completion time equals
    // that request's end-to-end latency.
    double total = 0.0;
    int n = 20;
    for (int i = 0; i < n; ++i) {
        dram.read(static_cast<Addr>(i * 131), 0,
                  [&](Tick t) { total += static_cast<double>(t); });
    }
    eq.run();
    EXPECT_EQ(dram.queueLatency.count(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(dram.bankLatency.count(), static_cast<std::uint64_t>(n));
    EXPECT_EQ(dram.busLatency.count(), static_cast<std::uint64_t>(n));
    EXPECT_DOUBLE_EQ(dram.queueLatency.sum() + dram.bankLatency.sum() +
                         dram.busLatency.sum(),
                     total);
    // queueDelay (the conformance-level stat) mirrors lat_queue.
    EXPECT_EQ(dram.queueDelay.count(), static_cast<std::uint64_t>(n));
}
