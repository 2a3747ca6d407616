/**
 * @file
 * Tests for the telemetry subsystem: the self-profiler's scope tree
 * and report formats, spatial heatmaps (windowing, coarsening, JSON
 * export, stats-tree integration), and the enriched fault-diagnostic
 * dumps.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mem/dram.hh"
#include "phys/technology.hh"
#include "sim/eventq.hh"
#include "sim/metrics/heatmap.hh"
#include "sim/prof/prof.hh"
#include "sim/stats.hh"
#include "tlc/tlccache.hh"

using namespace tlsim;
using tlsim::mem::AccessType;

namespace
{

/** RAII guard: clean profiler state before and after a test body. */
struct ProfGuard
{
    ProfGuard()
    {
        prof::Registry::instance().reset();
        prof::setEnabled(true);
    }
    ~ProfGuard()
    {
        prof::setEnabled(false);
        prof::Registry::instance().reset();
    }
};

const prof::ReportRow *
findRow(const std::vector<prof::ReportRow> &rows,
        const std::string &path)
{
    for (const auto &row : rows) {
        if (row.path == path)
            return &row;
    }
    return nullptr;
}

} // namespace

// ---------------------------------------------------------------- //
// Self-profiler                                                    //
// ---------------------------------------------------------------- //

TEST(Prof, DisabledScopeRecordsNothing)
{
    prof::Registry::instance().reset();
    ASSERT_FALSE(prof::enabled());
    {
        prof::Scope scope("never");
    }
    EXPECT_TRUE(prof::Registry::instance().rows().empty());
}

TEST(Prof, NestedScopesBuildAStackTree)
{
    ProfGuard guard;
    {
        prof::Scope outer("outer");
        {
            prof::Scope inner("inner");
        }
        {
            prof::Scope inner("inner");
        }
        prof::Scope other("other");
    }

    auto rows = prof::Registry::instance().rows();
    const auto *outer = findRow(rows, "outer");
    const auto *inner = findRow(rows, "outer;inner");
    const auto *other = findRow(rows, "outer;other");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(outer->count, 1u);
    EXPECT_EQ(inner->count, 2u); // identical sites merge per position
    EXPECT_EQ(other->count, 1u);
    EXPECT_EQ(outer->depth, 0);
    EXPECT_EQ(inner->depth, 1);
    // Inclusive time dominates nested time; self = total - children.
    EXPECT_GE(outer->totalNs, inner->totalNs + other->totalNs);
    EXPECT_EQ(outer->selfNs,
              outer->totalNs - inner->totalNs - other->totalNs);
}

TEST(Prof, ReportAndCollapsedShareOneTree)
{
    ProfGuard guard;
    {
        prof::Scope run("run");
        prof::Scope measure("measure");
        // Busy-wait a little so self time is non-zero microseconds.
        auto until = prof::nowNs() + 2'000'000;
        while (prof::nowNs() < until) {
        }
    }

    std::ostringstream report;
    prof::Registry::instance().writeReport(report);
    EXPECT_NE(report.str().find("wall-clock attribution"),
              std::string::npos);
    EXPECT_NE(report.str().find("run"), std::string::npos);
    EXPECT_NE(report.str().find("  measure"), std::string::npos);
    EXPECT_NE(report.str().find("component attribution coverage"),
              std::string::npos);

    std::ostringstream collapsed;
    prof::Registry::instance().writeCollapsed(collapsed);
    // Flamegraph format: "stack;frames self_us" per line.
    EXPECT_NE(collapsed.str().find("run;measure "), std::string::npos);
}

TEST(Prof, SampledDispatchAttributesEventTypes)
{
    ProfGuard guard;
    // Enough events spread over enough ticks that several sample
    // strides elapse and a few dispatches are actually timed.
    EventQueue eq;
    std::uint64_t fired = 0;
    const std::uint64_t events = 8 * prof::dispatchSampleTarget;
    for (std::uint64_t i = 0; i < events; ++i)
        eq.scheduleCallback(i + 1, [&fired](Tick) { ++fired; });
    eq.run();
    EXPECT_EQ(fired, events);

    auto rows = prof::Registry::instance().rows();
    ASSERT_FALSE(rows.empty());
    bool saw_callback_type = false;
    std::uint64_t sampled = 0;
    for (const auto &row : rows) {
        sampled += row.count;
        if (row.path.find("TickCallbackEvent") != std::string::npos)
            saw_callback_type = true;
    }
    // Sample weights stand in for the unsampled dispatches between
    // samples: the total estimated count is positive, attributed to
    // the right event type, and never exceeds what actually ran.
    EXPECT_GT(sampled, 0u);
    EXPECT_LE(sampled, events);
    EXPECT_TRUE(saw_callback_type);
}

TEST(Prof, ResetDropsEverything)
{
    ProfGuard guard;
    {
        prof::Scope scope("gone");
    }
    EXPECT_FALSE(prof::Registry::instance().rows().empty());
    prof::Registry::instance().reset();
    EXPECT_TRUE(prof::Registry::instance().rows().empty());
}

// ---------------------------------------------------------------- //
// Spatial heatmaps                                                 //
// ---------------------------------------------------------------- //

TEST(Heatmap, AccumulatesIntoTickWindows)
{
    stats::StatGroup root("root");
    metrics::Heatmap hm(&root, "hm", "test", 4, 100);

    hm.add(0, 1'000, 5); // base latches at the first sample
    hm.add(1, 1'050, 7); // same window
    hm.add(0, 1'150, 3); // next window
    EXPECT_EQ(hm.baseTick(), 1'000u);
    EXPECT_EQ(hm.rowCount(), 2u);
    EXPECT_EQ(hm.at(0, 0), 5u);
    EXPECT_EQ(hm.at(0, 1), 7u);
    EXPECT_EQ(hm.at(1, 0), 3u);

    // Pre-base ticks clamp into row 0 instead of underflowing.
    hm.add(2, 500, 9);
    EXPECT_EQ(hm.at(0, 2), 9u);
}

TEST(Heatmap, CoarsensInsteadOfGrowingUnbounded)
{
    stats::StatGroup root("root");
    metrics::Heatmap hm(&root, "hm", "test", 1, 10);

    // One count per window for 4x the row budget: the window must
    // double (twice) and every count must survive the refolds.
    const std::uint64_t windows = 4 * metrics::Heatmap::maxWindows;
    for (std::uint64_t w = 0; w < windows; ++w)
        hm.add(0, w * 10, 1);

    EXPECT_LE(hm.rowCount(), metrics::Heatmap::maxWindows);
    EXPECT_EQ(hm.windowTicks(), 40u); // 10 -> 20 -> 40
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < hm.rowCount(); ++r)
        total += hm.at(r, 0);
    EXPECT_EQ(total, windows);
}

TEST(Heatmap, JsonIsSelfDescribingAndAllInteger)
{
    stats::StatGroup root("root");
    metrics::Heatmap hm(&root, "hm", "bank busy", 2, 50);
    hm.add(0, 100, 4);
    hm.add(1, 160, 6);

    std::ostringstream os;
    root.dumpStatsJson(os, 0, false);
    std::string json = os.str();
    EXPECT_NE(json.find("\"kind\": \"heatmap\""), std::string::npos);
    EXPECT_NE(json.find("\"cells\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"window\": 50"), std::string::npos);
    EXPECT_NE(json.find("\"base_tick\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"rows\": 2"), std::string::npos);
    // Deterministic export: the matrix is all integers, no floats.
    EXPECT_NE(json.find("\"data\": [[4, 0], [0, 6]]"),
              std::string::npos);
}

TEST(Heatmap, ResetClearsDataAndBase)
{
    stats::StatGroup root("root");
    metrics::Heatmap hm(&root, "hm", "test", 2, 100);
    hm.add(0, 5'000, 1);
    ASSERT_EQ(hm.rowCount(), 1u);

    // beginMeasurement() drives StatGroup::resetStats(): the matrix
    // restarts empty and re-latches its base at the next sample, so
    // exported heatmaps cover exactly the measured window.
    root.resetStats();
    EXPECT_EQ(hm.rowCount(), 0u);
    hm.add(1, 9'000, 2);
    EXPECT_EQ(hm.baseTick(), 9'000u);
    EXPECT_EQ(hm.at(0, 1), 2u);
}

TEST(Heatmap, DefaultWindowComesFromGlobalKnob)
{
    stats::StatGroup root("root");
    metrics::Heatmap def(&root, "d", "test", 1);
    EXPECT_EQ(def.windowTicks(), metrics::Heatmap::defaultWindowTicks);

    metrics::spatialWindowTicks = 777;
    metrics::Heatmap knob(&root, "k", "test", 1);
    metrics::spatialWindowTicks = 0;
    EXPECT_EQ(knob.windowTicks(), 777u);
}

// ---------------------------------------------------------------- //
// Fault-diagnostic dumps                                           //
// ---------------------------------------------------------------- //

TEST(Diagnostic, TlcDumpNamesHottestLinkAndBank)
{
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    tlc::TlcCache cache(eq, &root, dram, phys::tech45(),
                        tlc::baseTlc());

    // Real traffic so the utilization counters are non-zero and a
    // hottest resource exists.
    for (int i = 0; i < 32; ++i) {
        Addr addr = static_cast<Addr>(0x40 + i * 0x1000);
        cache.accessFunctional(addr, AccessType::Load);
        cache.access(mem::MemRequest{addr, AccessType::Load,
                                     static_cast<Tick>(100 + i * 50)},
                     [](Tick) {});
    }
    eq.run();

    ::testing::internal::CaptureStderr();
    cache.dumpFaultDiagnostic();
    std::string dump = ::testing::internal::GetCapturedStderr();

    EXPECT_NE(dump.find("fault diagnostic"), std::string::npos);
    // Per-resource utilization: busy cycles and message counts on
    // every line, with the hottest pair/bank called out once each.
    EXPECT_NE(dump.find("busy cycles"), std::string::npos);
    EXPECT_NE(dump.find("messages"), std::string::npos);
    EXPECT_NE(dump.find("[hottest pair]"), std::string::npos);
    EXPECT_NE(dump.find("[hottest bank]"), std::string::npos);
    EXPECT_EQ(dump.find("[hottest pair]"),
              dump.rfind("[hottest pair]"));
    EXPECT_EQ(dump.find("[hottest bank]"),
              dump.rfind("[hottest bank]"));
}
