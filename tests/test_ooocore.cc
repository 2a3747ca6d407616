/**
 * @file
 * Unit tests for the trace-driven OoO core timing model.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>

#include "cpu/ooocore.hh"
#include "harness/system.hh"
#include "mem/dram.hh"
#include "mem/l1cache.hh"
#include "mem/l2cache.hh"
#include "sim/eventq.hh"

using namespace tlsim;
using namespace tlsim::cpu;
using namespace tlsim::mem;

namespace
{

/** Fixed-latency L2 stub. */
class FixedL2 : public L2Cache
{
  public:
    FixedL2(EventQueue &eq, stats::StatGroup *parent, Dram &dram,
            Cycles latency)
        : L2Cache("fixed_l2", eq, parent, dram), latency(latency)
    {}

    using L2Cache::access;

    void
    access(const MemRequest &req, RespCallback cb) override
    {
        if (req.type == AccessType::Store) {
            cb(req.issued);
            return;
        }
        Tick done = req.issued + latency;
        eventq.scheduleCallback(done, std::move(cb));
    }

    void accessFunctional(Addr, AccessType) override {}
    int linkCount() const override { return 0; }
    std::string designName() const override { return "fixed"; }

    Cycles latency;
};

/** Scripted trace source. */
class ScriptedTrace : public TraceSource
{
  public:
    explicit ScriptedTrace(std::deque<TraceRecord> recs)
        : records(std::move(recs))
    {}

    TraceRecord
    next() override
    {
        if (records.empty()) {
            TraceRecord filler;
            filler.gap = 1000;
            filler.isIFetch = true;
            filler.blockAddr = 0xF000;
            return filler;
        }
        TraceRecord rec = records.front();
        records.pop_front();
        return rec;
    }

    std::deque<TraceRecord> records;
};

struct Fixture
{
    explicit Fixture(Cycles l2_latency = 20, CoreConfig cfg = {})
        : root("root"), dram(eq, &root), l2(eq, &root, dram, l2_latency),
          l1i("l1i", eq, &root, l2, 64 * 1024, 2, 3, 4),
          l1d("l1d", eq, &root, l2, 64 * 1024, 2, 3, 8),
          core(eq, &root, l1i, l1d, cfg)
    {}

    EventQueue eq;
    stats::StatGroup root;
    Dram dram;
    FixedL2 l2;
    L1Cache l1i, l1d;
    OoOCore core;
};

TraceRecord
loadRec(Addr addr, std::uint32_t gap = 0, bool dep = false)
{
    TraceRecord rec;
    rec.gap = gap;
    rec.type = AccessType::Load;
    rec.blockAddr = addr;
    rec.dependsOnPrev = dep;
    return rec;
}

} // namespace

TEST(OoOCore, IdealIpcIsWidth)
{
    Fixture f;
    ScriptedTrace trace({});
    std::uint64_t cycles = f.core.run(trace, 100000);
    double ipc = 100000.0 / static_cast<double>(cycles);
    EXPECT_NEAR(ipc, 4.0, 0.1);
}

TEST(OoOCore, FetchQuantaCapsIpc)
{
    CoreConfig cfg;
    cfg.fetchQuanta = 4; // 1 IPC ceiling
    Fixture f(20, cfg);
    ScriptedTrace trace({});
    std::uint64_t cycles = f.core.run(trace, 50000);
    EXPECT_NEAR(50000.0 / cycles, 1.0, 0.05);
}

TEST(OoOCore, IndependentMissesOverlap)
{
    Fixture f(200);
    // Two independent loads to different blocks: their L2 latencies
    // overlap inside the ROB.
    ScriptedTrace trace({loadRec(0x100), loadRec(0x200)});
    std::uint64_t cycles = f.core.run(trace, 10);
    EXPECT_LT(cycles, 280u); // ~1 latency, not 2
    EXPECT_EQ(f.core.loads.value(), 2.0);
}

TEST(OoOCore, DependentMissesSerialize)
{
    Fixture f(200);
    ScriptedTrace trace({loadRec(0x100), loadRec(0x200, 0, true)});
    std::uint64_t cycles = f.core.run(trace, 10);
    EXPECT_GT(cycles, 400u); // two serialized L2 accesses
}

TEST(OoOCore, LoadMissBlocksRetirementViaRob)
{
    // One miss plus more instructions than the ROB holds: execution
    // time is bounded below by the miss latency.
    Fixture f(500);
    ScriptedTrace trace({loadRec(0x100)});
    std::uint64_t cycles = f.core.run(trace, 1000);
    EXPECT_GT(cycles, 400u);
}

TEST(OoOCore, StoresDoNotStall)
{
    Fixture f(500);
    TraceRecord store;
    store.type = AccessType::Store;
    store.blockAddr = 0x300;
    ScriptedTrace trace({store});
    std::uint64_t cycles = f.core.run(trace, 1000);
    EXPECT_LT(cycles, 300u);
    EXPECT_EQ(f.core.stores.value(), 1.0);
}

TEST(OoOCore, MispredictAddsPenalty)
{
    Fixture base;
    ScriptedTrace clean({});
    std::uint64_t clean_cycles = base.core.run(clean, 10000);

    Fixture f;
    std::deque<TraceRecord> recs;
    for (int i = 0; i < 100; ++i) {
        TraceRecord rec;
        rec.isIFetch = true;
        rec.gap = 100;
        rec.blockAddr = 0xF00;
        rec.mispredict = true;
        recs.push_back(rec);
    }
    ScriptedTrace trace(std::move(recs));
    std::uint64_t cycles = f.core.run(trace, 10000);
    // ~100 mispredicts x 25 cycles on top of the clean time.
    EXPECT_GT(cycles, clean_cycles + 1500);
    EXPECT_GE(f.core.mispredicts.value(), 95.0);
}

TEST(OoOCore, IFetchMissStallsFrontend)
{
    Fixture f(300);
    std::deque<TraceRecord> recs;
    TraceRecord ifetch;
    ifetch.isIFetch = true;
    ifetch.gap = 0;
    ifetch.blockAddr = 0xABC;
    recs.push_back(ifetch);
    ScriptedTrace trace(std::move(recs));
    std::uint64_t cycles = f.core.run(trace, 1000);
    EXPECT_GT(cycles, 300u);
    EXPECT_EQ(f.core.ifetchStalls.value(), 1.0);
}

TEST(OoOCore, InstructionAccountingExact)
{
    Fixture f;
    ScriptedTrace trace({loadRec(0x1, 7), loadRec(0x2, 3)});
    f.core.run(trace, 5000);
    EXPECT_EQ(f.core.instructions.value(), 5000.0);
    EXPECT_EQ(f.core.instructionsRetired(), 5000u);
}

TEST(OoOCore, ConsecutiveRunsAccumulate)
{
    Fixture f;
    ScriptedTrace trace({});
    f.core.run(trace, 1000);
    std::uint64_t mid = f.core.currentCycle();
    f.core.run(trace, 1000);
    EXPECT_GT(f.core.currentCycle(), mid);
    EXPECT_EQ(f.core.instructionsRetired(), 2000u);
}

TEST(OoOCore, IpcFormula)
{
    Fixture f;
    ScriptedTrace trace({});
    f.core.run(trace, 4000);
    EXPECT_NEAR(f.core.ipc.value(), 4.0, 0.2);
}

// ---------------------------------------------------------------------
// Golden timed-path pins: short end-to-end runs of every L2 design at
// ROB sizes, fetch quanta and L1 MSHR counts away from the defaults,
// pinned to the cycle count and the FNV-1a digest of the final stats
// JSON. Any host-side rewrite of the core, L1, mesh or event queue
// must leave these bit-for-bit unchanged.
// ---------------------------------------------------------------------

namespace
{

struct GoldenVariant
{
    int robEntries;
    int fetchQuanta;
    int mshrs;
    const char *benchmark;
};

/**
 * Every value of each knob appears at least once. A fill admits one
 * waiting access, and one that then hits takes no MSHR, so with a
 * one-entry MSHR file the wait queue can stall for good; the
 * one-MSHR variants use streams that run to completion.
 */
constexpr GoldenVariant goldenVariants[] = {
    {1, 1, 8, "mcf"},
    {7, 2, 1, "mcf"},
    {96, 2, 1, "oltp"},
    {128, 2, 8, "apache"},
};

constexpr std::uint64_t goldenSeeds[] = {0, 9973};

struct GoldenPin
{
    std::uint64_t cycles;
    std::uint64_t digest;
};

struct GoldenDesign
{
    const char *design;
    /** Indexed [variant][seed]. */
    GoldenPin pins[4][2];
};

const GoldenDesign goldenDesigns[] = {
    {"SNUCA2",
     {{{314178u, 0xd8aed6c1e50e4538u}, {331267u, 0xfdfe66717b7aeaefu}},
      {{372018u, 0x13983df0ab6e2e27u}, {386268u, 0x2878f8c25540bcf2u}},
      {{52761u, 0xb70e5283611b6e5cu}, {64331u, 0x407005b7c217c34au}},
      {{53652u, 0x3c76624d46c08240u}, {54954u, 0xf3879ecee7d065edu}}}},
    {"DNUCA",
     {{{309360u, 0xfc8dd356b27e4bf2u}, {327470u, 0xd4df8f927e3dd30du}},
      {{365661u, 0x8da73ca94b0509f1u}, {380835u, 0x6f52f8d71664feeau}},
      {{51756u, 0xf2049a83296c1af7u}, {63150u, 0x1eda35f6210ee20fu}},
      {{52895u, 0x236f0a7b685b96aeu}, {54303u, 0x6ff437e9afaecec3u}}}},
    {"TLC",
     {{{306728u, 0xd3f75c02d8a30923u}, {323743u, 0x19fc69e090d9a3cfu}},
      {{362929u, 0x7187fdf35df16ddbu}, {377215u, 0x36d6fdfd1f94907u}},
      {{51589u, 0x9b7a62b5587eaf1cu}, {63114u, 0xe3205215b80b80d2u}},
      {{52561u, 0xde0f3104a446ee80u}, {53802u, 0xfd6ebb65456535f1u}}}},
    {"TLCopt1000",
     {{{309390u, 0x3e80a7e01e96cca5u}, {326487u, 0xff12db84c13bd3b9u}},
      {{367448u, 0xbe76732aa59733cu}, {381458u, 0xa4006ecd7b0a2822u}},
      {{51700u, 0x416a9894ce1b4a28u}, {63308u, 0xa0ff96dda12d13e0u}},
      {{52769u, 0x9b861ceca1d51ec4u}, {54035u, 0x578fd1e8886d2f0au}}}},
    {"TLCopt500",
     {{{309147u, 0xb0199bfdb8de0167u}, {326135u, 0x448a524983c334fbu}},
      {{367865u, 0x378e221d4ce8d781u}, {381882u, 0xdd7a7e57b863c571u}},
      {{51573u, 0x6b2160a13d90bef8u}, {63147u, 0x2e82c9a95334884au}},
      {{52678u, 0x7a0054d31d063276u}, {53906u, 0x36c5f72bdef0f63eu}}}},
    {"TLCopt350",
     {{{312141u, 0x6cee5683c1a3d111u}, {329091u, 0x25e8b06a5d64a239u}},
      {{372813u, 0xf99439fc2185976du}, {386944u, 0x824dce7ed288792u}},
      {{51803u, 0x7564d7c3ec2bd6b0u}, {63491u, 0x42db8353e8de6b91u}},
      {{53027u, 0xef594b8ac7c44fdau}, {54279u, 0xd9d6e8c3e518003cu}}}},
};

GoldenPin
runGolden(const std::string &design, const GoldenVariant &v,
          std::uint64_t seed)
{
    harness::SystemConfig config;
    config.design = design;
    config.core.robEntries = v.robEntries;
    config.l1i.mshrs = v.mshrs;
    config.l1d.mshrs = v.mshrs;
    config.functionalWarm = 30'000;
    config.warmup = 2'000;
    config.measure = 12'000;
    // runBenchmark takes fetchQuanta from the profile's ILP limit.
    workload::BenchmarkProfile profile =
        workload::profileByName(v.benchmark);
    profile.ilpQuanta = v.fetchQuanta;

    std::ostringstream stats;
    harness::RunObserver observer;
    observer.onMeasureEnd = [&](harness::System &sys) {
        sys.root().dumpStatsJson(stats);
    };
    harness::RunResult result =
        harness::runBenchmark(config, profile, seed, &observer);
    return GoldenPin{result.cycles, harness::fnv1aHash(stats.str())};
}

class TimedPathGolden : public ::testing::TestWithParam<std::string>
{};

} // namespace

TEST_P(TimedPathGolden, CyclesAndStatsDigestPinned)
{
    const std::string design = GetParam();
    const GoldenDesign *pinned = nullptr;
    for (const GoldenDesign &g : goldenDesigns) {
        if (design == g.design)
            pinned = &g;
    }
    std::ostringstream actual;
    actual << "    {\"" << design << "\", {";
    bool all_match = pinned != nullptr;
    for (std::size_t vi = 0; vi < std::size(goldenVariants); ++vi) {
        actual << (vi ? ",\n        {" : "{");
        for (std::size_t si = 0; si < std::size(goldenSeeds); ++si) {
            GoldenPin got = runGolden(design, goldenVariants[vi],
                                      goldenSeeds[si]);
            actual << (si ? ", " : "") << "{" << got.cycles << "u, 0x"
                   << std::hex << got.digest << std::dec << "u}";
            if (!pinned)
                continue;
            const GoldenPin &want = pinned->pins[vi][si];
            EXPECT_EQ(got.cycles, want.cycles)
                << "rob=" << goldenVariants[vi].robEntries
                << " seed=" << goldenSeeds[si];
            EXPECT_EQ(got.digest, want.digest)
                << "rob=" << goldenVariants[vi].robEntries
                << " seed=" << goldenSeeds[si];
            all_match = all_match && got.cycles == want.cycles &&
                        got.digest == want.digest;
        }
        actual << "}";
    }
    actual << "}},";
    EXPECT_TRUE(all_match) << "actual pins:\n" << actual.str();
}

INSTANTIATE_TEST_SUITE_P(
    Designs, TimedPathGolden,
    ::testing::Values("SNUCA2", "DNUCA", "TLC", "TLCopt1000",
                      "TLCopt500", "TLCopt350"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });
