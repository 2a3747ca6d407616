/**
 * @file
 * Unit and statistical tests for the synthetic trace generator.
 */

#include <gtest/gtest.h>

#include "sim/logging.hh"

#include <cmath>
#include <map>
#include <string>

#include "workload/generator.hh"

using namespace tlsim;
using namespace tlsim::workload;
using tlsim::cpu::TraceRecord;

namespace
{

BenchmarkProfile
simpleProfile()
{
    BenchmarkProfile p;
    p.name = "test";
    p.instrPerMem = 4.0;
    p.storeFrac = 0.25;
    p.hotBlocks = 100;
    p.hotFrac = 0.5;
    p.warmBlocks = 1000;
    p.warmFrac = 0.3;
    p.zipfS = 0.8;
    p.warmReuseFrac = 0.0;
    p.streamBlocks = 10000;
    p.iBlocks = 64;
    p.jumpProb = 0.2;
    p.instrPerIBlock = 16.0;
    p.seed = 5;
    return p;
}

struct Tally
{
    std::uint64_t instructions = 0;
    std::uint64_t data_ops = 0;
    std::uint64_t stores = 0;
    std::uint64_t ifetches = 0;
    std::uint64_t hot = 0, warm = 0, stream = 0, churn = 0;
    std::uint64_t deps = 0;
};

Tally
runGenerator(TraceGenerator &gen, int records)
{
    Tally tally;
    for (int i = 0; i < records; ++i) {
        TraceRecord rec = gen.next();
        tally.instructions += rec.gap;
        if (rec.isIFetch) {
            ++tally.ifetches;
            continue;
        }
        ++tally.instructions;
        ++tally.data_ops;
        if (rec.type == mem::AccessType::Store)
            ++tally.stores;
        if (rec.dependsOnPrev)
            ++tally.deps;
        if (rec.blockAddr >= TraceGenerator::churnBase)
            ++tally.churn;
        else if (rec.blockAddr >= TraceGenerator::streamBase)
            ++tally.stream;
        else if (rec.blockAddr >= TraceGenerator::warmBase)
            ++tally.warm;
        else
            ++tally.hot;
    }
    return tally;
}

/** 64-bit FNV-1a over every field of the first @p records records. */
std::uint64_t
streamDigest(TraceGenerator &gen, int records)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&hash](std::uint64_t value, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            hash ^= (value >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    for (int i = 0; i < records; ++i) {
        TraceRecord rec = gen.next();
        mix(rec.gap, 4);
        mix(rec.isIFetch, 1);
        mix(static_cast<std::uint64_t>(rec.type), 1);
        mix(rec.blockAddr, 8);
        mix(rec.dependsOnPrev, 1);
        mix(rec.mispredict, 1);
    }
    return hash;
}

} // namespace

TEST(Generator, Deterministic)
{
    auto profile = simpleProfile();
    TraceGenerator a(profile, 3), b(profile, 3);
    for (int i = 0; i < 1000; ++i) {
        TraceRecord ra = a.next(), rb = b.next();
        EXPECT_EQ(ra.blockAddr, rb.blockAddr);
        EXPECT_EQ(ra.gap, rb.gap);
        EXPECT_EQ(ra.isIFetch, rb.isIFetch);
    }
}

TEST(Generator, DifferentRunSeedsDiffer)
{
    auto profile = simpleProfile();
    TraceGenerator a(profile, 1), b(profile, 2);
    int diff = 0;
    for (int i = 0; i < 200; ++i)
        diff += (a.next().blockAddr != b.next().blockAddr) ? 1 : 0;
    EXPECT_GT(diff, 50);
}

TEST(Generator, InstructionsPerMemOp)
{
    auto profile = simpleProfile();
    TraceGenerator gen(profile);
    Tally tally = runGenerator(gen, 200000);
    double ratio = static_cast<double>(tally.instructions) /
                   static_cast<double>(tally.data_ops);
    EXPECT_NEAR(ratio, profile.instrPerMem, 0.3);
}

TEST(Generator, StoreFraction)
{
    auto profile = simpleProfile();
    TraceGenerator gen(profile);
    Tally tally = runGenerator(gen, 100000);
    double frac = static_cast<double>(tally.stores) /
                  static_cast<double>(tally.data_ops);
    EXPECT_NEAR(frac, profile.storeFrac, 0.02);
}

TEST(Generator, RegionFractions)
{
    auto profile = simpleProfile();
    TraceGenerator gen(profile);
    Tally tally = runGenerator(gen, 200000);
    double n = static_cast<double>(tally.data_ops);
    EXPECT_NEAR(tally.hot / n, profile.hotFrac, 0.02);
    EXPECT_NEAR(tally.warm / n, profile.warmFrac, 0.02);
    EXPECT_NEAR(tally.stream / n, profile.streamFrac(), 0.02);
}

TEST(Generator, IFetchCadence)
{
    auto profile = simpleProfile();
    TraceGenerator gen(profile);
    Tally tally = runGenerator(gen, 200000);
    double per_ifetch = static_cast<double>(tally.instructions) /
                        static_cast<double>(tally.ifetches);
    EXPECT_NEAR(per_ifetch, profile.instrPerIBlock, 2.0);
}

TEST(Generator, AddressesWithinRegions)
{
    // The tag scramble perturbs bits 16..23 but must keep every
    // address inside its (2^24-spaced) region.
    const Addr slack = Addr(1) << 24;
    auto profile = simpleProfile();
    TraceGenerator gen(profile);
    for (int i = 0; i < 50000; ++i) {
        TraceRecord rec = gen.next();
        if (rec.isIFetch) {
            EXPECT_GE(rec.blockAddr, TraceGenerator::instrBase);
            EXPECT_LT(rec.blockAddr,
                      TraceGenerator::instrBase + slack);
        } else if (rec.blockAddr < TraceGenerator::warmBase) {
            EXPECT_GE(rec.blockAddr, TraceGenerator::hotBase);
            EXPECT_LT(rec.blockAddr,
                      TraceGenerator::hotBase + slack);
        }
    }
}

TEST(Generator, TagScrambleInjectiveAndSetPreserving)
{
    std::set<Addr> images;
    for (Addr block = 0; block < 20000; ++block) {
        Addr scrambled = TraceGenerator::tagScramble(block);
        EXPECT_EQ(scrambled & 0xFFFF, block & 0xFFFF);
        EXPECT_TRUE(images.insert(scrambled).second);
    }
}

TEST(Generator, TagScrambleVariesTagBits)
{
    std::set<Addr> tags;
    for (Addr block = 0; block < 256; ++block) {
        tags.insert((TraceGenerator::tagScramble(block) >> 16) & 0x3F);
    }
    // Consecutive blocks spread over many 6-bit partial tags.
    EXPECT_GT(tags.size(), 30u);
}

TEST(Generator, StreamIsSequentialInSetBits)
{
    // Streams walk consecutive blocks; the tag scramble perturbs
    // bits 16..23 but the set-index bits advance sequentially.
    auto profile = simpleProfile();
    profile.hotFrac = 0.0;
    profile.warmFrac = 0.0; // everything streams
    TraceGenerator gen(profile);
    Addr prev = 0;
    bool first = true;
    for (int i = 0; i < 1000; ++i) {
        TraceRecord rec = gen.next();
        if (rec.isIFetch)
            continue;
        if (!first) {
            EXPECT_EQ(rec.blockAddr & 0xFFFF,
                      (prev + 1) & 0xFFFF);
        }
        prev = rec.blockAddr;
        first = false;
    }
}

TEST(Generator, StreamWrapsAround)
{
    auto profile = simpleProfile();
    profile.hotFrac = 0.0;
    profile.warmFrac = 0.0;
    profile.streamBlocks = 64;
    TraceGenerator gen(profile);
    std::set<Addr> seen;
    for (int i = 0; i < 1000; ++i) {
        TraceRecord rec = gen.next();
        if (!rec.isIFetch)
            seen.insert(rec.blockAddr);
    }
    EXPECT_EQ(seen.size(), 64u);
}

TEST(Generator, ChurnProducesFreshBlocks)
{
    auto profile = simpleProfile();
    profile.churnFrac = 0.05;
    TraceGenerator gen(profile);
    Tally tally = runGenerator(gen, 100000);
    EXPECT_GT(tally.churn, 0u);
    double frac = static_cast<double>(tally.churn) /
                  static_cast<double>(tally.data_ops);
    EXPECT_NEAR(frac, 0.05, 0.01);
}

TEST(Generator, DependenceFraction)
{
    auto profile = simpleProfile();
    profile.depFrac = 0.4;
    TraceGenerator gen(profile);
    Tally tally = runGenerator(gen, 100000);
    double frac = static_cast<double>(tally.deps) /
                  static_cast<double>(tally.data_ops);
    EXPECT_NEAR(frac, 0.4, 0.02);
}

TEST(Generator, WarmReuseRepeatsRecentBlocks)
{
    auto profile = simpleProfile();
    profile.hotFrac = 0.0;
    profile.warmFrac = 1.0;
    profile.warmReuseFrac = 0.5;
    profile.reuseWindow = 16;
    profile.warmBlocks = 1u << 20; // huge: fresh draws rarely repeat
    profile.zipfS = 0.0;
    TraceGenerator gen(profile);
    std::map<Addr, int> counts;
    int repeats = 0, ops = 0;
    for (int i = 0; i < 20000; ++i) {
        TraceRecord rec = gen.next();
        if (rec.isIFetch)
            continue;
        ++ops;
        repeats += (counts[rec.blockAddr]++ > 0) ? 1 : 0;
    }
    // Half the references re-touch recent blocks.
    EXPECT_GT(static_cast<double>(repeats) / ops, 0.3);
}

TEST(Generator, InvalidFractionsPanic)
{
    auto profile = simpleProfile();
    profile.hotFrac = 0.8;
    profile.warmFrac = 0.5;
    EXPECT_THROW(TraceGenerator gen(profile), PanicError);
}

// Golden digests of the first 200k records of each paper profile at
// run seeds 0 and 9973. Any change to the generator or the RNG
// distributions that alters a single draw changes these; a change
// that is meant to be exact must leave them alone.
TEST(Generator, GoldenStreamDigests)
{
    const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        golden = {
            {"bzip", {0x7407b3dbd76d0446ULL, 0x9e9b152ccfd70738ULL}},
            {"gcc", {0xcdac31cf4cb5a848ULL, 0x16d9718151e906b1ULL}},
            {"mcf", {0xa9443b6268e119afULL, 0xa2f9a18ffefaeb8dULL}},
            {"perl", {0x7984965e82b166a5ULL, 0xbe58f5e20f3aab16ULL}},
            {"equake", {0xbaf8795796fbb3d8ULL, 0x39836220f20e74eeULL}},
            {"swim", {0x144b32ba82f89043ULL, 0x286fd8ce0395f998ULL}},
            {"applu", {0x1b6fee086bf5bff9ULL, 0xbec9f95ecaf7869bULL}},
            {"lucas", {0x9dd5ca1021726395ULL, 0x77bfb160b5de651bULL}},
            {"apache", {0x9edc0b5903d80560ULL, 0x26ad37ec272bd99cULL}},
            {"zeus", {0x4895f28c54ef40d3ULL, 0x4faea458794a6116ULL}},
            {"sjbb", {0x53a125e58e254268ULL, 0x3f7cd45bef68a18aULL}},
            {"oltp", {0xea0a6301932ef252ULL, 0xea5c3e1414b75fb1ULL}},
        };
    ASSERT_EQ(paperBenchmarks().size(), golden.size());
    for (const auto &profile : paperBenchmarks()) {
        auto it = golden.find(profile.name);
        ASSERT_NE(it, golden.end()) << profile.name;
        TraceGenerator a(profile, 0), b(profile, 9973);
        EXPECT_EQ(streamDigest(a, 200'000), it->second.first)
            << profile.name << " run seed 0";
        EXPECT_EQ(streamDigest(b, 200'000), it->second.second)
            << profile.name << " run seed 9973";
    }
}
