/**
 * @file
 * Tests for the declarative SystemConfig (JSON round-trip, content
 * hashing), the L2 design registry, and multi-core determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>

#include "harness/config.hh"
#include "harness/sweep/resultcache.hh"
#include "harness/sweep/sweep.hh"
#include "harness/system.hh"
#include "mem/dram.hh"
#include "mem/l2registry.hh"
#include "nuca/dnuca.hh"
#include "phys/technology.hh"
#include "sim/logging.hh"
#include "workload/profile.hh"

using namespace tlsim;
using namespace tlsim::harness;

namespace
{

/** A config exercising every non-default field class. */
SystemConfig
fancyConfig()
{
    SystemConfig config;
    config.cores = 4;
    config.design = "DNUCA";
    config.technologyNm = 32;
    config.core.robEntries = 96;
    config.l1i.bytes = 32 * 1024;
    config.l1d.ways = 4;
    config.l1d.mshrs = 16;
    config.l2Options["promoteOnHit"] = 0;
    config.l2Options["insertionBank"] = 3;
    config.mem.backend = "ddr";
    config.mem.options["tCAS"] = 36;
    config.mem.options["channels"] = 4;
    config.fault.enabled = true;
    config.fault.dramStuckBanks = "3@1000";
    config.functionalWarm = 1'000'000;
    config.warmup = 10'000;
    config.measure = 50'000;
    config.coreQuantum = 5'000;
    return config;
}

} // namespace

TEST(SystemConfig, JsonRoundTripIsIdentity)
{
    SystemConfig original = fancyConfig();
    std::string json = configToJson(original);
    SystemConfig loaded = loadConfigJson(json);
    EXPECT_EQ(loaded, original);
    // Save -> load -> save is byte-stable.
    EXPECT_EQ(configToJson(loaded), json);
    // And the identity survives the trip.
    EXPECT_EQ(loaded.contentHash(), original.contentHash());
    EXPECT_EQ(loaded.canonicalKey(), original.canonicalKey());
}

TEST(SystemConfig, DefaultRoundTripsToo)
{
    SystemConfig config;
    EXPECT_EQ(loadConfigJson(configToJson(config)), config);
    EXPECT_TRUE(config.isDefaultMachine());
}

TEST(SystemConfig, ContentHashSeesEveryField)
{
    SystemConfig base;
    std::uint64_t h = base.contentHash();

    auto mutated = [&](auto &&change) {
        SystemConfig config;
        change(config);
        return config.contentHash();
    };
    EXPECT_NE(h, mutated([](SystemConfig &c) { c.cores = 2; }));
    EXPECT_NE(h, mutated([](SystemConfig &c) { c.design = "SNUCA2"; }));
    EXPECT_NE(h, mutated([](SystemConfig &c) { c.technologyNm = 65; }));
    EXPECT_NE(h,
              mutated([](SystemConfig &c) { c.core.robEntries += 1; }));
    EXPECT_NE(h, mutated([](SystemConfig &c) { c.l1i.ways = 4; }));
    EXPECT_NE(h, mutated([](SystemConfig &c) { c.l1d.bytes *= 2; }));
    EXPECT_NE(h, mutated([](SystemConfig &c) {
        c.l2Options["lineErrorRate"] = 1e-9;
    }));
    EXPECT_NE(h, mutated([](SystemConfig &c) { c.warmup += 1; }));
    EXPECT_NE(h, mutated([](SystemConfig &c) { c.measure += 1; }));
    EXPECT_NE(h, mutated([](SystemConfig &c) {
        c.functionalWarm += 1;
    }));
    EXPECT_NE(h, mutated([](SystemConfig &c) { c.coreQuantum += 1; }));

    // Stable across equal values.
    EXPECT_EQ(h, SystemConfig{}.contentHash());
}

TEST(SystemConfig, MachineHashIgnoresDesignAndBudgets)
{
    SystemConfig base;
    SystemConfig other_design = base;
    other_design.design = "DNUCA";
    other_design.warmup += 7;
    other_design.measure += 7;
    other_design.functionalWarm += 7;
    EXPECT_EQ(base.machineHash(), other_design.machineHash());
    EXPECT_TRUE(other_design.isDefaultMachine());

    SystemConfig cmp = base;
    cmp.cores = 4;
    EXPECT_NE(base.machineHash(), cmp.machineHash());
    EXPECT_FALSE(cmp.isDefaultMachine());
}

TEST(SystemConfig, DefaultMemBackendLeavesKeysUntouched)
{
    // PR 8 invariant: a default MemConfig must leave cache/spec keys
    // byte-identical to the pre-registry encoding, so no on-disk
    // ResultCache entry or paper output is invalidated.
    SystemConfig config;
    EXPECT_EQ(config.mem, MemConfig{});
    EXPECT_EQ(config.canonicalKey().find("mem."), std::string::npos);
    EXPECT_EQ(config.canonicalKey().find("dramStuckBanks"),
              std::string::npos);
    EXPECT_TRUE(config.isDefaultMachine());
}

TEST(SystemConfig, MemBackendChangesMachineHash)
{
    SystemConfig base;
    SystemConfig ddr = base;
    ddr.mem.backend = "ddr";
    EXPECT_NE(base.machineHash(), ddr.machineHash());
    EXPECT_NE(base.canonicalKey(), ddr.canonicalKey());
    EXPECT_FALSE(ddr.isDefaultMachine());
    EXPECT_NE(ddr.canonicalKey().find("mem.backend=ddr"),
              std::string::npos);

    // Options alone (same backend) mint a different machine too.
    SystemConfig tuned = ddr;
    tuned.mem.options["tCAS"] = 36;
    EXPECT_NE(ddr.machineHash(), tuned.machineHash());
    EXPECT_NE(ddr.contentHash(), tuned.contentHash());
}

TEST(SystemConfig, MemConfigRoundTripsThroughJson)
{
    SystemConfig config;
    config.mem.backend = "ddr";
    config.mem.options["rowBytes"] = 65536;
    config.mem.options["fcfs"] = 1;
    config.fault.enabled = true;
    config.fault.dramStuckBanks = "0@0,17@5000";
    SystemConfig loaded = loadConfigJson(configToJson(config));
    EXPECT_EQ(loaded, config);
    EXPECT_EQ(loaded.mem.backend, "ddr");
    EXPECT_EQ(loaded.mem.options, config.mem.options);
    EXPECT_EQ(loaded.fault.dramStuckBanks, "0@0,17@5000");
    EXPECT_EQ(configToJson(loaded), configToJson(config));
}

TEST(SystemConfig, LegacyDomainsKeyIsIgnored)
{
    // Configs written while partitioned execution existed carry a
    // "domains" key. It loads and is ignored: the machine, its hashes
    // and its spec key are those of the same JSON without it.
    for (const SystemConfig &config : {SystemConfig{}, fancyConfig()}) {
        std::string json = configToJson(config);
        EXPECT_EQ(json.find("domains"), std::string::npos);
        std::string anchor = "  \"coreQuantum\"";
        std::size_t at = json.find(anchor);
        ASSERT_NE(at, std::string::npos);
        std::string legacy = json;
        legacy.insert(at, "  \"domains\": 4,\n");

        SystemConfig plain = loadConfigJson(json);
        SystemConfig loaded = loadConfigJson(legacy);
        EXPECT_EQ(loaded, plain);
        EXPECT_EQ(loaded.machineHash(), plain.machineHash());
        EXPECT_EQ(loaded.contentHash(), plain.contentHash());
        EXPECT_EQ(loaded.isDefaultMachine(), plain.isDefaultMachine());

        sweep::RunSpec plain_spec{"gcc", 0, plain};
        sweep::RunSpec legacy_spec{"gcc", 0, loaded};
        EXPECT_EQ(sweep::specKey(legacy_spec),
                  sweep::specKey(plain_spec));
        EXPECT_EQ(sweep::cacheKey(legacy_spec),
                  sweep::cacheKey(plain_spec));
        // Saving drops the key again.
        EXPECT_EQ(configToJson(loaded), json);
    }
}

TEST(SystemConfig, LoadRejectsMalformedInput)
{
    EXPECT_THROW(loadConfigJson("not json"), FatalError);
    EXPECT_THROW(loadConfigJson("{}"), FatalError);
    EXPECT_THROW(loadConfigJson(R"({"schema": "bogus"})"), FatalError);

    SystemConfig zero_cores;
    zero_cores.cores = 0;
    EXPECT_THROW(loadConfigJson(configToJson(zero_cores)), FatalError);

    // Integer fields take only tokens their type holds exactly.
    const std::string json = configToJson(SystemConfig{});
    auto withField = [&](const std::string &field,
                         const std::string &value) {
        std::string key = "\"" + field + "\": ";
        std::size_t at = json.find(key);
        EXPECT_NE(at, std::string::npos) << field;
        at += key.size();
        std::size_t end = json.find_first_of(",}", at);
        return json.substr(0, at) + value + json.substr(end);
    };
    EXPECT_NO_THROW(loadConfigJson(withField("warmup", "7")));
    for (const char *bad : {"-1", "2.5", "1e10", "18446744073709551616"})
        EXPECT_THROW(loadConfigJson(withField("warmup", bad)), FatalError)
            << bad;
    for (const char *bad : {"2.5", "1e10", "4294967297"})
        EXPECT_THROW(loadConfigJson(withField("cores", bad)), FatalError)
            << bad;
    EXPECT_THROW(loadConfigJson(withField("seed", "-1")), FatalError);

    // A repeated key is an error, not last-one-wins.
    std::string twice = json;
    twice.insert(twice.find("  \"cores\""), "  \"cores\": 2,\n");
    EXPECT_THROW(loadConfigJson(twice), FatalError);
}

TEST(SystemConfig, U64FieldsRoundTripExactly)
{
    for (std::uint64_t value : {std::uint64_t{0x9e3779b97f4a7c15},
                                std::numeric_limits<std::uint64_t>::max()}) {
        SystemConfig config = fancyConfig();
        config.fault.seed = value;
        config.measure = value;
        SystemConfig loaded = loadConfigJson(configToJson(config));
        EXPECT_EQ(loaded.fault.seed, value);
        EXPECT_EQ(loaded.measure, value);
        EXPECT_EQ(loaded, config);
        EXPECT_EQ(loaded.machineHash(), config.machineHash());
        EXPECT_EQ(loaded.contentHash(), config.contentHash());
    }
}

TEST(Registry, KnowsThePaperDesigns)
{
    for (const std::string &design : allDesigns())
        EXPECT_TRUE(l2::Registry::known(design)) << design;
    // The paper's six are exactly the registered designs.
    std::vector<std::string> sorted = allDesigns();
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, l2::Registry::names());
    EXPECT_FALSE(l2::Registry::known("NOPE"));
    EXPECT_EQ(l2::Registry::names().size(), 6u);
}

TEST(Registry, RejectsUnknownNamesListingKnownOnes)
{
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    l2::DesignOptions options;
    l2::BuildContext ctx{eq, &root, dram, phys::tech45(), options};
    try {
        l2::Registry::build("NOPE", ctx);
        FAIL() << "build() accepted an unknown design name";
    } catch (const FatalError &err) {
        std::string message = err.what();
        EXPECT_NE(message.find("NOPE"), std::string::npos) << message;
        // The error teaches the valid names.
        EXPECT_NE(message.find("TLC"), std::string::npos) << message;
        EXPECT_NE(message.find("DNUCA"), std::string::npos) << message;
    }
}

TEST(Registry, RejectsUnknownDesignOptions)
{
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    l2::DesignOptions options{{"definitelyNotAKnob", 1.0}};
    l2::BuildContext ctx{eq, &root, dram, phys::tech45(), options};
    EXPECT_THROW(l2::Registry::build("TLC", ctx), FatalError);
}

TEST(Registry, DnucaPartialTagBitsReachTheBuiltCache)
{
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    l2::DesignOptions options{{"partialTagBits", 2.0}};
    l2::BuildContext ctx{eq, &root, dram, phys::tech45(), options};
    auto cache = l2::Registry::build("DNUCA", ctx);
    auto *dnuca = dynamic_cast<nuca::DnucaCache *>(cache.get());
    ASSERT_NE(dnuca, nullptr);
    EXPECT_EQ(dnuca->config().bankSets.partialTagBits, 2);
}

TEST(Registry, DnucaRejectsMisspelledPartialTagBits)
{
    EventQueue eq;
    stats::StatGroup root("root");
    mem::Dram dram(eq, &root);
    l2::DesignOptions options{{"partialTagBit", 2.0}};
    l2::BuildContext ctx{eq, &root, dram, phys::tech45(), options};
    EXPECT_THROW(l2::Registry::build("DNUCA", ctx), FatalError);
}

TEST(MultiCore, SystemBuildsPerCoreStats)
{
    SystemConfig config;
    config.cores = 2;
    System system(config);
    EXPECT_EQ(system.numCores(), 2);
    EXPECT_EQ(system.core(0).coreId(), 0);
    EXPECT_EQ(system.core(1).coreId(), 1);

    std::ostringstream os;
    system.root().dumpStatsJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"core0\""), std::string::npos);
    EXPECT_NE(json.find("\"core1\""), std::string::npos);
}

TEST(MultiCore, SameSeedSameCycles)
{
    SystemConfig config;
    config.cores = 2;
    config.functionalWarm = 50'000;
    config.warmup = 2'000;
    config.measure = 5'000;
    const auto &profile = workload::profileByName("gcc");

    RunResult a = runBenchmark(config, profile, /*run_seed=*/7);
    RunResult b = runBenchmark(config, profile, /*run_seed=*/7);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_GT(a.cycles, 0u);
    // Both cores' measured instructions count.
    EXPECT_EQ(a.instructions, config.measure * 2);

    RunResult c = runBenchmark(config, profile, /*run_seed=*/8);
    EXPECT_NE(a.cycles, c.cycles);
}

TEST(MultiCore, SweepParallelMatchesSerial)
{
    using namespace tlsim::harness::sweep;

    std::vector<RunSpec> specs;
    for (const char *bench : {"gcc", "mcf", "apache"}) {
        RunSpec spec;
        spec.benchmark = bench;
        spec.config.cores = 2;
        spec.config.design = "TLC";
        spec.config.functionalWarm = 50'000;
        spec.config.warmup = 2'000;
        spec.config.measure = 5'000;
        specs.push_back(spec);
    }

    SweepOptions serial;
    serial.jobs = 1;
    serial.verbose = false;
    auto serial_outcome = runSweep(specs, serial);

    SweepOptions parallel = serial;
    parallel.jobs = 4;
    auto parallel_outcome = runSweep(specs, parallel);

    for (std::size_t i = 0; i < specs.size(); ++i) {
        std::ostringstream a, b;
        writeResultJson(a, specs[i], serial_outcome.results[i]);
        writeResultJson(b, specs[i], parallel_outcome.results[i]);
        EXPECT_EQ(a.str(), b.str()) << specKey(specs[i]);
    }
}
