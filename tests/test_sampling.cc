/**
 * @file
 * Tests for SimPoint-style interval selection, reweighted
 * aggregation, and warm-state checkpointing: plan determinism,
 * weight arithmetic, cold-vs-checkpoint byte identity, and the
 * sampled-vs-full accuracy bound documented in docs/SAMPLING.md.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/tracerun.hh"
#include "workload/generator.hh"
#include "workload/simpoint.hh"
#include "workload/tracefile.hh"

using namespace tlsim;
using namespace tlsim::harness;
using namespace tlsim::workload;

namespace
{

/** Synthesize a small in-memory trace from a paper profile. */
TraceFile
makeTrace(const std::string &profile, std::uint64_t instructions,
          std::uint64_t seed = 3)
{
    TraceGenerator generator(profileByName(profile), seed);
    TraceFileWriter writer(8192);
    while (writer.instructionCount() < instructions)
        writer.append(generator.next());
    std::ostringstream os(std::ios::binary);
    writer.finish(os);
    const std::string &bytes = os.str();
    return TraceFile::fromBytes(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
        "<" + profile + ">");
}

std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "tlsim_sampling_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

RunResult
syntheticResult(std::uint64_t cycles, std::uint64_t instructions,
                double misses_per_1k)
{
    RunResult r;
    r.design = "S-NUCA";
    r.cycles = cycles;
    r.instructions = instructions;
    r.ipc = static_cast<double>(instructions) /
            static_cast<double>(cycles);
    r.l2MissesPer1k = misses_per_1k;
    return r;
}

IntervalRun
weighted(const RunResult &result, double weight)
{
    IntervalRun run;
    run.result = result;
    run.rep.weight = weight;
    run.rep.instructions = result.instructions;
    return run;
}

} // namespace

TEST(Sampling, PlanIsDeterministicAndWeightsSumToOne)
{
    TraceFile trace = makeTrace("gcc", 300000);
    SamplingPlan a = selectIntervals(trace, 30000, 4, 0);
    SamplingPlan b = selectIntervals(trace, 30000, 4, 0);

    ASSERT_FALSE(a.representatives.empty());
    ASSERT_EQ(a.representatives.size(), b.representatives.size());
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < a.representatives.size(); ++i) {
        const RepresentativeInterval &ra = a.representatives[i];
        const RepresentativeInterval &rb = b.representatives[i];
        EXPECT_EQ(ra.interval, rb.interval);
        EXPECT_EQ(ra.startRecord, rb.startRecord);
        EXPECT_EQ(ra.weight, rb.weight); // bit-identical plans
        weight_sum += ra.weight;
        if (i > 0) {
            EXPECT_GT(ra.interval,
                      a.representatives[i - 1].interval);
        }
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-12);
    EXPECT_LE(a.coveredInstructions, trace.instructionCount());
    EXPECT_GT(a.coveredInstructions, trace.instructionCount() / 2);
}

TEST(Sampling, FirstIntervalOnlyRepresentsItself)
{
    TraceFile trace = makeTrace("gcc", 400000);
    SamplingPlan plan = selectIntervals(trace, 25000, 4, 0);
    for (const RepresentativeInterval &rep : plan.representatives) {
        if (rep.startInstr == 0) {
            EXPECT_EQ(rep.clusterSize, 1u)
                << "cold-boot interval must not stand for a larger "
                   "cluster";
        }
    }
}

TEST(Sampling, AggregateOfIdenticalIntervalsIsIdentity)
{
    RunResult base = syntheticResult(200000, 50000, 12.5);
    std::vector<IntervalRun> runs = {weighted(base, 0.5),
                                     weighted(base, 0.25),
                                     weighted(base, 0.25)};
    RunResult out = aggregateWeighted(runs, 1000000, "bench");
    // Identical per-interval behaviour must extrapolate unchanged:
    // CPI 4.0 -> 4M cycles over 1M instructions.
    EXPECT_EQ(out.instructions, 1000000u);
    EXPECT_EQ(out.cycles, 4000000u);
    EXPECT_NEAR(out.ipc, base.ipc, 1e-12);
    EXPECT_NEAR(out.l2MissesPer1k, 12.5, 1e-12);
    EXPECT_EQ(out.benchmark, "bench");
}

TEST(Sampling, AggregateWeightsArithmetic)
{
    // CPI 2 at weight 0.75, CPI 6 at weight 0.25 -> CPI 3.
    std::vector<IntervalRun> runs = {
        weighted(syntheticResult(100000, 50000, 10.0), 0.75),
        weighted(syntheticResult(300000, 50000, 30.0), 0.25)};
    RunResult out = aggregateWeighted(runs, 400000, "w");
    EXPECT_EQ(out.cycles, 1200000u);
    EXPECT_NEAR(out.ipc, 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(out.l2MissesPer1k, 15.0, 1e-12);
}

TEST(Sampling, PlanCacheRoundTrip)
{
    TraceFile trace = makeTrace("mcf", 200000);
    SamplingPlan plan = selectIntervals(trace, 20000, 3, 0);

    WarmCheckpointCache cache(freshDir("plan"));
    std::string key =
        samplingPlanKey(trace.contentHash(), 20000, 3, 0);
    SamplingPlan loaded;
    EXPECT_FALSE(cache.loadPlan(key, loaded));
    cache.storePlan(key, plan);
    ASSERT_TRUE(cache.loadPlan(key, loaded));

    EXPECT_EQ(loaded.intervalInstructions, plan.intervalInstructions);
    EXPECT_EQ(loaded.numIntervals, plan.numIntervals);
    EXPECT_EQ(loaded.coveredInstructions, plan.coveredInstructions);
    EXPECT_EQ(loaded.droppedTail, plan.droppedTail);
    ASSERT_EQ(loaded.representatives.size(),
              plan.representatives.size());
    for (std::size_t i = 0; i < plan.representatives.size(); ++i) {
        EXPECT_EQ(loaded.representatives[i].startRecord,
                  plan.representatives[i].startRecord);
        EXPECT_EQ(loaded.representatives[i].weight,
                  plan.representatives[i].weight);
        EXPECT_EQ(loaded.representatives[i].clusterSize,
                  plan.representatives[i].clusterSize);
    }
}

TEST(Sampling, KeysSeparateTracePositionMachineAndParameters)
{
    SystemConfig config;
    std::string base = checkpointKey(0x1111, 50000, config);
    EXPECT_NE(base, checkpointKey(0x2222, 50000, config));
    EXPECT_NE(base, checkpointKey(0x1111, 50001, config));
    SystemConfig other = config;
    other.design = "S-NUCA";
    EXPECT_NE(base, checkpointKey(0x1111, 50000, other));

    std::string plan = samplingPlanKey(0x1111, 50000, 4, 0);
    EXPECT_NE(plan, samplingPlanKey(0x1111, 50000, 4, 1));
    EXPECT_NE(plan, samplingPlanKey(0x1111, 50000, 5, 0));
    EXPECT_NE(plan, samplingPlanKey(0x1111, 40000, 4, 0));
}

TEST(Sampling, CheckpointResumeIsByteIdenticalToColdWarm)
{
    TraceFile trace = makeTrace("gcc", 200000);
    TraceRunOptions options;
    options.config = SystemConfig{};
    options.intervalInstructions = 25000;
    options.maxIntervals = 3;
    options.checkpointDir = freshDir("resume");

    SampledTraceOutcome cold = runSampledTrace(trace, options);
    EXPECT_EQ(cold.checkpointHits, 0u);
    EXPECT_GT(cold.checkpointStores, 0u);
    EXPECT_GT(cold.warmRecordsReplayed, 0u);

    SampledTraceOutcome resumed = runSampledTrace(trace, options);
    EXPECT_EQ(resumed.checkpointHits, resumed.intervals.size());
    EXPECT_EQ(resumed.warmRecordsReplayed, 0u);

    // Resume must be *byte-identical* to warming cold — both paths
    // load the same serialized warm payload before the timed phase.
    ASSERT_EQ(cold.intervals.size(), resumed.intervals.size());
    for (std::size_t i = 0; i < cold.intervals.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(cold.intervals[i].result.cycles,
                  resumed.intervals[i].result.cycles);
        EXPECT_EQ(cold.intervals[i].result.ipc,
                  resumed.intervals[i].result.ipc);
        EXPECT_EQ(cold.intervals[i].result.l2MissesPer1k,
                  resumed.intervals[i].result.l2MissesPer1k);
        EXPECT_EQ(cold.intervals[i].result.meanLookupLatency,
                  resumed.intervals[i].result.meanLookupLatency);
    }
    EXPECT_EQ(cold.aggregate.cycles, resumed.aggregate.cycles);
    EXPECT_EQ(cold.aggregate.ipc, resumed.aggregate.ipc);
}

TEST(Sampling, DisabledCheckpointDirMatchesEnabled)
{
    TraceFile trace = makeTrace("gcc", 150000);
    TraceRunOptions options;
    options.config = SystemConfig{};
    options.intervalInstructions = 25000;
    options.maxIntervals = 2;
    options.checkpointDir.clear(); // disabled

    SampledTraceOutcome without = runSampledTrace(trace, options);
    EXPECT_EQ(without.checkpointHits, 0u);
    EXPECT_EQ(without.checkpointStores, 0u);

    options.checkpointDir = freshDir("disabled_vs");
    SampledTraceOutcome with = runSampledTrace(trace, options);
    EXPECT_EQ(with.aggregate.cycles, without.aggregate.cycles);
    EXPECT_EQ(with.aggregate.ipc, without.aggregate.ipc);
}

TEST(Sampling, SampledTracksFullWithinDocumentedTolerance)
{
    // The documented bound (docs/SAMPLING.md) is 10% IPC / 15% miss
    // rate for the shipped 2M-instruction sample; this 300k-trace
    // smoke uses the same machinery at unit-test cost.
    TraceFile trace = makeTrace("gcc", 300000);
    TraceRunOptions options;
    options.config = SystemConfig{};
    options.intervalInstructions = 30000;
    options.maxIntervals = 4;

    RunResult full = runFullTrace(trace, options);
    SampledTraceOutcome sampled = runSampledTrace(trace, options);

    ASSERT_GT(full.ipc, 0.0);
    double ipc_err =
        std::abs(sampled.aggregate.ipc - full.ipc) / full.ipc;
    EXPECT_LT(ipc_err, 0.10)
        << "sampled ipc " << sampled.aggregate.ipc << " vs full "
        << full.ipc;
    ASSERT_GT(full.l2MissesPer1k, 0.0);
    double miss_err = std::abs(sampled.aggregate.l2MissesPer1k -
                               full.l2MissesPer1k) /
                      full.l2MissesPer1k;
    EXPECT_LT(miss_err, 0.15)
        << "sampled miss/1k " << sampled.aggregate.l2MissesPer1k
        << " vs full " << full.l2MissesPer1k;
    // Sampling must actually sample: the timed instruction budget
    // stays well under the full trace.
    EXPECT_LT(sampled.timedInstructions,
              trace.instructionCount() / 2);
}
