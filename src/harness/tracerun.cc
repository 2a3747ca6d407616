#include "harness/tracerun.hh"

#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>

#include "harness/checkpoint.hh"
#include "sim/logging.hh"

namespace tlsim
{
namespace harness
{

namespace
{

double
wallMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Replay records functionally until the cursor reaches
 * @p until_record: System::functionalWarm's step, bounded by record
 * count instead. Interval entries are exact record boundaries, and
 * positioning by records (not instructions) keeps zero-instruction
 * ifetch records from desynchronizing the cursor.
 */
void
warmToRecord(System &system, workload::TraceFileSource &source,
             std::uint64_t until_record)
{
    while (source.recordIndex() < until_record)
        system.functionalWarmRecord(source.next());
}

void
checkSingleCore(const TraceRunOptions &options)
{
    if (options.config.cores != 1)
        fatal("trace replay is single-core (captured traces carry one "
              "instruction stream); config has {} cores",
              options.config.cores);
}

} // namespace

RunResult
aggregateWeighted(const std::vector<IntervalRun> &intervals,
                  std::uint64_t total_instructions,
                  const std::string &benchmark)
{
    TLSIM_ASSERT(!intervals.empty(),
                 "cannot aggregate zero intervals");
    RunResult out;
    out.design = intervals.front().result.design;
    out.benchmark = benchmark;

    double cpi = 0.0;
    for (const IntervalRun &run : intervals) {
        const RunResult &r = run.result;
        double w = run.rep.weight;
        double instr = r.instructions > 0
                           ? static_cast<double>(r.instructions)
                           : 1.0;
        cpi += w * (static_cast<double>(r.cycles) / instr);

        out.l2RequestsPer1k += w * r.l2RequestsPer1k;
        out.l2MissesPer1k += w * r.l2MissesPer1k;
        out.meanLookupLatency += w * r.meanLookupLatency;
        out.predictablePct += w * r.predictablePct;
        out.banksPerRequest += w * r.banksPerRequest;
        out.networkPowerMw += w * r.networkPowerMw;
        out.linkUtilizationPct += w * r.linkUtilizationPct;
        out.closeHitPct += w * r.closeHitPct;
        out.promotesPerInsert += w * r.promotesPerInsert;
        out.fastMissPct += w * r.fastMissPct;
        out.multiMatchPct += w * r.multiMatchPct;
        out.queueWaitMean += w * r.queueWaitMean;
        out.wireMean += w * r.wireMean;
        out.bankMean += w * r.bankMean;
        out.dramMean += w * r.dramMean;
        out.faultMean += w * r.faultMean;

        // Event counts extrapolate through per-instruction rates.
        double scale =
            w * static_cast<double>(total_instructions) / instr;
        out.queueWaitSamples += static_cast<std::uint64_t>(
            std::llround(scale * static_cast<double>(
                                     r.queueWaitSamples)));
        out.wireSamples += static_cast<std::uint64_t>(
            std::llround(scale * static_cast<double>(r.wireSamples)));
        out.bankSamples += static_cast<std::uint64_t>(
            std::llround(scale * static_cast<double>(r.bankSamples)));
        out.dramSamples += static_cast<std::uint64_t>(
            std::llround(scale * static_cast<double>(r.dramSamples)));
        out.faultSamples += static_cast<std::uint64_t>(
            std::llround(scale * static_cast<double>(r.faultSamples)));
        out.linkRetries += scale * r.linkRetries;
        out.linkTimeouts += scale * r.linkTimeouts;
        out.degradedRequests += scale * r.degradedRequests;
    }

    out.instructions = total_instructions;
    out.cycles = static_cast<std::uint64_t>(std::llround(
        cpi * static_cast<double>(total_instructions)));
    out.ipc = cpi > 0.0 ? 1.0 / cpi : 0.0;
    return out;
}

SampledTraceOutcome
runSampledTrace(const workload::TraceFile &trace,
                const TraceRunOptions &options)
{
    checkSingleCore(options);
    auto start_time = std::chrono::steady_clock::now();

    WarmCheckpointCache checkpoints(options.checkpointDir);

    // The interval-selection scan decodes the entire trace; its plan
    // is deterministic in (trace, geometry, seed) and machine-
    // independent, so it is cached beside the warm checkpoints — a
    // fully warm sampled run touches only the sampled records.
    SampledTraceOutcome outcome;
    std::string plan_key = samplingPlanKey(
        trace.contentHash(), options.intervalInstructions,
        options.maxIntervals, options.seed);
    if (!checkpoints.loadPlan(plan_key, trace, outcome.plan)) {
        outcome.plan = workload::selectIntervals(
            trace, options.intervalInstructions, options.maxIntervals,
            options.seed);
        checkpoints.storePlan(plan_key, outcome.plan);
    }

    // One scratch machine replays the trace prefix functionally and
    // is advanced lazily, so even an all-miss (cold) sampled run pays
    // at most one pass over the longest prefix — not one per
    // interval. Its serialized state is what both the cold path and
    // the checkpoint path load, making the two byte-identical. The
    // scratch machine is only built on the first checkpoint miss.
    std::optional<System> warm_system;
    std::optional<workload::TraceFileSource> warm_cursor;

    for (const workload::RepresentativeInterval &rep :
         outcome.plan.representatives) {
        System system(options.config);
        std::string key = checkpointKey(trace.contentHash(),
                                        rep.startRecord,
                                        options.config);
        IntervalRun run;
        run.rep = rep;
        if (checkpoints.load(key, system, rep.startRecord)) {
            run.fromCheckpoint = true;
            ++outcome.checkpointHits;
        } else {
            if (!warm_system) {
                warm_system.emplace(options.config);
                warm_cursor.emplace(trace);
            }
            std::uint64_t before = warm_cursor->recordIndex();
            warmToRecord(*warm_system, *warm_cursor, rep.startRecord);
            outcome.warmRecordsReplayed +=
                warm_cursor->recordIndex() - before;
            std::stringstream payload(std::ios::in | std::ios::out |
                                      std::ios::binary);
            if (warm_system->saveWarmState(payload)) {
                payload.seekg(0);
                if (!system.loadWarmState(payload))
                    fatal("warm-state round trip failed for design "
                          "'{}'", options.config.design);
                checkpoints.store(key, *warm_system, rep.startRecord);
                if (checkpoints.enabled())
                    ++outcome.checkpointStores;
            } else {
                // Design without warm-state support: warm the timed
                // machine directly (no checkpoint possible).
                workload::TraceFileSource replay(trace);
                warmToRecord(system, replay, rep.startRecord);
            }
        }

        workload::TraceFileSource cursor(trace);
        cursor.seekToRecord(rep.startRecord);
        std::uint64_t warmup =
            std::min(options.timedWarmup, rep.instructions / 4);
        std::uint64_t measure = rep.instructions - warmup;
        if (warmup > 0)
            system.core().run(cursor, warmup);
        system.beginMeasurement();
        std::uint64_t cycles = system.core().run(cursor, measure);
        system.l2().syncStats();
        run.result = extractRunResult(system, cycles, measure,
                                      options.benchmarkLabel);
        outcome.timedInstructions += warmup + measure;
        outcome.intervals.push_back(std::move(run));
    }

    outcome.aggregate =
        aggregateWeighted(outcome.intervals,
                          outcome.plan.coveredInstructions,
                          options.benchmarkLabel);
    outcome.wallMs = wallMsSince(start_time);
    return outcome;
}

RunResult
runFullTrace(const workload::TraceFile &trace,
             const TraceRunOptions &options, double *wall_ms)
{
    checkSingleCore(options);
    auto start_time = std::chrono::steady_clock::now();

    System system(options.config);
    workload::TraceFileSource cursor(trace);
    system.beginMeasurement();
    std::uint64_t cycles =
        system.core().run(cursor, trace.instructionCount());
    system.l2().syncStats();
    RunResult result =
        extractRunResult(system, cycles, trace.instructionCount(),
                         options.benchmarkLabel);
    if (wall_ms)
        *wall_ms = wallMsSince(start_time);
    return result;
}

} // namespace harness
} // namespace tlsim
