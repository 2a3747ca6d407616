/**
 * @file
 * Quickstart: build a complete simulated system around the base
 * Transmission Line Cache, run a benchmark on it, and read out the
 * headline metrics.
 *
 *   $ ./examples/quickstart [benchmark] [instructions]
 *
 * Defaults to 2M measured instructions of "gcc". Observability
 * options (see docs/OBSERVABILITY.md):
 *
 *   --trace-out=run.trace.json   Chrome trace of the measured phase
 *   --stats-json=run.stats.json  final stats as JSON
 *   --stats-series=ts.jsonl      periodic stat samples
 *   --debug-flags=L2,NoC         debug prints to stderr
 */

#include <cstdlib>
#include <iostream>
#include <memory>

#include "harness/system.hh"
#include "sim/table.hh"
#include "sim/trace/options.hh"

using namespace tlsim;

int
main(int argc, char **argv)
{
    trace::Observability obs(argc, argv);

    std::string bench = argc > 1 ? argv[1] : "gcc";
    std::uint64_t instructions =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2'000'000;

    // 1. Pick a workload profile (the 12 paper benchmarks ship with
    //    the library; see workload::paperBenchmarks()).
    const auto &profile = workload::profileByName(bench);

    // 2. Run it on the base TLC design. runBenchmark() assembles the
    //    whole machine: 4-wide OoO core, split 64 KB L1s, the 16 MB
    //    L2 design under test, and DRAM; warms the caches; measures.
    //    The observer attaches the periodic stat sampler over the
    //    measured phase and dumps final stats JSON, if requested.
    std::unique_ptr<trace::StatSampler> sampler;
    harness::RunObserver observer;
    observer.onMeasureBegin = [&](harness::System &sys) {
        sampler = obs.makeSampler(sys.eventQueue(), sys.root());
    };
    observer.onMeasureEnd = [&](harness::System &sys) {
        sampler.reset();
        obs.dumpFinalStats(sys.root());
    };
    harness::RunResult result =
        harness::runBenchmark({.design = "TLC",
                               .functionalWarm = 50'000'000,
                               .warmup = 1'000'000,
                               .measure = instructions},
                              profile, /*run_seed=*/0, &observer);

    // 3. Read out the metrics the paper's evaluation is built from.
    TextTable table("Quickstart: " + bench + " on the base TLC");
    table.setHeader({"Metric", "Value"});
    table.addRow({"instructions", std::to_string(result.instructions)});
    table.addRow({"cycles", std::to_string(result.cycles)});
    table.addRow({"IPC", TextTable::num(result.ipc, 3)});
    table.addRow({"L2 requests / 1K instr",
                  TextTable::num(result.l2RequestsPer1k, 1)});
    table.addRow({"L2 misses / 1K instr",
                  TextTable::num(result.l2MissesPer1k, 3)});
    table.addRow({"mean L2 lookup latency [cycles]",
                  TextTable::num(result.meanLookupLatency, 1)});
    table.addRow({"predictable lookups [%]",
                  TextTable::num(result.predictablePct, 1)});
    table.addRow({"link utilization [%]",
                  TextTable::num(result.linkUtilizationPct, 2)});
    table.addRow({"network dynamic power [mW]",
                  TextTable::num(result.networkPowerMw, 1)});
    // Where did the L2 latency go? (per-request means; DRAM only
    // contributes on misses). Each mean carries its sample count: a
    // distribution nothing sampled (e.g. dram on a run with no
    // misses) reads "n/a (n=0)", not a misleading 0.00.
    auto breakdown = [](double mean, std::uint64_t n) {
        std::string cell =
            n ? TextTable::num(mean, 2) : std::string("n/a");
        return cell + " (n=" + std::to_string(n) + ")";
    };
    table.addRow({"  breakdown: queue wait [cycles]",
                  breakdown(result.queueWaitMean,
                            result.queueWaitSamples)});
    table.addRow({"  breakdown: wire [cycles]",
                  breakdown(result.wireMean, result.wireSamples)});
    table.addRow({"  breakdown: bank [cycles]",
                  breakdown(result.bankMean, result.bankSamples)});
    table.addRow({"  breakdown: dram [cycles]",
                  breakdown(result.dramMean, result.dramSamples)});
    table.print(std::cout);

    std::cout << "\nTry: quickstart mcf, or compare designs with the "
                 "cache_compare example.\n";
    return 0;
}
