/**
 * @file
 * Head-to-head cache architecture comparison: SNUCA2 vs DNUCA vs TLC
 * on one workload — the paper's core experiment, on demand.
 *
 *   $ ./examples/cache_compare [benchmark] [instructions]
 */

#include <iostream>
#include <optional>

#include "harness/system.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/table.hh"
#include "sim/trace/options.hh"

using namespace tlsim;

namespace
{

int
run(int argc, char **argv)
{
    trace::Observability obs(argc, argv);
    std::string bench = argc > 1 ? argv[1] : "mcf";
    std::uint64_t instructions = 3'000'000;
    if (argc > 2) {
        std::optional<std::uint64_t> n = json::parseU64(argv[2]);
        if (!n)
            fatal("instructions expects a non-negative integer, got '{}'",
                  argv[2]);
        instructions = *n;
    }
    const auto &profile = workload::profileByName(bench);

    TextTable table("SNUCA2 vs DNUCA vs TLC on '" + bench + "'");
    table.setHeader({"Design", "IPC", "Norm. time", "Lookup [cyc]",
                     "Predictable %", "Miss/1K", "Banks/req",
                     "Net power [mW]"});

    double base_cycles = 0.0;
    for (const char *design : {"SNUCA2", "DNUCA", "TLC"}) {
        std::cerr << "  running " << design << "...\n";
        auto result = harness::runBenchmark({.design = design,
                                             .functionalWarm = 100'000'000,
                                             .warmup = 1'000'000,
                                             .measure = instructions},
                                            profile);
        if (base_cycles == 0.0)
            base_cycles = static_cast<double>(result.cycles);
        table.addRow({result.design, TextTable::num(result.ipc, 3),
                      TextTable::num(result.cycles / base_cycles, 3),
                      TextTable::num(result.meanLookupLatency, 1),
                      TextTable::num(result.predictablePct, 1),
                      TextTable::num(result.l2MissesPer1k, 3),
                      TextTable::num(result.banksPerRequest, 2),
                      TextTable::num(result.networkPowerMw, 0)});
    }
    table.print(std::cout);

    std::cout << "\nExpect: DNUCA and TLC both beat SNUCA2; TLC's "
                 "lookup latency sits near 13 cycles with the "
                 "highest predictability (paper Figures 5/6).\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return exitOnFatal([&] { return run(argc, argv); });
}
