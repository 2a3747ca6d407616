/**
 * @file
 * Design-space walk over the TLC family: how trading transmission
 * lines for latency/bandwidth moves wires, controller area, link
 * utilization, and performance (paper Section 4 / Section 6.2).
 *
 *   $ ./examples/design_space [benchmark]
 */

#include <iostream>

#include "harness/system.hh"
#include "mem/dram.hh"
#include "sim/logging.hh"
#include "sim/table.hh"
#include "sim/trace/options.hh"
#include "tlc/config.hh"
#include "tlc/floorplan.hh"
#include "tlc/tlccache.hh"

using namespace tlsim;

namespace
{

int
run(int argc, char **argv)
{
    trace::Observability obs(argc, argv);
    std::string bench = argc > 1 ? argv[1] : "apache";
    const auto &profile = workload::profileByName(bench);

    TextTable table("TLC design space on '" + bench + "'");
    table.setHeader({"Design", "Lines", "Ctrl area [mm^2]",
                     "Latency [cyc]", "Lookup [cyc]", "Util [%]",
                     "Cycles (norm)"});

    double base_cycles = 0.0;
    for (const tlc::TlcConfig &cfg :
         {tlc::baseTlc(), tlc::tlcOpt1000(), tlc::tlcOpt500(),
          tlc::tlcOpt350()}) {
        std::cerr << "  running " << cfg.name << "...\n";
        auto result = harness::runBenchmark({.design = cfg.name,
                                             .functionalWarm = 50'000'000,
                                             .warmup = 500'000,
                                             .measure = 2'000'000},
                                            profile);
        // The floorplan and an unwarmed probe give the static facts.
        tlc::TlcFloorplan floorplan(phys::tech45(), cfg);
        EventQueue eq;
        stats::StatGroup root("root");
        mem::Dram dram(eq, &root);
        tlc::TlcCache probe(eq, &root, dram, phys::tech45(), cfg);
        auto [lo, hi] = probe.latencyRange();

        if (base_cycles == 0.0)
            base_cycles = static_cast<double>(result.cycles);
        table.addRow({cfg.name, std::to_string(cfg.totalLines()),
                      TextTable::num(floorplan.controllerArea() / 1e-6,
                                     1),
                      std::to_string(lo) + "-" + std::to_string(hi),
                      TextTable::num(result.meanLookupLatency, 1),
                      TextTable::num(result.linkUtilizationPct, 2),
                      TextTable::num(result.cycles / base_cycles, 3)});
    }
    table.print(std::cout);
    std::cout << "\nThe 6x wire reduction (2048 -> 352) costs only a "
                 "few percent of performance: the base design is "
                 "over-provisioned (Figures 7/8).\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return exitOnFatal([&] { return run(argc, argv); });
}
