#include "workloads.hh"

#include <algorithm>
#include <thread>

#include "workload/profile.hh"

namespace perfbench
{

namespace
{

using tlsim::harness::SystemConfig;
using tlsim::harness::sweep::RunSpec;

struct Budgets
{
    std::uint64_t functionalWarm;
    std::uint64_t warmup;
    std::uint64_t measure;
};

/** Bench-major cross product, the order tlsim_repro sweeps in. */
std::vector<RunSpec>
cross(const std::vector<std::string> &designs,
      const std::vector<std::string> &benchmarks,
      const SystemConfig &base, Budgets budgets, std::uint64_t seed,
      bool smoke)
{
    std::size_t bench_count =
        smoke ? std::min<std::size_t>(2, benchmarks.size())
              : benchmarks.size();
    std::uint64_t scale = smoke ? 10 : 1;
    std::vector<RunSpec> specs;
    for (std::size_t b = 0; b < bench_count; ++b) {
        for (const std::string &design : designs) {
            RunSpec spec;
            spec.benchmark = benchmarks[b];
            spec.baseSeed = seed;
            spec.config = base;
            spec.config.design = design;
            spec.config.functionalWarm = budgets.functionalWarm / scale;
            spec.config.warmup = budgets.warmup / scale;
            spec.config.measure = budgets.measure / scale;
            specs.push_back(spec);
        }
    }
    return specs;
}

std::vector<std::string>
paperBenchmarkNames()
{
    std::vector<std::string> names;
    for (const auto &profile : tlsim::workload::paperBenchmarks())
        names.push_back(profile.name);
    return names;
}

} // namespace

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke,
             Workload &out)
{
    out = Workload{};
    out.name = name;
    if (name == "paper_suite") {
        // The paper's six designs x twelve benchmarks on the default
        // machine. Functional warm is over 10x the timed instructions,
        // so warm_mips is mostly functional warm.
        out.specs = cross({"SNUCA2", "DNUCA", "TLC", "TLCopt1000",
                           "TLCopt500", "TLCopt350"},
                          paperBenchmarkNames(), SystemConfig{},
                          {1'500'000, 10'000, 120'000}, seed, smoke);
        unsigned hw = std::thread::hardware_concurrency();
        out.jobs = static_cast<int>(std::clamp(hw, 1u, 8u));
        out.viaSweep = true;
        return true;
    }
    if (name == "timed_memory") {
        // Long measured interval, short functional warm: the 16 MB L2
        // is only partly warmed, on purpose, so the timed path (core,
        // L1 MSHRs, each design's access path, mesh, DRAM, event
        // queue) does most of the work.
        out.specs = cross({"SNUCA2", "DNUCA", "TLC"},
                          {"mcf", "equake", "swim", "apache", "oltp"},
                          SystemConfig{}, {40'000, 20'000, 300'000},
                          seed, smoke);
        return true;
    }
    if (name == "faults_ddr_cmp") {
        // Four cores sharing one L2 over the banked FR-FCFS backend,
        // with margin-weighted link errors and one dead link: the
        // retry, NACK and degraded routes of the same layers.
        SystemConfig base;
        base.cores = 4;
        base.mem.backend = "ddr";
        base.fault.enabled = true;
        base.fault.bitErrorRate = 2e-3;
        base.fault.deriveFromMargin = true;
        base.fault.deadLinks = "0@0";
        out.specs = cross({"SNUCA2", "TLC", "TLCopt1000", "TLCopt500",
                           "TLCopt350"},
                          {"apache", "mcf"}, base,
                          {100'000, 10'000, 60'000}, seed, smoke);
        return true;
    }
    return false;
}

} // namespace perfbench
