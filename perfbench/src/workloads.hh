/**
 * @file
 * The benchmark's three workloads, each a batch of sweep RunSpecs
 * derived from one seed (see README.md for why each was chosen).
 */

#ifndef TLSIM_PERFBENCH_WORKLOADS_HH
#define TLSIM_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep/runspec.hh"

namespace perfbench
{

struct Workload
{
    std::string name;
    std::vector<tlsim::harness::sweep::RunSpec> specs;
    /** Workers of the untraced batches. */
    int jobs = 1;
    /** wall_s is timed on whole sweep::runSweep passes. */
    bool viaSweep = false;
};

/**
 * Build workload @p name with every spec's baseSeed = @p seed.
 * @p smoke shrinks budgets and benchmark lists for the self-tests.
 * @return false if the name is unknown.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  bool smoke, Workload &out);

} // namespace perfbench

#endif // TLSIM_PERFBENCH_WORKLOADS_HH
