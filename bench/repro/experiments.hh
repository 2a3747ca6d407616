/**
 * @file
 * Declarative registry of every reproducible artifact of the paper.
 *
 * Each table/figure that needs full-system simulation (Table 6,
 * Table 9, Figures 5-8) is a sweep experiment: a function producing
 * the RunSpecs it needs and a render function turning completed
 * results into the paper-style table. The sweep runner executes the
 * union of all requested specs (shared cells are deduplicated, so
 * e.g. Figures 5 and 6 reuse the same runs); rendering a sweep
 * experiment never triggers simulation.
 *
 * The physical-model tables (Tables 1, 2, 7, 8, wire latency) and the
 * ablations are no-sweep experiments: a null specs function, and a
 * render function that computes the table itself and ignores the
 * lookup. The three simulation ablations run their own machines from
 * render, at fixed budgets.
 */

#ifndef TLSIM_BENCH_REPRO_EXPERIMENTS_HH
#define TLSIM_BENCH_REPRO_EXPERIMENTS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/sweep/runspec.hh"

namespace tlsim
{
namespace repro
{

/**
 * Baseline machine + budgets shared by every run of one sweep: the
 * paper's default machine at paper-scale budgets, reduced when
 * TLSIM_FAST=1 is set. Each experiment stamps its own design names
 * onto copies of this base.
 */
harness::SystemConfig defaultRunConfig();

/** Resolves one (design, benchmark) cell to its completed result. */
using ResultLookup = std::function<const harness::RunResult &(
    const std::string &design, const std::string &benchmark)>;

/** One reproducible table/figure of the paper's evaluation. */
struct Experiment
{
    /** Filter name, e.g. "table6" or "fig5". */
    const char *name;
    /** One-line description shown by --list. */
    const char *title;
    /**
     * Every run this experiment needs, on the given base machine;
     * null for a no-sweep experiment.
     */
    std::vector<harness::sweep::RunSpec> (*specs)(
        const harness::SystemConfig &);
    /** Print the paper-style table from completed results. */
    void (*render)(std::ostream &, const ResultLookup &);
};

/** All registered experiments, in paper order. */
const std::vector<Experiment> &experiments();

/** Look an experiment up by name; nullptr if unknown. */
const Experiment *findExperiment(const std::string &name);

} // namespace repro
} // namespace tlsim

#endif // TLSIM_BENCH_REPRO_EXPERIMENTS_HH
