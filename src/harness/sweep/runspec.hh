/**
 * @file
 * Declarative description of one simulation run.
 *
 * A RunSpec names everything that determines a run's outcome — the
 * full machine + budget configuration (SystemConfig, which includes
 * the L2 design and the three instruction budgets), the benchmark,
 * and a base seed — and nothing else. Every derived quantity (the
 * workload trace seed, the result-cache key) is a pure function of
 * the spec, so runs scheduled across any number of worker threads in
 * any order produce bit-identical results, and results can be
 * memoized on disk keyed by content rather than by execution history.
 */

#ifndef TLSIM_HARNESS_SWEEP_RUNSPEC_HH
#define TLSIM_HARNESS_SWEEP_RUNSPEC_HH

#include <cstdint>
#include <string>

#include "harness/system.hh"

namespace tlsim
{
namespace harness
{
namespace sweep
{

/**
 * Version salt mixed into every result-cache key. Bump whenever a
 * change to the simulator models (timing, policies, workload
 * calibration) invalidates previously computed results; stale cache
 * entries then simply stop being found.
 */
inline constexpr const char *modelVersionSalt = "tlsim-model-v2";

/** One (machine config, benchmark, seed) point of a sweep. */
struct RunSpec
{
    /** Workload profile name (see workload::paperBenchmarks()). */
    std::string benchmark;
    /** Extra seed entropy folded into the trace seed. */
    std::uint64_t baseSeed = 0;
    /**
     * The machine + budgets to run: design, core count, L1 geometry,
     * technology node, l2 options, warmup/measure/functionalWarm.
     */
    SystemConfig config;

    /** Field-wise equality (used for deduplication). */
    bool operator==(const RunSpec &other) const = default;
};

/**
 * Spec for @p design (a registry name) on @p benchmark, seed 0, on
 * the machine and budgets of @p base (whose design it replaces).
 */
RunSpec makeRunSpec(const std::string &design,
                    const std::string &benchmark,
                    const SystemConfig &base = {});

/**
 * Canonical human-readable identity of a spec, e.g.
 * "TLC/gcc/w3000000/m10000000/f200000000/s0". Specs whose machine
 * differs from the default single-core paper machine append
 * "/c<16-hex machine hash>", so pre-existing cache entries for
 * default-machine runs stay valid and any machine-config change
 * moves the spec to a fresh cache slot. Two specs are equivalent iff
 * their keys are equal.
 */
std::string specKey(const RunSpec &spec);

/**
 * Workload trace seed derived from the spec's benchmark and budgets —
 * deliberately NOT from the design or machine, so every design
 * replays the bit-identical reference trace (the paper's normalized
 * comparisons depend on this), and NOT from execution order, so
 * parallel sweeps reproduce serial ones.
 */
std::uint64_t traceSeed(const RunSpec &spec);

/** 64-bit FNV-1a hash of a string (exposed for tests). */
std::uint64_t fnv1a(const std::string &text);

/**
 * Content address of the spec's result: 16 lowercase hex digits of
 * fnv1a(specKey + modelVersionSalt). Used as the on-disk cache file
 * name.
 */
std::string cacheKey(const RunSpec &spec);

/**
 * cacheKey from an already-computed spec key under an explicit model
 * salt. Lets --fsck-cache validate an entry's file name against the
 * spec and salt the entry itself declares (entries from older model
 * versions are stale, not corrupt).
 */
std::string cacheKeyForSpecKey(const std::string &spec_key,
                               const std::string &model_salt);

} // namespace sweep
} // namespace harness
} // namespace tlsim

#endif // TLSIM_HARNESS_SWEEP_RUNSPEC_HH
