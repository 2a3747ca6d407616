/**
 * @file
 * Content-addressed store for functional-warm checkpoints.
 *
 * A checkpoint captures a System's warm state at one trace position
 * so sweeps over specs that share a (trace, interval, machine) triple
 * pay the functional warm-up once, not once per spec. Entries live
 * beside the result cache (by default in a `warm/` subdirectory of
 * the cache dir) and follow the same discipline: content-addressed
 * keys, crash-safe stores (commitFile), and corrupt or mismatched
 * entries silently treated as misses. docs/SAMPLING.md documents the
 * invalidation semantics.
 */

#ifndef TLSIM_HARNESS_CHECKPOINT_HH
#define TLSIM_HARNESS_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "harness/config.hh"
#include "harness/system.hh"
#include "workload/simpoint.hh"

namespace tlsim
{
namespace harness
{

/**
 * Version salt folded into every checkpoint key: bump when the warm
 * payload encoding or the functional-warm semantics change, and every
 * stale entry becomes unreachable at once.
 */
extern const char *const checkpointVersionSalt;

/**
 * Checkpoint identity: the trace, the position in it, and the machine
 * whose warm state is captured. The machine enters through
 * SystemConfig::machineHash() (cache geometry, cores, technology —
 * not run budgets) plus the design name, because each design owns a
 * different warm-state layout.
 */
std::string checkpointKey(std::uint64_t trace_hash,
                          std::uint64_t start_record,
                          const SystemConfig &config);

/**
 * Sampling-plan identity: the trace and the selection parameters.
 * Machine-independent — the plan clusters the trace's access mix, so
 * every machine config shares one entry. Salted with its own format
 * version (bump the salt inside when the signature or clustering
 * methodology changes).
 */
std::string samplingPlanKey(std::uint64_t trace_hash,
                            std::uint64_t interval_instructions,
                            std::uint32_t max_clusters,
                            std::uint64_t seed);

/**
 * Directory of warm-state checkpoint files. An empty directory name
 * disables the store (load always misses, store discards).
 */
class WarmCheckpointCache
{
  public:
    explicit WarmCheckpointCache(std::string dir);

    bool enabled() const { return !_dir.empty(); }
    const std::string &dir() const { return _dir; }

    /**
     * Restore the checkpoint for @p key into @p system.
     * @return true on a hit; on any mismatch (absent, torn, stale
     *         geometry, wrong record) returns false and the caller
     *         must treat @p system as unspecified and warm cold.
     */
    bool load(const std::string &key, System &system,
              std::uint64_t expect_record) const;

    /** Persist @p system's warm state under @p key (atomic). */
    void store(const std::string &key, System &system,
               std::uint64_t start_record) const;

    /**
     * Restore a cached sampling plan for @p trace (the interval-
     * selection scan is the dominant fixed cost of a warm sampled
     * run). Same miss discipline as load(): any mismatch returns
     * false, including a plan that selectIntervals could not have
     * produced for a trace of @p trace's length.
     */
    bool loadPlan(const std::string &key,
                  const workload::TraceFile &trace,
                  workload::SamplingPlan &plan) const;

    /** Persist @p plan under @p key (atomic). */
    void storePlan(const std::string &key,
                   const workload::SamplingPlan &plan) const;

  private:
    std::string path(const std::string &key) const;
    std::string planPath(const std::string &key) const;

    /** commitFile() @p bytes to @p file; fatal on failure. */
    void commit(const std::string &file, const std::string &bytes) const;

    std::string _dir;
};

} // namespace harness
} // namespace tlsim

#endif // TLSIM_HARNESS_CHECKPOINT_HH
