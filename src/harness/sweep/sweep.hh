/**
 * @file
 * Thread-pool sweep runner.
 *
 * Executes a list of RunSpecs across N worker threads. Determinism is
 * structural, not scheduled: each run derives its RNG seed from its
 * spec (never from execution order), builds a private System and
 * event queue, and writes into its own result/stats slot, so the
 * outcome of a sweep is a pure function of the spec list — byte-for-
 * byte identical whether run with 1 worker or 16.
 *
 * Completed runs are memoized through a ResultCache: warm entries are
 * resolved up front (a fully warm sweep executes zero simulations),
 * and misses are stored as soon as each simulation finishes.
 *
 * Misses that share a warm key (harness::WarmImage) run as one task
 * on one worker: the first records its functional warm, the others
 * replay it into their own L2 instead of regenerating and
 * re-filtering the same traces. Results are byte-identical to
 * warming every run alone; under process isolation every run still
 * warms alone, inside its sandbox.
 *
 * Observability rides along per worker: when stats capture is on,
 * each run dumps its final stats tree (the PR-1 JSON export) into a
 * per-run sink; mergedStatsJson() then folds the per-run documents
 * into one object in spec order, independent of completion order.
 */

#ifndef TLSIM_HARNESS_SWEEP_SWEEP_HH
#define TLSIM_HARNESS_SWEEP_SWEEP_HH

#include <cstddef>
#include <string>
#include <vector>

#include "harness/sweep/resultcache.hh"
#include "harness/sweep/runspec.hh"

namespace tlsim
{
namespace harness
{
namespace sweep
{

/**
 * How a cache-miss run is contained (docs/ROBUSTNESS.md).
 *
 * - None: no containment — a panic unwinds the sweep (debugging).
 * - Thread: in-process try/catch; exceptions/panics become per-run
 *   errors, but a segfault/OOM/hang still kills the sweep.
 * - Process: each run executes in a forked, rlimit-capped child
 *   (sweep/sandbox.hh); any way the run can die becomes a per-run
 *   error, byte-identical results otherwise.
 */
enum class Isolation
{
    None,
    Thread,
    Process,
};

/** Knobs of one sweep execution. */
struct SweepOptions
{
    /** Worker threads (values < 1 behave as 1). */
    int jobs = 1;
    /** Result-cache directory; empty disables memoization. */
    std::string cacheDir;
    /** Capture each run's final stats tree as JSON. */
    bool captureStats = false;
    /** Print per-run progress lines to stderr. */
    bool verbose = true;
    /**
     * Prometheus text-format metrics file; rewritten atomically after
     * every run completion so an external scraper always sees a
     * consistent snapshot. Empty disables.
     */
    std::string metricsOut;
    /**
     * Per-sweep run ledger (manifest.jsonl): one JSON record per
     * spec — cached, executed, or failed — appended in completion
     * order. Empty disables.
     */
    std::string manifestOut;
    /** Live single-line progress/ETA display on stderr. */
    bool progress = false;
    /** Run containment mode for cache misses. */
    Isolation isolate = Isolation::Thread;
    /**
     * Per-run wall-clock timeout [seconds]; 0 disables. Enforced by
     * the sandbox parent under Process isolation and by the
     * fault::Watchdog wall deadline under Thread isolation (polled
     * from core wait loops, so a run that never waits on memory is
     * not interruptible in thread mode).
     */
    double runTimeoutSec = 0.0;
    /** Child CPU-seconds cap (Process isolation only; 0 = none). */
    std::uint64_t rlimitCpuSec = 0;
    /** Child address-space cap in MiB (Process isolation; 0 = none). */
    std::uint64_t rlimitRssMb = 0;
    /**
     * Write-ahead journal path (sweep/journal.hh). Non-empty enables
     * journaling, durable per-run transition records, and the
     * SIGINT/SIGTERM drain-and-record handlers. Empty disables.
     */
    std::string journalPath;
    /**
     * Resume from journalPath: revalidate the journal's identity
     * against the spec list, restore `done` runs without executing
     * them, and re-queue in-flight/failed ones. Identity mismatch is
     * fatal (a resumed sweep must be the same sweep).
     */
    bool resume = false;
};

/** What a sweep produced, in spec order. */
struct SweepOutcome
{
    /** One result per input spec (same indexing as the spec list). */
    std::vector<RunResult> results;
    /**
     * Per-spec final stats JSON (empty string when the run was
     * resolved from cache or capture was off).
     */
    std::vector<std::string> statsJson;
    /** Simulations actually executed (cache misses). */
    std::size_t executed = 0;
    /** Runs resolved from the result cache. */
    std::size_t cached = 0;
    /**
     * Runs that crashed (panic/exception escaped the simulation).
     * Each failed run's RunResult carries the message in its error
     * field; failed runs are never stored in the result cache.
     */
    std::size_t failed = 0;
    /** Runs restored from a resumed journal (never re-executed). */
    std::size_t restored = 0;
    /**
     * Executed runs whose functional warm replayed a warm image
     * another run of their warm key recorded (harness::WarmImage).
     */
    std::size_t replayed = 0;
    /**
     * The sweep was interrupted (SIGINT/SIGTERM with journaling on):
     * in-flight runs were drained and journaled, the rest were never
     * dispatched. Resume with SweepOptions::resume.
     */
    bool interrupted = false;
};

namespace detail
{

/**
 * Execute one spec in-process with no containment — shared by the
 * thread-isolation wrapper and the sandbox child (sandbox.cc), which
 * is what makes process- and thread-isolated results byte-identical.
 * @p run_timeout_sec > 0 arms the watchdog wall deadline (thread-
 * mode --run-timeout); the sandbox child passes 0 and lets its
 * parent keep time. A non-null @p image is recorded or replayed per
 * @p use (harness::runBenchmark's warm-sharing overload).
 */
RunResult executeSpec(const RunSpec &spec, bool capture_stats,
                      std::string &stats_json, double run_timeout_sec,
                      WarmImage *image = nullptr,
                      WarmImageUse use = WarmImageUse::Record);

} // namespace detail

/**
 * Run every spec (executing cache misses on a pool of
 * options.jobs threads) and return all results in spec order.
 */
SweepOutcome runSweep(const std::vector<RunSpec> &specs,
                      const SweepOptions &options);

/**
 * Merge per-run stats documents into one JSON object keyed by spec
 * key, in spec order: {"TLC/gcc/...": {...}, ...}. Runs without a
 * captured document are emitted as null, so a document's shape
 * depends only on the spec list.
 */
std::string mergedStatsJson(const std::vector<RunSpec> &specs,
                            const SweepOutcome &outcome);

/** Append @p spec to @p specs unless an equal spec is present. */
void addUnique(std::vector<RunSpec> &specs, const RunSpec &spec);

} // namespace sweep
} // namespace harness
} // namespace tlsim

#endif // TLSIM_HARNESS_SWEEP_SWEEP_HH
