/**
 * @file
 * System builder: assembles a complete simulated machine (N OoO
 * cores with private split L1s, one registry-built L2 design, DRAM)
 * from a declarative SystemConfig, and the benchmark runner used by
 * every table/figure experiment.
 */

#ifndef TLSIM_HARNESS_SYSTEM_HH
#define TLSIM_HARNESS_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/ooocore.hh"
#include "harness/config.hh"
#include "mem/l1cache.hh"
#include "mem/l2cache.hh"
#include "mem/request.hh"
#include "sim/eventq.hh"
#include "sim/fault/injector.hh"
#include "sim/fault/watchdog.hh"
#include "sim/stats.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace tlsim
{
namespace harness
{

/**
 * Registry names of the six L2 designs compared in the paper, in
 * paper order: SNUCA2, DNUCA, TLC, TLCopt1000, TLCopt500, TLCopt350.
 */
const std::vector<std::string> &allDesigns();

/** The TLC family only (Figures 7 and 8), in paper order. */
const std::vector<std::string> &tlcFamily();

/**
 * An ordered stream of L2 functional ops (block address, access
 * type), stored compactly: each op packs into the word
 * (block address << 2 | type), kept as the zigzag varint of its
 * difference from the previous word. On the paper benchmarks that is
 * 4-5 bytes per op instead of 8. The bytes live in chunks mapped
 * straight from the OS rather than the heap: a stream outlives the
 * machines of the runs that replay it, and heap blocks held across
 * their allocations would keep the freed memory of every machine
 * resident. Freeing a chunk returns it to the OS.
 */
class WarmOpStream
{
  public:
    void
    push(Addr block_addr, mem::AccessType type)
    {
        TLSIM_ASSERT(block_addr >> 62 == 0,
                     "block address {} too wide for a warm image",
                     block_addr);
        std::uint64_t word =
            (block_addr << 2) | static_cast<std::uint64_t>(type);
        // Zigzag: deltas small in magnitude, of either sign, get few
        // bytes.
        std::uint64_t delta = word - last;
        std::uint64_t zigzag = (delta << 1) ^ (0 - (delta >> 63));
        while (zigzag >= 0x80) {
            putByte(static_cast<std::uint8_t>(zigzag | 0x80));
            zigzag >>= 7;
        }
        putByte(static_cast<std::uint8_t>(zigzag));
        last = word;
        ++count;
    }

    /** Call @p fn(block_addr, type) for every op, in push order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        std::size_t chunk = 0, pos = 0;
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < count; ++i) {
            std::uint64_t zigzag = 0;
            for (int shift = 0;; shift += 7) {
                if (pos == chunkBytes) {
                    ++chunk;
                    pos = 0;
                }
                std::uint8_t byte = chunks[chunk][pos++];
                zigzag |= static_cast<std::uint64_t>(byte & 0x7f)
                          << shift;
                if (!(byte & 0x80))
                    break;
            }
            word += (zigzag >> 1) ^ (0 - (zigzag & 1));
            fn(static_cast<Addr>(word >> 2),
               static_cast<mem::AccessType>(word & 3));
        }
    }

    /** Number of ops. */
    std::size_t size() const { return count; }
    /** Bytes the encoded ops occupy. */
    std::size_t
    byteSize() const
    {
        return chunks.empty() ? 0
                              : (chunks.size() - 1) * chunkBytes + used;
    }

    void
    clear()
    {
        chunks.clear();
        used = 0;
        last = 0;
        count = 0;
    }

    /** Same ops in the same order. */
    bool operator==(const WarmOpStream &other) const;

  private:
    /** Chunk size; the OS commits only the pages written. */
    static constexpr std::size_t chunkBytes = std::size_t{1} << 20;

    struct Unmap
    {
        void operator()(std::uint8_t *chunk) const;
    };

    void
    putByte(std::uint8_t byte)
    {
        if (chunks.empty() || used == chunkBytes)
            addChunk();
        chunks.back()[used++] = byte;
    }

    void addChunk();

    std::vector<std::unique_ptr<std::uint8_t[], Unmap>> chunks;
    /** Bytes written to the last chunk. */
    std::size_t used = 0;
    std::uint64_t last = 0;
    std::size_t count = 0;
};

/**
 * The half of a run's functional warm that no L2 design influences
 * (docs/PERFORMANCE.md, "Warm once"). The L1s send the L2 functional
 * ops and get nothing back, so for one warm key — benchmark, trace
 * seed, functional budget, core count, L1 geometry — the trace
 * generators, the L1 states and the ordered stream of L1-filtered L2
 * ops are the same on every design. One run records them; runs of
 * the same warm key on other designs restore the L1s and generators
 * and replay the stream into their own L2.
 */
struct WarmImage
{
    /** The L2 functional ops, in the order the L1s sent them. */
    WarmOpStream ops;
    /** Every core's L1 state, as System::saveL1WarmState writes it. */
    std::string l1State;
    /** Every core's trace generator where functional warm ended. */
    std::vector<workload::TraceGenerator> generators;

    /** Drop everything (a recording that did not finish). */
    void
    clear()
    {
        ops.clear();
        l1State.clear();
        generators.clear();
    }
};

/** What runBenchmark does with a WarmImage. */
enum class WarmImageUse
{
    /** Warm as usual, filling the image on the way. */
    Record,
    /** Restore the image's L1s and generators, replay its ops. */
    Replay,
};

/**
 * One fully wired simulated machine: cores() cores with private split
 * L1s sharing one L2 design and one DRAM, all on one event queue.
 */
class System
{
  public:
    /**
     * Build the machine a SystemConfig describes.
     * @param fault_stream_seed Per-run entropy for the fault RNG
     *        stream (the sweep passes the run's trace seed so fault
     *        schedules are a pure function of the RunSpec); unused
     *        when config.fault is disabled.
     */
    explicit System(const SystemConfig &config,
                    std::uint64_t fault_stream_seed = 0);

    ~System();

    /** The machine's private event queue (one per System). */
    EventQueue &eventQueue() { return eq; }
    /** The L2 design under test. */
    mem::L2Cache &l2() { return *l2Cache; }
    /** Number of cores. */
    int numCores() const { return static_cast<int>(cores.size()); }
    /** Core @p i (default: core 0, the only core in paper runs). */
    cpu::OoOCore &core(int i = 0) { return *cores[checkIndex(i)].core; }
    /** Core @p i's split L1 data cache. */
    mem::L1Cache &l1d(int i = 0) { return *cores[checkIndex(i)].dcache; }
    /** Core @p i's split L1 instruction cache. */
    mem::L1Cache &l1i(int i = 0) { return *cores[checkIndex(i)].icache; }
    /** Backing main-memory model (config.mem selects the backend). */
    mem::MemBackend &dram() { return *dramModel; }
    /** Root of the machine's statistics tree. */
    stats::StatGroup &root() { return rootGroup; }
    /** The technology node the machine was built for. */
    const phys::Technology &technology() const { return tech; }
    /** The config the machine was built from. */
    const SystemConfig &config() const { return cfg; }
    /** Fault injector, or null when fault injection is disabled. */
    fault::Injector *injector() { return faultInjector.get(); }
    /** Deadlock watchdog, or null when fault injection is disabled. */
    fault::Watchdog *watchdog() { return faultWatchdog.get(); }
    /**
     * Arm a wall-clock run timeout (the sweep's --run-timeout under
     * thread isolation): after @p seconds of real time the watchdog
     * panics with a catchable "run timeout" error from the cores'
     * wait loops. Creates and installs a watchdog if fault injection
     * did not already (with an unreachable tick bound, so the only
     * added trigger is the wall deadline). Observation only: a run
     * that beats the deadline is byte-identical to an untimed one.
     */
    void armRunTimeout(double seconds);

    /** Reset all statistics at a measurement boundary. */
    void beginMeasurement();

    /**
     * Functionally warm core @p core_idx's L1s and the shared L2 over
     * @p instructions trace instructions (no timing, no events).
     * Mirrors the paper's long warmup phases at a fraction of the
     * cost.
     */
    void functionalWarm(cpu::TraceSource &source,
                        std::uint64_t instructions, int core_idx = 0);

    /**
     * functionalWarm that also appends every op the L1s send the L2,
     * in order, to @p record (the op stream of a WarmImage).
     */
    void functionalWarm(cpu::TraceSource &source,
                        std::uint64_t instructions, int core_idx,
                        WarmOpStream &record);

    /**
     * Functionally warm core @p core_idx's L1s (and the L2 behind
     * them) with one trace record: the step functionalWarm repeats.
     * @return The instructions the record stands for.
     */
    std::uint64_t functionalWarmRecord(const cpu::TraceRecord &record,
                                       int core_idx = 0);

    /**
     * Restore a WarmImage's functional state: every core's L1 from
     * the image, then the image's ops replayed into this machine's
     * L2. On a freshly built machine of the image's warm key this
     * leaves the caches exactly as functionalWarm over the recorded
     * traces would.
     */
    void replayWarmImage(const WarmImage &image);

    /**
     * Serialize every core's L1 functional state: the leading,
     * design-independent part of saveWarmState's format.
     */
    void saveL1WarmState(std::ostream &os) const;

    /**
     * Restore state written by saveL1WarmState on a machine with the
     * same core count and L1 geometry.
     * @return false on any mismatch.
     */
    bool loadL1WarmState(std::istream &is);

    /**
     * Serialize the machine's functional warm state (every core's L1
     * arrays plus the L2 design's state; DRAM is timing-only and has
     * none) for warm-state checkpoints (docs/SAMPLING.md).
     * @return false if the L2 design does not support checkpointing;
     *         the stream's contents are then incomplete and must be
     *         discarded.
     */
    bool saveWarmState(std::ostream &os);

    /**
     * Restore warm state written by saveWarmState on an identically
     * configured, freshly built machine.
     * @return false on any mismatch (machine state is then
     *         unspecified; rebuild and warm cold).
     */
    bool loadWarmState(std::istream &is);

  private:
    /** One core with its private split L1s. */
    struct CoreSlot
    {
        /** Wrapper group "coreN" (multi-core machines only). */
        std::unique_ptr<stats::StatGroup> group;
        std::unique_ptr<mem::L1Cache> icache;
        std::unique_ptr<mem::L1Cache> dcache;
        std::unique_ptr<cpu::OoOCore> core;
    };

    /**
     * functionalWarmRecord on a resolved core, with the L1s' ops sent
     * to @p sink (the L2, or a recorder in front of it).
     */
    template <typename Sink>
    std::uint64_t warmRecord(CoreSlot &slot,
                             const cpu::TraceRecord &record, Sink &sink);

    /** functionalWarm's loop, with the L1s' ops sent to @p sink. */
    template <typename Sink>
    void warmLoop(cpu::TraceSource &source, std::uint64_t instructions,
                  int core_idx, Sink &sink);

    int
    checkIndex(int i) const
    {
        TLSIM_ASSERT(i >= 0 && i < static_cast<int>(cores.size()),
                     "core index {} out of range (machine has {})", i,
                     cores.size());
        return i;
    }

    SystemConfig cfg;
    phys::Technology tech;
    EventQueue eq;
    stats::StatGroup rootGroup;
    mem::RequestIdSource requestIds;
    // Declared before the memory backend, L2, and cores so it
    // outlives them (banked backends and the L2 hold a raw Injector
    // pointer, L1s/cores a Watchdog pointer).
    std::unique_ptr<fault::Injector> faultInjector;
    std::unique_ptr<fault::Watchdog> faultWatchdog;
    std::unique_ptr<mem::MemBackend> dramModel;
    std::unique_ptr<mem::L2Cache> l2Cache;
    std::vector<CoreSlot> cores;
};

/** Metrics extracted from the measured phase of one run. */
struct RunResult
{
    std::string design;
    std::string benchmark;

    /**
     * Empty on success; otherwise the panic/exception message of a
     * failed run (crash-isolated sweeps complete with the failure
     * recorded here). Never serialized to the result cache — failed
     * runs are never cached.
     */
    std::string error;

    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    double l2RequestsPer1k = 0.0;
    double l2MissesPer1k = 0.0;
    double meanLookupLatency = 0.0;
    double predictablePct = 0.0;
    double banksPerRequest = 0.0;
    double networkPowerMw = 0.0;
    double linkUtilizationPct = 0.0;

    // DNUCA-specific (zero for other designs).
    double closeHitPct = 0.0;
    double promotesPerInsert = 0.0;
    double fastMissPct = 0.0;

    // TLCopt-specific.
    double multiMatchPct = 0.0;

    // Mean per-request latency-breakdown components (cycles), from
    // the design's lat_* distributions, with the sample count behind
    // each mean (a mean of 0.0 with 0 samples is "no data", not
    // "zero latency" — render it accordingly).
    double queueWaitMean = 0.0;
    double wireMean = 0.0;
    double bankMean = 0.0;
    double dramMean = 0.0;
    std::uint64_t queueWaitSamples = 0;
    std::uint64_t wireSamples = 0;
    std::uint64_t bankSamples = 0;
    std::uint64_t dramSamples = 0;

    // Resilience-protocol counters and the fault latency-breakdown
    // bucket (all zero unless fault injection is enabled).
    double linkRetries = 0.0;
    double linkTimeouts = 0.0;
    double degradedRequests = 0.0;
    double faultMean = 0.0;
    std::uint64_t faultSamples = 0;
};

/**
 * Observer hooks around the measured phase of runBenchmark, for
 * attaching observability (periodic stat samplers, stat dumps, extra
 * reporting) without changing the runner itself. Either hook may be
 * empty.
 */
struct RunObserver
{
    /**
     * Fires right after the System is constructed, before any warmup
     * or simulation (the sweep arms per-run timeouts here).
     */
    std::function<void(System &)> onSystemBuilt;
    /** Fires after beginMeasurement, before the measured run. */
    std::function<void(System &)> onMeasureBegin;
    /** Fires after the measured run and syncStats. */
    std::function<void(System &)> onMeasureEnd;
};

/**
 * Run one benchmark on the machine @p config describes: functional
 * warmup, timed warmup, then measurement, per the budgets in the
 * config.
 *
 * Every core executes an independent instance of the benchmark
 * (multiprogrammed CMP): core 0's trace is seeded with @p run_seed
 * exactly (so single-core runs reproduce pre-CMP results
 * bit-identically) and cores 1..N-1 derive distinct streams from it.
 * Multi-core execution time-multiplexes the cores in round-robin
 * quanta of config.coreQuantum instructions.
 *
 * @param config The machine + budgets to run.
 * @param profile Workload profile (its ilpQuanta overrides
 *                config.core.fetchQuanta).
 * @param run_seed Extra seed entropy (same seed -> same traces for
 *                 every design, enabling normalized comparisons).
 * @param observer Optional hooks around the measured phase.
 */
RunResult runBenchmark(const SystemConfig &config,
                       const workload::BenchmarkProfile &profile,
                       std::uint64_t run_seed = 0,
                       const RunObserver *observer = nullptr);

/**
 * Extract the shared RunResult metrics from a system whose measured
 * phase just ended (call l2().syncStats() first). Factored out of
 * runBenchmark so the sampled-trace runner (harness/tracerun.hh)
 * reports the exact same metric definitions per interval.
 */
RunResult extractRunResult(System &system, std::uint64_t cycles,
                           std::uint64_t measured_instructions,
                           const std::string &benchmark);

/**
 * runBenchmark sharing functional warm through @p image (see
 * WarmImage). Record fills the image while warming as usual; Replay
 * takes the image's L1 states, generators and op stream in place of
 * generating and filtering the traces. Either way the run's results
 * and stats are byte-identical to the plain runBenchmark's, provided
 * a replayed image was recorded by a run of the same warm key. With
 * config.functionalWarm == 0 there is nothing to share and the image
 * is ignored.
 */
RunResult runBenchmark(const SystemConfig &config,
                       const workload::BenchmarkProfile &profile,
                       std::uint64_t run_seed,
                       const RunObserver *observer, WarmImage &image,
                       WarmImageUse use);

} // namespace harness
} // namespace tlsim

#endif // TLSIM_HARNESS_SYSTEM_HH
