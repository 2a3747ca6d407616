/**
 * @file
 * Trace-driven out-of-order core timing model (paper Table 3).
 *
 * Substitutes for the paper's Simics+timing-first SPARC V9 processor.
 * The model captures the mechanisms that translate L2 latency and
 * miss behaviour into execution time: a 128-entry reorder buffer,
 * 4-wide fetch/retire, loads issued at fetch (addresses known from
 * the trace) completing out of order, in-order retirement blocking on
 * incomplete loads, stores draining through a store buffer, and an
 * in-order frontend that stalls on instruction-cache misses. MSHR and
 * memory-controller limits come from the attached cache hierarchy.
 *
 * Internally the core counts time in "quarter cycles" (one fetch/
 * retire slot of the 4-wide machine) and converts to cycles at the
 * memory interface.
 */

#ifndef TLSIM_CPU_OOOCORE_HH
#define TLSIM_CPU_OOOCORE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cpu/trace.hh"
#include "mem/l1cache.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"

namespace tlsim
{
namespace cpu
{

/** Core configuration (defaults follow paper Table 3). */
struct CoreConfig
{
    int robEntries = 128;
    int width = 4;
    /** Latency assumed for non-memory instructions [cycles]. */
    Cycles opLatency = 1;
    /** Pipeline refill penalty after a branch mispredict [cycles]. */
    Cycles mispredictPenalty = 25;
    /**
     * Quarter-cycle fetch slots consumed per instruction: 1 gives the
     * ideal 4-wide ceiling; larger values model dependence-chain ILP
     * limits (see workload::BenchmarkProfile::ilpQuanta).
     */
    int fetchQuanta = 1;

    bool operator==(const CoreConfig &) const = default;
};

/**
 * The out-of-order core.
 */
class OoOCore : public stats::StatGroup
{
  public:
    OoOCore(EventQueue &eq, stats::StatGroup *parent,
            mem::L1Cache &icache, mem::L1Cache &dcache,
            const CoreConfig &config = CoreConfig{}, int core_id = 0);

    /**
     * Execute @p num_instructions from the trace source. A template
     * so that a final source (workload::TraceGenerator) gets a direct
     * next() call; any cpu::TraceSource keeps the virtual one.
     * @return The cycle count consumed (end cycle - start cycle).
     */
    template <typename Source>
    std::uint64_t run(Source &source, std::uint64_t num_instructions);

    /** Total retired instructions across all run() calls. */
    std::uint64_t instructionsRetired() const { return retiredCount; }

    /** Current end-of-execution cycle. */
    std::uint64_t currentCycle() const { return lastRetireQ / 4; }

    /** Core id stamped on this core's memory requests. */
    int coreId() const { return id; }

    /**
     * Pull the core's fetch clock up to the shared event queue's
     * current time. In a CMP the cores time-multiplex one queue; a
     * core resuming its quantum after the others advanced global time
     * must not issue cache accesses in the past. Single-core runs
     * never call this (fetch legitimately lags the queue there).
     */
    void
    catchUp()
    {
        fetchQ = std::max(fetchQ, eventq.now() * 4);
    }

    /**
     * Attach the deadlock watchdog: the core's wait loops poll it,
     * turning a hang (lost completion or over-age request) into a
     * diagnostic dump + catchable panic.
     */
    void setWatchdog(fault::Watchdog *wd) { watchdog = wd; }

  private:
    /** Quarter-cycle ticks: 4 per clock cycle (one per pipeline slot). */
    using QTick = std::uint64_t;

    EventQueue &eventq;
    mem::L1Cache &icache;
    mem::L1Cache &dcache;
    CoreConfig cfg;
    int id;

    /** ROB size, the length of the rings below. */
    std::uint32_t robSize;

    /**
     * Ring buffers over the ROB window: instruction i lives in slot
     * i % robSize. The core carries each slot index it needs instead
     * of dividing, so any ROB size is exact.
     */
    std::vector<QTick> completeQ;
    std::vector<QTick> retireQ;
    /** 1 while the slot's load awaits its data. */
    std::vector<std::uint8_t> pending;

  public:
    stats::Scalar cycles;
    stats::Scalar instructions;
    stats::Scalar loads;
    stats::Scalar stores;
    stats::Scalar ifetchStalls;
    stats::Scalar mispredicts;
    stats::Formula ipc;

  private:
    /** The ring slot after @p slot. */
    std::uint32_t
    nextSlot(std::uint32_t slot) const
    {
        return slot + 1 == robSize ? 0 : slot + 1;
    }

    /** Advance the retire chain up to and including instruction idx. */
    void
    ensureRetired(std::uint64_t idx)
    {
        while (retireUpto <= idx) {
            std::uint32_t slot = retireSlot;
            if (pending[slot])
                waitForLoad(slot, retireUpto);
            lastRetireQ = std::max(lastRetireQ + 1, completeQ[slot]);
            retireQ[slot] = lastRetireQ;
            ++retireUpto;
            ++retiredCount;
            retireSlot = nextSlot(slot);
        }
    }

    /**
     * Run the event queue until the load in ring slot @p slot
     * (instruction @p idx, for the deadlock message) completes.
     */
    void waitForLoad(std::uint32_t slot, std::uint64_t idx);

    /**
     * Claim the ring slot of the next instruction and compute its
     * fetch time, honouring ROB occupancy and the frontend.
     * @return The claimed slot; fetchQ holds the fetch time.
     */
    std::uint32_t
    fetchNext()
    {
        std::uint32_t slot = fetchSlot;
        ++nextIndex;
        fetchSlot = nextSlot(slot);
        QTick t = fetchQ + static_cast<QTick>(cfg.fetchQuanta);
        if (nextIndex >= robSize) {
            // The instruction robSize behind the one after this
            // shares its ring slot with that one: fetchSlot.
            ensureRetired(nextIndex - robSize);
            t = std::max(t, retireQ[fetchSlot]);
        }
        fetchQ = std::max(t, ifetchReadyQ);
        return slot;
    }

    /**
     * Process @p gap consecutive non-memory instructions. None of
     * them touches the event queue; only a retire that meets a
     * pending load can block (in fetchNext).
     */
    void
    stepNonMemRun(std::uint64_t gap)
    {
        const QTick op = 4 * static_cast<QTick>(cfg.opLatency);
        for (; gap > 0; --gap) {
            std::uint32_t slot = fetchNext();
            pending[slot] = 0;
            completeQ[slot] = fetchQ + op;
        }
    }

    /** Process one data memory instruction. */
    void stepMemOp(const TraceRecord &record);

    /** Process an instruction-fetch block transition. */
    void stepIFetch(const TraceRecord &record);

    /**
     * Dispatch events until @p ready() holds (the core is blocked on
     * a completion), polling the watchdog on each step.
     * @param idx Instruction waited on, for the deadlock message.
     */
    template <typename Ready>
    void waitUntil(Ready ready, std::uint64_t idx);

    /** Drain and account the end of a run() call. */
    std::uint64_t finishRun(std::uint64_t start_cycle,
                            std::uint64_t executed);

    std::uint64_t nextIndex = 0; // next instruction to fetch
    std::uint32_t fetchSlot = 0; // nextIndex % robSize
    std::uint64_t prevLoadIdx = ~std::uint64_t(0); // last load fetched
    std::uint32_t prevLoadSlot = 0; // prevLoadIdx % robSize
    std::uint64_t retireUpto = 0; // instructions whose retire is known
    std::uint32_t retireSlot = 0; // retireUpto % robSize
    QTick fetchQ = 0;
    QTick lastRetireQ = 0;
    QTick ifetchReadyQ = 0;
    std::uint64_t retiredCount = 0;
    fault::Watchdog *watchdog = nullptr;
};

template <typename Source>
std::uint64_t
OoOCore::run(Source &source, std::uint64_t num_instructions)
{
    std::uint64_t start_cycle = lastRetireQ / 4;
    std::uint64_t executed = 0;

    while (executed < num_instructions) {
        TraceRecord record = source.next();
        std::uint64_t gap = std::min<std::uint64_t>(
            record.gap, num_instructions - executed);
        stepNonMemRun(gap);
        executed += gap;
        if (executed >= num_instructions)
            break;
        if (record.isIFetch) {
            stepIFetch(record);
        } else {
            stepMemOp(record);
            ++executed;
        }
    }
    return finishRun(start_cycle, executed);
}

} // namespace cpu
} // namespace tlsim

#endif // TLSIM_CPU_OOOCORE_HH
