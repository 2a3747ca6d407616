#include "cpu/ooocore.hh"

#include <algorithm>

#include "sim/trace/debug.hh"
#include "sim/trace/tracesink.hh"

namespace tlsim
{
namespace cpu
{

OoOCore::OoOCore(EventQueue &eq, stats::StatGroup *parent,
                 mem::L1Cache &icache_, mem::L1Cache &dcache_,
                 const CoreConfig &config, int core_id)
    : stats::StatGroup("core", parent), eventq(eq), icache(icache_),
      dcache(dcache_), cfg(config), id(core_id),
      robSize(static_cast<std::uint32_t>(config.robEntries)),
      completeQ(robSize, 0), retireQ(robSize, 0), pending(robSize, 0),
      cycles(this, "cycles", "execution cycles"),
      instructions(this, "instructions", "retired instructions"),
      loads(this, "loads", "data loads issued"),
      stores(this, "stores", "data stores issued"),
      ifetchStalls(this, "ifetch_stalls",
                   "fetch stalls due to instruction-cache misses"),
      mispredicts(this, "mispredicts", "branch mispredictions"),
      ipc(this, "ipc", "instructions per cycle", [this]() {
          double c = cycles.value();
          return c > 0.0 ? instructions.value() / c : 0.0;
      })
{}

template <typename Ready>
void
OoOCore::waitUntil(Ready ready, std::uint64_t idx)
{
    prof::Scope prof_scope("cpu:wait");
    while (!ready()) {
        Tick next = eventq.nextTick();
        if (watchdog) {
            // Quiescent queue with requests outstanding, or an
            // over-age request: dump diagnostics and panic (caught
            // by crash-isolated sweeps) instead of asserting blind.
            if (next == MaxTick)
                watchdog->onQuiescent(eventq.now());
            else
                watchdog->checkAge(eventq.now());
        }
        TLSIM_ASSERT(next != MaxTick,
                     "deadlock: waiting on instruction {} with an "
                     "empty event queue", idx);
        eventq.advanceTo(next);
    }
}

void
OoOCore::waitForLoad(std::uint32_t slot, std::uint64_t idx)
{
    waitUntil([this, slot] { return !pending[slot]; }, idx);
}

void
OoOCore::stepMemOp(const TraceRecord &record)
{
    std::uint64_t i = nextIndex;
    std::uint32_t slot = fetchNext();

    // Address dependence on the previous load (pointer chasing):
    // the operation cannot issue until that load's data returns.
    if (record.dependsOnPrev && prevLoadIdx != ~std::uint64_t(0) &&
        prevLoadIdx + robSize > i) {
        std::uint32_t prev_slot = prevLoadSlot;
        if (pending[prev_slot])
            waitForLoad(prev_slot, prevLoadIdx);
        fetchQ = std::max(fetchQ, completeQ[prev_slot]);
    }

    Tick cycle = fetchQ / 4;
    eventq.advanceTo(cycle);

    if (record.type == mem::AccessType::Store) {
        ++stores;
        // Stores retire through the store buffer; the write itself
        // drains to the cache in the background.
        pending[slot] = 0;
        completeQ[slot] = fetchQ + 4 * cfg.opLatency;
        mem::MemRequest req{record.blockAddr, mem::AccessType::Store,
                            cycle, id};
        Tick done;
        if (!dcache.tryHit(req, done))
            dcache.accessMiss(req, [](Tick) {});
        return;
    }

    ++loads;
    TLSIM_DPRINTF(CPU, "t={} load #{} block {}", cycle, i,
                  record.blockAddr);
    prevLoadIdx = i;
    prevLoadSlot = slot;
    mem::MemRequest req{record.blockAddr, mem::AccessType::Load, cycle,
                        id};
    Tick done;
    if (dcache.tryHit(req, done)) {
        pending[slot] = 0;
        completeQ[slot] = done * 4;
        return;
    }
    pending[slot] = 1;
    completeQ[slot] = 0;
    dcache.accessMiss(req, [this, slot](Tick t) {
        pending[slot] = 0;
        completeQ[slot] = t * 4;
    });
}

void
OoOCore::stepIFetch(const TraceRecord &record)
{
    // The in-order frontend redirects to a new instruction block; a
    // miss stalls fetch until the fill returns. The frontend can be
    // ahead of fetchQ after a long backend stall, so clamp to the
    // current simulated time.
    Tick cycle = std::max(fetchQ / 4, eventq.now());
    eventq.advanceTo(cycle);

    mem::MemRequest req{record.blockAddr, mem::AccessType::InstFetch,
                        cycle, id};
    Tick ready;
    if (!icache.tryHit(req, ready)) {
        bool resolved = false;
        icache.accessMiss(req, [&resolved, &ready](Tick done) {
            resolved = true;
            ready = done;
        });
        waitUntil([&resolved] { return resolved; }, nextIndex);
    }
    // Hits are pipelined and do not stall the frontend.
    if (ready > cycle + 3) {
        ++ifetchStalls;
        TLSIM_DPRINTF(CPU, "t={} ifetch stall block {} until {}",
                      cycle, record.blockAddr, ready);
        ifetchReadyQ = std::max(ifetchReadyQ, ready * 4);
    }

    // A mispredicted branch pays the pipeline refill penalty (deep
    // 30-stage pipeline, paper Table 3) on top of any cache stall.
    if (record.mispredict) {
        ++mispredicts;
        Tick redirect = std::max(ready, cycle) + cfg.mispredictPenalty;
        ifetchReadyQ = std::max(ifetchReadyQ, redirect * 4);
    }
}

std::uint64_t
OoOCore::finishRun(std::uint64_t start_cycle, std::uint64_t executed)
{
    // Drain: retire everything fetched. Fetch resumes no earlier than
    // the drain point (retires are monotone, so lastRetireQ bounds the
    // event queue's current time).
    if (nextIndex > 0) {
        ensureRetired(nextIndex - 1);
        fetchQ = std::max(fetchQ, lastRetireQ);
    }

    std::uint64_t end_cycle = lastRetireQ / 4;
    std::uint64_t elapsed = end_cycle - start_cycle;
    cycles += static_cast<double>(elapsed);
    instructions += static_cast<double>(executed);
    TLSIM_DPRINTF(CPU, "run: {} instructions in {} cycles", executed,
                  elapsed);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::cpu,
                   csprintf("run {} insts", executed),
                   static_cast<Tick>(start_cycle),
                   static_cast<Tick>(end_cycle), trace::tid::cpu);
    }
    return elapsed;
}

} // namespace cpu
} // namespace tlsim
