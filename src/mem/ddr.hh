/**
 * @file
 * The "ddr" main-memory backend: a banked DRAM controller with
 * address-interleaved channels, per-bank row-buffer state, FR-FCFS or
 * FCFS scheduling, tRCD/tRP/tCAS-style timing, periodic refresh, and
 * a bounded per-channel command queue with backpressure.
 *
 * Modeling notes (deliberate approximations, documented so results
 * are interpretable):
 *  - Command issue is serialized per channel at data-burst
 *    granularity: the controller picks at most one command whenever
 *    its data bus frees, so a row miss's bank preparation does not
 *    overlap the preceding burst. This preserves row-buffer,
 *    scheduling, and refresh *ordering* effects without per-bank
 *    command events.
 *  - Refresh is applied lazily (no perpetual self-rescheduling event,
 *    which would keep EventQueue::run from draining): due refreshes
 *    are folded into bank state whenever the channel is touched, with
 *    O(1) catch-up across idle gaps. When several refresh intervals
 *    elapse while a bank is busy, only the last one's tRFC blocking
 *    is charged (all are counted).
 *  - All banks of a channel refresh together (all-bank refresh), and
 *    refresh precharges every row buffer.
 */

#ifndef TLSIM_MEM_DDR_HH
#define TLSIM_MEM_DDR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/membackend.hh"
#include "sim/metrics/heatmap.hh"
#include "sim/pool.hh"

namespace tlsim
{

namespace fault
{
class Injector;
} // namespace fault

namespace mem
{

/** Banked FR-FCFS DRAM controller model. */
class DdrBackend : public MemBackend
{
  public:
    /**
     * Controller geometry and timing. Defaults approximate a DDR4
     * part behind a 3 GHz core clock (all times in core cycles), so
     * a row hit costs tCAS + tBurst = 50 cycles and a closed-row
     * access tRCD + tCAS + tBurst = 92 — deliberately bracketing the
     * paper's fixed 300-cycle sink from below once queueing is added.
     */
    struct Params
    {
        int channels = 2;
        int ranksPerChannel = 2;
        int banksPerRank = 8;
        /** Row-buffer width [bytes]; blocks of one row are adjacent. */
        int rowBytes = 8192;
        Cycles tRCD = 42;   ///< activate -> column command
        Cycles tRP = 42;    ///< precharge
        Cycles tCAS = 42;   ///< column access
        Cycles tBurst = 8;  ///< 64 B data burst on the channel bus
        Cycles tREFI = 23'400; ///< refresh interval (0 disables)
        Cycles tRFC = 1'050;   ///< refresh cycle time (banks blocked)
        /** Bounded per-channel command queue (backpressure beyond). */
        int queueDepth = 16;
        /** True: plain FCFS; false: FR-FCFS (row hits first). */
        bool fcfs = false;
        /** True: precharge after every access (close-page policy). */
        bool closedPage = false;
        /** Extra bank cycles while a stuck-at DRAM bank fault holds. */
        Cycles stuckBankPenalty = 500;
    };

    DdrBackend(EventQueue &eq, stats::StatGroup *parent,
               const Params &params, fault::Injector *injector = nullptr);

    void read(Addr block_addr, Tick now, RespCallback cb) override;
    void write(Addr block_addr, Tick now) override;
    int inService() const override { return outstanding; }
    std::string backendName() const override { return "ddr"; }

    const Params &params() const { return p; }
    /** Banks per channel (ranks folded in: rank-interleaved banks). */
    int banksPerChannel() const { return banksPerChan; }

    // Controller stats beyond the MemBackend base set. The per-phase
    // distributions partition each request's end-to-end latency
    // exactly: lat_queue + lat_bank + lat_bus sums (and counts) match
    // the service totals, and for demand reads the per-request sum
    // equals the L2's lat_dram sample for that miss.
    stats::Scalar rowHits;
    stats::Scalar rowMisses;
    stats::Scalar rowConflicts;
    stats::Scalar refreshes;
    stats::Scalar stuckBankAccesses;
    stats::Distribution queueLatency;
    stats::Distribution bankLatency;
    stats::Distribution busLatency;

  private:
    struct Bank
    {
        Tick readyAt = 0;
        /** Open row index, or -1 when precharged. */
        std::int64_t openRow = -1;
    };

    struct Cmd
    {
        Addr block = 0;
        int bank = 0;
        std::int64_t row = 0;
        Tick arrival = 0;
        RespCallback cb; // empty for writes
    };

    struct Channel
    {
        std::vector<Bank> banks;
        /** Bounded command queue, arrival order (reserved up front). */
        std::vector<Cmd> queue;
        /** Backpressured overflow, drained into queue as slots free. */
        Fifo<Cmd> spill;
        Tick busFreeAt = 0;
        Tick nextRefreshAt = 0;
        /** Earliest pending wakeup (dedups kick events). */
        Tick pendingKickAt = MaxTick;
    };

    void enqueue(Cmd cmd, Tick now);
    void tryIssue(int ch_idx, Tick now);
    void serviceCmd(int ch_idx, Channel &ch, Cmd cmd, Tick now);
    void applyRefresh(Channel &ch, Tick now);
    void scheduleKick(int ch_idx, Tick when);
    /** Index into ch.queue of the next command, or -1 if none ready. */
    int pickCandidate(const Channel &ch, Tick now) const;

    /**
     * Pooled completion event: carries the read's callback (empty for
     * writes) to the finish tick without wrapping it in a closure.
     */
    class FinishEvent : public Event
    {
      public:
        explicit FinishEvent(DdrBackend &owner_) : owner(owner_) {}

        void process() override;
        const char *name() const override { return "DdrFinishEvent"; }

        RespCallback cb;

      private:
        DdrBackend &owner;
    };

    int
    globalBank(int ch_idx, int bank_idx) const
    {
        return ch_idx * banksPerChan + bank_idx;
    }

    Params p;
    fault::Injector *injector;
    int banksPerChan;
    std::uint64_t blocksPerRow;
    std::vector<Channel> channels;
    /** Requests accepted and not yet completed (reads and writes). */
    int outstanding = 0;
    Pool<FinishEvent> finishEvents;

    /** Per-DRAM-bank busy cycles; built when spatial telemetry is on. */
    std::unique_ptr<metrics::Heatmap> bankBusyHeatmap;
};

} // namespace mem
} // namespace tlsim

#endif // TLSIM_MEM_DDR_HH
