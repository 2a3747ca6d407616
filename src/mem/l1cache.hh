/**
 * @file
 * First-level cache model (64 KB, 2-way, 3-cycle hit; paper Table 3)
 * with MSHR-based miss handling in front of a pluggable L2 design.
 */

#ifndef TLSIM_MEM_L1CACHE_HH
#define TLSIM_MEM_L1CACHE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "mem/l2cache.hh"
#include "mem/request.hh"
#include "mem/setassoc.hh"
#include "sim/eventq.hh"
#include "sim/fault/watchdog.hh"
#include "sim/stats.hh"

namespace tlsim
{
namespace mem
{

/**
 * A blocking-free L1 cache: hits complete in a fixed latency, misses
 * allocate an MSHR and fetch the block from the L2. Requests to a
 * block with an outstanding MSHR coalesce onto it; when all MSHRs are
 * busy, further misses queue until one frees.
 *
 * Dirty victims are written back to the L2 (which treats them as
 * tag-comparison-free stores, per the paper).
 */
class L1Cache : public stats::StatGroup
{
  public:
    /**
     * @param name Stats name ("l1d" / "l1i").
     * @param eq Event queue.
     * @param parent Parent stats group.
     * @param l2 The L2 design behind this cache.
     * @param capacity_bytes Capacity (default 64 KB).
     * @param ways Associativity (default 2).
     * @param hit_latency Hit latency in cycles (default 3).
     * @param num_mshrs Outstanding misses supported (default 8).
     * @param requester Core id stamped on requests sent to the L2.
     * @param ids Shared id mint; null uses a private one (tests).
     */
    L1Cache(const std::string &name, EventQueue &eq,
            stats::StatGroup *parent, L2Cache &l2,
            std::uint64_t capacity_bytes = 64 * 1024, int ways = 2,
            Cycles hit_latency = 3, int num_mshrs = 8,
            int requester = 0, RequestIdSource *ids = nullptr);

    /**
     * Access the cache at block granularity.
     * @param req The request (req.issued is the issue tick; req.id is
     *            ignored — the L1 mints ids for L2-bound misses).
     * @param cb Fires when the data is available (loads) or the
     *           write is accepted (stores).
     */
    void access(const MemRequest &req, RespCallback cb);

    /** Compatibility overload wrapping the loose argument list. */
    void
    access(Addr block_addr, AccessType type, Tick now, RespCallback cb)
    {
        access(MemRequest{block_addr, type, now, requesterId},
               std::move(cb));
    }

    /**
     * Timing-free access for functional warmup: updates the tag
     * array and forwards misses and dirty writebacks to the L2's
     * functional interface.
     */
    void
    accessFunctional(Addr block_addr, AccessType type)
    {
        accessFunctional(block_addr, type, l2);
    }

    /**
     * accessFunctional with the misses and dirty writebacks sent to
     * @p sink, anything with the L2's accessFunctional(Addr,
     * AccessType) (a recorder in front of the L2, say). The L1's own
     * state never depends on where they go.
     */
    template <typename Sink>
    void
    accessFunctional(Addr block_addr, AccessType type, Sink &sink)
    {
        ++useCounter;
        auto way = array.lookup(block_addr);
        if (way) {
            array.touch(block_addr, *way, useCounter, isWrite(type));
            return;
        }
        sink.accessFunctional(block_addr, type == AccessType::Store
                                              ? AccessType::Load
                                              : type);
        auto evicted =
            array.insert(block_addr, useCounter, isWrite(type));
        if (evicted && evicted->dirty)
            sink.accessFunctional(evicted->blockAddr, AccessType::Store);
    }

    /** Number of misses currently outstanding. */
    int outstandingMisses() const { return static_cast<int>(
        mshrs.size()); }

    /**
     * Serialize the functional warm state (tag array + LRU counter)
     * for warm-state checkpoints; the timing-side state (MSHRs, wait
     * queue) is empty outside a timed run and is not captured.
     */
    void saveWarmState(std::ostream &os) const;

    /**
     * Restore state written by saveWarmState.
     * @return false on mismatch (caller discards the checkpoint).
     */
    bool loadWarmState(std::istream &is);

    /**
     * Attach the deadlock watchdog: every MSHR allocation reports an
     * outstanding request under @p client_id, every fill completes it.
     */
    void
    setWatchdog(fault::Watchdog *wd, int client_id)
    {
        watchdog = wd;
        watchdogClient = client_id;
    }

  private:
    EventQueue &eventq;
    L2Cache &l2;
    SetAssocArray array;
    Cycles hitLatency;
    int numMshrs;
    int requesterId;
    RequestIdSource *idSource;
    RequestIdSource privateIds;

  public:
    stats::Scalar accesses;
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar coalescedMisses;
    stats::Scalar writebacks;
    stats::Scalar mshrStallCycles;

  private:
    struct Mshr
    {
        bool storeMiss = false;
        Tick started = 0; // allocation tick, for trace spans
        std::vector<RespCallback> targets;
    };

    struct WaitingAccess
    {
        Addr blockAddr;
        AccessType type;
        Tick queuedAt;
        RespCallback cb;
    };

    void startMiss(Addr block_addr, AccessType type, Tick now);
    void handleFill(Addr block_addr, Tick now);
    void issueMiss(const MemRequest &l2_req);

    /**
     * Pre-allocated intrusive event carrying one L2-bound miss from
     * the tag check to its departure tick. One per MSHR: a miss only
     * schedules while its MSHR is held, so the pool never runs dry
     * (the lambda path backs it up defensively). Owned by the cache,
     * never by the queue — the Entry's selfDel snapshot keeps queue
     * teardown from touching these after the cache is gone.
     */
    class MissEvent : public Event
    {
      public:
        explicit MissEvent(L1Cache &owner_) : owner(owner_) {}

        void process() override;
        const char *name() const override { return "L1MissEvent"; }

        MemRequest req{};

      private:
        L1Cache &owner;
    };

    std::deque<MissEvent> missEvents;
    std::vector<MissEvent *> missEventFree;

    std::uint64_t useCounter = 0;
    std::unordered_map<Addr, Mshr> mshrs;
    std::deque<WaitingAccess> waitQueue;
    fault::Watchdog *watchdog = nullptr;
    int watchdogClient = -1;
};

} // namespace mem
} // namespace tlsim

#endif // TLSIM_MEM_L1CACHE_HH
