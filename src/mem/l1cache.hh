/**
 * @file
 * First-level cache model (64 KB, 2-way, 3-cycle hit; paper Table 3)
 * with MSHR-based miss handling in front of a pluggable L2 design.
 */

#ifndef TLSIM_MEM_L1CACHE_HH
#define TLSIM_MEM_L1CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/l2cache.hh"
#include "mem/request.hh"
#include "mem/setassoc.hh"
#include "sim/eventq.hh"
#include "sim/fault/watchdog.hh"
#include "sim/pool.hh"
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
     * Access the cache at block granularity: tryHit, then accessMiss
     * if that missed.
     * @param req The request (req.issued is the issue tick; req.id is
     *            ignored — the L1 mints ids for L2-bound misses).
     * @param cb Fires when the data is available (loads) or the
     *           write is accepted (stores).
     */
    void
    access(const MemRequest &req, RespCallback cb)
    {
        Tick done;
        if (tryHit(req, done)) {
            cb(done);
            return;
        }
        accessMiss(req, std::move(cb));
    }

    /**
     * The hit half of access(), with no callback to build: counts the
     * access and, on a hit, updates the LRU state and sets @p done to
     * the tick the data is available.
     * @return false on a miss, which the caller must then hand to
     *         accessMiss() with the same request, before anything
     *         else touches this cache.
     */
    bool
    tryHit(const MemRequest &req, Tick &done)
    {
        ++accesses;
        ++useCounter;
        auto way = array.lookup(req.blockAddr);
        if (!way)
            return false;
        ++hits;
        array.touch(req.blockAddr, *way, useCounter, isWrite(req.type));
        done = req.issued + hitLatency;
        return true;
    }

    /**
     * The miss half of access(): coalesce onto the block's MSHR,
     * allocate one, or queue for a free one.
     */
    void accessMiss(const MemRequest &req, RespCallback cb);

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
    int outstandingMisses() const { return mshrsInUse; }

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
    /**
     * One entry of the MSHR file. Entries are reused in place: the
     * targets vector keeps its capacity across misses.
     */
    struct Mshr
    {
        Addr blockAddr = 0;
        bool valid = false;
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

    /** The valid MSHR tracking @p block_addr, or null. */
    Mshr *
    findMshr(Addr block_addr)
    {
        for (Mshr &m : mshrs) {
            if (m.valid && m.blockAddr == block_addr)
                return &m;
        }
        return nullptr;
    }

    void startMiss(Addr block_addr, AccessType type, Tick now);
    void handleFill(Addr block_addr, Tick now);
    void issueMiss(const MemRequest &l2_req);

    /**
     * Pooled intrusive event carrying one L2-bound miss from the tag
     * check to its departure tick; at most one per MSHR, since a miss
     * only schedules while its MSHR is held. Owned by the cache,
     * never by the queue.
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

    Pool<MissEvent> missEvents;

    std::uint64_t useCounter = 0;
    /** The MSHR file: numMshrs entries, searched linearly. */
    std::vector<Mshr> mshrs;
    int mshrsInUse = 0;
    /** Coalesced targets each MSHR has room for from the start. */
    static constexpr std::size_t mshrTargetReserve = 8;
    /**
     * Empty vector (with capacity) swapped into a filling entry, so
     * the fill can fire its targets after the entry is free again.
     */
    std::vector<RespCallback> fillScratch;
    Fifo<WaitingAccess> waitQueue;
    fault::Watchdog *watchdog = nullptr;
    int watchdogClient = -1;
};

} // namespace mem
} // namespace tlsim

#endif // TLSIM_MEM_L1CACHE_HH
