/**
 * @file
 * The "fixed" main-memory backend: fixed 300-cycle access latency
 * with a limit of 8 outstanding requests (paper Table 3); excess
 * requests queue. This is the default backend and is bit-identical
 * to the pre-registry hard-wired model.
 */

#ifndef TLSIM_MEM_DRAM_HH
#define TLSIM_MEM_DRAM_HH

#include <cstdint>

#include "mem/membackend.hh"
#include "sim/pool.hh"

namespace tlsim
{
namespace mem
{

/**
 * A bandwidth-limited fixed-latency DRAM.
 */
class Dram : public MemBackend
{
  public:
    /**
     * @param eq Event queue driving the simulation.
     * @param parent Parent stats group.
     * @param latency Access latency in cycles.
     * @param max_outstanding Maximum requests in service at once.
     */
    Dram(EventQueue &eq, stats::StatGroup *parent,
         Cycles latency = 300, int max_outstanding = 8);

    void read(Addr block_addr, Tick now, RespCallback cb) override;

    /**
     * Issue a writeback; fire-and-forget but consumes an outstanding
     * slot (dirty evictions contend with demand misses). Writebacks
     * sample queueDelay exactly like reads (regression-tested).
     */
    void write(Addr block_addr, Tick now) override;

    /** Requests currently in service (excludes the waiting queue). */
    int inService() const override { return outstanding; }

    std::string backendName() const override { return "fixed"; }

  private:
    Cycles latency;
    int maxOutstanding;

    struct Pending
    {
        Tick ready; // earliest start (arrival at the controller)
        RespCallback cb; // empty for writes
    };

    void startNext(Tick now);
    void finish(Tick now, const RespCallback &cb);

    /**
     * Pooled intrusive completion event, at most one per outstanding
     * slot. Moving the RespCallback in and out transfers its buffer
     * without allocating. Owned by the Dram, never the queue.
     */
    class FinishEvent : public Event
    {
      public:
        explicit FinishEvent(Dram &owner_) : owner(owner_) {}

        void process() override;
        const char *name() const override { return "DramFinishEvent"; }

        RespCallback cb;

      private:
        Dram &owner;
    };

    Pool<FinishEvent> finishEvents;

    int outstanding = 0;
    Fifo<Pending> waiting;
};

} // namespace mem
} // namespace tlsim

#endif // TLSIM_MEM_DRAM_HH
