/**
 * @file
 * Abstract interface and shared statistics for the 16 MB L2 cache
 * designs compared in the paper (SNUCA2, DNUCA, TLC family).
 */

#ifndef TLSIM_MEM_L2CACHE_HH
#define TLSIM_MEM_L2CACHE_HH

#include <iosfwd>
#include <string>

#include "mem/membackend.hh"
#include "mem/request.hh"
#include "sim/eventq.hh"
#include "sim/stats.hh"
#include "sim/trace/breakdown.hh"

namespace tlsim
{
namespace mem
{

/**
 * Base class for all L2 designs.
 *
 * A design receives block-granularity accesses from the L1s, models
 * its internal interconnect/bank timing, fetches misses from DRAM,
 * and fires the callback when the critical word is delivered to the
 * requester. Writes (L1 writebacks) are fire-and-forget: the callback
 * is invoked when the write is accepted.
 *
 * Subclasses must sample the shared stats so the Table 6 / Table 9 /
 * Figure 6 / Figure 7 experiments can treat designs uniformly.
 */
class L2Cache : public stats::StatGroup
{
  protected:
    EventQueue &eventq;
    MemBackend &dram;

  public:
    L2Cache(const std::string &name, EventQueue &eq,
            stats::StatGroup *parent, MemBackend &dram_)
        : stats::StatGroup(name, parent), eventq(eq), dram(dram_),
          requests(this, "requests", "L2 requests received"),
          demandRequests(this, "demand_requests",
                         "L2 read (load/ifetch) requests"),
          hits(this, "hits", "L2 hits"),
          misses(this, "misses", "L2 demand misses"),
          inserts(this, "inserts", "blocks inserted from memory"),
          writebacksToMemory(this, "writebacks",
                             "dirty L2 victims written to memory"),
          lookupLatency(this, "lookup_latency",
                        "cycles from L2 access to hit delivery or "
                        "miss determination"),
          predictableLookups(this, "predictable_lookups",
                             "lookups whose latency matched the "
                             "static prediction"),
          banksAccessed(this, "banks_accessed",
                        "cache banks touched per request"),
          networkEnergy(this, "network_energy",
                        "dynamic energy dissipated in the L2 "
                        "communication network [J]"),
          linkBusyCycles(this, "link_busy_cycles",
                         "total busy cycles summed over all links"),
          queueWaitLatency(this, "lat_queue_wait",
                           "per-request cycles waiting for busy "
                           "links/banks/slots", 0.0, 600.0, 60),
          wireLatency(this, "lat_wire",
                      "per-request cycles in flight or serializing "
                      "on the interconnect", 0.0, 600.0, 60),
          bankLatency(this, "lat_bank",
                      "per-request SRAM bank-access cycles on the "
                      "critical path", 0.0, 600.0, 60),
          dramLatency(this, "lat_dram",
                      "per-request cycles from miss determination "
                      "to data back on chip", 0.0, 600.0, 60),
          linkRetries(this, "link_retries",
                      "response messages resent after a CRC-detected "
                      "link error"),
          linkTimeouts(this, "link_timeouts",
                       "requests that exhausted their retry budget "
                       "or timed out and degraded to memory"),
          degradedRequests(this, "degraded_requests",
                           "requests served over a degraded path "
                           "(dead link fallback or detour)"),
          faultLatency(this, "lat_fault",
                       "per-request cycles spent on resilience: CRC "
                       "checks, retries, degraded-path detours",
                       0.0, 600.0, 60)
    {}

    ~L2Cache() override = default;

    /**
     * Access the L2.
     * @param req The request; req.issued is the issue tick, req.id a
     *            hierarchy-wide trace id (0 for writebacks), and
     *            req.requester the originating core.
     * @param cb Fires when the access completes (see class comment).
     */
    virtual void access(const MemRequest &req, RespCallback cb) = 0;

    /** Total number of links in the design's network (for Fig 7). */
    virtual int linkCount() const = 0;

    /** Human-readable design name ("TLC", "DNUCA", ...). */
    virtual std::string designName() const = 0;

    /**
     * Timing-free access used for fast functional warmup (the paper
     * warms caches over 0.5-1 B instructions before measuring; doing
     * that with full timing would dominate simulation time). Updates
     * the design's replacement/placement state exactly as a timed
     * access would, without any events, contention, or stats.
     */
    virtual void accessFunctional(Addr block_addr, AccessType type) = 0;

    /**
     * Serialize the design's functional warm state — everything
     * accessFunctional mutates (tag arrays, LRU counters) — for the
     * harness's warm-state checkpoints (docs/SAMPLING.md). The
     * default declines; designs without an implementation simply
     * disable checkpointing, they never change behaviour.
     * @return true if a complete snapshot was written.
     */
    virtual bool saveWarmState(std::ostream &) const { return false; }

    /**
     * Restore state written by saveWarmState on a freshly built
     * design of the same configuration.
     * @return false on any mismatch (the caller discards the
     *         checkpoint and warms cold); the design's state is
     *         unspecified after a failed load.
     */
    virtual bool loadWarmState(std::istream &) { return false; }

    /**
     * Copy design-internal counters (mesh/link occupancy, network
     * energy) into the shared stats; call before reading them.
     */
    virtual void syncStats() {}

    /**
     * Reset design-internal counters at a measurement boundary (the
     * StatGroup reset handles the registered stats themselves).
     */
    virtual void beginMeasurement() {}

    /** Average link utilization over an interval of elapsed cycles. */
    double
    linkUtilization(Tick elapsed) const
    {
        if (elapsed == 0 || linkCount() == 0)
            return 0.0;
        return linkBusyCycles.value() /
               (static_cast<double>(linkCount()) *
                static_cast<double>(elapsed));
    }

    stats::Scalar requests;
    stats::Scalar demandRequests;
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar inserts;
    stats::Scalar writebacksToMemory;
    stats::Average lookupLatency;
    stats::Scalar predictableLookups;
    stats::Average banksAccessed;
    stats::Scalar networkEnergy;
    stats::Scalar linkBusyCycles;

    /** Latency-breakdown components (see sim/trace/breakdown.hh). */
    stats::Distribution queueWaitLatency;
    stats::Distribution wireLatency;
    stats::Distribution bankLatency;
    stats::Distribution dramLatency;

    /** Resilience-protocol counters (zero unless faults injected). */
    stats::Scalar linkRetries;
    stats::Scalar linkTimeouts;
    stats::Scalar degradedRequests;
    stats::Distribution faultLatency;

    /**
     * Dump design-internal congestion state (link busy horizons,
     * per-bank queue depths) for the deadlock watchdog's diagnostic.
     */
    virtual void dumpFaultDiagnostic() const {}

    /**
     * Breakdown of the most recently completed demand request; the
     * components sum to that request's end-to-end latency (see
     * tests/test_breakdown.cc).
     */
    const trace::LatencyBreakdown &
    lastBreakdown() const
    {
        return lastBreakdownValue;
    }

  protected:
    /** Sample one completed request's breakdown into the stats. */
    void
    recordBreakdown(const trace::LatencyBreakdown &bd)
    {
        queueWaitLatency.sample(bd.queueWait);
        wireLatency.sample(bd.wire);
        bankLatency.sample(bd.bank);
        dramLatency.sample(bd.dram);
        faultLatency.sample(bd.fault);
        lastBreakdownValue = bd;
    }

  private:
    trace::LatencyBreakdown lastBreakdownValue;
};

} // namespace mem
} // namespace tlsim

#endif // TLSIM_MEM_L2CACHE_HH
