/**
 * @file
 * SNUCA2: the statically-partitioned NUCA baseline (paper Table 2).
 *
 * 32 banks of 512 KB on a 2-D switched mesh; low-order block-address
 * bits select the bank; 4-way LRU sets within each bank. Uncontended
 * latency spans ~9-32 cycles depending on bank distance.
 */

#ifndef TLSIM_NUCA_SNUCA_HH
#define TLSIM_NUCA_SNUCA_HH

#include <memory>
#include <vector>

#include "cacti/srambank.hh"
#include "mem/l2cache.hh"
#include "mem/setassoc.hh"
#include "noc/link.hh"
#include "noc/mesh.hh"
#include "phys/technology.hh"
#include "sim/pool.hh"

namespace tlsim
{
namespace nuca
{

/** Configuration of the SNUCA2 design. */
struct SnucaConfig
{
    int banks = 32;
    int rows = 4;
    int cols = 8;
    std::uint64_t bankBytes = 512 * 1024;
    int ways = 4;
    Cycles hopLatency = 2;
    int flitBits = 128;
    /** Physical hop length [m] (bank pitch for 512 KB banks). */
    double hopLength = 1.6e-3;
};

/**
 * The SNUCA2 cache design.
 */
class SnucaCache : public mem::L2Cache
{
  public:
    /** @param injector Per-run fault source; null disables faults. */
    SnucaCache(EventQueue &eq, stats::StatGroup *parent,
               mem::MemBackend &dram, const phys::Technology &tech,
               const SnucaConfig &config = SnucaConfig{},
               fault::Injector *injector = nullptr);

    void access(const mem::MemRequest &req,
                mem::RespCallback cb) override;

    void accessFunctional(Addr block_addr,
                          mem::AccessType type) override;

    bool saveWarmState(std::ostream &os) const override;
    bool loadWarmState(std::istream &is) override;

    int linkCount() const override;
    std::string designName() const override { return "SNUCA2"; }

    /** Copy network occupancy/energy into the shared stats. */
    void syncStats() override;

    void beginMeasurement() override;

    /** Uncontended round-trip latency to a bank (Table 2). */
    Cycles uncontendedLatency(int bank) const;

    /** Bank access latency in cycles. */
    int bankAccessCycles() const { return bankCycles; }

    /** Min/max uncontended latencies over all banks (Table 2). */
    std::pair<Cycles, Cycles> latencyRange() const;

    void dumpFaultDiagnostic() const override;

  private:
    int bankOf(Addr block_addr) const;
    noc::Coord coordOf(int bank) const;

    /**
     * One demand read in flight. The requester's callback is stored
     * here once, from access() until delivery; each continuation on
     * the way captures only `this` and the record, which fits
     * std::function's local buffer.
     */
    struct Txn
    {
        Addr blockAddr = 0;
        int bank = 0;
        Tick issue = 0;
        /** Trace-correlation id. */
        std::uint64_t req = 0;
        /** CRC retries of the hit response so far. */
        int attempt = 0;
        /**
         * Pre-CRC first-word tick of the first hit response (0 until
         * it arrives), so the fault surcharge decomposes exactly.
         */
        Tick healthyFirst = 0;
        /** Tick the miss was determined. */
        Tick missTime = 0;
        trace::LatencyBreakdown bd;
        mem::RespCallback cb;
    };

    /** Handle a demand read at the bank side. */
    void handleRead(Txn *t, Tick arrival);

    /** Ship a hit's data back to the controller from tick @p done. */
    void sendHitResponse(Txn *t, Tick done);

    /**
     * A hit response's tail reached the controller. With fault
     * injection it is CRC-checked first; a transient error NACKs it
     * and the controller re-reads the bank after exponential backoff.
     */
    void receiveHit(Txn *t, Tick tail);

    /** Miss path: fetch from memory, insert, respond. */
    void handleMiss(Txn *t, Tick miss_time);

    /** Memory returned a miss's data at @p ready. */
    void receiveFill(Txn *t, Tick ready);

    /** Hand @p t's callback its completion tick and free the record. */
    void respond(Txn *t, Tick tick);

    /**
     * Decompose a demand access's on-chip latency: wire and bank are
     * the static uncontended components of the bank's path, queueing
     * is the contention residual.
     */
    trace::LatencyBreakdown onChipBreakdown(int bank,
                                            Tick latency) const;

    /** Write a block into a bank (fill or store), evicting as needed. */
    void installBlock(Addr block_addr, int bank, Tick now, bool dirty);

    SnucaConfig cfg;
    noc::Mesh mesh;
    cacti::SramBankModel bankModel;
    int bankCycles;
    std::vector<mem::SetAssocArray> arrays;
    std::vector<noc::Link> bankPorts;
    fault::Injector *injector;
    Pool<Txn> txns;
    std::uint64_t useCounter = 0;
    /** Extra round-trip cycles for controller injection/ejection. */
    Tick roundTripInjection = 0;

    /**
     * Spatial heatmaps (constructed only when
     * metrics::spatialEnabled): bank cells are bank ids (row-major
     * over the mesh grid), link cells are mesh link indices.
     */
    std::unique_ptr<metrics::Heatmap> bankBusyHeatmap;
    std::unique_ptr<metrics::Heatmap> bankWaitHeatmap;
    std::unique_ptr<metrics::Heatmap> linkBusyHeatmap;
    std::unique_ptr<metrics::Heatmap> linkWaitHeatmap;
};

} // namespace nuca
} // namespace tlsim

#endif // TLSIM_NUCA_SNUCA_HH
