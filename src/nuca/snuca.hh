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

    using mem::L2Cache::access;
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

    /** Handle a demand read at the bank side. */
    void handleRead(Addr block_addr, int bank, Tick arrival, Tick issue,
                    std::uint64_t req, mem::RespCallback cb);

    /**
     * Ship a hit's data back to the controller. With fault injection
     * the response is CRC-checked on arrival; a transient error NACKs
     * it and the controller re-reads the bank after exponential
     * backoff (recursing with attempt + 1). @p healthy_first is the
     * pre-CRC delivery tick of the first attempt (0 = this is the
     * first attempt) so the fault surcharge can be decomposed exactly.
     */
    void sendHitResponse(Addr block_addr, int bank, Tick done,
                         Tick issue, std::uint64_t req, int attempt,
                         Tick healthy_first, mem::RespCallback cb);

    /** Miss path: fetch from memory, insert, respond. */
    void handleMiss(Addr block_addr, int bank, Tick miss_time,
                    Tick issue, std::uint64_t req,
                    mem::RespCallback cb);

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
