/**
 * @file
 * DNUCA: the Dynamic Non-Uniform Cache Architecture baseline
 * (Kim et al., ASPLOS 2002; paper Section 2 and Table 2).
 *
 * 256 banks of 64 KB on a 16x16 switched mesh. Each mesh column is a
 * bank set; a block maps to a column and may live in any of its 16
 * banks (x2 ways each). A request searches the two closest banks and
 * the controller's 6-bit partial-tag structure in parallel; a miss in
 * the close banks triggers a multicast search of the partial-tag
 * candidate banks, or a fast miss if there are none. Hits promote the
 * block one bank closer (generational promotion, implemented as a
 * swap). Fills insert at the farthest (tail) bank.
 */

#ifndef TLSIM_NUCA_DNUCA_HH
#define TLSIM_NUCA_DNUCA_HH

#include <memory>
#include <vector>

#include "cacti/srambank.hh"
#include "mem/l2cache.hh"
#include "noc/link.hh"
#include "noc/mesh.hh"
#include "nuca/bankset.hh"
#include "phys/technology.hh"
#include "sim/pool.hh"

namespace tlsim
{
namespace nuca
{

/** Configuration of the DNUCA design. */
struct DnucaConfig
{
    BankSetConfig bankSets{};
    Cycles hopLatency = 1;
    int flitBits = 128;
    /** Physical hop length [m] (64 KB bank pitch). */
    double hopLength = 0.6e-3;
    /** Banks searched in parallel with the partial tags. */
    std::uint32_t closeBanks = 2;
    /** Partial tag structure access latency [cycles]. */
    Cycles partialTagLatency = 3;
    /** Generational promotion on hits (ablation knob). */
    bool promoteOnHit = true;
    /** Banks moved per promotion (Kim et al. design space). */
    std::uint32_t promotionDistance = 1;
    /**
     * Bank new blocks are inserted into; defaults to the tail
     * (banksPerSet - 1). Kim et al. also evaluated middle/head
     * insertion.
     */
    std::uint32_t insertionBank = 15;
    std::uint64_t bankBytes = 64 * 1024;
};

/**
 * The DNUCA cache design.
 */
class DnucaCache : public mem::L2Cache
{
  public:
    /** @param injector Per-run fault source; null disables faults. */
    DnucaCache(EventQueue &eq, stats::StatGroup *parent,
               mem::MemBackend &dram, const phys::Technology &tech,
               const DnucaConfig &config = DnucaConfig{},
               fault::Injector *injector = nullptr);

    void access(const mem::MemRequest &req,
                mem::RespCallback cb) override;

    void accessFunctional(Addr block_addr,
                          mem::AccessType type) override;

    bool saveWarmState(std::ostream &os) const override;
    bool loadWarmState(std::istream &is) override;

    int linkCount() const override;
    std::string designName() const override { return "DNUCA"; }

    void syncStats() override;

    void beginMeasurement() override;

    void dumpFaultDiagnostic() const override;

    /** Uncontended round-trip latency to a bank row of a column. */
    Cycles uncontendedLatency(std::uint32_t bank_row,
                              std::uint32_t column) const;

    int bankAccessCycles() const { return bankCycles; }

    /** The configuration the cache was built with. */
    const DnucaConfig &config() const { return cfg; }

    /** Min/max uncontended latencies over all banks (Table 2). */
    std::pair<Cycles, Cycles> latencyRange() const;

  private:
    DnucaConfig cfg;
    noc::Mesh mesh;
    cacti::SramBankModel bankModel;
    int bankCycles;
    BankSetArray array;
    std::vector<noc::Link> bankPorts;

  public:
    /** DNUCA-specific stats (Table 6). */
    stats::Scalar closeHits;
    stats::Scalar promotions;
    stats::Scalar fastMisses;
    stats::Scalar searches;

  private:
    /**
     * One demand read in flight. The requester's callback is stored
     * here once, from access() until delivery; each continuation on
     * the way captures only `this` and the record, which fits
     * std::function's local buffer.
     */
    struct Txn
    {
        Addr blockAddr = 0;
        std::uint32_t column = 0;
        /** Where the block lived at access time, if resident. */
        std::optional<BankLocation> loc;
        Tick issue = 0;
        /** Trace-correlation id. */
        std::uint64_t req = 0;
        /** Tick the miss was determined. */
        Tick missTime = 0;
        trace::LatencyBreakdown bd;
        /**
         * Holders of the record: the response, plus each row of a
         * multicast that reads it. Its last holder frees it.
         */
        int refs = 0;
        mem::RespCallback cb;
    };

    Pool<Txn> txns;

    /** A record for a demand read, held by its response alone. */
    Txn *newTxn(Addr block_addr, std::uint32_t column,
                const std::optional<BankLocation> &loc, Tick issue,
                std::uint64_t req, mem::RespCallback cb);

    /** Drop one holder of @p t; the last one frees it. */
    void unref(Txn *t);

    /** Hand @p t's callback its completion tick and drop its hold. */
    void respond(Txn *t, Tick tick);

    noc::Coord
    coordOf(std::uint32_t bank_row, std::uint32_t column) const
    {
        return noc::Coord{static_cast<int>(bank_row),
                          static_cast<int>(column)};
    }

    noc::Link &
    bankPort(std::uint32_t bank_row, std::uint32_t column)
    {
        return bankPorts[static_cast<std::size_t>(bank_row) *
                             cfg.bankSets.numBankSets + column];
    }

    /** Deliver a hit from t->loc's bank and maybe promote it. */
    void deliverHit(Txn *t, Tick bank_done);

    /** A hit's data tail reached the controller. */
    void receiveHit(Txn *t, Tick tail);

    /**
     * A probe or search copy found no block at bank @p row: the bank
     * is busy for one access, then a short miss notice rides back
     * that nobody waits for (route-only, no delivery event).
     */
    void missNotice(std::uint32_t row, std::uint32_t column,
                    Tick arrival);

    /**
     * Decompose an access's on-chip latency: wire and bank are the
     * static uncontended components of the answering bank's path,
     * queueing (probe waits, partial-tag consult, contention) is the
     * residual.
     */
    trace::LatencyBreakdown onChipBreakdown(std::uint32_t bank_row,
                                            std::uint32_t column,
                                            Tick latency) const;

    /** Swap a block one bank closer; models the swap traffic. */
    void doPromotion(const BankLocation &loc, Tick now);

    /**
     * Multicast search of the partial-tag candidate banks. Launches
     * at @p start (when the partial tags resolve); a miss is only
     * declared once both the searches and the close banks
     * (@p close_resolved) have answered.
     */
    void searchCandidates(Txn *t, noc::RowSet candidates, Tick start,
                          Tick close_resolved);

    /** Miss path: DRAM fetch, tail insert, respond. */
    void handleMiss(Txn *t, Tick miss_time);

    /** Memory returned a miss's data at @p ready. */
    void receiveFill(Txn *t, Tick ready);

    /** Insert a block at the tail bank, modelling the traffic. */
    void installAtTail(Addr block_addr, Tick now, bool dirty);

    std::uint64_t useCounter = 0;

    /**
     * Spatial heatmaps (constructed only when
     * metrics::spatialEnabled): bank cells are
     * bank_row * numBankSets + column, link cells are mesh link
     * indices.
     */
    std::unique_ptr<metrics::Heatmap> bankBusyHeatmap;
    std::unique_ptr<metrics::Heatmap> bankWaitHeatmap;
    std::unique_ptr<metrics::Heatmap> linkBusyHeatmap;
    std::unique_ptr<metrics::Heatmap> linkWaitHeatmap;
};

} // namespace nuca
} // namespace tlsim

#endif // TLSIM_NUCA_DNUCA_HH
