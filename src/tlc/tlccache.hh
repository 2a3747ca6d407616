/**
 * @file
 * The Transmission Line Cache designs (paper Section 4).
 *
 * A TLC decouples storage from the controller: banks on the die edges
 * talk to a central controller over point-to-point transmission-line
 * links shared by bank pairs. The base design stores whole blocks in
 * one bank; the optimized designs stripe blocks across banksPerBlock
 * banks (each on a different pair, so slices move in parallel), check
 * a 6-bit partial tag at the bank, and resolve the full tag at the
 * controller — including the rare multiple-partial-match second round
 * trip.
 */

#ifndef TLSIM_TLC_TLCCACHE_HH
#define TLSIM_TLC_TLCCACHE_HH

#include <memory>
#include <vector>

#include "cacti/srambank.hh"
#include "mem/l2cache.hh"
#include "mem/setassoc.hh"
#include "noc/link.hh"
#include "phys/technology.hh"
#include "sim/fault/injector.hh"
#include "sim/pool.hh"
#include "sim/rng.hh"
#include "tlc/config.hh"
#include "tlc/floorplan.hh"

namespace tlsim
{
namespace tlc
{

/**
 * A member of the TLC design family (base or optimized).
 */
class TlcCache : public mem::L2Cache
{
  public:
    /** @param injector Per-run fault source; null disables faults. */
    TlcCache(EventQueue &eq, stats::StatGroup *parent, mem::MemBackend &dram,
             const phys::Technology &tech, const TlcConfig &config,
             fault::Injector *injector = nullptr);

    void access(const mem::MemRequest &req,
                mem::RespCallback cb) override;

    void accessFunctional(Addr block_addr,
                          mem::AccessType type) override;

    bool saveWarmState(std::ostream &os) const override;
    bool loadWarmState(std::istream &is) override;

    int linkCount() const override { return 2 * cfg.pairs(); }
    std::string designName() const override { return cfg.name; }

    void syncStats() override;

    void beginMeasurement() override;

    const TlcConfig &config() const { return cfg; }
    const TlcFloorplan &layout() const { return floorplan; }

    int bankAccessCycles() const { return bankCycles; }

    /** Uncontended load latency for a specific block. */
    Cycles uncontendedLoadLatency(Addr block_addr) const;

    /** Min/max uncontended load latency over all groups (Table 2). */
    std::pair<Cycles, Cycles> latencyRange() const;

    void dumpFaultDiagnostic() const override;

    /**
     * Fault-injection link ids: pair p's down link is 2p, its up
     * link 2p+1 (the encoding FaultConfig::deadLinks uses).
     */
    int downLinkId(int pair) const { return 2 * pair; }
    int upLinkId(int pair) const { return 2 * pair + 1; }

  private:
    TlcConfig cfg;
    TlcFloorplan floorplan;
    cacti::SramBankModel bankModel;
    int bankCycles;
    /** Per-pair down (controller->banks) and up links. */
    std::vector<noc::Link> downLinks;
    std::vector<noc::Link> upLinks;
    std::vector<noc::Link> bankPorts;
    fault::Injector *injector;
    /**
     * Degraded-mode path: when a pair's transmission lines die, its
     * traffic falls back to a conventional repeated-RC wire routed
     * alongside (one bidirectional bundle per pair), much slower but
     * functional.
     */
    std::vector<noc::Link> rcFallback;
    /** One-way latency of each pair's RC fallback wire [cycles]. */
    std::vector<Tick> rcOneWay;

    /**
     * Spatial heatmaps (constructed only when
     * metrics::spatialEnabled): bank cells are bank ids, link cells
     * are the fault-injection link ids (down 2p, up 2p+1).
     */
    std::unique_ptr<metrics::Heatmap> bankBusyHeatmap;
    std::unique_ptr<metrics::Heatmap> bankWaitHeatmap;
    std::unique_ptr<metrics::Heatmap> linkBusyHeatmap;
    std::unique_ptr<metrics::Heatmap> linkWaitHeatmap;

  public:
    /** Optimized-design stats. */
    stats::Scalar multiMatches;
    stats::Scalar falseMatches;
    /** End-to-end ECC retries (lineErrorRate > 0). */
    stats::Scalar eccRetries;

  private:
    /** Bank group a block maps to. */
    int
    groupOf(Addr block_addr) const
    {
        return static_cast<int>(block_addr &
                                static_cast<Addr>(cfg.groups() - 1));
    }

    /** Address presented to the group's set-associative array. */
    Addr
    frameAddr(Addr block_addr) const
    {
        return block_addr >> __builtin_ctz(cfg.groups());
    }

    /** Member bank m of group g. */
    int
    bankOf(int group, int member) const
    {
        return group * cfg.banksPerBlock + member;
    }

    /** Pair whose links serve a bank (members span distinct pairs). */
    int pairOf(int bank) const { return bank % cfg.pairs(); }

    /**
     * Timing of one member bank's leg of a request, with the exact
     * queue/wire/bank decomposition of its path (the components sum
     * to done - issue, and after the response leg to
     * firstWord - issue).
     */
    struct MemberTiming
    {
        Tick done = 0; ///< bank access complete
        Tick firstWord = 0; ///< first response word at controller
        trace::LatencyBreakdown parts;
    };

    /** Handle a demand read (req is the trace-correlation id). */
    void handleLoad(Addr block_addr, Tick now, std::uint64_t req,
                    mem::RespCallback cb);

    /** True when any of the group's member pairs has died by @p now. */
    bool groupDegraded(int group, Tick now) const;

    /**
     * Degraded-mode load over the RC fallback wires (dead pair in
     * the group). The RC detour excess lands in the breakdown's
     * fault component.
     */
    void handleDegradedLoad(Addr block_addr, Tick now,
                            std::uint64_t req, mem::RespCallback cb);

    /** Handle a store / writeback (also used for fills). */
    void handleWrite(Addr block_addr, Tick now, bool is_fill);

    /**
     * Second round trip after a multiple partial-tag match; adds the
     * round's critical-path components to @p bd.
     */
    Tick secondRoundTrip(int group, Tick start, std::uint64_t req,
                         trace::LatencyBreakdown &bd);

    /**
     * A demand read waiting on memory. The requester's callback is
     * stored here once until delivery, so the DRAM completion
     * captures only `this` and the record, which fits
     * std::function's local buffer.
     */
    struct Txn
    {
        Addr blockAddr = 0;
        Tick issue = 0;
        /** Tick the miss was determined. */
        Tick missTime = 0;
        /** Trace-correlation id. */
        std::uint64_t req = 0;
        trace::LatencyBreakdown bd;
        mem::RespCallback cb;
    };

    Pool<Txn> txns;

    /** Miss path: DRAM fetch, fill, respond. */
    void handleMiss(Addr block_addr, Tick issue, Tick miss_time,
                    std::uint64_t req, trace::LatencyBreakdown bd,
                    mem::RespCallback cb);

    /** Memory returned a miss's data at @p ready. */
    void receiveFill(Txn *t, Tick ready);

    /**
     * Reserve the request path to every member bank; per member,
     * record in `members` the bank-completion tick and the
     * decomposition of the path so far. Also accounts request energy.
     */
    void sendRequests(int group, Tick now, int req_cycles,
                      std::uint64_t req);

    /**
     * Reserve response paths of @p resp_cycles for every member of
     * the round sendRequests just timed and return the max first-word
     * arrival at the controller; @p critical is set to the
     * decomposition of the member that determined it.
     */
    Tick collectResponses(int group, int resp_cycles, int payload_bits,
                          std::uint64_t req,
                          trace::LatencyBreakdown &critical);

    /** Per-member timing of the current round (banksPerBlock long). */
    std::vector<MemberTiming> members;
    /** Per-member slice arrival of the current write. */
    std::vector<Tick> writeArrivals;

    std::vector<mem::SetAssocArray> arrays;
    std::uint64_t useCounter = 0;
    /** Deterministic error-injection source. */
    Rng errorRng{0xecc5eedULL};

    /** Serialization constants (cycles). */
    int reqCycles;
    int respCycles; // per-bank read response
    int dataDownCycles; // per-bank fill/store payload
};

} // namespace tlc
} // namespace tlsim

#endif // TLSIM_TLC_TLCCACHE_HH
