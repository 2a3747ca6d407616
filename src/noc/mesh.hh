/**
 * @file
 * 2-D switched mesh interconnect used by the NUCA cache designs.
 *
 * The mesh is a grid of wormhole switches connected by repeated RC
 * links (src/phys/rcwire). The cache controller injects at a port on
 * the bottom edge, centered between the two middle columns — this
 * reproduces the NUCA hop-count spectrum (DNUCA: 0..22 one-way hops
 * over a 16x16 grid). Messages are modeled per-hop with link
 * occupancy (contention) and tail-flit serialization at delivery.
 */

#ifndef TLSIM_NOC_MESH_HH
#define TLSIM_NOC_MESH_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <vector>

#include "noc/link.hh"
#include "noc/rowset.hh"
#include "phys/rcwire.hh"
#include "sim/fault/injector.hh"
#include "phys/switchmodel.hh"
#include "phys/technology.hh"
#include "sim/eventq.hh"
#include "sim/pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tlsim
{
namespace noc
{

/** Grid coordinate of a switch/bank. */
struct Coord
{
    int row; // 0 == closest to the controller edge
    int col;

    bool operator==(const Coord &other) const = default;
};

/**
 * Configuration of one mesh instance.
 */
struct MeshConfig
{
    int rows;
    int cols;
    /** Per-hop latency in cycles (link + switch traversal). */
    Cycles hopLatency;
    /** Link datapath width in bits. */
    int flitBits;
    /** Physical link length per hop [m] (for energy accounting). */
    double hopLength;
};

/**
 * The mesh: computes routes, reserves per-hop links, delivers
 * messages via the event queue, and accounts energy/occupancy.
 */
class Mesh
{
  public:
    /**
     * @param eq Event queue.
     * @param tech Technology (for link/switch energy).
     * @param config Grid geometry and timing.
     */
    Mesh(EventQueue &eq, const phys::Technology &tech,
         const MeshConfig &config);

    /** Delivery callback: fires when the message tail arrives. */
    using DeliverCallback = std::function<void(Tick)>;

    /**
     * Route a bank's message to the controller without a delivery
     * event: links are reserved, energy is counted and the span is
     * traced exactly as by sendToController, but nothing is
     * scheduled. For notices nobody waits for (DNUCA's miss notices
     * and false-positive replies).
     * @return Tick at which the tail flit reaches the controller.
     */
    Tick routeToController(Coord src, int flits, Tick now);

    /**
     * Send a message from the controller to a bank.
     * @param dst Destination bank coordinate.
     * @param flits Message length in flits.
     * @param now Injection tick.
     * @param cb Fires at tail delivery.
     */
    void sendToBank(Coord dst, int flits, Tick now, DeliverCallback cb);

    /** Send a message from a bank back to the controller. */
    void sendToController(Coord src, int flits, Tick now,
                          DeliverCallback cb);

    /**
     * Send a message between two banks in the same column (used for
     * DNUCA promotion swaps).
     */
    void sendBankToBank(Coord src, Coord dst, int flits, Tick now,
                        DeliverCallback cb);

    /** Per-row multicast delivery: (row, tail-arrival tick). */
    using MulticastCallback = std::function<void(int, Tick)>;

    /**
     * Multicast a message from the controller up one column: the
     * message rides to the farthest requested row, dropping a copy
     * at each requested bank as it passes. @p cb fires once per
     * requested row, at that row's tail-arrival tick.
     */
    void multicastToColumn(int col, RowSet rows, int flits, Tick now,
                           MulticastCallback cb);

    /**
     * Walk the XY route between two switches, calling @p f with each
     * link's index (see the layout comment in the constructor) in
     * traversal order. Horizontal links exist only along row 0: a
     * route leaving another row first rides its column down, then
     * row 0 across, then the target column up.
     */
    template <typename F>
    void
    forEachHop(Coord from, Coord to, F &&f) const
    {
        Coord cur = from;
        if (from.col != to.col) {
            verticalHops(cur.col, cur.row, 0, f);
            horizontalHops(cur.col, to.col, f);
            cur = Coord{0, to.col};
        }
        verticalHops(cur.col, cur.row, to.row, f);
    }

    /**
     * One-way hop count between the controller port and a bank
     * (fractional hops model the injection half-link).
     */
    double hopsTo(Coord bank) const { return halfHopsTo(bank) / 2.0; }

    /**
     * Uncontended one-way latency to a bank, in cycles: the hop count
     * times hopLatency, rounded half up. The hop count is half-integer
     * (the injection half-link), so this is exact integer arithmetic.
     */
    Cycles
    uncontendedLatency(Coord bank) const
    {
        Cycles twice =
            static_cast<Cycles>(halfHopsTo(bank)) * config.hopLatency;
        return (twice + 1) / 2;
    }

    /** Total unidirectional links in the mesh. */
    int linkCount() const { return static_cast<int>(links.size()); }

    /** Sum of busy cycles across all links. */
    std::uint64_t totalBusyCycles() const;

    /** Dynamic energy consumed so far [J]. */
    double energyConsumed() const { return energy; }

    /** Energy of one flit traversing one hop (link + switch) [J]. */
    double flitHopEnergy() const { return flitHopEnergyJ; }

    /** Reset occupancy/energy statistics. */
    void resetStats();

    const MeshConfig &configuration() const { return config; }

    /**
     * Attach a fault injector. A dead mesh link is detoured around
     * adaptively (one extra hop each way), costing 2x hopLatency per
     * affected traversal; null disables fault handling.
     */
    void setInjector(fault::Injector *inj) { injector = inj; }

    /** Hops that detoured around a dead link so far. */
    std::uint64_t degradedHopCount() const { return degradedHops; }

    /**
     * Attach spatial heatmaps to every mesh link (cell = link
     * index, see the layout comment in the constructor). Either
     * heatmap may be null.
     */
    void attachTelemetry(metrics::Heatmap *busy_hm,
                         metrics::Heatmap *wait_hm);

  private:
    /**
     * Twice the one-way hop count between the controller port and a
     * bank: the bank's row, plus its column distance from the port
     * (which sits between the two middle columns) less the half-link
     * the injection covers.
     */
    int
    halfHopsTo(Coord bank) const
    {
        int twice_col = std::abs(2 * bank.col - (config.cols - 1));
        return 2 * bank.row + std::max(twice_col - 1, 0);
    }

    /**
     * Column of the bottom-row switch the controller attaches to for
     * traffic to or from @p col: the nearer of the two middle ones.
     */
    int
    portColumn(int col) const
    {
        return 2 * col <= config.cols - 1 ? (config.cols - 1) / 2
                                          : config.cols / 2;
    }

    /** Vertical links, per direction. */
    int verticalCount() const { return config.cols * (config.rows - 1); }

    /** forEachHop's run up or down column @p col. */
    template <typename F>
    void
    verticalHops(int col, int from_row, int to_row, F &f) const
    {
        int base = 2 + col * (config.rows - 1);
        for (int r = from_row; r < to_row; ++r)
            f(base + r);
        for (int r = from_row; r > to_row; --r)
            f(base + r - 1 + verticalCount());
    }

    /** forEachHop's run east or west along row 0. */
    template <typename F>
    void
    horizontalHops(int from_col, int to_col, F &f) const
    {
        int base = 2 + 2 * verticalCount();
        for (int c = from_col; c < to_col; ++c)
            f(base + c);
        for (int c = from_col; c > to_col; --c)
            f(base + c - 1 + horizontalCount());
    }

    /**
     * Route a message from @p from to @p to, reserving each
     * directional link in sequence.
     * @return Tick at which the tail flit arrives at the endpoint.
     */
    Tick routeMessage(Coord from, Coord to, int flits, Tick now);

    /** Schedule @p cb at @p tail on the configured event flavour. */
    void deliverAt(Tick tail, DeliverCallback cb);

    /**
     * Move a message head across one link, detouring around it when
     * the injector declares it dead.
     * @return Head-arrival tick at the far switch.
     */
    Tick traverseLink(int li, int flits, Tick head);

    /** Number of horizontal links per direction. */
    int horizontalCount() const { return config.cols - 1; }

    EventQueue &eventq;
    MeshConfig config;
    std::vector<Link> links;
    double energy = 0.0;
    double flitHopEnergyJ = 0.0;
    fault::Injector *injector = nullptr;
    std::uint64_t degradedHops = 0;

    /** One multicast's callback, shared by its rows' events. */
    struct MulticastGroup
    {
        MulticastCallback cb;
        int pendingRows = 0;
    };

    /**
     * Pooled typed event delivering one multicast row: every row of
     * a multicast points at one MulticastGroup instead of carrying
     * its own copy of the callback. Owned by the mesh, never by the
     * queue.
     */
    class RowDeliveryEvent : public Event
    {
      public:
        explicit RowDeliveryEvent(Mesh &owner_) : owner(owner_) {}

        void process() override;
        const char *name() const override { return "MeshRowEvent"; }

        MulticastGroup *group = nullptr;
        int row = 0;

      private:
        Mesh &owner;
    };

    Pool<RowDeliveryEvent> rowEvents;
    Pool<MulticastGroup> groups;
    /** Head arrival per row of the multicast being routed. */
    std::vector<Tick> arrivalScratch;
};

} // namespace noc
} // namespace tlsim

#endif // TLSIM_NOC_MESH_HH
