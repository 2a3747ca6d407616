#include "noc/mesh.hh"

#include <algorithm>
#include <cmath>

#include "phys/geometry.hh"
#include "sim/logging.hh"
#include "sim/trace/debug.hh"
#include "sim/trace/tracesink.hh"

namespace tlsim
{
namespace noc
{

Mesh::Mesh(EventQueue &eq, const phys::Technology &tech,
           const MeshConfig &config_)
    : eventq(eq), config(config_)
{
    TLSIM_ASSERT(config.rows > 0 && config.cols > 1,
                 "mesh needs a positive grid");

    // Link layout (all unidirectional):
    //   [0] controller -> mesh injection
    //   [1] mesh -> controller ejection
    //   vertical up/down per column between adjacent rows
    //   horizontal east/west along row 0 between adjacent columns
    int vertical = config.cols * (config.rows - 1);
    int horizontal = config.cols - 1;
    links.resize(2 + 2 * vertical + 2 * horizontal);

    // Energy of one flit crossing one hop: link wires + switch.
    phys::RcWireModel wire(tech, phys::conventionalGlobalWire());
    phys::SwitchModel sw(tech, 5, config.flitBits, 4);
    flitHopEnergyJ = config.flitBits * tech.activityFactor *
                         wire.energyPerTransition(config.hopLength) +
                     sw.energyPerFlit();
}

double
Mesh::hopsTo(Coord bank) const
{
    double horiz = std::abs(bank.col - controllerCol()) - 0.5;
    if (horiz < 0.0)
        horiz = 0.0;
    return bank.row + horiz;
}

Tick
Mesh::traverseLink(int li, int flits, Tick head)
{
    if (injector && injector->linkDead(li, head)) {
        // Adaptive detour around the dead link: ride the neighboring
        // column/row and back, costing one extra hop each way. The
        // detour links' contention is folded into the doubled latency
        // rather than reserved individually.
        ++degradedHops;
        return head + 2 * config.hopLatency;
    }
    head = links[static_cast<std::size_t>(li)].reserve(
        head, static_cast<Cycles>(flits));
    return head + config.hopLatency;
}

void
Mesh::attachTelemetry(metrics::Heatmap *busy_hm,
                      metrics::Heatmap *wait_hm)
{
    for (std::size_t i = 0; i < links.size(); ++i)
        links[i].attachTelemetry(busy_hm, wait_hm, i);
}

Tick
Mesh::routeMessage(Coord from, Coord to, int flits, Tick now)
{
    prof::Scope prof_scope("noc:route");
    Tick head = now;
    int hops = 0;
    forEachHop(from, to, [&](int li) {
        head = traverseLink(li, flits, head);
        ++hops;
    });
    energy += static_cast<double>(flits) * static_cast<double>(hops) *
              flitHopEnergyJ;
    // Tail flit trails the head by the serialization time.
    return head + static_cast<Tick>(flits - 1);
}

void
Mesh::deliverAt(Tick tail, DeliverCallback cb)
{
    eventq.scheduleCallback(tail, std::move(cb));
}

namespace
{

/** Column of the bottom-row switch the controller attaches to. */
int
injectColumnFor(int dst_col, double controller_col)
{
    return dst_col <= controller_col
               ? static_cast<int>(std::floor(controller_col))
               : static_cast<int>(std::ceil(controller_col));
}

} // namespace

void
Mesh::sendToBank(Coord dst, int flits, Tick now, DeliverCallback cb)
{
    // The controller spans the cache edge, so its boundary is wide:
    // injection costs energy but does not serialize (contention is
    // modelled in the row-0 and column links).
    int inject_col = injectColumnFor(dst.col, controllerCol());
    Tick tail = routeMessage(Coord{0, inject_col}, dst, flits, now);
    energy += static_cast<double>(flits) * flitHopEnergyJ * 0.5;
    TLSIM_DPRINTF(NoC, "t={} mesh send {} flits to ({},{}) tail {}",
                  now, flits, dst.row, dst.col, tail);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::noc,
                   csprintf("to ({},{})", dst.row, dst.col), now, tail,
                   trace::tid::nocBase);
    }
    deliverAt(tail, std::move(cb));
}

void
Mesh::sendToController(Coord src, int flits, Tick now,
                       DeliverCallback cb)
{
    int eject_col = injectColumnFor(src.col, controllerCol());
    Tick tail = routeMessage(src, Coord{0, eject_col}, flits, now);
    energy += static_cast<double>(flits) * flitHopEnergyJ * 0.5;
    TLSIM_DPRINTF(NoC, "t={} mesh recv {} flits from ({},{}) tail {}",
                  now, flits, src.row, src.col, tail);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::noc,
                   csprintf("from ({},{})", src.row, src.col), now,
                   tail, trace::tid::nocUpBase);
    }
    deliverAt(tail, std::move(cb));
}

void
Mesh::multicastToColumn(int col, const std::vector<int> &rows,
                        int flits, Tick now, MulticastCallback cb)
{
    TLSIM_ASSERT(!rows.empty(), "multicast needs at least one row");
    int far_row = *std::max_element(rows.begin(), rows.end());

    int inject_col = injectColumnFor(col, controllerCol());
    Tick head = now;
    energy += static_cast<double>(flits) * flitHopEnergyJ * 0.5;

    // Horizontal portion along row 0, then up the column recording
    // the head's arrival at every row.
    int hops = 0;
    forEachHop(Coord{0, inject_col}, Coord{0, col}, [&](int li) {
        head = traverseLink(li, flits, head);
        ++hops;
    });
    arrivalScratch.resize(static_cast<std::size_t>(far_row) + 1);
    arrivalScratch[0] = head;
    std::size_t row_reached = 0;
    forEachHop(Coord{0, col}, Coord{far_row, col}, [&](int li) {
        head = traverseLink(li, flits, head);
        ++hops;
        arrivalScratch[++row_reached] = head;
    });
    energy += static_cast<double>(flits) * hops * flitHopEnergyJ;

    TLSIM_DPRINTF(NoC, "t={} mesh multicast {} flits col {} far row "
                  "{}", now, flits, col, far_row);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::noc, csprintf("multicast col{}", col),
                   now, head + static_cast<Tick>(flits - 1),
                   trace::tid::nocBase);
    }

    // One pooled event per row, all sharing one copy of the callback.
    MulticastGroup *group;
    if (groupFree.empty()) {
        group = &groups.emplace_back();
    } else {
        group = groupFree.back();
        groupFree.pop_back();
    }
    group->cb = std::move(cb);
    group->pendingRows = static_cast<int>(rows.size());
    for (int row : rows) {
        Tick tail = arrivalScratch[static_cast<std::size_t>(row)] +
                    static_cast<Tick>(flits - 1);
        RowDeliveryEvent *ev;
        if (rowEventFree.empty()) {
            ev = &rowEvents.emplace_back(*this);
        } else {
            ev = rowEventFree.back();
            rowEventFree.pop_back();
        }
        ev->group = group;
        ev->row = row;
        eventq.schedule(ev, tail);
    }
}

void
Mesh::RowDeliveryEvent::process()
{
    // Back to the pool first: the callback may multicast again.
    MulticastGroup *g = group;
    int r = row;
    Tick tail = when();
    owner.rowEventFree.push_back(this);
    g->cb(r, tail);
    if (--g->pendingRows == 0) {
        g->cb = nullptr;
        owner.groupFree.push_back(g);
    }
}

void
Mesh::sendBankToBank(Coord src, Coord dst, int flits, Tick now,
                     DeliverCallback cb)
{
    deliverAt(routeMessage(src, dst, flits, now), std::move(cb));
}

std::uint64_t
Mesh::totalBusyCycles() const
{
    std::uint64_t total = 0;
    for (const auto &link : links)
        total += link.busyCycles();
    return total;
}

void
Mesh::resetStats()
{
    for (auto &link : links)
        link.resetStats();
    energy = 0.0;
}

} // namespace noc
} // namespace tlsim
