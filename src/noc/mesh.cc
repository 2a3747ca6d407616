#include "noc/mesh.hh"

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
    //   [0] controller -> mesh injection port
    //   [1] mesh -> controller ejection port
    //   vertical up/down per column between adjacent rows
    //   horizontal east/west along row 0 between adjacent columns
    // The two ports are never reserved: the controller spans the
    // cache edge, so injection costs energy but does not serialize.
    // They stay in the layout because linkCount() counts them (it is
    // the denominator of link utilization, Fig 7) and because every
    // other link's index, which fault schedules and heatmap cells
    // name, is offset past them.
    int vertical = config.cols * (config.rows - 1);
    int horizontal = config.cols - 1;
    links.resize(2 + 2 * vertical + 2 * horizontal);
    arrivalScratch.resize(static_cast<std::size_t>(config.rows));

    // Energy of one flit crossing one hop: link wires + switch.
    phys::RcWireModel wire(tech, phys::conventionalGlobalWire());
    phys::SwitchModel sw(tech, 5, config.flitBits, 4);
    flitHopEnergyJ = config.flitBits * tech.activityFactor *
                         wire.energyPerTransition(config.hopLength) +
                     sw.energyPerFlit();
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

void
Mesh::sendToBank(Coord dst, int flits, Tick now, DeliverCallback cb)
{
    // The controller spans the cache edge, so its boundary is wide:
    // injection costs energy but does not serialize (contention is
    // modelled in the row-0 and column links).
    Tick tail = routeMessage(Coord{0, portColumn(dst.col)}, dst, flits,
                             now);
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
    deliverAt(routeToController(src, flits, now), std::move(cb));
}

Tick
Mesh::routeToController(Coord src, int flits, Tick now)
{
    Tick tail =
        routeMessage(src, Coord{0, portColumn(src.col)}, flits, now);
    energy += static_cast<double>(flits) * flitHopEnergyJ * 0.5;
    TLSIM_DPRINTF(NoC, "t={} mesh recv {} flits from ({},{}) tail {}",
                  now, flits, src.row, src.col, tail);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::noc,
                   csprintf("from ({},{})", src.row, src.col), now,
                   tail, trace::tid::nocUpBase);
    }
    return tail;
}

void
Mesh::multicastToColumn(int col, RowSet rows, int flits, Tick now,
                        MulticastCallback cb)
{
    TLSIM_ASSERT(!rows.empty(), "multicast needs at least one row");
    int far_row = rows.last();

    int inject_col = portColumn(col);
    Tick head = now;
    energy += static_cast<double>(flits) * flitHopEnergyJ * 0.5;

    // Horizontal portion along row 0, then up the column recording
    // the head's arrival at every row.
    int hops = 0;
    forEachHop(Coord{0, inject_col}, Coord{0, col}, [&](int li) {
        head = traverseLink(li, flits, head);
        ++hops;
    });
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
    MulticastGroup *group = groups.acquire();
    group->cb = std::move(cb);
    group->pendingRows = rows.size();
    rows.forEach([&](int row) {
        Tick tail = arrivalScratch[static_cast<std::size_t>(row)] +
                    static_cast<Tick>(flits - 1);
        RowDeliveryEvent *ev = rowEvents.acquire(*this);
        ev->group = group;
        ev->row = row;
        eventq.schedule(ev, tail);
    });
}

void
Mesh::RowDeliveryEvent::process()
{
    // Back to the pool first: the callback may multicast again.
    MulticastGroup *g = group;
    int r = row;
    Tick tail = when();
    owner.rowEvents.release(this);
    g->cb(r, tail);
    if (--g->pendingRows == 0) {
        g->cb = nullptr;
        owner.groups.release(g);
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
