/**
 * @file
 * Unit tests for the 2-D mesh interconnect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <optional>
#include <tuple>
#include <vector>

#include "noc/mesh.hh"
#include "phys/technology.hh"
#include "sim/fault/injector.hh"
#include "sim/rng.hh"

using namespace tlsim;
using namespace tlsim::noc;
using tlsim::phys::tech45;

namespace
{

MeshConfig
dnucaMesh()
{
    return MeshConfig{16, 16, 1, 128, 0.6e-3};
}

MeshConfig
snucaMesh()
{
    return MeshConfig{4, 8, 2, 128, 1.6e-3};
}

} // namespace

TEST(Mesh, DnucaHopSpectrum)
{
    // Paper Table 2: DNUCA bank latencies span 3-47 cycles with a
    // 3-cycle bank: one-way hops must span 0..22.
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    double lo = 1e9, hi = -1;
    for (int r = 0; r < 16; ++r) {
        for (int c = 0; c < 16; ++c) {
            double h = mesh.hopsTo(Coord{r, c});
            lo = std::min(lo, h);
            hi = std::max(hi, h);
        }
    }
    EXPECT_DOUBLE_EQ(lo, 0.0);
    EXPECT_DOUBLE_EQ(hi, 22.0);
}

TEST(Mesh, SnucaHopSpectrum)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), snucaMesh());
    double hi = -1;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 8; ++c)
            hi = std::max(hi, mesh.hopsTo(Coord{r, c}));
    // 3 vertical + 3 horizontal = 6 hops, 2 cycles each = 12.
    EXPECT_DOUBLE_EQ(hi, 6.0);
    EXPECT_EQ(mesh.uncontendedLatency(Coord{3, 0}), 12u);
}

TEST(Mesh, UncontendedLatencyRoundsHalfHopsUp)
{
    // The integer latency equals the hop count times hopLatency,
    // rounded half away from zero, on odd and even grids.
    EventQueue eq;
    for (int cols : {2, 7, 8, 16}) {
        for (Cycles hop : {1u, 2u, 3u}) {
            Mesh mesh(eq, tech45(), MeshConfig{5, cols, hop, 128, 1e-3});
            for (int r = 0; r < 5; ++r) {
                for (int c = 0; c < cols; ++c) {
                    Coord at{r, c};
                    EXPECT_EQ(mesh.uncontendedLatency(at),
                              static_cast<Cycles>(std::llround(
                                  mesh.hopsTo(at) *
                                  static_cast<double>(hop))))
                        << cols << " cols, hop " << hop << " at (" << r
                        << "," << c << ")";
                }
            }
        }
    }
}

TEST(Mesh, RouteToControllerMatchesSendWithoutAnEvent)
{
    EventQueue eq;
    Mesh sent(eq, tech45(), dnucaMesh());
    Tick delivered = 0;
    sent.sendToController(Coord{9, 3}, 1, 40,
                          [&](Tick t) { delivered = t; });
    EXPECT_EQ(eq.size(), 1u);
    eq.run();

    Mesh routed(eq, tech45(), dnucaMesh());
    EXPECT_EQ(routed.routeToController(Coord{9, 3}, 1, 40), delivered);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(routed.energyConsumed(), sent.energyConsumed());
    EXPECT_EQ(routed.totalBusyCycles(), sent.totalBusyCycles());
}

TEST(Mesh, AdjacentBankZeroHops)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    EXPECT_DOUBLE_EQ(mesh.hopsTo(Coord{0, 7}), 0.0);
    EXPECT_DOUBLE_EQ(mesh.hopsTo(Coord{0, 8}), 0.0);
}

TEST(Mesh, DeliveryLatencyMatchesHops)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    Tick arrival = 0;
    mesh.sendToBank(Coord{3, 7}, 1, 100,
                    [&](Tick t) { arrival = t; });
    eq.run();
    EXPECT_EQ(arrival, 100u + 3u);
}

TEST(Mesh, SerializationAddsToTail)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    Tick arrival = 0;
    mesh.sendToBank(Coord{3, 7}, 4, 100,
                    [&](Tick t) { arrival = t; });
    eq.run();
    EXPECT_EQ(arrival, 100u + 3u + 3u); // +3 tail flits
}

TEST(Mesh, RoundTripSymmetry)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    Tick down = 0, up = 0;
    mesh.sendToBank(Coord{5, 2}, 1, 0, [&](Tick t) { down = t; });
    eq.run();
    mesh.sendToController(Coord{5, 2}, 1, down,
                          [&](Tick t) { up = t; });
    eq.run();
    EXPECT_EQ(up - down, down); // symmetric path
}

TEST(Mesh, ContentionSerializesSharedLink)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    Tick first = 0, second = 0;
    // Two messages to the same far bank at the same tick share every
    // link on the route.
    mesh.sendToBank(Coord{10, 7}, 4, 0, [&](Tick t) { first = t; });
    mesh.sendToBank(Coord{10, 7}, 4, 0, [&](Tick t) { second = t; });
    eq.run();
    EXPECT_GT(second, first);
    EXPECT_GE(second - first, 4u); // one serialization quantum
}

TEST(Mesh, IndependentColumnsDoNotInterfere)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    Tick a = 0, b = 0;
    mesh.sendToBank(Coord{10, 3}, 4, 0, [&](Tick t) { a = t; });
    mesh.sendToBank(Coord{10, 12}, 4, 0, [&](Tick t) { b = t; });
    eq.run();
    // Opposite sides of the controller: no shared links.
    EXPECT_EQ(a, b);
}

TEST(Mesh, BankToBankVertical)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    Tick arrival = 0;
    mesh.sendBankToBank(Coord{5, 4}, Coord{4, 4}, 4, 10,
                        [&](Tick t) { arrival = t; });
    eq.run();
    EXPECT_EQ(arrival, 10u + 1u + 3u); // one hop + serialization
}

TEST(Mesh, MulticastArrivalsOrdered)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    std::vector<std::pair<int, Tick>> arrivals;
    mesh.multicastToColumn(4, {0, 1, 5, 15}, 1, 0,
                           [&](int row, Tick t) {
                               arrivals.push_back({row, t});
                           });
    eq.run();
    ASSERT_EQ(arrivals.size(), 4u);
    // Scheduled in time order: row 0 first, row 15 last.
    EXPECT_EQ(arrivals.front().first, 0);
    EXPECT_EQ(arrivals.back().first, 15);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_GT(arrivals[i].second, arrivals[i - 1].second);
}

TEST(Mesh, MulticastMatchesUnicastTiming)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    Tick uni = 0, multi = 0;
    mesh.sendToBank(Coord{6, 9}, 1, 0, [&](Tick t) { uni = t; });
    eq.run();
    Mesh mesh2(eq, tech45(), dnucaMesh());
    mesh2.multicastToColumn(9, {6}, 1, eq.now(),
                            [&](int, Tick t) { multi = t; });
    Tick base = eq.now();
    eq.run();
    EXPECT_EQ(multi - base, uni);
}

TEST(Mesh, EnergyAccumulates)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    EXPECT_EQ(mesh.energyConsumed(), 0.0);
    mesh.sendToBank(Coord{5, 5}, 4, 0, [](Tick) {});
    eq.run();
    double e1 = mesh.energyConsumed();
    EXPECT_GT(e1, 0.0);
    mesh.sendToBank(Coord{10, 5}, 4, eq.now(), [](Tick) {});
    eq.run();
    EXPECT_GT(mesh.energyConsumed(), 1.5 * e1); // longer route
}

TEST(Mesh, BusyCyclesAndReset)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    mesh.sendToBank(Coord{3, 7}, 4, 0, [](Tick) {});
    eq.run();
    EXPECT_GT(mesh.totalBusyCycles(), 0u);
    mesh.resetStats();
    EXPECT_EQ(mesh.totalBusyCycles(), 0u);
    EXPECT_EQ(mesh.energyConsumed(), 0.0);
}

TEST(Mesh, LinkCountMatchesTopology)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    // 2 boundary + 2*16*15 vertical + 2*15 horizontal.
    EXPECT_EQ(mesh.linkCount(), 2 + 2 * 16 * 15 + 2 * 15);
}

TEST(Mesh, FlitHopEnergyPicojouleScale)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    double pj = mesh.flitHopEnergy() / 1e-12;
    EXPECT_GT(pj, 1.0);
    EXPECT_LT(pj, 50.0);
}

namespace
{

/**
 * Link index for the hop between two adjacent switches, from the
 * layout in Mesh's constructor: injection, ejection, vertical up
 * links column by column, vertical down links, then row 0's east
 * and west links.
 */
int
referenceLinkIndex(const MeshConfig &config, Coord from, Coord to)
{
    int vertical = config.cols * (config.rows - 1);
    if (from.col == to.col) {
        EXPECT_EQ(std::abs(from.row - to.row), 1);
        int base = 2 + from.col * (config.rows - 1) +
                   std::min(from.row, to.row);
        return to.row > from.row ? base : base + vertical;
    }
    EXPECT_TRUE(from.row == 0 && to.row == 0 &&
                std::abs(from.col - to.col) == 1);
    int base = 2 + 2 * vertical + std::min(from.col, to.col);
    return to.col > from.col ? base : base + config.cols - 1;
}

/**
 * The XY route as the mesh built it before forEachHop: a list of
 * link indices, one adjacent step at a time.
 */
std::vector<int>
referenceRoute(const Mesh &mesh, Coord from, Coord to)
{
    const MeshConfig &config = mesh.configuration();
    std::vector<int> route;
    Coord cur = from;
    auto move_vertical = [&](int target_row) {
        while (cur.row != target_row) {
            Coord next{cur.row + (target_row > cur.row ? 1 : -1),
                       cur.col};
            route.push_back(referenceLinkIndex(config, cur, next));
            cur = next;
        }
    };
    auto move_horizontal = [&]() {
        while (cur.col != to.col) {
            Coord next{cur.row, cur.col + (to.col > cur.col ? 1 : -1)};
            route.push_back(referenceLinkIndex(config, cur, next));
            cur = next;
        }
    };
    if (from.col == to.col) {
        move_vertical(to.row);
    } else if (from.row == 0) {
        move_horizontal();
        move_vertical(to.row);
    } else {
        move_vertical(0);
        move_horizontal();
        move_vertical(to.row);
    }
    return route;
}

std::vector<int>
walkedRoute(const Mesh &mesh, Coord from, Coord to)
{
    std::vector<int> route;
    mesh.forEachHop(from, to, [&](int li) { route.push_back(li); });
    return route;
}

/** The controller's attach column for traffic to/from @p col. */
int
attachColumn(const MeshConfig &config, int col)
{
    double ctrl = (config.cols - 1) / 2.0;
    return col <= ctrl ? static_cast<int>(std::floor(ctrl))
                       : static_cast<int>(std::ceil(ctrl));
}

/**
 * Link timing as the mesh applied it before forEachHop: per-link
 * busy-until reservations, with a dead link detoured at twice the
 * hop latency.
 */
struct ReferenceMesh
{
    ReferenceMesh(const Mesh &mesh, const fault::Injector *inj)
        : mesh(mesh), injector(inj),
          busyUntil(static_cast<std::size_t>(mesh.linkCount()), 0)
    {}

    Tick
    route(Coord from, Coord to, int flits, Tick now)
    {
        const Cycles hop = mesh.configuration().hopLatency;
        Tick head = now;
        std::vector<int> path = referenceRoute(mesh, from, to);
        for (int li : path) {
            if (injector && injector->linkDead(li, head)) {
                ++degraded;
                head += 2 * hop;
                continue;
            }
            Tick &busy = busyUntil[static_cast<std::size_t>(li)];
            Tick start = std::max(head, busy);
            busy = start + static_cast<Tick>(flits);
            busyCycles += static_cast<std::uint64_t>(flits);
            head = start + hop;
        }
        energy += static_cast<double>(flits) *
                  static_cast<double>(path.size()) *
                  mesh.flitHopEnergy();
        return head + static_cast<Tick>(flits - 1);
    }

    const Mesh &mesh;
    const fault::Injector *injector;
    std::vector<Tick> busyUntil;
    std::uint64_t busyCycles = 0;
    std::uint64_t degraded = 0;
    double energy = 0.0;
};

/**
 * Drive a mesh with a random mix of controller-to-bank,
 * bank-to-controller and bank-to-bank messages and check every tail
 * tick, the energy, busy cycles and detours against ReferenceMesh.
 */
void
expectMatchesReference(const MeshConfig &config, const char *dead_links)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), config);
    std::optional<fault::Injector> injector;
    if (dead_links) {
        fault::FaultConfig fc;
        fc.enabled = true;
        fc.deadLinks = dead_links;
        injector.emplace(fc, 0);
        mesh.setInjector(&*injector);
    }
    ReferenceMesh ref(mesh, injector ? &*injector : nullptr);

    Rng rng(17);
    Tick now = 0;
    constexpr int messages = 4000;
    std::vector<Tick> expected(messages), got(messages);
    for (int i = 0; i < messages; ++i) {
        now += rng.below(4);
        Coord a{static_cast<int>(rng.below(config.rows)),
                static_cast<int>(rng.below(config.cols))};
        Coord b{static_cast<int>(rng.below(config.rows)),
                static_cast<int>(rng.below(config.cols))};
        int flits = static_cast<int>(rng.range(1, 4));
        auto record = [&got, i](Tick t) { got[i] = t; };
        Coord attach{0, attachColumn(config, a.col)};
        switch (i % 3) {
          case 0:
            expected[i] = ref.route(attach, a, flits, now);
            ref.energy += static_cast<double>(flits) *
                          mesh.flitHopEnergy() * 0.5;
            mesh.sendToBank(a, flits, now, record);
            break;
          case 1:
            expected[i] = ref.route(a, attach, flits, now);
            ref.energy += static_cast<double>(flits) *
                          mesh.flitHopEnergy() * 0.5;
            mesh.sendToController(a, flits, now, record);
            break;
          default:
            expected[i] = ref.route(a, b, flits, now);
            mesh.sendBankToBank(a, b, flits, now, record);
            break;
        }
    }
    eq.run();
    EXPECT_EQ(got, expected);
    EXPECT_DOUBLE_EQ(mesh.energyConsumed(), ref.energy);
    EXPECT_EQ(mesh.totalBusyCycles(), ref.busyCycles);
    EXPECT_EQ(mesh.degradedHopCount(), ref.degraded);
    if (dead_links) {
        EXPECT_GT(ref.degraded, 0u);
    }
}

} // namespace

TEST(MeshRoute, ForEachHopMatchesReferenceRoute)
{
    // Every ordered pair of switches covers controller-to-bank
    // (from a row-0 attach switch), bank-to-controller and
    // bank-to-bank routes on both NUCA meshes.
    for (const MeshConfig &config : {snucaMesh(), dnucaMesh()}) {
        EventQueue eq;
        Mesh mesh(eq, tech45(), config);
        for (int r0 = 0; r0 < config.rows; ++r0) {
            for (int c0 = 0; c0 < config.cols; ++c0) {
                for (int r1 = 0; r1 < config.rows; ++r1) {
                    for (int c1 = 0; c1 < config.cols; ++c1) {
                        Coord from{r0, c0}, to{r1, c1};
                        ASSERT_EQ(walkedRoute(mesh, from, to),
                                  referenceRoute(mesh, from, to))
                            << "(" << r0 << "," << c0 << ") -> ("
                            << r1 << "," << c1 << ")";
                    }
                }
            }
        }
    }
}

TEST(MeshRoute, TailsEnergyAndBusyMatchReference)
{
    expectMatchesReference(snucaMesh(), nullptr);
    expectMatchesReference(dnucaMesh(), nullptr);
}

TEST(MeshRoute, DeadLinkDetoursMatchReference)
{
    // Link 2 is the first vertical link of column 0; the others sit
    // in the middle columns and on row 0, where most routes pass.
    expectMatchesReference(snucaMesh(), "2@0,12@500,60@0");
    expectMatchesReference(dnucaMesh(), "2@0,130@0,490@300,500@0");
}

namespace
{

using Delivery = std::tuple<int, int, Tick>; // multicast id, row, tick

/**
 * A burst of overlapping multicasts whose row callbacks send more
 * traffic (and, for the first few, multicast again), so pooled row
 * events are reused from inside their own callbacks.
 */
std::vector<Delivery>
multicastBurst(double &energy, std::uint64_t &busy)
{
    EventQueue eq;
    Mesh mesh(eq, tech45(), dnucaMesh());
    std::vector<Delivery> seen;
    Rng rng(5);
    int next_id = 0;
    std::function<void(Tick)> launch = [&](Tick now) {
        int id = next_id++;
        int col = static_cast<int>(rng.below(16));
        RowSet rows;
        for (int r = 0; r < 16; ++r) {
            if (rng.below(4) == 0)
                rows.add(r);
        }
        if (rows.empty())
            rows.add(static_cast<int>(rng.below(16)));
        mesh.multicastToColumn(
            col, rows, 1, now, [&, id, col](int row, Tick t) {
                seen.emplace_back(id, row, t);
                mesh.sendToController(Coord{row, col}, 1, t + 3,
                                      [](Tick) {});
                if (id < 20 && row == 0)
                    launch(t);
            });
    };
    for (Tick t = 0; t < 400; t += 7)
        launch(t);
    eq.run();
    energy = mesh.energyConsumed();
    busy = mesh.totalBusyCycles();
    return seen;
}

/** FNV-1a over each delivery's (id, row, tick) as 64-bit words. */
std::uint64_t
deliveryDigest(const std::vector<Delivery> &seen)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &[id, row, t] : seen) {
        mix(static_cast<std::uint64_t>(id));
        mix(static_cast<std::uint64_t>(row));
        mix(static_cast<std::uint64_t>(t));
    }
    return h;
}

} // namespace

TEST(MeshRoute, TypedMulticastGolden)
{
    // Pinned from the per-row lambda path the pooled row events
    // replaced: same deliveries in the same order, same link energy
    // and busy cycles.
    double energy = 0.0;
    std::uint64_t busy = 0;
    auto seen = multicastBurst(energy, busy);
    EXPECT_EQ(seen.size(), 275u);
    EXPECT_EQ(deliveryDigest(seen), 0xfe9f494e7a4e46b0ull);
    EXPECT_EQ(energy, 0x1.884a4b8b266e6p-25);
    EXPECT_EQ(busy, 4153u);
}
