#include "nuca/snuca.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "mem/l2registry.hh"
#include "mem/warmstate.hh"
#include "sim/prof/prof.hh"
#include "sim/trace/debug.hh"
#include "sim/trace/tracesink.hh"

namespace tlsim
{
namespace nuca
{

namespace
{

constexpr int addrFlits = 1;

int
dataFlits(int flit_bits)
{
    return (mem::blockBytes * 8 + flit_bits - 1) / flit_bits;
}

} // namespace

SnucaCache::SnucaCache(EventQueue &eq, stats::StatGroup *parent,
                       mem::MemBackend &dram, const phys::Technology &tech,
                       const SnucaConfig &config,
                       fault::Injector *injector_)
    : mem::L2Cache("snuca2", eq, parent, dram), cfg(config),
      mesh(eq, tech,
           noc::MeshConfig{config.rows, config.cols, config.hopLatency,
                           config.flitBits, config.hopLength}),
      bankModel(tech, config.bankBytes, config.ways, mem::blockBytes),
      bankCycles(bankModel.accessCycles()),
      bankPorts(static_cast<std::size_t>(config.banks)),
      injector(injector_)
{
    TLSIM_ASSERT(cfg.banks == cfg.rows * cfg.cols,
                 "bank count must match the mesh grid");
    mesh.setInjector(injector);
    std::uint32_t sets = static_cast<std::uint32_t>(
        cfg.bankBytes / (static_cast<std::uint64_t>(mem::blockBytes) *
                         cfg.ways));
    arrays.reserve(cfg.banks);
    for (int i = 0; i < cfg.banks; ++i)
        arrays.emplace_back(sets, cfg.ways);

    if (metrics::spatialEnabled) {
        bankBusyHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_bank_busy",
            "bank-port busy cycles per time window per bank",
            static_cast<std::size_t>(cfg.banks));
        bankWaitHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_bank_wait",
            "bank-port queueing cycles per time window per bank",
            static_cast<std::size_t>(cfg.banks));
        linkBusyHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_link_busy",
            "mesh link busy cycles per time window per link",
            static_cast<std::size_t>(mesh.linkCount()));
        linkWaitHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_link_wait",
            "mesh link queueing cycles per time window per link",
            static_cast<std::size_t>(mesh.linkCount()));
        for (int b = 0; b < cfg.banks; ++b) {
            bankPorts[static_cast<std::size_t>(b)].attachTelemetry(
                bankBusyHeatmap.get(), bankWaitHeatmap.get(),
                static_cast<std::size_t>(b));
        }
        mesh.attachTelemetry(linkBusyHeatmap.get(),
                             linkWaitHeatmap.get());
    }
}

int
SnucaCache::bankOf(Addr block_addr) const
{
    return static_cast<int>(block_addr &
                            static_cast<Addr>(cfg.banks - 1));
}

noc::Coord
SnucaCache::coordOf(int bank) const
{
    return noc::Coord{bank / cfg.cols, bank % cfg.cols};
}

Cycles
SnucaCache::uncontendedLatency(int bank) const
{
    return 2 * mesh.uncontendedLatency(coordOf(bank)) +
           roundTripInjection + bankCycles;
}

std::pair<Cycles, Cycles>
SnucaCache::latencyRange() const
{
    Cycles lo = ~Cycles(0), hi = 0;
    for (int b = 0; b < cfg.banks; ++b) {
        Cycles lat = uncontendedLatency(b);
        lo = std::min(lo, lat);
        hi = std::max(hi, lat);
    }
    return {lo, hi};
}

int
SnucaCache::linkCount() const
{
    return mesh.linkCount();
}

void
SnucaCache::access(const mem::MemRequest &l2_req, mem::RespCallback cb)
{
    const Addr block_addr = l2_req.blockAddr;
    const mem::AccessType type = l2_req.type;
    const Tick now = l2_req.issued;

    prof::Scope prof_scope("snuca:access");
    ++requests;
    int bank = bankOf(block_addr);

    if (type == mem::AccessType::Store) {
        // Writebacks carry data to the bank and complete immediately
        // from the sender's point of view.
        banksAccessed.sample(1.0);
        int flits = dataFlits(cfg.flitBits);
        mesh.sendToBank(coordOf(bank), flits, now,
                        [this, block_addr](Tick arrival) {
                            installBlock(block_addr, bankOf(block_addr),
                                         arrival, true);
                        });
        cb(now);
        return;
    }

    ++demandRequests;
    banksAccessed.sample(1.0);
    TLSIM_DPRINTF(L2, "t={} snuca2 load block {} bank {}", now,
                  block_addr, bank);
    Txn *t = txns.acquire();
    t->blockAddr = block_addr;
    t->bank = bank;
    t->issue = now;
    t->req = l2_req.id;
    t->attempt = 0;
    t->healthyFirst = 0;
    t->cb = std::move(cb);
    mesh.sendToBank(coordOf(bank), addrFlits, now,
                    [this, t](Tick arrival) { handleRead(t, arrival); });
}

void
SnucaCache::respond(Txn *t, Tick tick)
{
    mem::RespCallback cb = std::move(t->cb);
    txns.release(t);
    cb(tick);
}

trace::LatencyBreakdown
SnucaCache::onChipBreakdown(int bank, Tick latency) const
{
    trace::LatencyBreakdown bd;
    bd.wire = static_cast<double>(
        2 * mesh.uncontendedLatency(coordOf(bank)) +
        roundTripInjection);
    bd.bank = static_cast<double>(bankCycles);
    bd.queueWait = static_cast<double>(latency) - bd.wire - bd.bank;
    return bd;
}

void
SnucaCache::accessFunctional(Addr block_addr, mem::AccessType type)
{
    int bank = bankOf(block_addr);
    auto &array = arrays[static_cast<std::size_t>(bank)];
    Addr frame_addr = block_addr >> __builtin_ctz(cfg.banks);
    ++useCounter;
    auto way = array.lookup(frame_addr);
    if (way) {
        array.touch(frame_addr, *way, useCounter, isWrite(type));
        return;
    }
    array.insert(frame_addr, useCounter, isWrite(type));
}

bool
SnucaCache::saveWarmState(std::ostream &os) const
{
    mem::warm::putU64(os, useCounter);
    mem::warm::putU32(os, static_cast<std::uint32_t>(arrays.size()));
    for (const auto &array : arrays)
        mem::warm::writeArray(os, array);
    return true;
}

bool
SnucaCache::loadWarmState(std::istream &is)
{
    std::uint64_t counter = 0;
    std::uint32_t banks = 0;
    if (!mem::warm::getU64(is, counter) ||
        !mem::warm::getU32(is, banks) || banks != arrays.size())
        return false;
    for (auto &array : arrays)
        if (!mem::warm::readArray(is, array))
            return false;
    useCounter = counter;
    return true;
}

void
SnucaCache::handleRead(Txn *t, Tick arrival)
{
    const Addr block_addr = t->blockAddr;
    const int bank = t->bank;
    auto &array = arrays[static_cast<std::size_t>(bank)];
    Addr frame_addr = block_addr >> __builtin_ctz(cfg.banks);
    Tick start = bankPorts[static_cast<std::size_t>(bank)].reserve(
        arrival, bankCycles);
    Tick done = start + bankCycles;
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::bank, csprintf("bank{}", bank), start,
                   done, trace::tid::bankBase + bank, t->req);
    }

    auto way = array.lookup(frame_addr);
    if (way) {
        ++hits;
        ++useCounter;
        array.touch(frame_addr, *way, useCounter, false);
        sendHitResponse(t, done);
        return;
    }

    // Miss: a short response tells the controller to go to memory.
    // (Intentionally not CRC-retried: a corrupted "miss" notification
    // only delays the memory fetch the controller's timeout forces
    // anyway.)
    mesh.sendToController(coordOf(bank), addrFlits, done,
                          [this, t](Tick tick) {
                              Tick latency = tick - t->issue;
                              lookupLatency.sample(
                                  static_cast<double>(latency));
                              if (latency == uncontendedLatency(t->bank))
                                  ++predictableLookups;
                              handleMiss(t, tick);
                          });
}

void
SnucaCache::sendHitResponse(Txn *t, Tick done)
{
    mesh.sendToController(coordOf(t->bank), dataFlits(cfg.flitBits),
                          done,
                          [this, t](Tick tail) { receiveHit(t, tail); });
}

void
SnucaCache::receiveHit(Txn *t, Tick tail)
{
    const int bank = t->bank;
    Tick first_word = tail - (dataFlits(cfg.flitBits) - 1);
    if (t->healthyFirst == 0)
        t->healthyFirst = first_word;
    if (injector) {
        first_word += static_cast<Tick>(injector->config().crcCycles);
        if (injector->messageError(bank)) {
            bool can_retry =
                t->attempt < injector->config().maxRetries &&
                first_word - t->issue <=
                    static_cast<Tick>(injector->config().requestTimeout);
            if (can_retry) {
                ++linkRetries;
                Tick redo = first_word + injector->backoff(t->attempt);
                Tick start = bankPorts[static_cast<std::size_t>(bank)]
                                 .reserve(redo, bankCycles);
                ++t->attempt;
                sendHitResponse(t, start + bankCycles);
                return;
            }
            // Retry budget or timeout exhausted: count it and deliver
            // anyway (the end-to-end ECC recovers the payload; only
            // the timing penalty matters here).
            ++linkTimeouts;
        }
    }
    Tick latency = first_word - t->issue;
    lookupLatency.sample(static_cast<double>(latency));
    if (latency == uncontendedLatency(bank))
        ++predictableLookups;
    trace::LatencyBreakdown bd = onChipBreakdown(bank, latency);
    // Move the CRC/retry surcharge out of the contention residual so
    // the components still sum to the latency.
    double fault_cycles = static_cast<double>(first_word - t->healthyFirst);
    bd.queueWait -= fault_cycles;
    bd.fault = fault_cycles;
    recordBreakdown(bd);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::l2, csprintf("hit {}", t->blockAddr),
                   t->issue, first_word, trace::tid::l2, t->req);
    }
    respond(t, first_word);
}

void
SnucaCache::handleMiss(Txn *t, Tick miss_time)
{
    ++misses;
    TLSIM_DPRINTF(L2, "t={} snuca2 miss block {}", miss_time,
                  t->blockAddr);
    t->bd = onChipBreakdown(t->bank, miss_time - t->issue);
    t->missTime = miss_time;
    dram.read(t->blockAddr, miss_time,
              [this, t](Tick ready) { receiveFill(t, ready); });
}

void
SnucaCache::receiveFill(Txn *t, Tick ready)
{
    t->bd.dram = static_cast<double>(ready - t->missTime);
    recordBreakdown(t->bd);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::l2, csprintf("miss {}", t->blockAddr),
                   t->issue, ready, trace::tid::l2, t->req);
    }
    // Deliver to the requester and install in parallel.
    const Addr block_addr = t->blockAddr;
    const int bank = t->bank;
    respond(t, ready);
    ++inserts;
    mesh.sendToBank(coordOf(bank), dataFlits(cfg.flitBits), ready,
                    [this, block_addr](Tick arrival) {
                        installBlock(block_addr, bankOf(block_addr),
                                     arrival, false);
                    });
}

void
SnucaCache::installBlock(Addr block_addr, int bank, Tick now, bool dirty)
{
    auto &array = arrays[static_cast<std::size_t>(bank)];
    Addr frame_addr = block_addr >> __builtin_ctz(cfg.banks);
    bankPorts[static_cast<std::size_t>(bank)].reserve(now, bankCycles);

    ++useCounter;
    auto way = array.lookup(frame_addr);
    if (way) {
        array.touch(frame_addr, *way, useCounter, dirty);
        return;
    }
    auto evicted = array.insert(frame_addr, useCounter, dirty);
    if (evicted && evicted->dirty) {
        ++writebacksToMemory;
        Addr victim_addr =
            (evicted->blockAddr << __builtin_ctz(cfg.banks)) |
            static_cast<Addr>(bank);
        int flits = dataFlits(cfg.flitBits);
        mesh.sendToController(coordOf(bank), flits, now,
                              [this, victim_addr](Tick tick) {
                                  dram.write(victim_addr, tick);
                              });
    }
}

void
SnucaCache::beginMeasurement()
{
    mesh.resetStats();
    for (auto &port : bankPorts)
        port.resetStats();
}

void
SnucaCache::syncStats()
{
    linkBusyCycles = static_cast<double>(mesh.totalBusyCycles());
    networkEnergy = mesh.energyConsumed();
    degradedRequests = static_cast<double>(mesh.degradedHopCount());
}

void
SnucaCache::dumpFaultDiagnostic() const
{
    warn("snuca2: fault diagnostic ({} banks, {} degraded hops, "
         "mesh busy {} cycles)",
         cfg.banks, mesh.degradedHopCount(), mesh.totalBusyCycles());
    int hot_bank = 0;
    std::uint64_t hot_busy = 0;
    for (int b = 0; b < cfg.banks; ++b) {
        const auto &port = bankPorts[static_cast<std::size_t>(b)];
        if (port.busyCycles() > hot_busy) {
            hot_busy = port.busyCycles();
            hot_bank = b;
        }
    }
    for (int b = 0; b < cfg.banks; ++b) {
        const auto &port = bankPorts[static_cast<std::size_t>(b)];
        warn("  bank {}: port free at t={} ({} busy cycles, {} "
             "messages){}",
             b, port.freeAt(), port.busyCycles(), port.messageCount(),
             b == hot_bank ? " [hottest bank]" : "");
    }
}

namespace
{

const char *const snucaOptions[] = {nullptr};

const l2::Registrar registerSnuca{
    "SNUCA2", [](const l2::BuildContext &ctx) {
        l2::rejectUnknownOptions("SNUCA2", ctx.options, snucaOptions);
        return std::make_unique<SnucaCache>(ctx.eq, ctx.parent,
                                            ctx.dram, ctx.tech,
                                            SnucaConfig{},
                                            ctx.injector);
    }};

} // namespace

} // namespace nuca
} // namespace tlsim
