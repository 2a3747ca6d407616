#include "nuca/dnuca.hh"

#include <algorithm>
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

DnucaCache::DnucaCache(EventQueue &eq, stats::StatGroup *parent,
                       mem::MemBackend &dram, const phys::Technology &tech,
                       const DnucaConfig &config,
                       fault::Injector *injector)
    : mem::L2Cache("dnuca", eq, parent, dram), cfg(config),
      mesh(eq, tech,
           noc::MeshConfig{static_cast<int>(config.bankSets.banksPerSet),
                           static_cast<int>(config.bankSets.numBankSets),
                           config.hopLatency, config.flitBits,
                           config.hopLength}),
      bankModel(tech, config.bankBytes,
                static_cast<int>(config.bankSets.waysPerBank),
                mem::blockBytes),
      bankCycles(bankModel.accessCycles()),
      array(config.bankSets),
      bankPorts(static_cast<std::size_t>(config.bankSets.banksPerSet) *
                config.bankSets.numBankSets),
      closeHits(this, "close_hits", "hits in the closest banks"),
      promotions(this, "promotions", "generational promotion swaps"),
      fastMisses(this, "fast_misses",
                 "misses resolved by the partial tags alone"),
      searches(this, "searches", "banks searched beyond the closest")
{
    // Dead mesh links detour (2x hop latency); the detour count folds
    // into degraded_requests via syncStats.
    mesh.setInjector(injector);

    if (metrics::spatialEnabled) {
        std::size_t banks =
            static_cast<std::size_t>(cfg.bankSets.banksPerSet) *
            cfg.bankSets.numBankSets;
        bankBusyHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_bank_busy",
            "bank-port busy cycles per time window per bank", banks);
        bankWaitHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_bank_wait",
            "bank-port queueing cycles per time window per bank",
            banks);
        linkBusyHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_link_busy",
            "mesh link busy cycles per time window per link",
            static_cast<std::size_t>(mesh.linkCount()));
        linkWaitHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_link_wait",
            "mesh link queueing cycles per time window per link",
            static_cast<std::size_t>(mesh.linkCount()));
        for (std::size_t b = 0; b < banks; ++b) {
            bankPorts[b].attachTelemetry(bankBusyHeatmap.get(),
                                         bankWaitHeatmap.get(), b);
        }
        mesh.attachTelemetry(linkBusyHeatmap.get(),
                             linkWaitHeatmap.get());
    }
}

Cycles
DnucaCache::uncontendedLatency(std::uint32_t bank_row,
                               std::uint32_t column) const
{
    return 2 * mesh.uncontendedLatency(coordOf(bank_row, column)) +
           bankCycles;
}

std::pair<Cycles, Cycles>
DnucaCache::latencyRange() const
{
    Cycles lo = ~Cycles(0), hi = 0;
    for (std::uint32_t row = 0; row < cfg.bankSets.banksPerSet; ++row) {
        for (std::uint32_t col = 0; col < cfg.bankSets.numBankSets;
             ++col) {
            Cycles lat = uncontendedLatency(row, col);
            lo = std::min(lo, lat);
            hi = std::max(hi, lat);
        }
    }
    return {lo, hi};
}

int
DnucaCache::linkCount() const
{
    return mesh.linkCount();
}

void
DnucaCache::access(const mem::MemRequest &l2_req, mem::RespCallback cb)
{
    const Addr block_addr = l2_req.blockAddr;
    const mem::AccessType type = l2_req.type;
    const Tick now = l2_req.issued;

    prof::Scope prof_scope("dnuca:access");
    ++requests;

    if (type == mem::AccessType::Store) {
        auto loc = array.lookup(block_addr);
        banksAccessed.sample(1.0);
        if (loc) {
            // Write to the holding bank; no promotion for writebacks.
            ++useCounter;
            array.touch(*loc, useCounter, true);
            int flits = dataFlits(cfg.flitBits);
            std::uint32_t row = loc->bank, col = loc->bankSet;
            mesh.sendToBank(coordOf(row, col), flits, now,
                            [this, row, col](Tick arrival) {
                                bankPort(row, col).reserve(arrival,
                                                           bankCycles);
                            });
        } else {
            installAtTail(block_addr, now, true);
        }
        cb(now);
        return;
    }

    ++demandRequests;
    std::uint32_t column = array.bankSetOf(block_addr);
    std::uint32_t probed = std::min(cfg.closeBanks,
                                    cfg.bankSets.banksPerSet);
    // The holder and the partial-tag candidates, in one pass.
    SetProbe found = array.probe(block_addr, probed);
    const std::optional<BankLocation> &loc = found.holder;
    TLSIM_DPRINTF(L2, "t={} dnuca load block {} column {}", now,
                  block_addr, column);

    // Phase 1: the two closest banks and the partial-tag structure
    // are probed in parallel. The close-bank probe is one multicast
    // address message riding up the column, dropping a copy at each
    // of the closest banks.
    Tick close_resolved = now + cfg.partialTagLatency;
    bool close_hit = loc && loc->bank < probed;

    noc::RowSet probe_rows;
    for (std::uint32_t row = 0; row < probed; ++row) {
        Tick resp = now + uncontendedLatency(row, column);
        if (!(loc && loc->bank == row))
            close_resolved = std::max(close_resolved, resp);
        probe_rows.add(static_cast<int>(row));
    }

    Txn *t = newTxn(block_addr, column, loc, now, l2_req.id,
                    std::move(cb));
    if (close_hit) {
        ++hits;
        ++closeHits;
        banksAccessed.sample(static_cast<double>(probed));
        t->refs += probe_rows.size();
        mesh.multicastToColumn(
            static_cast<int>(column), probe_rows, addrFlits, now,
            [this, t](int row_i, Tick arrival) {
                auto row = static_cast<std::uint32_t>(row_i);
                Tick start =
                    bankPort(row, t->column).reserve(arrival, bankCycles);
                if (t->loc->bank == row)
                    deliverHit(t, start + bankCycles);
                unref(t);
            });
        return;
    }

    // Close miss: the probed banks answer with short miss notices.
    mesh.multicastToColumn(static_cast<int>(column), probe_rows,
                           addrFlits, now,
                           [this, column](int row, Tick arrival) {
                               missNotice(static_cast<std::uint32_t>(row),
                                          column, arrival);
                           });

    // Consult the partial tags.
    if (found.candidates.empty()) {
        // Fast miss: no other bank can hold the block.
        TLSIM_ASSERT(!loc, "holder not found by partial tags");
        ++fastMisses;
        banksAccessed.sample(static_cast<double>(probed));
        Tick latency = close_resolved - now;
        lookupLatency.sample(static_cast<double>(latency));
        if (latency == uncontendedLatency(0, column))
            ++predictableLookups;
        handleMiss(t, close_resolved);
        return;
    }

    banksAccessed.sample(static_cast<double>(probed) +
                         static_cast<double>(found.candidates.size()));
    // The centralized partial tags name the candidate banks at
    // now + partialTagLatency; the search multicast launches then,
    // without waiting for the close banks' miss notices. A miss is
    // still only *declared* once the close banks have answered.
    searchCandidates(t, found.candidates, now + cfg.partialTagLatency,
                     close_resolved);
}

DnucaCache::Txn *
DnucaCache::newTxn(Addr block_addr, std::uint32_t column,
                   const std::optional<BankLocation> &loc, Tick issue,
                   std::uint64_t req, mem::RespCallback cb)
{
    Txn *t = txns.acquire();
    t->blockAddr = block_addr;
    t->column = column;
    t->loc = loc;
    t->issue = issue;
    t->req = req;
    t->refs = 1;
    t->cb = std::move(cb);
    return t;
}

void
DnucaCache::unref(Txn *t)
{
    if (--t->refs == 0)
        txns.release(t);
}

void
DnucaCache::respond(Txn *t, Tick tick)
{
    mem::RespCallback cb = std::move(t->cb);
    unref(t);
    cb(tick);
}

void
DnucaCache::accessFunctional(Addr block_addr, mem::AccessType type)
{
    ++useCounter;
    auto loc = array.lookup(block_addr);
    if (loc) {
        array.touch(*loc, useCounter, mem::isWrite(type));
        if (!mem::isWrite(type) && cfg.promoteOnHit && loc->bank > 0) {
            BankLocation cur = array.promote(*loc, useCounter);
            for (std::uint32_t step = 1;
                 step < cfg.promotionDistance && cur.bank > 0; ++step) {
                cur = array.promote(cur, useCounter);
            }
        }
        return;
    }
    array.insertAt(block_addr,
                   std::min(cfg.insertionBank,
                            cfg.bankSets.banksPerSet - 1),
                   useCounter, mem::isWrite(type));
}

bool
DnucaCache::saveWarmState(std::ostream &os) const
{
    const BankSetConfig &bc = array.config();
    mem::warm::putU64(os, useCounter);
    mem::warm::putU32(os, bc.numBankSets);
    mem::warm::putU32(os, bc.setsPerBankSet);
    mem::warm::putU32(os, bc.banksPerSet);
    mem::warm::putU32(os, bc.waysPerBank);
    mem::warm::putU64(os, array.validCount());
    for (std::uint32_t bs = 0; bs < bc.numBankSets; ++bs) {
        for (std::uint32_t set = 0; set < bc.setsPerBankSet; ++set) {
            for (std::uint32_t bank = 0; bank < bc.banksPerSet;
                 ++bank) {
                for (std::uint32_t way = 0; way < bc.waysPerBank;
                     ++way) {
                    const mem::LineState &line =
                        array.frame(BankLocation{bs, set, bank, way});
                    if (!line.valid())
                        continue;
                    mem::warm::putU32(os, bs);
                    mem::warm::putU32(os, set);
                    mem::warm::putU32(os, bank);
                    mem::warm::putU32(os, way);
                    mem::warm::putU64(os, line.tag());
                    mem::warm::putU64(os, line.lastUse);
                    mem::warm::putU8(os, line.dirty() ? 1 : 0);
                }
            }
        }
    }
    return true;
}

bool
DnucaCache::loadWarmState(std::istream &is)
{
    const BankSetConfig &bc = array.config();
    std::uint64_t counter = 0, valid = 0;
    std::uint32_t bank_sets = 0, sets = 0, banks = 0, ways = 0;
    if (!mem::warm::getU64(is, counter) ||
        !mem::warm::getU32(is, bank_sets) ||
        !mem::warm::getU32(is, sets) ||
        !mem::warm::getU32(is, banks) ||
        !mem::warm::getU32(is, ways) || !mem::warm::getU64(is, valid))
        return false;
    if (bank_sets != bc.numBankSets || sets != bc.setsPerBankSet ||
        banks != bc.banksPerSet || ways != bc.waysPerBank)
        return false;
    for (std::uint32_t bs = 0; bs < bc.numBankSets; ++bs)
        for (std::uint32_t set = 0; set < bc.setsPerBankSet; ++set)
            for (std::uint32_t bank = 0; bank < bc.banksPerSet; ++bank)
                for (std::uint32_t way = 0; way < bc.waysPerBank;
                     ++way)
                    array.frame(BankLocation{bs, set, bank, way}) =
                        mem::LineState{};
    // Only what saveWarmState writes loads: frames in strictly
    // increasing (bank set, set, bank, way) order, a 0/1 dirty byte,
    // and no block twice in one bank set's set.
    std::uint64_t next_slot = 0;
    for (std::uint64_t i = 0; i < valid; ++i) {
        std::uint32_t bs = 0, set = 0, bank = 0, way = 0;
        std::uint64_t tag = 0, last_use = 0;
        std::uint8_t dirty = 0;
        if (!mem::warm::getU32(is, bs) || !mem::warm::getU32(is, set) ||
            !mem::warm::getU32(is, bank) ||
            !mem::warm::getU32(is, way) || !mem::warm::getU64(is, tag) ||
            !mem::warm::getU64(is, last_use) ||
            !mem::warm::getU8(is, dirty))
            return false;
        if (bs >= bc.numBankSets || set >= bc.setsPerBankSet ||
            bank >= bc.banksPerSet || way >= bc.waysPerBank ||
            tag > mem::LineState::maxTag || dirty > 1)
            return false;
        std::uint64_t slot =
            ((static_cast<std::uint64_t>(bs) * bc.setsPerBankSet + set) *
                 bc.banksPerSet +
             bank) *
                bc.waysPerBank +
            way;
        if (slot < next_slot)
            return false;
        next_slot = slot + 1;
        for (std::uint32_t b = 0; b <= bank; ++b)
            for (std::uint32_t w = 0; w < bc.waysPerBank; ++w)
                if (array.frame(BankLocation{bs, set, b, w}).holds(tag))
                    return false;
        mem::LineState &line =
            array.frame(BankLocation{bs, set, bank, way});
        line.fill(tag, dirty != 0);
        line.lastUse = last_use;
    }
    useCounter = counter;
    return true;
}

trace::LatencyBreakdown
DnucaCache::onChipBreakdown(std::uint32_t bank_row,
                            std::uint32_t column, Tick latency) const
{
    trace::LatencyBreakdown bd;
    bd.wire = static_cast<double>(
        2 * mesh.uncontendedLatency(coordOf(bank_row, column)));
    bd.bank = static_cast<double>(bankCycles);
    bd.queueWait = static_cast<double>(latency) - bd.wire - bd.bank;
    return bd;
}

void
DnucaCache::deliverHit(Txn *t, Tick bank_done)
{
    const BankLocation loc = *t->loc;
    ++useCounter;
    array.touch(loc, useCounter, false);

    std::uint32_t row = loc.bank, col = loc.bankSet;
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::bank,
                   csprintf("bank({},{})", row, col),
                   bank_done - bankCycles, bank_done,
                   trace::tid::bankBase + static_cast<int>(row), t->req);
    }
    mesh.sendToController(coordOf(row, col), dataFlits(cfg.flitBits),
                          bank_done,
                          [this, t](Tick tail) { receiveHit(t, tail); });

    if (cfg.promoteOnHit && loc.bank > 0)
        doPromotion(loc, bank_done);
}

void
DnucaCache::receiveHit(Txn *t, Tick tail)
{
    std::uint32_t row = t->loc->bank, col = t->loc->bankSet;
    Tick first_word = tail - (dataFlits(cfg.flitBits) - 1);
    Tick latency = first_word - t->issue;
    lookupLatency.sample(static_cast<double>(latency));
    // Schedulers predict the closest-bank hit latency.
    if (latency == uncontendedLatency(0, col))
        ++predictableLookups;
    TLSIM_DPRINTF(L2, "t={} dnuca hit bank ({},{}) latency {}",
                  t->issue, row, col, latency);
    recordBreakdown(onChipBreakdown(row, col, latency));
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::l2, "hit", t->issue, first_word,
                   trace::tid::l2, t->req);
    }
    respond(t, first_word);
}

void
DnucaCache::missNotice(std::uint32_t row, std::uint32_t column,
                       Tick arrival)
{
    Tick start = bankPort(row, column).reserve(arrival, bankCycles);
    mesh.routeToController(coordOf(row, column), addrFlits,
                           start + bankCycles);
}

void
DnucaCache::doPromotion(const BankLocation &loc, Tick now)
{
    ++promotions;
    ++useCounter;
    BankLocation dst = array.promote(loc, useCounter);
    for (std::uint32_t step = 1;
         step < cfg.promotionDistance && dst.bank > 0; ++step) {
        dst = array.promote(dst, useCounter);
    }

    // Swap traffic: one data message each way between the adjacent
    // banks. The promoted block's data was already read by the hit
    // itself; only the destination's read-and-write is a new bank
    // occupancy (the source's write of the demoted victim comes back
    // with the return message).
    int flits = dataFlits(cfg.flitBits);
    std::uint32_t col = loc.bankSet;
    noc::Coord from = coordOf(loc.bank, col);
    noc::Coord to = coordOf(dst.bank, col);
    mesh.sendBankToBank(from, to, flits, now,
                        [this, row = dst.bank, col](Tick arrival) {
                            bankPort(row, col).reserve(arrival,
                                                       bankCycles);
                        });
    mesh.sendBankToBank(to, from, flits, now,
                        [this, row = loc.bank, col](Tick arrival) {
                            bankPort(row, col).reserve(arrival,
                                                       bankCycles);
                        });
}

void
DnucaCache::searchCandidates(Txn *t, noc::RowSet candidates, Tick start,
                             Tick close_resolved)
{
    searches += static_cast<double>(candidates.size());
    const std::uint32_t column = t->column;

    // One multicast search message rides the column to the farthest
    // candidate, dropping a copy at each candidate bank in passing.
    // The holder (if resident) returns data; false positives return
    // short miss notifications.
    const std::optional<BankLocation> loc = t->loc;
    if (loc) {
        ++hits;
        t->refs += candidates.size();
        mesh.multicastToColumn(
            static_cast<int>(column), candidates, addrFlits, start,
            [this, t](int row_i, Tick arrival) {
                auto row = static_cast<std::uint32_t>(row_i);
                if (t->loc->bank == row) {
                    Tick bank_start = bankPort(row, t->column)
                                          .reserve(arrival, bankCycles);
                    deliverHit(t, bank_start + bankCycles);
                } else {
                    missNotice(row, t->column, arrival);
                }
                unref(t);
            });
        return;
    }

    mesh.multicastToColumn(static_cast<int>(column), candidates,
                           addrFlits, start,
                           [this, column](int row, Tick arrival) {
                               missNotice(static_cast<std::uint32_t>(row),
                                          column, arrival);
                           });

    // All candidates were false partial-tag matches: slow miss.
    Tick last_response = close_resolved;
    candidates.forEach([&](int row) {
        last_response = std::max(
            last_response,
            start + uncontendedLatency(static_cast<std::uint32_t>(row),
                                       column));
    });
    Tick latency = last_response - t->issue;
    lookupLatency.sample(static_cast<double>(latency));
    if (latency == uncontendedLatency(0, column))
        ++predictableLookups;
    handleMiss(t, last_response);
}

void
DnucaCache::handleMiss(Txn *t, Tick miss_time)
{
    ++misses;
    TLSIM_DPRINTF(L2, "t={} dnuca miss block {}", miss_time,
                  t->blockAddr);
    t->bd = onChipBreakdown(0, t->column, miss_time - t->issue);
    t->missTime = miss_time;
    dram.read(t->blockAddr, miss_time,
              [this, t](Tick ready) { receiveFill(t, ready); });
}

void
DnucaCache::receiveFill(Txn *t, Tick ready)
{
    t->bd.dram = static_cast<double>(ready - t->missTime);
    recordBreakdown(t->bd);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::l2, "miss", t->issue, ready,
                   trace::tid::l2, t->req);
    }
    const Addr block_addr = t->blockAddr;
    respond(t, ready);
    installAtTail(block_addr, ready, false);
}

void
DnucaCache::installAtTail(Addr block_addr, Tick now, bool dirty)
{
    ++inserts;
    ++useCounter;
    std::uint32_t tail = std::min(cfg.insertionBank,
                                  cfg.bankSets.banksPerSet - 1);
    auto evicted = array.insertAt(block_addr, tail, useCounter, dirty);

    std::uint32_t column = array.bankSetOf(block_addr);
    int flits = dataFlits(cfg.flitBits);
    mesh.sendToBank(coordOf(tail, column), flits, now,
                    [this, tail, column](Tick arrival) {
                        bankPort(tail, column).reserve(arrival,
                                                       bankCycles);
                    });

    if (evicted && evicted->dirty) {
        ++writebacksToMemory;
        Tick depart = now + mesh.uncontendedLatency(
                                coordOf(tail, column)) + bankCycles;
        mesh.sendToController(coordOf(tail, column), flits, depart,
                              [this, victim = evicted->blockAddr](
                                  Tick tick) {
                                  dram.write(victim, tick);
                              });
    }
}

void
DnucaCache::beginMeasurement()
{
    mesh.resetStats();
    for (auto &port : bankPorts)
        port.resetStats();
}

void
DnucaCache::syncStats()
{
    linkBusyCycles = static_cast<double>(mesh.totalBusyCycles());
    networkEnergy = mesh.energyConsumed();
    degradedRequests = static_cast<double>(mesh.degradedHopCount());
}

void
DnucaCache::dumpFaultDiagnostic() const
{
    std::size_t banks =
        static_cast<std::size_t>(cfg.bankSets.banksPerSet) *
        cfg.bankSets.numBankSets;
    warn("dnuca: fault diagnostic ({} banks, {} degraded hops, mesh "
         "busy {} cycles)",
         banks, mesh.degradedHopCount(), mesh.totalBusyCycles());
    std::size_t hot_bank = 0;
    std::uint64_t hot_busy = 0;
    for (std::size_t b = 0; b < banks; ++b) {
        if (bankPorts[b].busyCycles() > hot_busy) {
            hot_busy = bankPorts[b].busyCycles();
            hot_bank = b;
        }
    }
    for (std::size_t b = 0; b < banks; ++b) {
        const auto &port = bankPorts[b];
        // Quiet banks are omitted: 256 all-zero lines would bury the
        // hot resource the dump exists to expose.
        if (port.messageCount() == 0)
            continue;
        warn("  bank {}: port free at t={} ({} busy cycles, {} "
             "messages){}",
             b, port.freeAt(), port.busyCycles(), port.messageCount(),
             b == hot_bank ? " [hottest bank]" : "");
    }
}

namespace
{

const char *const dnucaOptions[] = {"promoteOnHit",
                                    "promotionDistance",
                                    "insertionBank", "closeBanks",
                                    "partialTagLatency",
                                    "partialTagBits", nullptr};

const l2::Registrar registerDnuca{
    "DNUCA", [](const l2::BuildContext &ctx) {
        l2::rejectUnknownOptions("DNUCA", ctx.options, dnucaOptions);
        DnucaConfig cfg;
        cfg.promoteOnHit =
            l2::optionOr(ctx.options, "promoteOnHit",
                         cfg.promoteOnHit ? 1.0 : 0.0) != 0.0;
        cfg.promotionDistance = static_cast<std::uint32_t>(
            l2::optionOr(ctx.options, "promotionDistance",
                         cfg.promotionDistance));
        cfg.insertionBank = static_cast<std::uint32_t>(l2::optionOr(
            ctx.options, "insertionBank", cfg.insertionBank));
        cfg.closeBanks = static_cast<std::uint32_t>(
            l2::optionOr(ctx.options, "closeBanks", cfg.closeBanks));
        cfg.partialTagLatency = static_cast<Cycles>(
            l2::optionOr(ctx.options, "partialTagLatency",
                         static_cast<double>(cfg.partialTagLatency)));
        cfg.bankSets.partialTagBits = static_cast<int>(
            l2::optionOr(ctx.options, "partialTagBits",
                         cfg.bankSets.partialTagBits));
        return std::make_unique<DnucaCache>(ctx.eq, ctx.parent,
                                            ctx.dram, ctx.tech, cfg,
                                            ctx.injector);
    }};

} // namespace

} // namespace nuca
} // namespace tlsim
