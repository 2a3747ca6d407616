#include "tlc/tlccache.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "mem/l2registry.hh"
#include "mem/warmstate.hh"
#include "phys/geometry.hh"
#include "phys/physcache.hh"
#include "phys/pulse.hh"
#include "phys/rcwire.hh"
#include "sim/prof/prof.hh"
#include "sim/trace/debug.hh"
#include "sim/trace/tracesink.hh"

namespace tlsim
{
namespace tlc
{

namespace
{

int
ceilDiv(int a, int b)
{
    return (a + b - 1) / b;
}

/** Address bits carried by a request (set index + tag info + cmd). */
constexpr int requestBits = 48;

} // namespace

TlcCache::TlcCache(EventQueue &eq, stats::StatGroup *parent,
                   mem::MemBackend &dram, const phys::Technology &tech,
                   const TlcConfig &config, fault::Injector *injector_)
    : mem::L2Cache(config.name, eq, parent, dram), cfg(config),
      floorplan(tech, config),
      bankModel(tech, config.bankBytes, config.ways, mem::blockBytes),
      bankCycles(bankModel.accessCycles()),
      downLinks(static_cast<std::size_t>(config.pairs())),
      upLinks(static_cast<std::size_t>(config.pairs())),
      bankPorts(static_cast<std::size_t>(config.banks)),
      injector(injector_),
      multiMatches(this, "multi_matches",
                   "lookups with multiple partial-tag matches"),
      falseMatches(this, "false_matches",
                   "partial-tag matches that failed the full-tag "
                   "comparison"),
      eccRetries(this, "ecc_retries",
                 "responses re-requested after an end-to-end ECC "
                 "failure")
{
    if (metrics::spatialEnabled) {
        bankBusyHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_bank_busy",
            "bank-port busy cycles per time window per bank",
            static_cast<std::size_t>(cfg.banks));
        bankWaitHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_bank_wait",
            "bank-port queueing cycles per time window per bank",
            static_cast<std::size_t>(cfg.banks));
        std::size_t link_cells =
            2 * static_cast<std::size_t>(cfg.pairs());
        linkBusyHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_link_busy",
            "TL link busy cycles per time window per link "
            "(down 2p, up 2p+1)",
            link_cells);
        linkWaitHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_link_wait",
            "TL link queueing cycles per time window per link "
            "(down 2p, up 2p+1)",
            link_cells);
        for (int b = 0; b < cfg.banks; ++b) {
            bankPorts[static_cast<std::size_t>(b)].attachTelemetry(
                bankBusyHeatmap.get(), bankWaitHeatmap.get(),
                static_cast<std::size_t>(b));
        }
        for (int p = 0; p < cfg.pairs(); ++p) {
            downLinks[static_cast<std::size_t>(p)].attachTelemetry(
                linkBusyHeatmap.get(), linkWaitHeatmap.get(),
                static_cast<std::size_t>(downLinkId(p)));
            upLinks[static_cast<std::size_t>(p)].attachTelemetry(
                linkBusyHeatmap.get(), linkWaitHeatmap.get(),
                static_cast<std::size_t>(upLinkId(p)));
        }
    }

    const int block_bits = mem::blockBytes * 8;
    const int slice_bits = block_bits / cfg.banksPerBlock;
    reqCycles = ceilDiv(std::min(requestBits, 8 * cfg.downBits),
                        cfg.downBits);
    int resp_payload =
        slice_bits + (cfg.banksPerBlock > 1 ? cfg.highTagBits : 0);
    respCycles = ceilDiv(resp_payload, cfg.upBits);
    dataDownCycles = ceilDiv(slice_bits, cfg.downBits);
    members.resize(static_cast<std::size_t>(cfg.banksPerBlock));
    writeArrivals.resize(static_cast<std::size_t>(cfg.banksPerBlock));

    std::uint32_t sets = static_cast<std::uint32_t>(
        cfg.capacity() /
        (static_cast<std::uint64_t>(cfg.groups()) * cfg.ways *
         mem::blockBytes));
    arrays.reserve(static_cast<std::size_t>(cfg.groups()));
    for (int g = 0; g < cfg.groups(); ++g)
        arrays.emplace_back(sets, cfg.ways);

    if (injector) {
        // Degraded-mode fallback: a conventional repeated-RC bundle
        // routed alongside each pair's transmission lines, clamped to
        // never beat the lines it replaces.
        const phys::WireGeometry rc_geom = phys::conventionalGlobalWire();
        rcFallback.resize(static_cast<std::size_t>(cfg.pairs()));
        rcOneWay.resize(static_cast<std::size_t>(cfg.pairs()));
        for (int p = 0; p < cfg.pairs(); ++p) {
            double seconds = phys::PhysCache::instance().rcDelay(
                tech, rc_geom, floorplan.pair(p).length);
            Tick cyc = static_cast<Tick>(
                std::ceil(seconds / tech.cycleTime()));
            rcOneWay[static_cast<std::size_t>(p)] = std::max(
                cyc, static_cast<Tick>(floorplan.oneWayCycles(p)));
        }
        if (injector->config().deriveFromMargin) {
            // Weight each pair's transient error rate by its pulse
            // simulator signal-integrity slack (amplitude and width
            // relative to the paper's >=75% Vdd / >=40% cycle
            // requirements): marginal long lines fault up to 8x more
            // than comfortable short ones. Weights are fixed before
            // simulation starts, keeping the fault stream a pure
            // function of the spec.
            for (int p = 0; p < cfg.pairs(); ++p) {
                const PairLayout &lay = floorplan.pair(p);
                const phys::TransmissionLineSpec &spec =
                    phys::specForLength(lay.length);
                phys::PulseResult pr = phys::PhysCache::instance().pulse(
                    tech, spec.geometry, lay.length);
                double amp_slack = pr.peakAmplitude / 0.75;
                double width_slack =
                    pr.pulseWidth / (0.40 * tech.cycleTime());
                double margin =
                    std::min(amp_slack, width_slack) - 1.0;
                double weight =
                    margin <= 0.0
                        ? 8.0
                        : 1.0 + 7.0 * std::exp(-8.0 * margin);
                injector->setLinkWeight(downLinkId(p), weight);
                injector->setLinkWeight(upLinkId(p), weight);
            }
        }
    }
}

Cycles
TlcCache::uncontendedLoadLatency(Addr block_addr) const
{
    int group = groupOf(block_addr);
    Cycles worst = 0;
    for (int m = 0; m < cfg.banksPerBlock; ++m) {
        int pair = pairOf(bankOf(group, m));
        Cycles one_way =
            static_cast<Cycles>(floorplan.oneWayCycles(pair));
        worst = std::max(worst, 2 * one_way + bankCycles);
    }
    return worst;
}

std::pair<Cycles, Cycles>
TlcCache::latencyRange() const
{
    Cycles lo = ~Cycles(0), hi = 0;
    for (int g = 0; g < cfg.groups(); ++g) {
        Cycles lat = uncontendedLoadLatency(static_cast<Addr>(g));
        lo = std::min(lo, lat);
        hi = std::max(hi, lat);
    }
    return {lo, hi};
}

void
TlcCache::sendRequests(int group, Tick now, int req_cycles,
                       std::uint64_t req)
{
    auto *sink = trace::TraceSink::active();
    for (int m = 0; m < cfg.banksPerBlock; ++m) {
        int bank = bankOf(group, m);
        int pair = pairOf(bank);
        const PairLayout &lay = floorplan.pair(pair);
        Tick one_way = static_cast<Tick>(floorplan.oneWayCycles(pair));
        Tick start = downLinks[static_cast<std::size_t>(pair)].reserve(
            now, static_cast<Cycles>(req_cycles));
        Tick arrival = start + static_cast<Tick>(req_cycles - 1) +
                       one_way;
        Tick bank_start =
            bankPorts[static_cast<std::size_t>(bank)].reserve(
                arrival, static_cast<Cycles>(bankCycles));
        MemberTiming &timing = members[static_cast<std::size_t>(m)];
        timing = MemberTiming{};
        timing.done = bank_start + bankCycles;
        timing.parts.queueWait +=
            static_cast<double>((start - now) + (bank_start - arrival));
        timing.parts.wire +=
            static_cast<double>((req_cycles - 1) + one_way);
        timing.parts.bank += static_cast<double>(bankCycles);
        networkEnergy += req_cycles * cfg.downBits * 0.5 *
                         lay.energyPerBit;
        if (sink) {
            sink->span(trace::cat::noc, csprintf("req pair{}", pair),
                       start, arrival, trace::tid::nocBase + pair, req);
            sink->span(trace::cat::bank, csprintf("bank{}", bank),
                       bank_start, timing.done,
                       trace::tid::bankBase + bank, req);
        }
    }
}

Tick
TlcCache::collectResponses(int group, int resp_cycles, int payload_bits,
                           std::uint64_t req,
                           trace::LatencyBreakdown &critical)
{
    auto *sink = trace::TraceSink::active();
    Tick resolved = 0;
    for (int m = 0; m < cfg.banksPerBlock; ++m) {
        int bank = bankOf(group, m);
        int pair = pairOf(bank);
        const PairLayout &lay = floorplan.pair(pair);
        Tick one_way = static_cast<Tick>(floorplan.oneWayCycles(pair));
        MemberTiming &timing = members[static_cast<std::size_t>(m)];
        Tick start = upLinks[static_cast<std::size_t>(pair)].reserve(
            timing.done, static_cast<Cycles>(resp_cycles));
        Tick first_word = start + one_way;
        timing.firstWord = first_word;
        timing.parts.queueWait +=
            static_cast<double>(start - timing.done);
        timing.parts.wire += static_cast<double>(one_way);
        if (first_word > resolved) {
            resolved = first_word;
            critical = timing.parts;
        }
        networkEnergy += payload_bits * 0.5 * lay.energyPerBit;
        if (sink) {
            sink->span(trace::cat::noc, csprintf("resp pair{}", pair),
                       start, first_word, trace::tid::nocUpBase + pair,
                       req);
        }
    }
    return resolved;
}

void
TlcCache::access(const mem::MemRequest &l2_req, mem::RespCallback cb)
{
    const Addr block_addr = l2_req.blockAddr;
    const Tick now = l2_req.issued;

    prof::Scope prof_scope("tlc:access");
    ++requests;
    if (l2_req.type == mem::AccessType::Store) {
        banksAccessed.sample(static_cast<double>(cfg.banksPerBlock));
        handleWrite(block_addr, now, false);
        cb(now);
        return;
    }
    ++demandRequests;
    banksAccessed.sample(static_cast<double>(cfg.banksPerBlock));
    handleLoad(block_addr, now, l2_req.id, std::move(cb));
}

void
TlcCache::accessFunctional(Addr block_addr, mem::AccessType type)
{
    int group = groupOf(block_addr);
    auto &array = arrays[static_cast<std::size_t>(group)];
    Addr frame = frameAddr(block_addr);
    ++useCounter;
    auto way = array.lookup(frame);
    if (way) {
        array.touch(frame, *way, useCounter, mem::isWrite(type));
        return;
    }
    array.insert(frame, useCounter, mem::isWrite(type));
}

bool
TlcCache::saveWarmState(std::ostream &os) const
{
    mem::warm::putU64(os, useCounter);
    mem::warm::putU32(os, static_cast<std::uint32_t>(arrays.size()));
    for (const auto &array : arrays)
        mem::warm::writeArray(os, array);
    return true;
}

bool
TlcCache::loadWarmState(std::istream &is)
{
    std::uint64_t counter = 0;
    std::uint32_t groups = 0;
    if (!mem::warm::getU64(is, counter) ||
        !mem::warm::getU32(is, groups) || groups != arrays.size())
        return false;
    for (auto &array : arrays)
        if (!mem::warm::readArray(is, array))
            return false;
    useCounter = counter;
    return true;
}

void
TlcCache::handleLoad(Addr block_addr, Tick now, std::uint64_t req,
                     mem::RespCallback cb)
{
    int group = groupOf(block_addr);

    if (injector) {
        // A stuck member bank never responds: the controller's
        // request timer expires and the read degrades to memory.
        for (int m = 0; m < cfg.banksPerBlock; ++m) {
            if (injector->bankStuck(bankOf(group, m), now)) {
                ++linkTimeouts;
                Tick timeout = static_cast<Tick>(
                    injector->config().requestTimeout);
                trace::LatencyBreakdown stuck_bd;
                stuck_bd.fault = static_cast<double>(timeout);
                lookupLatency.sample(static_cast<double>(timeout));
                handleMiss(block_addr, now, now + timeout, req,
                           stuck_bd, std::move(cb));
                return;
            }
        }
        if (groupDegraded(group, now)) {
            handleDegradedLoad(block_addr, now, req, std::move(cb));
            return;
        }
    }

    auto &array = arrays[static_cast<std::size_t>(group)];
    Addr frame = frameAddr(block_addr);

    auto way = array.lookup(frame);
    int ptag_matches =
        cfg.banksPerBlock > 1
            ? array.partialTagMatches(frame, cfg.partialTagBits)
            : (way ? 1 : 0);

    TLSIM_DPRINTF(L2, "t={} {} load block {} group {} ({} ptag "
                  "matches)", now, cfg.name, block_addr, group,
                  ptag_matches);

    sendRequests(group, now, reqCycles, req);
    const int slice_bits =
        mem::blockBytes * 8 / cfg.banksPerBlock +
        (cfg.banksPerBlock > 1 ? cfg.highTagBits : 0);

    trace::LatencyBreakdown bd;
    Tick resolved;
    bool second_round = false;
    if (ptag_matches == 0) {
        // Every bank reports "no match" in a single beat.
        resolved = collectResponses(group, 1, 8, req, bd);
    } else if (ptag_matches == 1 || cfg.banksPerBlock == 1) {
        // The common case: banks return the (single) matching way's
        // data slice plus its high tag bits.
        resolved =
            collectResponses(group, respCycles, slice_bits, req, bd);
        if (!way)
            ++falseMatches;
    } else {
        // Multiple partial-tag matches: banks return only the high
        // tag bits of all matching ways; if the block is resident the
        // controller issues a second request for the chosen way.
        ++multiMatches;
        resolved = collectResponses(group, 1,
                                    ptag_matches * cfg.highTagBits,
                                    req, bd);
        if (way) {
            resolved = secondRoundTrip(group, resolved, req, bd);
            second_round = true;
        }
    }

    // End-to-end ECC: a corrupted response is detected at the
    // controller and fetched again (paper Section 4).
    if (cfg.lineErrorRate > 0.0 &&
        errorRng.chance(cfg.lineErrorRate)) {
        ++eccRetries;
        resolved = secondRoundTrip(group, resolved, req, bd);
        second_round = true;
    }

    // Injected transient link errors: each member's response slice is
    // CRC-checked at the controller; corruption on any up link NACKs
    // the whole read, which is re-requested after exponential backoff
    // until the retry budget or the request timeout runs out. The CRC
    // surcharge and every retry round trip land in the breakdown's
    // fault component.
    bool give_up = false;
    if (injector) {
        const Tick crc =
            static_cast<Tick>(injector->config().crcCycles);
        auto response_corrupted = [&]() {
            bool bad = false;
            for (int m = 0; m < cfg.banksPerBlock; ++m) {
                bad |= injector->messageError(
                    upLinkId(pairOf(bankOf(group, m))));
            }
            return bad;
        };
        bd.fault += static_cast<double>(crc);
        Tick post = resolved + crc;
        int attempt = 0;
        while (response_corrupted()) {
            if (attempt >= injector->config().maxRetries ||
                post - now > injector->config().requestTimeout) {
                give_up = true;
                break;
            }
            ++linkRetries;
            Tick retry_at = post + injector->backoff(attempt);
            trace::LatencyBreakdown scratch;
            Tick redo = secondRoundTrip(group, retry_at, req, scratch);
            bd.fault += static_cast<double>((redo - post) + crc);
            post = redo + crc;
            ++attempt;
        }
        resolved = post;
        if (attempt > 0)
            second_round = true;
    }

    Tick latency = resolved - now;
    lookupLatency.sample(static_cast<double>(latency));
    if (!second_round && latency == uncontendedLoadLatency(block_addr))
        ++predictableLookups;

    if (way && !give_up) {
        ++hits;
        ++useCounter;
        array.touch(frame, *way, useCounter, false);
        TLSIM_DPRINTF(L2, "t={} {} hit block {} latency {}", now,
                      cfg.name, block_addr, latency);
        recordBreakdown(bd);
        if (auto *sink = trace::TraceSink::active()) {
            sink->span(trace::cat::l2,
                       csprintf("{} hit {}", cfg.name, block_addr),
                       now, resolved, trace::tid::l2, req);
        }
        // Deliver through the event queue so the L1 observes the fill
        // at the correct simulated time (keeping its MSHR open until
        // then for coalescing).
        eventq.scheduleCallback(resolved, std::move(cb));
    } else {
        if (give_up)
            ++linkTimeouts;
        handleMiss(block_addr, now, resolved, req, bd, std::move(cb));
    }
}

bool
TlcCache::groupDegraded(int group, Tick now) const
{
    if (!injector || !injector->hasDeadLinks())
        return false;
    for (int m = 0; m < cfg.banksPerBlock; ++m) {
        int pair = pairOf(bankOf(group, m));
        if (injector->linkDead(downLinkId(pair), now) ||
            injector->linkDead(upLinkId(pair), now))
            return true;
    }
    return false;
}

void
TlcCache::handleDegradedLoad(Addr block_addr, Tick now,
                             std::uint64_t req, mem::RespCallback cb)
{
    ++degradedRequests;
    int group = groupOf(block_addr);
    auto &array = arrays[static_cast<std::size_t>(group)];
    Addr frame = frameAddr(block_addr);
    auto way = array.lookup(frame);

    TLSIM_DPRINTF(L2, "t={} {} degraded load block {} group {}", now,
                  cfg.name, block_addr, group);

    // Every member leg runs over its pair's RC fallback bundle (the
    // dead pairs lost their transmission lines; the group's healthy
    // members follow so the slices stay in lockstep). Excess over the
    // healthy path is the breakdown's fault component.
    trace::LatencyBreakdown bd;
    Tick resolved = 0;
    for (int m = 0; m < cfg.banksPerBlock; ++m) {
        int bank = bankOf(group, m);
        int pair = pairOf(bank);
        auto pi = static_cast<std::size_t>(pair);
        // Abandon reservations queued on the dead lines: fallback
        // traffic must not inherit a dead link's backlog.
        if (injector->linkDead(downLinkId(pair), now))
            downLinks[pi].resetHorizon(now);
        if (injector->linkDead(upLinkId(pair), now))
            upLinks[pi].resetHorizon(now);
        Tick one_way = rcOneWay[pi];
        Tick start = rcFallback[pi].reserve(
            now, static_cast<Cycles>(reqCycles + respCycles));
        Tick arrival =
            start + static_cast<Tick>(reqCycles - 1) + one_way;
        Tick bank_start =
            bankPorts[static_cast<std::size_t>(bank)].reserve(
                arrival, static_cast<Cycles>(bankCycles));
        Tick done = bank_start + static_cast<Tick>(bankCycles);
        Tick first_word = done + one_way;
        if (first_word > resolved) {
            resolved = first_word;
            Tick healthy =
                static_cast<Tick>(floorplan.oneWayCycles(pair));
            trace::LatencyBreakdown parts;
            parts.queueWait = static_cast<double>(
                (start - now) + (bank_start - arrival));
            parts.wire =
                static_cast<double>((reqCycles - 1) + 2 * healthy);
            parts.bank = static_cast<double>(bankCycles);
            parts.fault = static_cast<double>(first_word - now) -
                          parts.queueWait - parts.wire - parts.bank;
            bd = parts;
        }
    }

    Tick latency = resolved - now;
    lookupLatency.sample(static_cast<double>(latency));
    if (way) {
        ++hits;
        ++useCounter;
        array.touch(frame, *way, useCounter, false);
        recordBreakdown(bd);
        eventq.scheduleCallback(resolved, std::move(cb));
    } else {
        handleMiss(block_addr, now, resolved, req, bd, std::move(cb));
    }
}

Tick
TlcCache::secondRoundTrip(int group, Tick start, std::uint64_t req,
                          trace::LatencyBreakdown &bd)
{
    sendRequests(group, start, reqCycles, req);
    const int slice_bits = mem::blockBytes * 8 / cfg.banksPerBlock;
    trace::LatencyBreakdown round;
    Tick resolved =
        collectResponses(group, respCycles, slice_bits, req, round);
    bd += round;
    return resolved;
}

void
TlcCache::handleWrite(Addr block_addr, Tick now, bool is_fill)
{
    int group = groupOf(block_addr);
    auto &array = arrays[static_cast<std::size_t>(group)];
    Addr frame = frameAddr(block_addr);
    const int slice_bits = mem::blockBytes * 8 / cfg.banksPerBlock;

    // Push the slices down to the banks (no tag comparison needed:
    // the TLC designs are exclusive write-back caches).
    for (int m = 0; m < cfg.banksPerBlock; ++m) {
        int bank = bankOf(group, m);
        int pair = pairOf(bank);
        auto pi = static_cast<std::size_t>(pair);
        const PairLayout &lay = floorplan.pair(pair);
        bool dead = injector &&
                    injector->linkDead(downLinkId(pair), now);
        Tick one_way =
            dead ? rcOneWay[pi]
                 : static_cast<Tick>(floorplan.oneWayCycles(pair));
        if (dead)
            downLinks[pi].resetHorizon(now);
        noc::Link &down = dead ? rcFallback[pi] : downLinks[pi];
        Tick start = down.reserve(
            now, static_cast<Cycles>(reqCycles + dataDownCycles));
        Tick arrival =
            start + static_cast<Tick>(reqCycles + dataDownCycles - 1) +
            one_way;
        bankPorts[static_cast<std::size_t>(bank)].reserve(
            arrival, static_cast<Cycles>(bankCycles));
        writeArrivals[static_cast<std::size_t>(m)] = arrival;
        networkEnergy += (requestBits + slice_bits) * 0.5 *
                         lay.energyPerBit;
    }

    ++useCounter;
    auto way = array.lookup(frame);
    if (way) {
        array.touch(frame, *way, useCounter, !is_fill);
        return;
    }

    if (is_fill)
        ++inserts;
    auto evicted = array.insert(frame, useCounter, !is_fill);
    if (evicted && evicted->dirty) {
        ++writebacksToMemory;
        // Victim slices travel up to the controller, then to memory.
        Tick victim_ready = 0;
        for (int m = 0; m < cfg.banksPerBlock; ++m) {
            int bank = bankOf(group, m);
            int pair = pairOf(bank);
            auto pi = static_cast<std::size_t>(pair);
            const PairLayout &lay = floorplan.pair(pair);
            Tick avail = writeArrivals[static_cast<std::size_t>(m)] +
                         static_cast<Tick>(bankCycles);
            bool dead = injector &&
                        injector->linkDead(upLinkId(pair), avail);
            Tick one_way =
                dead ? rcOneWay[pi]
                     : static_cast<Tick>(floorplan.oneWayCycles(pair));
            if (dead)
                upLinks[pi].resetHorizon(avail);
            noc::Link &up = dead ? rcFallback[pi] : upLinks[pi];
            Tick start =
                up.reserve(avail, static_cast<Cycles>(respCycles));
            Tick done = start + static_cast<Tick>(respCycles - 1) +
                        one_way;
            victim_ready = std::max(victim_ready, done);
            networkEnergy += slice_bits * 0.5 * lay.energyPerBit;
        }
        Addr victim_addr =
            (evicted->blockAddr << __builtin_ctz(cfg.groups())) |
            static_cast<Addr>(group);
        // [this, victim_addr] fits the std::function small buffer;
        // the tick arrives as the callback argument.
        eventq.scheduleCallback(victim_ready,
                                [this, victim_addr](Tick t) {
                                    dram.write(victim_addr, t);
                                });
    }
}

void
TlcCache::handleMiss(Addr block_addr, Tick issue, Tick miss_time,
                     std::uint64_t req, trace::LatencyBreakdown bd,
                     mem::RespCallback cb)
{
    ++misses;
    TLSIM_DPRINTF(L2, "t={} {} miss block {}", miss_time, cfg.name,
                  block_addr);
    Txn *t = txns.acquire();
    t->blockAddr = block_addr;
    t->issue = issue;
    t->missTime = miss_time;
    t->req = req;
    t->bd = bd;
    t->cb = std::move(cb);
    dram.read(block_addr, miss_time,
              [this, t](Tick ready) { receiveFill(t, ready); });
}

void
TlcCache::receiveFill(Txn *t, Tick ready)
{
    t->bd.dram = static_cast<double>(ready - t->missTime);
    recordBreakdown(t->bd);
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::l2,
                   csprintf("{} miss {}", cfg.name, t->blockAddr),
                   t->issue, ready, trace::tid::l2, t->req);
    }
    const Addr block_addr = t->blockAddr;
    mem::RespCallback cb = std::move(t->cb);
    txns.release(t);
    cb(ready);
    handleWrite(block_addr, ready, true);
}

void
TlcCache::beginMeasurement()
{
    for (auto &link : downLinks)
        link.resetStats();
    for (auto &link : upLinks)
        link.resetStats();
    for (auto &port : bankPorts)
        port.resetStats();
    for (auto &link : rcFallback)
        link.resetStats();
}

void
TlcCache::dumpFaultDiagnostic() const
{
    warn("{}: fault diagnostic ({} pairs, {} banks)", cfg.name,
         cfg.pairs(), cfg.banks);
    // Utilization counters tell a deadlock report *which* resource is
    // hot: the stalled path is almost always behind the link or bank
    // with the most accumulated busy cycles.
    int hot_pair = 0, hot_bank = 0;
    std::uint64_t hot_pair_busy = 0, hot_bank_busy = 0;
    for (int p = 0; p < cfg.pairs(); ++p) {
        auto pi = static_cast<std::size_t>(p);
        std::uint64_t pair_busy = downLinks[pi].busyCycles() +
                                  upLinks[pi].busyCycles();
        if (pair_busy > hot_pair_busy) {
            hot_pair_busy = pair_busy;
            hot_pair = p;
        }
    }
    for (int b = 0; b < cfg.banks; ++b) {
        const auto &port = bankPorts[static_cast<std::size_t>(b)];
        if (port.busyCycles() > hot_bank_busy) {
            hot_bank_busy = port.busyCycles();
            hot_bank = b;
        }
    }
    for (int p = 0; p < cfg.pairs(); ++p) {
        auto pi = static_cast<std::size_t>(p);
        warn("  pair {}: down free at t={} ({} busy cycles, {} "
             "messages), up free at t={} ({} busy cycles, {} "
             "messages){}{}",
             p, downLinks[pi].freeAt(), downLinks[pi].busyCycles(),
             downLinks[pi].messageCount(), upLinks[pi].freeAt(),
             upLinks[pi].busyCycles(), upLinks[pi].messageCount(),
             rcFallback.empty()
                 ? std::string{}
                 : csprintf(", rc fallback free at t={} ({} busy "
                            "cycles, {} messages)",
                            rcFallback[pi].freeAt(),
                            rcFallback[pi].busyCycles(),
                            rcFallback[pi].messageCount()),
             p == hot_pair ? " [hottest pair]" : "");
    }
    for (int b = 0; b < cfg.banks; ++b) {
        const auto &port = bankPorts[static_cast<std::size_t>(b)];
        warn("  bank {}: port free at t={} ({} busy cycles, {} "
             "messages){}",
             b, port.freeAt(), port.busyCycles(), port.messageCount(),
             b == hot_bank ? " [hottest bank]" : "");
    }
}

void
TlcCache::syncStats()
{
    std::uint64_t busy = 0;
    for (const auto &link : downLinks)
        busy += link.busyCycles();
    for (const auto &link : upLinks)
        busy += link.busyCycles();
    linkBusyCycles = static_cast<double>(busy);
}

namespace
{

const char *const tlcOptions[] = {"lineErrorRate", "ways",
                                  "partialTagBits", "linesPerPair",
                                  "downBits", "upBits", nullptr};

/** Apply registry option overrides onto a TLC family preset. */
TlcConfig
applyTlcOptions(TlcConfig cfg, const l2::BuildContext &ctx)
{
    l2::rejectUnknownOptions(cfg.name, ctx.options, tlcOptions);
    cfg.lineErrorRate =
        l2::optionOr(ctx.options, "lineErrorRate", cfg.lineErrorRate);
    cfg.ways = static_cast<int>(
        l2::optionOr(ctx.options, "ways", cfg.ways));
    cfg.partialTagBits = static_cast<int>(l2::optionOr(
        ctx.options, "partialTagBits", cfg.partialTagBits));
    cfg.linesPerPair = static_cast<int>(
        l2::optionOr(ctx.options, "linesPerPair", cfg.linesPerPair));
    cfg.downBits = static_cast<int>(
        l2::optionOr(ctx.options, "downBits", cfg.downBits));
    cfg.upBits = static_cast<int>(
        l2::optionOr(ctx.options, "upBits", cfg.upBits));
    return cfg;
}

l2::Factory
tlcFactory(TlcConfig (*preset)())
{
    return [preset](const l2::BuildContext &ctx) {
        return std::make_unique<TlcCache>(
            ctx.eq, ctx.parent, ctx.dram, ctx.tech,
            applyTlcOptions(preset(), ctx), ctx.injector);
    };
}

const l2::Registrar registerTlcBase{"TLC", tlcFactory(baseTlc)};
const l2::Registrar registerTlcOpt1000{"TLCopt1000",
                                       tlcFactory(tlcOpt1000)};
const l2::Registrar registerTlcOpt500{"TLCopt500",
                                      tlcFactory(tlcOpt500)};
const l2::Registrar registerTlcOpt350{"TLCopt350",
                                      tlcFactory(tlcOpt350)};

} // namespace

} // namespace tlc
} // namespace tlsim
