#include "mem/ddr.hh"

#include <algorithm>

#include "mem/memregistry.hh"
#include "sim/fault/injector.hh"
#include "sim/logging.hh"
#include "sim/prof/prof.hh"
#include "sim/trace/debug.hh"
#include "sim/trace/tracesink.hh"

namespace tlsim
{
namespace mem
{

DdrBackend::DdrBackend(EventQueue &eq, stats::StatGroup *parent,
                       const Params &params, fault::Injector *injector_)
    : MemBackend(eq, parent),
      rowHits(this, "row_hits", "accesses hitting an open row buffer"),
      rowMisses(this, "row_misses",
                "accesses to a precharged (closed) bank"),
      rowConflicts(this, "row_conflicts",
                   "accesses that had to close another open row"),
      refreshes(this, "refreshes", "all-bank refresh operations"),
      stuckBankAccesses(this, "stuck_bank_accesses",
                        "accesses delayed by a stuck-at DRAM bank"),
      queueLatency(this, "lat_queue",
                   "per-request cycles queued at the controller before "
                   "the bank command issued",
                   0.0, 600.0, 60),
      bankLatency(this, "lat_bank",
                  "per-request DRAM bank cycles (activate/precharge/"
                  "column access)",
                  0.0, 600.0, 60),
      busLatency(this, "lat_bus",
                 "per-request channel data-bus cycles",
                 0.0, 600.0, 60),
      p(params), injector(injector_)
{
    TLSIM_ASSERT(p.channels >= 1, "ddr: need at least one channel");
    TLSIM_ASSERT(p.ranksPerChannel >= 1, "ddr: need at least one rank");
    TLSIM_ASSERT(p.banksPerRank >= 1, "ddr: need at least one bank");
    TLSIM_ASSERT(p.queueDepth >= 1, "ddr: queueDepth must be positive");
    TLSIM_ASSERT(p.tBurst >= 1, "ddr: tBurst must be positive");
    TLSIM_ASSERT(p.rowBytes >= static_cast<int>(blockBytes) &&
                     p.rowBytes % static_cast<int>(blockBytes) == 0,
                 "ddr: rowBytes must be a multiple of the {} B block",
                 blockBytes);

    banksPerChan = p.ranksPerChannel * p.banksPerRank;
    blocksPerRow = static_cast<std::uint64_t>(p.rowBytes) / blockBytes;

    channels.resize(static_cast<std::size_t>(p.channels));
    for (Channel &ch : channels) {
        ch.banks.resize(static_cast<std::size_t>(banksPerChan));
        ch.queue.reserve(static_cast<std::size_t>(p.queueDepth));
        ch.nextRefreshAt = p.tREFI; // 0 disables refresh entirely
    }

    if (metrics::spatialEnabled) {
        bankBusyHeatmap = std::make_unique<metrics::Heatmap>(
            this, "heatmap_dram_bank_busy",
            "busy cycles per DRAM bank (channel-major) per window",
            static_cast<std::size_t>(p.channels * banksPerChan));
    }
}

void
DdrBackend::read(Addr block_addr, Tick now, RespCallback cb)
{
    prof::Scope prof_scope("dram:read");
    TLSIM_DPRINTF(Dram, "t={} ddr read block {} ({} outstanding)", now,
                  block_addr, outstanding);
    ++reads;
    enqueue(Cmd{block_addr, 0, 0, now, std::move(cb)}, now);
}

void
DdrBackend::write(Addr block_addr, Tick now)
{
    prof::Scope prof_scope("dram:write");
    TLSIM_DPRINTF(Dram, "t={} ddr write block {} ({} outstanding)", now,
                  block_addr, outstanding);
    ++writes;
    enqueue(Cmd{block_addr, 0, 0, now, RespCallback{}}, now);
}

void
DdrBackend::enqueue(Cmd cmd, Tick now)
{
    // Address map (block granularity): channel bits lowest for
    // bus-level parallelism on streams, then the column within a row
    // (so consecutive blocks of a channel share a row and hit its
    // buffer), then bank, then row.
    auto ch_idx = static_cast<int>(cmd.block %
                                   static_cast<Addr>(p.channels));
    Addr rest = cmd.block / static_cast<Addr>(p.channels);
    Addr in_bank = rest / blocksPerRow;
    cmd.bank = static_cast<int>(in_bank %
                                static_cast<Addr>(banksPerChan));
    cmd.row = static_cast<std::int64_t>(
        in_bank / static_cast<Addr>(banksPerChan));

    Channel &ch = channels[static_cast<std::size_t>(ch_idx)];
    applyRefresh(ch, now);
    ++outstanding;
    if (static_cast<int>(ch.queue.size()) < p.queueDepth)
        ch.queue.push_back(std::move(cmd));
    else
        ch.spill.push_back(std::move(cmd));
    tryIssue(ch_idx, now);
}

void
DdrBackend::applyRefresh(Channel &ch, Tick now)
{
    if (p.tREFI == 0 || now < ch.nextRefreshAt)
        return;
    // O(1) catch-up across idle gaps: fold every elapsed refresh into
    // the counter, but charge only the last one's tRFC blocking (the
    // earlier ones completed in the past on an idle channel).
    std::uint64_t due = (now - ch.nextRefreshAt) / p.tREFI + 1;
    Tick last = ch.nextRefreshAt + (due - 1) * p.tREFI;
    refreshes += static_cast<double>(due);
    for (Bank &bank : ch.banks) {
        bank.readyAt = std::max(bank.readyAt, last) + p.tRFC;
        bank.openRow = -1;
    }
    ch.nextRefreshAt = last + p.tREFI;
}

int
DdrBackend::pickCandidate(const Channel &ch, Tick now) const
{
    if (p.fcfs) {
        const Cmd &head = ch.queue.front();
        auto bank_idx = static_cast<std::size_t>(head.bank);
        return ch.banks[bank_idx].readyAt <= now ? 0 : -1;
    }
    // FR-FCFS: oldest ready row hit first, else oldest ready command.
    int first_ready = -1;
    for (int i = 0; i < static_cast<int>(ch.queue.size()); ++i) {
        const Cmd &cmd = ch.queue[static_cast<std::size_t>(i)];
        const Bank &bank = ch.banks[static_cast<std::size_t>(cmd.bank)];
        if (bank.readyAt > now)
            continue;
        if (!p.closedPage && bank.openRow == cmd.row)
            return i;
        if (first_ready < 0)
            first_ready = i;
    }
    return first_ready;
}

void
DdrBackend::tryIssue(int ch_idx, Tick now)
{
    Channel &ch = channels[static_cast<std::size_t>(ch_idx)];
    applyRefresh(ch, now);
    if (ch.queue.empty())
        return;
    if (ch.busFreeAt > now) {
        scheduleKick(ch_idx, ch.busFreeAt);
        return;
    }
    int idx = pickCandidate(ch, now);
    if (idx < 0) {
        // Every candidate's bank is busy (or refreshing); wake when
        // the earliest relevant bank frees and re-evaluate.
        Tick wake = MaxTick;
        if (p.fcfs) {
            const Cmd &head = ch.queue.front();
            wake = ch.banks[static_cast<std::size_t>(head.bank)].readyAt;
        } else {
            for (const Cmd &cmd : ch.queue) {
                wake = std::min(
                    wake,
                    ch.banks[static_cast<std::size_t>(cmd.bank)].readyAt);
            }
        }
        TLSIM_ASSERT(wake > now && wake != MaxTick,
                     "ddr: stalled channel has no wakeup");
        scheduleKick(ch_idx, wake);
        return;
    }

    Cmd cmd = std::move(ch.queue[static_cast<std::size_t>(idx)]);
    ch.queue.erase(ch.queue.begin() + idx);
    if (!ch.spill.empty()) {
        ch.queue.push_back(std::move(ch.spill.front()));
        ch.spill.pop_front();
    }
    serviceCmd(ch_idx, ch, std::move(cmd), now);
    if (!ch.queue.empty())
        scheduleKick(ch_idx, ch.busFreeAt);
}

void
DdrBackend::serviceCmd(int ch_idx, Channel &ch, Cmd cmd, Tick now)
{
    Bank &bank = ch.banks[static_cast<std::size_t>(cmd.bank)];
    TLSIM_ASSERT(bank.readyAt <= now && ch.busFreeAt <= now,
                 "ddr: issued command to a busy bank or bus");

    Cycles bank_cycles;
    if (!p.closedPage && bank.openRow == cmd.row) {
        ++rowHits;
        bank_cycles = p.tCAS;
    } else if (bank.openRow < 0) {
        ++rowMisses;
        bank_cycles = p.tRCD + p.tCAS;
    } else {
        ++rowConflicts;
        bank_cycles = p.tRP + p.tRCD + p.tCAS;
    }
    if (injector &&
        injector->dramBankStuck(globalBank(ch_idx, cmd.bank), now)) {
        ++stuckBankAccesses;
        bank_cycles += p.stuckBankPenalty;
    }

    Tick bank_done = now + bank_cycles;
    Tick finish = bank_done + p.tBurst;
    bank.readyAt = finish;
    bank.openRow = p.closedPage ? -1 : cmd.row;
    ch.busFreeAt = finish;

    // Exact-sum latency partition: queue + bank + bus == finish -
    // arrival for every request, read or write.
    queueDelay.sample(static_cast<double>(now - cmd.arrival));
    queueLatency.sample(static_cast<double>(now - cmd.arrival));
    bankLatency.sample(static_cast<double>(bank_cycles));
    busLatency.sample(static_cast<double>(p.tBurst));

    if (bankBusyHeatmap) {
        bankBusyHeatmap->add(
            static_cast<std::size_t>(globalBank(ch_idx, cmd.bank)), now,
            finish - now);
    }

    if (auto *sink = trace::TraceSink::active()) {
        if (now > cmd.arrival) {
            sink->span(trace::cat::dram, "queued", cmd.arrival, now,
                       trace::tid::dram);
        }
        sink->span(trace::cat::dram, cmd.cb ? "read" : "write", now,
                   finish, trace::tid::dram);
    }

    FinishEvent *ev = finishEvents.acquire(*this);
    ev->cb = std::move(cmd.cb);
    eventq.schedule(ev, finish);
}

void
DdrBackend::FinishEvent::process()
{
    // Back to the pool first: the callback may issue another read.
    RespCallback done_cb = std::move(cb);
    owner.finishEvents.release(this);
    --owner.outstanding;
    if (done_cb)
        done_cb(when());
}

void
DdrBackend::scheduleKick(int ch_idx, Tick when)
{
    Channel &ch = channels[static_cast<std::size_t>(ch_idx)];
    if (ch.pendingKickAt <= when)
        return; // an earlier wakeup will re-evaluate anyway
    ch.pendingKickAt = when;
    // The 16-byte capture fits std::function's local buffer; the
    // kick tick arrives as the fire tick.
    eventq.scheduleCallback(when, [this, ch_idx](Tick at) {
        Channel &chan = channels[static_cast<std::size_t>(ch_idx)];
        if (chan.pendingKickAt == at)
            chan.pendingKickAt = MaxTick;
        tryIssue(ch_idx, at);
    });
}

/**
 * Registration hook called from memregistry.cc (see the WHOLE_ARCHIVE
 * note there). Every Params field is exposed as an option under its
 * own name; booleans take 0/1.
 */
void
registerDdrMemBackend()
{
    static const char *const known[] = {
        "channels", "ranksPerChannel", "banksPerRank", "rowBytes",
        "tRCD", "tRP", "tCAS", "tBurst", "tREFI", "tRFC",
        "queueDepth", "fcfs", "closedPage", "stuckBankPenalty",
        nullptr};
    static const MemRegistrar registrar{
        "ddr", [](const MemBuildContext &ctx) {
            conf::rejectUnknownOptions("memory backend 'ddr'",
                                       ctx.options, known);
            DdrBackend::Params p;
            auto intOpt = [&](const char *key, int fallback) {
                return static_cast<int>(conf::optionOr(
                    ctx.options, key, static_cast<double>(fallback)));
            };
            auto cycOpt = [&](const char *key, Cycles fallback) {
                return static_cast<Cycles>(conf::optionOr(
                    ctx.options, key, static_cast<double>(fallback)));
            };
            p.channels = intOpt("channels", p.channels);
            p.ranksPerChannel =
                intOpt("ranksPerChannel", p.ranksPerChannel);
            p.banksPerRank = intOpt("banksPerRank", p.banksPerRank);
            p.rowBytes = intOpt("rowBytes", p.rowBytes);
            p.tRCD = cycOpt("tRCD", p.tRCD);
            p.tRP = cycOpt("tRP", p.tRP);
            p.tCAS = cycOpt("tCAS", p.tCAS);
            p.tBurst = cycOpt("tBurst", p.tBurst);
            p.tREFI = cycOpt("tREFI", p.tREFI);
            p.tRFC = cycOpt("tRFC", p.tRFC);
            p.queueDepth = intOpt("queueDepth", p.queueDepth);
            p.fcfs = conf::optionOr(ctx.options, "fcfs", 0.0) != 0.0;
            p.closedPage =
                conf::optionOr(ctx.options, "closedPage", 0.0) != 0.0;
            p.stuckBankPenalty =
                cycOpt("stuckBankPenalty", p.stuckBankPenalty);
            return std::make_unique<DdrBackend>(ctx.eq, ctx.parent, p,
                                                ctx.injector);
        }};
}

} // namespace mem
} // namespace tlsim
