#include "mem/dram.hh"

#include "mem/memregistry.hh"
#include "sim/prof/prof.hh"
#include "sim/trace/debug.hh"
#include "sim/trace/tracesink.hh"

namespace tlsim
{
namespace mem
{

Dram::Dram(EventQueue &eq, stats::StatGroup *parent, Cycles latency_,
           int max_outstanding)
    : MemBackend(eq, parent), latency(latency_),
      maxOutstanding(max_outstanding)
{}

void
Dram::read(Addr block_addr, Tick now, RespCallback cb)
{
    prof::Scope prof_scope("dram:read");
    TLSIM_DPRINTF(Dram, "t={} read block {} ({} in service)", now,
                  block_addr, outstanding);
    ++reads;
    waiting.push_back(Pending{now, std::move(cb)});
    startNext(now);
}

void
Dram::write(Addr block_addr, Tick now)
{
    prof::Scope prof_scope("dram:write");
    TLSIM_DPRINTF(Dram, "t={} write block {} ({} in service)", now,
                  block_addr, outstanding);
    ++writes;
    waiting.push_back(Pending{now, RespCallback{}});
    startNext(now);
}

void
Dram::startNext(Tick now)
{
    while (outstanding < maxOutstanding && !waiting.empty()) {
        Pending pending = std::move(waiting.front());
        waiting.pop_front();
        queueDelay.sample(static_cast<double>(now - pending.ready));
        ++outstanding;
        Tick done = now + latency;
        if (auto *sink = trace::TraceSink::active()) {
            if (now > pending.ready) {
                sink->span(trace::cat::dram, "queued", pending.ready,
                           now, trace::tid::dram);
            }
            sink->span(trace::cat::dram,
                       pending.cb ? "read" : "write", now, done,
                       trace::tid::dram);
        }
        RespCallback cb = std::move(pending.cb);
        FinishEvent *ev = finishEvents.acquire(*this);
        ev->cb = std::move(cb);
        eventq.schedule(ev, done);
    }
}

void
Dram::FinishEvent::process()
{
    Tick t = when();
    RespCallback done_cb = std::move(cb);
    cb = nullptr;
    owner.finishEvents.release(this);
    owner.finish(t, done_cb);
}

void
Dram::finish(Tick now, const RespCallback &cb)
{
    --outstanding;
    if (cb)
        cb(now);
    startNext(now);
}

/**
 * Registration hook called from memregistry.cc (see the WHOLE_ARCHIVE
 * note there). Options: "latency" (cycles, default 300) and
 * "maxOutstanding" (slots, default 8) — the paper Table 3 machine.
 */
void
registerFixedMemBackend()
{
    static const char *const known[] = {"latency", "maxOutstanding",
                                        nullptr};
    static const MemRegistrar registrar{
        "fixed", [](const MemBuildContext &ctx) {
            conf::rejectUnknownOptions("memory backend 'fixed'",
                                       ctx.options, known);
            auto latency = static_cast<Cycles>(
                conf::optionOr(ctx.options, "latency", 300.0));
            int slots = static_cast<int>(
                conf::optionOr(ctx.options, "maxOutstanding", 8.0));
            return std::make_unique<Dram>(ctx.eq, ctx.parent, latency,
                                          slots);
        }};
}

} // namespace mem
} // namespace tlsim
