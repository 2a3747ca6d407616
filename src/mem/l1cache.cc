#include "mem/l1cache.hh"

#include "mem/warmstate.hh"
#include "sim/trace/debug.hh"
#include "sim/trace/tracesink.hh"

namespace tlsim
{
namespace mem
{

namespace
{

std::uint32_t
setsFor(std::uint64_t capacity, int ways)
{
    return static_cast<std::uint32_t>(
        capacity / (static_cast<std::uint64_t>(blockBytes) * ways));
}

} // namespace

L1Cache::L1Cache(const std::string &name, EventQueue &eq,
                 stats::StatGroup *parent, L2Cache &l2_,
                 std::uint64_t capacity_bytes, int ways,
                 Cycles hit_latency, int num_mshrs, int requester,
                 RequestIdSource *ids)
    : stats::StatGroup(name, parent), eventq(eq), l2(l2_),
      array(setsFor(capacity_bytes, ways), ways),
      hitLatency(hit_latency), numMshrs(num_mshrs),
      requesterId(requester), idSource(ids ? ids : &privateIds),
      accesses(this, "accesses", "L1 accesses"),
      hits(this, "hits", "L1 hits"),
      misses(this, "misses", "L1 misses sent to L2"),
      coalescedMisses(this, "coalesced_misses",
                      "misses merged into an existing MSHR"),
      writebacks(this, "writebacks", "dirty victims written to L2"),
      mshrStallCycles(this, "mshr_stall_cycles",
                      "cycles requests waited for a free MSHR")
{
    for (int i = 0; i < num_mshrs; ++i) {
        missEvents.emplace_back(*this);
        missEventFree.push_back(&missEvents.back());
    }
}

void
L1Cache::access(const MemRequest &req, RespCallback cb)
{
    const Addr block_addr = req.blockAddr;
    const AccessType type = req.type;
    const Tick now = req.issued;

    ++accesses;
    ++useCounter;

    auto way = array.lookup(block_addr);
    if (way) {
        ++hits;
        array.touch(block_addr, *way, useCounter, isWrite(type));
        cb(now + hitLatency);
        return;
    }

    // Miss: coalesce onto an existing MSHR if one tracks this block.
    auto it = mshrs.find(block_addr);
    if (it != mshrs.end()) {
        TLSIM_DPRINTF(L1, "t={} {} coalesce block {}", now,
                      groupName(), block_addr);
        ++coalescedMisses;
        it->second.storeMiss |= isWrite(type);
        it->second.targets.push_back(std::move(cb));
        return;
    }

    ++misses;
    if (static_cast<int>(mshrs.size()) >= numMshrs) {
        TLSIM_DPRINTF(L1, "t={} {} MSHRs full, queueing block {}", now,
                      groupName(), block_addr);
        waitQueue.push_back(
            WaitingAccess{block_addr, type, now, std::move(cb)});
        return;
    }

    TLSIM_DPRINTF(L1, "t={} {} miss block {}", now, groupName(),
                  block_addr);
    Mshr &mshr = mshrs[block_addr];
    mshr.storeMiss = isWrite(type);
    mshr.started = now;
    mshr.targets.push_back(std::move(cb));
    if (watchdog)
        watchdog->onIssue(watchdogClient, block_addr, now);
    startMiss(block_addr, type, now);
}

void
L1Cache::saveWarmState(std::ostream &os) const
{
    warm::putU64(os, useCounter);
    warm::writeArray(os, array);
}

bool
L1Cache::loadWarmState(std::istream &is)
{
    std::uint64_t counter = 0;
    if (!warm::getU64(is, counter) || !warm::readArray(is, array))
        return false;
    useCounter = counter;
    return true;
}

void
L1Cache::startMiss(Addr block_addr, AccessType type, Tick now)
{
    // The L2 request leaves after the L1 tag check.
    Tick depart = now + hitLatency;
    AccessType l2_type =
        type == AccessType::Store ? AccessType::Load : type;
    MemRequest l2_req{block_addr, l2_type, depart, requesterId,
                      idSource->next()};
    if (useTypedHotPathEvents && !missEventFree.empty()) {
        MissEvent *ev = missEventFree.back();
        missEventFree.pop_back();
        ev->req = l2_req;
        eventq.schedule(ev, depart);
    } else {
        eventq.scheduleFunc(depart,
                            [this, l2_req]() { issueMiss(l2_req); });
    }
}

void
L1Cache::issueMiss(const MemRequest &l2_req)
{
    // The fill callback captures 16 bytes and fits std::function's
    // small buffer; the request itself never hits the allocator.
    l2.access(l2_req,
              [this, block_addr = l2_req.blockAddr](Tick done) {
                  handleFill(block_addr, done);
              });
}

void
L1Cache::MissEvent::process()
{
    // Free the slot before issuing: a synchronous L2 response can
    // admit a queued access that immediately needs an event.
    MemRequest r = req;
    owner.missEventFree.push_back(this);
    owner.issueMiss(r);
}

void
L1Cache::handleFill(Addr block_addr, Tick now)
{
    auto it = mshrs.find(block_addr);
    TLSIM_ASSERT(it != mshrs.end(), "fill without MSHR");
    Mshr mshr = std::move(it->second);
    mshrs.erase(it);
    if (watchdog)
        watchdog->onComplete(watchdogClient, block_addr);

    TLSIM_DPRINTF(L1, "t={} {} fill block {} ({} targets)", now,
                  groupName(), block_addr, mshr.targets.size());
    if (auto *sink = trace::TraceSink::active()) {
        sink->span(trace::cat::l1,
                   csprintf("{} miss {}", groupName(), block_addr),
                   mshr.started, now, trace::tid::l1);
    }

    ++useCounter;
    auto evicted = array.insert(block_addr, useCounter, mshr.storeMiss);
    if (evicted && evicted->dirty) {
        ++writebacks;
        l2.access(MemRequest{evicted->blockAddr, AccessType::Store,
                             now, requesterId},
                  [](Tick) {});
    }

    for (auto &target : mshr.targets)
        target(now);

    // Admit a waiting access now that an MSHR is free. Re-run the
    // full access path: it may now hit (same block) or re-miss.
    if (!waitQueue.empty() &&
        static_cast<int>(mshrs.size()) < numMshrs) {
        WaitingAccess waiting = std::move(waitQueue.front());
        waitQueue.pop_front();
        mshrStallCycles += static_cast<double>(now - waiting.queuedAt);
        // Undo the double-count: this access was already counted.
        accesses += -1.0;
        misses += -1.0;
        access(waiting.blockAddr, waiting.type, now,
               std::move(waiting.cb));
    }
}

} // namespace mem
} // namespace tlsim
