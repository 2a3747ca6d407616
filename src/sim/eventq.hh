/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders Event objects by (tick, priority,
 * insertion sequence); ties are broken deterministically so runs are
 * exactly reproducible. Events are either long-lived Event subclasses
 * that are rescheduled repeatedly without allocation, or pooled
 * one-shot callbacks (EventQueue::scheduleCallback): firing returns
 * the TickCallbackEvent to the queue's freelist instead of the
 * allocator. Every heap entry is live — deschedule removes the entry
 * at once — so the queue never follows a pointer to an event its
 * owner has already destroyed.
 */

#ifndef TLSIM_SIM_EVENTQ_HH
#define TLSIM_SIM_EVENTQ_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/logging.hh"
#include "sim/prof/prof.hh"
#include "sim/trace/debug.hh"
#include "sim/trace/observed.hh"
#include "sim/trace/tracesink.hh"
#include "sim/types.hh"

namespace tlsim
{

class EventQueue;

/** Debug hook invoked just before a past-scheduling panic. */
inline void (*scheduleViolationHook)() = nullptr;

/**
 * Base class for all schedulable events.
 *
 * An Event may be scheduled on at most one queue at a time. The queue
 * never owns an Event subclass; lifetime is the scheduler's
 * responsibility. An event must be descheduled (or have fired) before
 * it is destroyed.
 */
class Event
{
  public:
    /** Default scheduling priority; lower value runs first at a tick. */
    static constexpr int defaultPriority = 0;

    explicit Event(int priority = defaultPriority)
        : _priority(priority)
    {}

    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when the event's tick is reached. */
    virtual void process() = 0;

    /** Human-readable name for diagnostics. */
    virtual const char *name() const { return "Event"; }

    /** True if the event sits in a queue awaiting dispatch. */
    bool scheduled() const { return _scheduled; }

    /** Tick at which the event will fire (valid while scheduled). */
    Tick when() const { return _when; }

    /** Scheduling priority; lower runs first within a tick. */
    int priority() const { return _priority; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    int _priority;
    bool _scheduled = false;
};

/**
 * Pooled one-shot event that hands its fire tick to the callback.
 *
 * The memory system's dominant scheduling pattern is "run cb(t) at
 * tick t": delivering a response, completing a DRAM access, retiring
 * a writeback. The event stores the std::function<void(Tick)>
 * directly (moving one transfers its buffer without allocating) and
 * passes when() at dispatch, so the callback needs no copy of the
 * tick. Only the owning queue creates, schedules and frees these.
 */
class TickCallbackEvent : public Event
{
  public:
    void process() override; // defined after EventQueue

    const char *name() const override { return "TickCallbackEvent"; }

  private:
    friend class EventQueue;

    explicit TickCallbackEvent(EventQueue &owner_) : owner(owner_) {}

    std::function<void(Tick)> func;
    EventQueue &owner;
};

/** Deterministic discrete-event queue. */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick now() const { return curTick; }

    /** Number of events pending. */
    std::size_t size() const { return heap.size(); }

    /** True when no events remain. */
    bool empty() const { return heap.empty(); }

    /**
     * Schedule an event at an absolute tick >= now().
     * @param event Event to schedule; must not already be scheduled.
     * @param when Absolute tick at which to fire.
     */
    void
    schedule(Event *event, Tick when)
    {
        TLSIM_ASSERT(event != nullptr, "null event");
        TLSIM_ASSERT(!event->_scheduled, "event '{}' already scheduled",
                     event->name());
        if (when < curTick && scheduleViolationHook)
            scheduleViolationHook();
        TLSIM_ASSERT(when >= curTick,
                     "scheduling event '{}' at {} in the past (now {})",
                     event->name(), when, curTick);
        if (trace::observed()) [[unlikely]]
            observeSchedule(event, when);
        event->_when = when;
        event->_scheduled = true;
        heap.push_back(
            Entry{when, event, nextSequence++, event->_priority});
        std::push_heap(heap.begin(), heap.end(), Later{});
    }

    /**
     * Remove a scheduled event from the queue without firing it. The
     * entry leaves the heap at once (O(n): a linear find and a
     * re-heapify), so the event may be destroyed right after. Pop
     * order is unchanged: (when, priority, sequence) is a total
     * order, which make_heap re-establishes exactly.
     */
    void
    deschedule(Event *event)
    {
        TLSIM_ASSERT(event && event->_scheduled,
                     "descheduling an unscheduled event");
        auto it = std::find_if(heap.begin(), heap.end(),
                               [event](const Entry &entry) {
                                   return entry.event == event;
                               });
        TLSIM_ASSERT(it != heap.end(), "event '{}' is not in this queue",
                     event->name());
        heap.erase(it);
        std::make_heap(heap.begin(), heap.end(), Later{});
        event->_scheduled = false;
    }

    /**
     * Schedule a pooled one-shot that receives its fire tick. The
     * callback is moved into the event (no closure, no allocation
     * once the pool is warm); the event returns to the pool as it
     * fires.
     */
    void
    scheduleCallback(Tick when, std::function<void(Tick)> fn,
                     int priority = Event::defaultPriority)
    {
        TickCallbackEvent *ev;
        if (callbackPool.empty()) {
            callbackEvents.emplace_back(new TickCallbackEvent(*this));
            ev = callbackEvents.back().get();
        } else {
            ev = callbackPool.back();
            callbackPool.pop_back();
        }
        ev->func = std::move(fn);
        ev->_priority = priority;
        try {
            schedule(ev, when);
        } catch (...) {
            release(ev); // past-tick panic must not strand the event
            throw;
        }
    }

    /**
     * Execute events with tick <= limit, in order; afterwards
     * now() == max(limit, previous now()).
     * @return Number of events processed.
     */
    std::uint64_t
    advanceTo(Tick limit)
    {
        // Nothing due by limit: the heap top holds the least `when`.
        if (heap.empty() || heap.front().when > limit) {
            if (limit > curTick)
                curTick = limit;
            return 0;
        }
        // Profiling costs nothing per event even when on: sampling
        // is tick-strided, so the dispatch loop runs unmodified
        // between sample points and the stop tick rides the loop's
        // existing limit comparison. When on but with no sample due
        // within this span, the cost is one TLS load and a compare.
        // Latching enabled() here is safe — it only flips at quiesce
        // points, never from inside an event.
        if (prof::enabled()) [[unlikely]] {
            prof::ThreadState &ts = prof::threadState();
            if (ts.nextSampleTick <= limit)
                return advanceProfiled(limit, ts);
        }
        return advanceSpan(limit);
    }

    /** Run until the queue drains or maxTick is reached. */
    std::uint64_t
    run(Tick max_tick = MaxTick)
    {
        std::uint64_t processed = 0;
        while (true) {
            Tick next = nextTick();
            if (next == MaxTick || next > max_tick)
                break;
            processed += advanceTo(next);
        }
        if (max_tick != MaxTick && max_tick > curTick)
            curTick = max_tick;
        return processed;
    }

    /** Tick of the earliest event, or MaxTick when empty. */
    Tick
    nextTick() const
    {
        return heap.empty() ? MaxTick : heap.front().when;
    }

    /** TickCallbackEvents ever allocated by scheduleCallback. */
    std::size_t callbackAllocated() const { return callbackEvents.size(); }

    /** TickCallbackEvents currently resting in the freelist. */
    std::size_t callbackPoolSize() const { return callbackPool.size(); }

    /** TickCallbackEvents in flight (scheduled, not yet fired). */
    std::size_t
    callbackOutstanding() const
    {
        return callbackEvents.size() - callbackPool.size();
    }

  private:
    friend class TickCallbackEvent;

    struct Entry
    {
        Tick when;
        Event *event;
        std::uint64_t sequence;
        int priority;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.sequence > b.sequence;
        }
    };

    /** Return a pooled one-shot to the freelist. */
    void
    release(TickCallbackEvent *ev)
    {
        ev->func = nullptr;
        callbackPool.push_back(ev);
    }

    /**
     * Pop the top entry and mark its event unscheduled, ready to
     * dispatch at now() == its tick.
     */
    Event *
    popNext()
    {
        Event *ev = heap.front().event;
        curTick = heap.front().when;
        std::pop_heap(heap.begin(), heap.end(), Later{});
        heap.pop_back();
        ev->_scheduled = false;
        if (trace::observed()) [[unlikely]]
            observeDispatch(ev);
        return ev;
    }

    /**
     * Observation bodies live out of the schedule/dispatch hot paths
     * (cold + noinline) so that, with observation off, each site
     * costs one load of trace::observed() and a never-taken branch.
     */
    [[gnu::cold]] [[gnu::noinline]] void
    observeSchedule(const Event *event, Tick when) const
    {
        TLSIM_DPRINTF(EventQ, "t={} schedule '{}' at {}", curTick,
                      event->name(), when);
    }

    /**
     * The dispatch loop proper; no profiling state. The cumulative
     * dispatchedCount update is one add per call — paid identically
     * whether or not the profiler is on — and gives the sampler its
     * events-between-samples weights for free.
     */
    std::uint64_t
    advanceSpan(Tick limit)
    {
        std::uint64_t processed = 0;
        while (!heap.empty() && heap.front().when <= limit) {
            popNext()->process();
            ++processed;
        }
        dispatchedCount += processed;
        if (limit > curTick)
            curTick = limit;
        return processed;
    }

    /**
     * advanceTo() with the profiler recording and a sample due: run
     * plain spans up to each sample tick, then time exactly one
     * dispatch and attribute it — weighted by the dispatches on this
     * queue since the previous sample — to its event type. The
     * stride between samples adapts toward prof::dispatchSampleTarget
     * events per sample.
     */
    [[gnu::noinline]] std::uint64_t
    advanceProfiled(Tick limit, prof::ThreadState &ts)
    {
        std::uint64_t processed = 0;
        while (ts.nextSampleTick <= limit) {
            processed +=
                advanceSpan(std::min<Tick>(ts.nextSampleTick, limit));
            if (dispatchOneSampled(limit, ts)) {
                ++processed;
            } else {
                // Nothing left to sample before limit; re-arm past
                // it (saturating: limit may be MaxTick) so later
                // spans run unprofiled until the stride elapses.
                ts.nextSampleTick =
                    limit > MaxTick - ts.sampleStrideTicks
                        ? MaxTick
                        : limit + ts.sampleStrideTicks;
                break;
            }
        }
        processed += advanceSpan(limit);
        return processed;
    }

    /**
     * Dispatch the next event at tick <= limit bracketed by two clock
     * reads, attributing its time scaled by the dispatches since
     * @p ts's previous sample on this queue. name() is captured
     * before process(): pooled events may be reused inside it.
     * @return false if no event remains at tick <= limit.
     */
    bool
    dispatchOneSampled(Tick limit, prof::ThreadState &ts)
    {
        if (heap.empty() || heap.front().when > limit)
            return false;
        Event *ev = popNext();
        const char *name = ev->name();
        std::uint64_t start = prof::nowNs();
        ev->process();
        std::uint64_t ns = prof::nowNs() - start;
        ++dispatchedCount;
        // Dispatches since the last sample on this queue; falls back
        // to 1 when the thread last sampled another queue.
        std::uint64_t weight = 1;
        if (ts.sampleQueue == this &&
            dispatchedCount > ts.sampleBaseDispatched)
            weight = dispatchedCount - ts.sampleBaseDispatched;
        prof::recordDispatch(name, ns, weight);
        ts.sampleQueue = this;
        ts.sampleBaseDispatched = dispatchedCount;
        ts.noteSample(curTick, weight);
        return true;
    }

    [[gnu::cold]] [[gnu::noinline]] void
    observeDispatch(const Event *ev) const
    {
        TLSIM_DPRINTF(EventQ, "t={} dispatch '{}'", curTick,
                      ev->name());
        if (auto *sink = trace::TraceSink::active()) {
            sink->span(trace::cat::eventq, ev->name(), curTick,
                       curTick, trace::tid::eventq);
        }
    }

    // Member order is deliberate: the per-schedule/per-dispatch state
    // (current tick, sequence counter) sits together right behind the
    // heap vector so the hot paths touch as few cache lines as
    // possible; the pool and bookkeeping counters follow.
    std::vector<Entry> heap;
    Tick curTick = 0;
    std::uint64_t nextSequence = 0;
    std::vector<TickCallbackEvent *> callbackPool;
    /** Cumulative dispatched events; weights profiler samples. */
    std::uint64_t dispatchedCount = 0;
    /** Every pooled one-shot this queue made; frees them at teardown. */
    std::vector<std::unique_ptr<TickCallbackEvent>> callbackEvents;
};

inline void
TickCallbackEvent::process()
{
    // Capture the fire tick and the callable before releasing: fn()
    // may schedule a callback that reuses this very event.
    Tick t = when();
    auto fn = std::move(func);
    owner.release(this);
    fn(t);
}

} // namespace tlsim

#endif // TLSIM_SIM_EVENTQ_HH
