/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders Event objects by (tick, priority,
 * insertion sequence); ties are broken deterministically so runs are
 * exactly reproducible. Events may be one-shot lambdas (see
 * EventQueue::scheduleFunc) or long-lived Event subclasses that are
 * rescheduled repeatedly without allocation. One-shot lambdas are
 * pooled per queue: firing returns the LambdaEvent to a freelist
 * instead of the allocator. The memory system's hot paths use
 * pre-allocated typed events or pooled tick callbacks only.
 */

#ifndef TLSIM_SIM_EVENTQ_HH
#define TLSIM_SIM_EVENTQ_HH

#include <algorithm>
#include <cstdint>
#include <functional>
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
 * never owns the event; lifetime is the scheduler's responsibility —
 * except for self-deleting events (LambdaEvent), which the queue
 * machinery reclaims itself.
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

    /**
     * True for events the queue machinery owns and reclaims (the
     * LambdaEvents and TickCallbackEvents); lets the stale-entry pop
     * path avoid a dynamic_cast.
     */
    bool selfDeleting() const { return _selfDeleting; }

  protected:
    /** Only the pooled one-shot events mark themselves. */
    void markSelfDeleting() { _selfDeleting = true; }

    /** Distinguishes the two pooled one-shot flavours on reclaim. */
    void markTickCallback() { _tickCallback = true; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _sequence = 0;
    int _priority;
    bool _scheduled = false;
    bool _selfDeleting = false;
    bool _tickCallback = false;
};

/**
 * One-shot event wrapping a callable. After firing (or after its
 * squashed heap entry is dropped) the event returns to its owning
 * queue's freelist for reuse; events constructed outside
 * EventQueue::scheduleFunc have no owner and delete themselves as
 * before.
 */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(std::function<void()> fn,
                         int priority = Event::defaultPriority)
        : Event(priority), func(std::move(fn))
    {
        markSelfDeleting();
    }

    void process() override; // defined after EventQueue

    const char *name() const override { return "LambdaEvent"; }

  private:
    friend class EventQueue;

    /** Refill a pooled event for its next one-shot use. */
    void
    rearm(std::function<void()> fn)
    {
        func = std::move(fn);
        pooled = false;
    }

    std::function<void()> func;
    /** Owning queue whose freelist reclaims this event (or null). */
    EventQueue *owner = nullptr;
    /** True while sitting in the owner's freelist. */
    bool pooled = false;
};

/**
 * Pooled one-shot event that hands its fire tick to the callback.
 *
 * The memory system's dominant scheduling pattern is "run cb(t) at
 * tick t": delivering a response, completing a DRAM access, retiring
 * a writeback. Wrapping that in a LambdaEvent forces the tick (and
 * often a moved std::function) into a closure too big for the
 * std::function small-buffer, heap-allocating on every L2 access.
 * TickCallbackEvent stores the std::function<void(Tick)> directly
 * (moving one transfers its buffer without allocating) and passes
 * when() at dispatch, so the hot path stops touching the allocator.
 */
class TickCallbackEvent : public Event
{
  public:
    explicit TickCallbackEvent(std::function<void(Tick)> fn,
                               int priority = Event::defaultPriority)
        : Event(priority), func(std::move(fn))
    {
        markSelfDeleting();
        markTickCallback();
    }

    void process() override; // defined after EventQueue

    const char *name() const override { return "TickCallbackEvent"; }

  private:
    friend class EventQueue;

    /** Refill a pooled event for its next one-shot use. */
    void
    rearm(std::function<void(Tick)> fn)
    {
        func = std::move(fn);
        pooled = false;
    }

    std::function<void(Tick)> func;
    /** Owning queue whose freelist reclaims this event (or null). */
    EventQueue *owner = nullptr;
    /** True while sitting in the owner's freelist. */
    bool pooled = false;
};

/**
 * Deterministic discrete-event queue.
 *
 * Deschedule is implemented by squashing: the heap entry stays but is
 * skipped on pop, so deschedule/reschedule are O(log n) amortized.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Reclaim machinery-owned one-shots still referenced by heap
        // entries (descheduled or never fired), then free the pools.
        // recycle() is idempotent per event via the pooled flag, so
        // duplicate stale entries are harmless. The self-deleting
        // flag is read from the Entry, not the event: externally
        // owned events may already be destroyed by the time the
        // queue goes down, and their entries must not be followed.
        for (const Entry &entry : heap) {
            if (entry.selfDel)
                recycleAny(entry.event);
        }
        for (LambdaEvent *ev : lambdaPool)
            delete ev;
        for (TickCallbackEvent *ev : callbackPool)
            delete ev;
    }

    /** Current simulated time in ticks. */
    Tick now() const { return curTick; }

    /** Number of events pending (excluding squashed entries). */
    std::size_t size() const { return liveCount; }

    /** True when no live events remain. */
    bool empty() const { return liveCount == 0; }

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
        event->_sequence = nextSequence++;
        event->_scheduled = true;
        heap.push_back(Entry{when, event, event->_sequence,
                             event->_priority, event->_selfDeleting});
        std::push_heap(heap.begin(), heap.end(), Later{});
        ++liveCount;
        // Retry-heavy runs squash far more entries than they fire;
        // compact before stale entries dominate the heap.
        if (heap.size() > compactMinHeap &&
            heap.size() - liveCount > 2 * liveCount) {
            compact();
        }
    }

    /**
     * Remove a scheduled event from the queue without firing it.
     *
     * The stale heap entry is lazily discarded; the Event object must
     * stay alive until the queue drops that entry (LambdaEvents are
     * reclaimed automatically).
     */
    void
    deschedule(Event *event)
    {
        TLSIM_ASSERT(event && event->_scheduled,
                     "descheduling an unscheduled event");
        event->_scheduled = false;
        --liveCount;
    }

    /** Deschedule (if needed) and schedule at a new tick. */
    void
    reschedule(Event *event, Tick when)
    {
        if (event->_scheduled)
            deschedule(event);
        schedule(event, when);
    }

    /**
     * Convenience: schedule a pooled one-shot callable.
     * @return The created event (owned by the queue machinery).
     */
    Event *
    scheduleFunc(Tick when, std::function<void()> fn,
                 int priority = Event::defaultPriority)
    {
        LambdaEvent *ev;
        if (!lambdaPool.empty()) {
            ev = lambdaPool.back();
            lambdaPool.pop_back();
            ev->rearm(std::move(fn));
            ev->_priority = priority;
        } else {
            ev = new LambdaEvent(std::move(fn), priority);
            ev->owner = this;
            ++lambdaAllocatedCount;
        }
        try {
            schedule(ev, when);
        } catch (...) {
            recycle(ev); // past-tick panic must not strand the event
            throw;
        }
        return ev;
    }

    /**
     * Convenience: schedule a pooled one-shot that receives its fire
     * tick. Preferred over scheduleFunc for the "deliver cb(t) at t"
     * pattern — the callback is moved into the event (no closure, no
     * allocation) instead of being captured alongside the tick.
     * @return The created event (owned by the queue machinery).
     */
    Event *
    scheduleCallback(Tick when, std::function<void(Tick)> fn,
                     int priority = Event::defaultPriority)
    {
        TickCallbackEvent *ev = acquireCallback(std::move(fn),
                                                priority);
        try {
            schedule(ev, when);
        } catch (...) {
            recycleCallback(ev);
            throw;
        }
        return ev;
    }

    /**
     * Execute events with tick <= limit, in order; afterwards
     * now() == max(limit, previous now()).
     * @return Number of events processed.
     */
    std::uint64_t
    advanceTo(Tick limit)
    {
        // Nothing due by limit: the heap top holds the least `when`
        // of all entries, live or stale, so no event can fire. Stale
        // entries stay for a later pop; they never affect order.
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

    /** Tick of the earliest live event, or MaxTick when empty. */
    Tick
    nextTick()
    {
        while (!heap.empty()) {
            const Entry &top = heap.front();
            Event *ev = top.event;
            if (isStale(top)) {
                popTop();
                maybeReclaimSquashed(ev);
                continue;
            }
            return top.when;
        }
        return MaxTick;
    }

    /** LambdaEvents ever allocated by scheduleFunc on this queue. */
    std::size_t lambdaAllocated() const { return lambdaAllocatedCount; }

    /** LambdaEvents currently resting in the freelist. */
    std::size_t lambdaPoolSize() const { return lambdaPool.size(); }

    /**
     * Machinery-owned LambdaEvents in flight (scheduled or squashed
     * but not yet reclaimed). Zero once the queue has drained — the
     * eventq test asserts exactly that.
     */
    std::size_t
    lambdaOutstanding() const
    {
        return lambdaAllocatedCount - lambdaPool.size();
    }

    /** TickCallbackEvents ever allocated by scheduleCallback. */
    std::size_t callbackAllocated() const { return callbackAllocatedCount; }

    /** TickCallbackEvents currently resting in the freelist. */
    std::size_t callbackPoolSize() const { return callbackPool.size(); }

    /** Machinery-owned TickCallbackEvents in flight. */
    std::size_t
    callbackOutstanding() const
    {
        return callbackAllocatedCount - callbackPool.size();
    }

    /** Heap entries, live and squashed (>= size()). */
    std::size_t heapSize() const { return heap.size(); }

    /** Squashed (stale) entries still occupying the heap. */
    std::size_t staleCount() const { return heap.size() - liveCount; }

    /** Times the heap was compacted to shed squashed entries. */
    std::uint64_t compactions() const { return compactionCount; }

  private:
    friend class LambdaEvent;
    friend class TickCallbackEvent;

    /** Below this heap size compaction is never worth the make_heap. */
    static constexpr std::size_t compactMinHeap = 64;

    /** Pool-or-allocate a TickCallbackEvent ready to schedule. */
    TickCallbackEvent *
    acquireCallback(std::function<void(Tick)> fn, int priority)
    {
        TickCallbackEvent *ev;
        if (!callbackPool.empty()) {
            ev = callbackPool.back();
            callbackPool.pop_back();
            ev->rearm(std::move(fn));
            ev->_priority = priority;
        } else {
            ev = new TickCallbackEvent(std::move(fn), priority);
            ev->owner = this;
            ++callbackAllocatedCount;
        }
        return ev;
    }

    struct Entry
    {
        Tick when;
        Event *event;
        std::uint64_t sequence;
        int priority;
        /**
         * Snapshot of event->selfDeleting() at schedule time, so the
         * destructor and compaction can classify entries without
         * dereferencing possibly-dead external events.
         */
        bool selfDel;
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

    /** Drop the top heap entry. */
    void
    popTop()
    {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        heap.pop_back();
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
        while (!heap.empty()) {
            const Entry &top = heap.front();
            Event *ev = top.event;
            if (isStale(top)) {
                popTop();
                maybeReclaimSquashed(ev);
                continue;
            }
            if (top.when > limit)
                break;
            curTick = top.when;
            popTop();
            ev->_scheduled = false;
            --liveCount;
            if (trace::observed()) [[unlikely]]
                observeDispatch(ev);
            ev->process();
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
     * Dispatch the next runnable event at tick <= limit bracketed by
     * two clock reads, attributing its time scaled by the dispatches
     * since @p ts's previous sample on this queue. name() is
     * captured before process(): pooled events may be recycled
     * inside it.
     * @return false if no runnable event remains at tick <= limit.
     */
    bool
    dispatchOneSampled(Tick limit, prof::ThreadState &ts)
    {
        while (!heap.empty()) {
            const Entry &top = heap.front();
            Event *ev = top.event;
            if (isStale(top)) {
                popTop();
                maybeReclaimSquashed(ev);
                continue;
            }
            if (top.when > limit)
                return false;
            curTick = top.when;
            popTop();
            ev->_scheduled = false;
            --liveCount;
            if (trace::observed()) [[unlikely]]
                observeDispatch(ev);
            const char *name = ev->name();
            std::uint64_t start = prof::nowNs();
            ev->process();
            std::uint64_t ns = prof::nowNs() - start;
            ++dispatchedCount;
            // Dispatches since the last sample on this queue; falls
            // back to 1 when the thread last sampled another queue.
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
        return false;
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

    /** A heap entry is stale if its event was descheduled or moved. */
    static bool
    isStale(const Entry &entry)
    {
        return !entry.event->_scheduled ||
               entry.event->_sequence != entry.sequence;
    }

    /** Return a machinery-owned lambda to its owner's freelist. */
    static void
    recycle(LambdaEvent *ev)
    {
        if (ev->pooled)
            return;
        if (!ev->owner) {
            delete ev;
            return;
        }
        ev->pooled = true;
        ev->func = nullptr;
        ev->owner->lambdaPool.push_back(ev);
    }

    /** Return a machinery-owned tick callback to its freelist. */
    static void
    recycleCallback(TickCallbackEvent *ev)
    {
        if (ev->pooled)
            return;
        if (!ev->owner) {
            delete ev;
            return;
        }
        ev->pooled = true;
        ev->func = nullptr;
        ev->owner->callbackPool.push_back(ev);
    }

    /** Recycle either pooled one-shot flavour (ev must be alive). */
    static void
    recycleAny(Event *ev)
    {
        if (ev->_tickCallback)
            recycleCallback(static_cast<TickCallbackEvent *>(ev));
        else
            recycle(static_cast<LambdaEvent *>(ev));
    }

    /**
     * Reclaim a pooled one-shot whose squashed entry was just
     * dropped. Only safe when the event is not live elsewhere
     * (rescheduled events carry a newer sequence and stay alive).
     */
    static void
    maybeReclaimSquashed(Event *ev)
    {
        if (!ev->_scheduled && ev->selfDeleting())
            recycleAny(ev);
    }

    /**
     * Drop every stale entry and re-heapify. Dispatch order is
     * unaffected: the comparator's (when, priority, sequence) is a
     * total order over live entries, which make_heap re-establishes
     * exactly. Squashed self-deleting events are reclaimed here the
     * same way the lazy pop path would have.
     */
    void
    compact()
    {
        auto out = heap.begin();
        for (auto &entry : heap) {
            if (!isStale(entry)) {
                *out++ = entry;
                continue;
            }
            // Stale entries of live events (rescheduled under a newer
            // sequence) are dropped but their event stays alive.
            if (entry.selfDel)
                maybeReclaimSquashed(entry.event);
        }
        heap.erase(out, heap.end());
        std::make_heap(heap.begin(), heap.end(), Later{});
        ++compactionCount;
    }

    // Member order is deliberate: the per-schedule/per-dispatch state
    // (current tick, sequence counter, live count) sits together right
    // behind the heap vector so the hot paths touch as few cache lines
    // as possible; pools and bookkeeping counters follow.
    std::vector<Entry> heap;
    Tick curTick = 0;
    std::uint64_t nextSequence = 0;
    std::size_t liveCount = 0;
    std::vector<LambdaEvent *> lambdaPool;
    std::vector<TickCallbackEvent *> callbackPool;
    /** Cumulative dispatched events; weights profiler samples. */
    std::uint64_t dispatchedCount = 0;
    std::size_t lambdaAllocatedCount = 0;
    std::size_t callbackAllocatedCount = 0;
    std::uint64_t compactionCount = 0;
};

inline void
LambdaEvent::process()
{
    // Move the callable out first: it may reschedule, and a pooled
    // event can be handed out again from inside fn().
    auto fn = std::move(func);
    EventQueue::recycle(this);
    fn();
}

inline void
TickCallbackEvent::process()
{
    // Capture the fire tick before recycling: a rearm from inside
    // fn() would overwrite it.
    Tick t = when();
    auto fn = std::move(func);
    EventQueue::recycleCallback(this);
    fn(t);
}

} // namespace tlsim

#endif // TLSIM_SIM_EVENTQ_HH
