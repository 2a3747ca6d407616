/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/eventq.hh"

using namespace tlsim;

namespace
{

/** Records its firing tick into a shared log. */
class LogEvent : public Event
{
  public:
    LogEvent(std::vector<int> *log, int id)
        : log(log), id(id)
    {}

    void process() override { log->push_back(id); }
    const char *name() const override { return "LogEvent"; }

  private:
    std::vector<int> *log;
    int id;
};

} // namespace

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextTick(), MaxTick);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2), c(&log, 3);
    eq.schedule(&b, 20);
    eq.schedule(&a, 10);
    eq.schedule(&c, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByScheduleOrder)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2), c(&log, 3);
    eq.schedule(&c, 5);
    eq.schedule(&a, 5);
    eq.schedule(&b, 5);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{3, 1, 2}));
}

TEST(EventQueue, PriorityBeatsSequenceAtSameTick)
{
    EventQueue eq;
    std::vector<int> log;
    class PrioEvent : public LogEvent
    {
      public:
        PrioEvent(std::vector<int> *log, int id, int prio)
            : LogEvent(log, id)
        {
            (void)prio;
        }
    };
    LogEvent low(&log, 1);
    std::vector<int> *lp = &log;
    eq.schedule(&low, 5);
    eq.scheduleFunc(
        5, [lp]() { lp->push_back(2); }, -1);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, AdvanceToPartial)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.advanceTo(15);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, AdvanceToInclusive)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1);
    eq.schedule(&a, 10);
    eq.advanceTo(10);
    EXPECT_EQ(log.size(), 1u);
}

TEST(EventQueue, DescheduleSkipsEvent)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, LambdaEventsSelfDelete)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFunc(5, [&fired]() { ++fired; });
    eq.scheduleFunc(6, [&fired]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventsScheduledDuringProcessing)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    eq.scheduleFunc(10, [&]() {
        ticks.push_back(eq.now());
        eq.scheduleFunc(15, [&]() { ticks.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.scheduleFunc(10, []() {});
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_THROW(eq.scheduleFunc(5, []() {}), PanicError);
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1);
    eq.schedule(&a, 10);
    EXPECT_THROW(eq.schedule(&a, 20), PanicError);
    eq.deschedule(&a);
}

TEST(EventQueue, RunUpToMaxTick)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleFunc(10, [&]() { ++fired; });
    eq.scheduleFunc(100, [&]() { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NextTickSeesEarliestLive)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 5);
    EXPECT_EQ(eq.nextTick(), 5u);
    eq.deschedule(&b);
    EXPECT_EQ(eq.nextTick(), 10u);
    eq.deschedule(&a);
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue eq;
    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    EXPECT_EQ(eq.size(), 2u);
    eq.deschedule(&a);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(eq.size(), 0u);
}

TEST(EventQueue, LambdaPoolReusesEvents)
{
    EventQueue eq;
    int fired = 0;
    // Sequential one-shots: after the first fires, every later
    // scheduleFunc should reuse the pooled event instead of
    // allocating a new one.
    for (int i = 0; i < 100; ++i) {
        eq.scheduleFunc(static_cast<Tick>(i + 1),
                        [&fired]() { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.lambdaAllocated(), 1u);
    EXPECT_EQ(eq.lambdaPoolSize(), 1u);
    EXPECT_EQ(eq.lambdaOutstanding(), 0u);
}

TEST(EventQueue, LambdaPoolDrainsEmptyAfterRun)
{
    EventQueue eq;
    int fired = 0;
    // Burst of overlapping one-shots, including events scheduled from
    // inside handlers (the L1-miss pattern).
    for (int i = 0; i < 50; ++i) {
        eq.scheduleFunc(static_cast<Tick>(i % 7 + 1), [&]() {
            ++fired;
            if (fired < 200)
                eq.scheduleFunc(eq.now() + 3, [&]() { ++fired; });
        });
    }
    eq.run();
    EXPECT_TRUE(eq.empty());
    // Every machinery-owned lambda must be back in the freelist.
    EXPECT_EQ(eq.lambdaOutstanding(), 0u);
    EXPECT_GT(eq.lambdaAllocated(), 0u);
    EXPECT_LT(eq.lambdaAllocated(), 51u);
}

TEST(EventQueue, SquashedLambdaReturnsToPool)
{
    EventQueue eq;
    int fired = 0;
    Event *ev = eq.scheduleFunc(10, [&fired]() { ++fired; });
    eq.deschedule(ev);
    eq.scheduleFunc(20, [&fired]() { fired += 10; });
    eq.run();
    // The squashed lambda never fires but is reclaimed when its stale
    // heap entry pops.
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.lambdaOutstanding(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 1000; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 1000 + 1);
        eq.scheduleFunc(when, [&, when]() {
            if (eq.now() < last)
                monotone = false;
            last = eq.now();
        });
    }
    eq.run();
    EXPECT_TRUE(monotone);
}

TEST(EventQueue, TickCallbackReceivesScheduledTick)
{
    EventQueue eq;
    std::vector<Tick> seen;
    eq.scheduleCallback(7, [&seen](Tick t) { seen.push_back(t); });
    eq.scheduleCallback(3, [&seen](Tick t) { seen.push_back(t); });
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{3, 7}));
}

TEST(EventQueue, TickCallbackPoolRecycles)
{
    EventQueue eq;
    int fired = 0;
    // Strictly sequential one-shots: a single pooled event should
    // serve every iteration after the first allocation.
    for (int i = 0; i < 100; ++i) {
        eq.scheduleCallback(eq.now() + 1,
                            [&fired](Tick) { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.callbackAllocated(), 1u);
    EXPECT_EQ(eq.callbackPoolSize(), 1u);
    EXPECT_EQ(eq.callbackOutstanding(), 0u);
}

TEST(EventQueue, SquashedTickCallbackReturnsToPool)
{
    EventQueue eq;
    int fired = 0;
    Event *ev = eq.scheduleCallback(10, [&fired](Tick) { ++fired; });
    eq.deschedule(ev);
    eq.scheduleCallback(20, [&fired](Tick) { fired += 10; });
    eq.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(eq.callbackOutstanding(), 0u);
}

TEST(EventQueue, TypedAndLambdaPathsInterleaveInOrder)
{
    // The hot-path conversion relies on typed events and lambda
    // events sharing one total order (when, priority, sequence)
    // regardless of which API scheduled them.
    EventQueue eq;
    std::vector<int> log;
    LogEvent typed(&log, 1);
    eq.scheduleFunc(10, [&log]() { log.push_back(2); });
    eq.schedule(&typed, 10);
    eq.scheduleCallback(10, [&log](Tick) { log.push_back(3); });
    eq.run();
    // Same tick, same priority: schedule order wins.
    EXPECT_EQ(log, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, StaleCountTracksSquashedEntries)
{
    EventQueue eq;
    int fired = 0;
    std::vector<Event *> events;
    for (int i = 0; i < 10; ++i)
        events.push_back(eq.scheduleCallback(
            static_cast<Tick>(100 + i), [&fired](Tick) { ++fired; }));
    EXPECT_EQ(eq.heapSize(), 10u);
    EXPECT_EQ(eq.staleCount(), 0u);
    for (int i = 0; i < 4; ++i)
        eq.deschedule(events[static_cast<std::size_t>(i)]);
    // Invariant: live entries + stale entries == heap entries.
    EXPECT_EQ(eq.size(), 6u);
    EXPECT_EQ(eq.staleCount(), 4u);
    EXPECT_EQ(eq.heapSize(), eq.size() + eq.staleCount());
    eq.run();
    EXPECT_EQ(fired, 6);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.staleCount(), 0u);
}

TEST(EventQueue, CompactionBoundsStaleEntries)
{
    EventQueue eq;
    int fired = 0;
    // Far-future churn: schedule and immediately squash, never
    // advancing time, so stale entries can only leave via compaction.
    for (int i = 0; i < 10'000; ++i) {
        Event *ev = eq.scheduleCallback(
            static_cast<Tick>(1'000'000 + i),
            [&fired](Tick) { ++fired; });
        eq.deschedule(ev);
        // The compaction policy caps stale entries at 2x live (once
        // past the small-heap threshold).
        if (eq.heapSize() > 64) {
            EXPECT_LE(eq.staleCount(), 2 * eq.size() + 1);
        }
        EXPECT_EQ(eq.heapSize(), eq.size() + eq.staleCount());
    }
    EXPECT_GT(eq.compactions(), 0u);
    EXPECT_EQ(eq.size(), 0u);
    // A live sentinel past every squashed tick forces run() to drain
    // the remaining stale entries (with no live events it would
    // return immediately and leave them for the destructor).
    bool sentinel = false;
    eq.scheduleCallback(2'000'000, [&sentinel](Tick) {
        sentinel = true;
    });
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(sentinel);
    // Every squashed pooled callback was reclaimed — by compaction
    // for the bulk, by the stale-entry pop in run() for the tail —
    // rather than leaked into dead heap entries.
    EXPECT_EQ(eq.callbackOutstanding(), 0u);
}

TEST(EventQueue, CompactionPreservesDispatchOrder)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<Event *> doomed;
    // Interleave keepers and victims at adversarial ticks so the
    // compacted heap must re-establish ordering from scratch.
    for (int i = 0; i < 500; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 997 + 1);
        eq.scheduleCallback(when, [&log, i](Tick) { log.push_back(i); });
        doomed.push_back(eq.scheduleCallback(
            when, [&log](Tick) { log.push_back(-1); }));
    }
    for (Event *ev : doomed)
        eq.deschedule(ev);
    eq.run();
    ASSERT_EQ(log.size(), 500u);
    // Expected order: by tick, ties by schedule order (ascending i).
    std::vector<int> expected(500);
    for (int i = 0; i < 500; ++i)
        expected[static_cast<std::size_t>(i)] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [](int a, int b) {
                         return (a * 7919) % 997 < (b * 7919) % 997;
                     });
    EXPECT_EQ(log, expected);
}
