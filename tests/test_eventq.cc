/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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
    eq.scheduleCallback(
        5, [lp](Tick) { lp->push_back(2); }, -1);
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

TEST(EventQueue, AdvanceToWithNothingDueOnlyMovesTime)
{
    EventQueue eq;
    EXPECT_EQ(eq.advanceTo(7), 0u); // empty heap
    EXPECT_EQ(eq.now(), 7u);
    EXPECT_EQ(eq.advanceTo(3), 0u); // never moves backwards
    EXPECT_EQ(eq.now(), 7u);

    std::vector<int> log;
    LogEvent a(&log, 1), b(&log, 2), c(&log, 3);
    eq.schedule(&a, 20);
    eq.schedule(&b, 30);
    eq.schedule(&c, 40);
    // The earliest event descheduled: nothing fires before the next
    // one, and order afterwards is unchanged.
    eq.deschedule(&a);
    EXPECT_EQ(eq.advanceTo(19), 0u);
    EXPECT_EQ(eq.now(), 19u);
    EXPECT_EQ(eq.advanceTo(25), 0u);
    EXPECT_EQ(eq.now(), 25u);
    EXPECT_EQ(eq.advanceTo(40), 2u);
    EXPECT_EQ(log, (std::vector<int>{2, 3}));
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
    eq.deschedule(&a);
    eq.schedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, LambdaEventsSelfDelete)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleCallback(5, [&fired](Tick) { ++fired; });
    eq.scheduleCallback(6, [&fired](Tick) { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, EventsScheduledDuringProcessing)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    eq.scheduleCallback(10, [&](Tick) {
        ticks.push_back(eq.now());
        eq.scheduleCallback(15, [&](Tick) { ticks.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(ticks, (std::vector<Tick>{10, 15}));
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.scheduleCallback(10, [](Tick) {});
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_THROW(eq.scheduleCallback(5, [](Tick) {}), PanicError);
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
    eq.scheduleCallback(10, [&](Tick) { ++fired; });
    eq.scheduleCallback(100, [&](Tick) { ++fired; });
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
    // Sequential one-shots at absolute ticks: after the first fires,
    // every later scheduleCallback should reuse the pooled event
    // instead of allocating a new one.
    for (int i = 0; i < 100; ++i) {
        eq.scheduleCallback(static_cast<Tick>(i + 1),
                            [&fired](Tick) { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(eq.callbackAllocated(), 1u);
    EXPECT_EQ(eq.callbackPoolSize(), 1u);
    EXPECT_EQ(eq.callbackOutstanding(), 0u);
}

TEST(EventQueue, LambdaPoolDrainsEmptyAfterRun)
{
    EventQueue eq;
    int fired = 0;
    // Burst of overlapping one-shots, including events scheduled from
    // inside handlers (the L1-miss pattern).
    for (int i = 0; i < 50; ++i) {
        eq.scheduleCallback(static_cast<Tick>(i % 7 + 1), [&](Tick) {
            ++fired;
            if (fired < 200)
                eq.scheduleCallback(eq.now() + 3,
                                    [&](Tick) { ++fired; });
        });
    }
    eq.run();
    EXPECT_TRUE(eq.empty());
    // Every pooled one-shot must be back in the freelist.
    EXPECT_EQ(eq.callbackOutstanding(), 0u);
    EXPECT_GT(eq.callbackAllocated(), 0u);
    EXPECT_LT(eq.callbackAllocated(), 51u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 1000; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 1000 + 1);
        eq.scheduleCallback(when, [&](Tick) {
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

TEST(EventQueue, TypedAndLambdaPathsInterleaveInOrder)
{
    // The hot-path conversion relies on typed events and pooled
    // one-shots sharing one total order (when, priority, sequence)
    // regardless of which API scheduled them.
    EventQueue eq;
    std::vector<int> log;
    LogEvent typed(&log, 1);
    eq.scheduleCallback(10, [&log](Tick) { log.push_back(2); });
    eq.schedule(&typed, 10);
    eq.scheduleCallback(10, [&log](Tick) { log.push_back(3); });
    eq.run();
    // Same tick, same priority: schedule order wins.
    EXPECT_EQ(log, (std::vector<int>{2, 1, 3}));
}

TEST(EventQueue, ManyDeschedulesPreserveDispatchOrder)
{
    EventQueue eq;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> keepers, doomed;
    // Interleave keepers and victims at adversarial ticks so every
    // deschedule re-heapifies a heap with many equal ticks.
    for (int i = 0; i < 500; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 997 + 1);
        keepers.push_back(std::make_unique<LogEvent>(&log, i));
        eq.schedule(keepers.back().get(), when);
        doomed.push_back(std::make_unique<LogEvent>(&log, -1));
        eq.schedule(doomed.back().get(), when);
    }
    for (auto &ev : doomed)
        eq.deschedule(ev.get());
    EXPECT_EQ(eq.size(), 500u);
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

TEST(EventQueue, DescheduledEventMayBeDestroyedBeforeTheQueueAdvances)
{
    // Deschedule removes the heap entry at once, so the queue never
    // touches the event again: its owner may free it right away.
    EventQueue eq;
    std::vector<int> log;
    LogEvent survivor(&log, 2);
    auto doomed = std::make_unique<LogEvent>(&log, 1);
    eq.schedule(doomed.get(), 10);
    eq.schedule(&survivor, 20);
    eq.deschedule(doomed.get());
    doomed.reset();
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextTick(), 20u);
    EXPECT_EQ(eq.advanceTo(200), 1u);
    EXPECT_EQ(log, (std::vector<int>{2}));
}
