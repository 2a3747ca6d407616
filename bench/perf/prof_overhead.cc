/**
 * @file
 * Cost of the self-profiler on the event-dispatch hot path.
 *
 * Times one event-queue workload with the profiler off and on in the
 * same process and prints the median on/off wall-time ratio: 1.0
 * means free. Exits 1 when the ratio stays above 1.03 after two
 * re-measures. Takes no options; build it in Release:
 *
 *   cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
 *   cmake --build build-rel --target tlsim_prof_overhead
 *   ./build-rel/bench/tlsim_prof_overhead
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "sim/eventq.hh"
#include "sim/prof/prof.hh"

namespace
{

using tlsim::Event;
using tlsim::EventQueue;
using tlsim::Tick;

constexpr double budget = 1.03;

/** Self-rescheduling typed event. */
class TickerEvent : public Event
{
  public:
    TickerEvent(EventQueue &eq, std::uint64_t limit)
        : eventq(eq), remaining(limit)
    {}

    void
    process() override
    {
        if (--remaining > 0)
            eventq.schedule(this, eventq.now() + 1);
    }

    const char *name() const override { return "TickerEvent"; }

  private:
    EventQueue &eventq;
    std::uint64_t remaining;
};

/**
 * One pass of the dispatch mix: pooled one-shots interleaved with a
 * self-rescheduling typed event, as on the L1-miss path. Long enough
 * (tens of ms) that timer and scheduler noise stay well under the
 * 3% budget. Returns wall seconds.
 */
double
workloadSeconds()
{
    const std::uint64_t typed = 1'000'000;
    const std::uint64_t oneshots = 500'000;

    auto start = std::chrono::steady_clock::now();
    EventQueue eq;
    TickerEvent ticker(eq, typed);
    eq.schedule(&ticker, 1);
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < oneshots; ++i) {
        eq.scheduleCallback(eq.now() + 2, [&fired](Tick) { ++fired; });
        eq.advanceTo(eq.now() + 1);
    }
    eq.run();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    if (fired != oneshots)
        throw std::runtime_error("the event queue lost callbacks");
    return secs;
}

/**
 * One discarded pass warms the allocator pools and branch
 * predictors; then each rep pairs an off- and an on-pass taken back
 * to back (order alternating per rep, so neither side systematically
 * runs first), and the median per-rep ratio is returned. The pairing
 * cancels slow frequency drift; the median discards the reps a
 * shared box's noise bursts land on (min would credit noise on the
 * off side as a fake speedup).
 */
double
medianOnOffRatio()
{
    const int reps = 11;
    tlsim::prof::setEnabled(false);
    workloadSeconds();
    std::vector<double> ratios;
    for (int r = 0; r < reps; ++r) {
        bool on_first = (r & 1) != 0;
        tlsim::prof::setEnabled(on_first);
        double first = workloadSeconds();
        tlsim::prof::setEnabled(!on_first);
        double second = workloadSeconds();
        double on = on_first ? first : second;
        double off = on_first ? second : first;
        ratios.push_back(on / off);
    }
    tlsim::prof::setEnabled(false);
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
}

} // namespace

int
main()
{
    try {
        double ratio = medianOnOffRatio();
        std::cout << "profiler on/off ratio: " << ratio << "\n";
        // Re-measure before failing: on a shared box one noisy
        // measurement shouldn't fail, while a real regression fails
        // every attempt.
        for (int retry = 0; retry < 2 && ratio > budget; ++retry) {
            ratio = medianOnOffRatio();
            std::cout << "profiler on/off ratio (re-measure "
                      << retry + 1 << "): " << ratio << "\n";
        }
        if (ratio > budget) {
            std::cerr << "tlsim_prof_overhead: ratio " << ratio
                      << " exceeds the " << budget << " budget\n";
            return 1;
        }
    } catch (const std::exception &ex) {
        std::cerr << "tlsim_prof_overhead: " << ex.what() << "\n";
        return 1;
    }
    return 0;
}
