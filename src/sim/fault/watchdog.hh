/**
 * @file
 * Event-queue deadlock watchdog.
 *
 * Request issuers (the L1 caches) register as clients and report each
 * outstanding miss; the cores' wait loops poll the watchdog while
 * blocked. If the event queue goes quiescent while requests are still
 * outstanding, or any single request exceeds the configured max age,
 * the watchdog dumps a structured diagnostic (every outstanding
 * request plus whatever the L2 design reports — link busy horizons,
 * per-bank queue depths) and panics instead of letting the simulation
 * hang. The panic is a catchable PanicError, so crash-isolated sweeps
 * turn it into a per-run error report.
 */

#ifndef TLSIM_SIM_FAULT_WATCHDOG_HH
#define TLSIM_SIM_FAULT_WATCHDOG_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tlsim
{
namespace fault
{

/** Deadlock detector for outstanding memory requests. */
class Watchdog
{
  public:
    /** @param max_age Oldest tolerated request age in ticks. */
    explicit Watchdog(Tick max_age) : maxAge(max_age) {}

    /** Register a request issuer; returns its client id. */
    int
    addClient(std::string name)
    {
        clients.push_back(std::move(name));
        return static_cast<int>(clients.size()) - 1;
    }

    /**
     * Install the design-specific diagnostic dump (e.g. the L2's
     * link/bank state) invoked when the watchdog fires.
     */
    void
    setDiagnostic(std::function<void()> fn)
    {
        diagnostic = std::move(fn);
    }

    /** A request for @p addr went outstanding at @p now. */
    void
    onIssue(int client, std::uint64_t addr, Tick now)
    {
        if (find(client, addr) == pending.end())
            pending.push_back(Outstanding{client, addr, now});
    }

    /** The request for @p addr completed. */
    void
    onComplete(int client, std::uint64_t addr)
    {
        auto it = find(client, addr);
        if (it == pending.end())
            return;
        *it = pending.back();
        pending.pop_back();
    }

    /** Outstanding request count. */
    std::size_t outstanding() const { return pending.size(); }

    /** Times the watchdog has fired (normally zero). */
    std::uint64_t firings() const { return fired; }

    /**
     * Arm a wall-clock deadline (harness --run-timeout under thread
     * isolation): checkAge additionally panics once @p seconds of
     * real time elapse, whatever the simulated tick. Observation
     * only — it never changes simulated behavior, so a run that
     * finishes under the deadline is byte-identical to an unarmed
     * one.
     */
    void
    setWallDeadline(double seconds)
    {
        wallSeconds = seconds;
        wallDeadline = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(
                           static_cast<long long>(seconds * 1e6));
        wallArmed = seconds > 0.0;
    }

    /**
     * Poll while a core is blocked: panics when the oldest
     * outstanding request is older than the max-age bound, or when
     * the wall deadline (if armed) has passed.
     */
    void
    checkAge(Tick now)
    {
        // Rate-limit the clock read: wait loops poll every cycle.
        if (wallArmed && (++wallPolls & 0x3ff) == 0 &&
            std::chrono::steady_clock::now() >= wallDeadline)
            fireWall(now);
        for (const Outstanding &req : pending) {
            if (now - req.issued > maxAge)
                fire(now, "request exceeded max age");
        }
    }

    /**
     * The event queue drained with requests still outstanding: a
     * completion callback was lost. Returns when nothing is pending;
     * fires otherwise.
     */
    void
    onQuiescent(Tick now)
    {
        if (!pending.empty())
            fire(now, "event queue quiescent");
    }

  private:
    /** One outstanding request. */
    struct Outstanding
    {
        int client;
        std::uint64_t addr;
        Tick issued;
    };

    std::vector<Outstanding>::iterator
    find(int client, std::uint64_t addr)
    {
        auto it = pending.begin();
        while (it != pending.end() &&
               !(it->client == client && it->addr == addr))
            ++it;
        return it;
    }

    [[noreturn]] void fire(Tick now, const char *why);
    [[noreturn]] void fireWall(Tick now);

    Tick maxAge;
    bool wallArmed = false;
    double wallSeconds = 0.0;
    std::chrono::steady_clock::time_point wallDeadline;
    std::uint64_t wallPolls = 0;
    std::vector<std::string> clients;
    std::function<void()> diagnostic;
    /**
     * Outstanding requests, unordered: a flat list (at most the L1s'
     * MSHRs) that allocates only to grow. fire() sorts a copy by
     * (client, address) for a stable dump.
     */
    std::vector<Outstanding> pending;
    std::uint64_t fired = 0;
};

} // namespace fault
} // namespace tlsim

#endif // TLSIM_SIM_FAULT_WATCHDOG_HH
