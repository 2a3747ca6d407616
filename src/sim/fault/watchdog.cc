#include "sim/fault/watchdog.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tlsim
{
namespace fault
{

void
Watchdog::fire(Tick now, const char *why)
{
    ++fired;
    warn("deadlock watchdog fired at t={}: {} ({} outstanding)", now,
         why, pending.size());
    std::vector<Outstanding> sorted = pending;
    std::sort(sorted.begin(), sorted.end(),
              [](const Outstanding &a, const Outstanding &b) {
                  return a.client != b.client ? a.client < b.client
                                              : a.addr < b.addr;
              });
    for (const Outstanding &req : sorted) {
        const std::string &name =
            req.client >= 0 &&
                    req.client < static_cast<int>(clients.size())
                ? clients[req.client]
                : "?";
        warn("  outstanding: {} addr={} issued at t={} (age {})", name,
             req.addr, req.issued, now - req.issued);
    }
    if (diagnostic)
        diagnostic();
    panic("deadlock watchdog: {} at t={} with {} outstanding "
          "request(s)",
          why, now, pending.size());
}

void
Watchdog::fireWall(Tick now)
{
    ++fired;
    warn("run timeout at t={} ({} outstanding request(s))", now,
         pending.size());
    if (diagnostic)
        diagnostic();
    panic("run timeout after {}s (wall clock)", wallSeconds);
}

} // namespace fault
} // namespace tlsim
