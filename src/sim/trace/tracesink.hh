/**
 * @file
 * Chrome trace-event JSON emission.
 *
 * A TraceSink serializes simulation activity as Chrome trace-event
 * JSON (the "JSON Object Format": {"traceEvents": [...]}) viewable in
 * Perfetto (ui.perfetto.dev) or chrome://tracing. Simulated ticks map
 * one-to-one onto the viewer's microsecond timeline.
 *
 * Instrumentation sites use the active-sink pattern:
 *
 *   if (auto *sink = trace::TraceSink::active())
 *       sink->span(trace::cat::l2, "load", start, end, tid, req_id);
 *
 * With no sink installed the cost is one pointer load and branch;
 * nothing is formatted.
 *
 * Spans are "complete" events (ph "X") with explicit start/duration,
 * which fits the simulator's busy-until reservation model: the span
 * of a resource is known the moment it is reserved. The optional
 * request id is recorded in args.req, causally linking every span a
 * request touches across the eventq/L1/L2/NoC/bank/DRAM categories.
 */

#ifndef TLSIM_SIM_TRACE_TRACESINK_HH
#define TLSIM_SIM_TRACE_TRACESINK_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "sim/types.hh"

namespace tlsim
{
namespace trace
{

/** Span category names (the "cat" field; filterable in the viewer). */
namespace cat
{
inline constexpr const char *eventq = "eventq";
inline constexpr const char *cpu = "cpu";
inline constexpr const char *l1 = "l1";
inline constexpr const char *l2 = "l2";
inline constexpr const char *noc = "noc";
inline constexpr const char *bank = "bank";
inline constexpr const char *dram = "dram";
} // namespace cat

/**
 * Track ("tid") assignment: each simulated resource family gets its
 * own row in the viewer. Offsets leave room for per-instance tracks
 * (e.g. tidNocBase + pair index).
 */
namespace tid
{
inline constexpr int eventq = 0;
inline constexpr int cpu = 1;
inline constexpr int l1 = 2;
inline constexpr int l2 = 3;
inline constexpr int dram = 4;
inline constexpr int nocBase = 100; ///< + link/pair index (down)
inline constexpr int nocUpBase = 200; ///< + pair index (up links)
inline constexpr int bankBase = 300; ///< + bank index
} // namespace tid

/**
 * Writes Chrome trace-event JSON to a stream or file.
 */
class TraceSink
{
  public:
    /** Emit to an externally owned stream (used by tests). */
    explicit TraceSink(std::ostream &os);

    /** Emit to a file; fatal() if the file cannot be opened. */
    explicit TraceSink(const std::string &path);

    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /**
     * Emit a complete ("X") span.
     * @param category One of trace::cat (any string accepted).
     * @param name Span label.
     * @param start First tick of the span.
     * @param end One past the last tick (dur = end - start; a zero
     *            duration marks an instantaneous occurrence).
     * @param track Viewer row, see trace::tid.
     * @param req Request id for causal linking (0 = none).
     */
    void span(const char *category, const std::string &name, Tick start,
              Tick end, int track, std::uint64_t req = 0);

    /** Emit a counter ("C") sample, drawn as a graph in the viewer. */
    void counter(const char *category, const std::string &name,
                 Tick when, double value);

    /** Number of events emitted so far. */
    std::uint64_t eventCount() const { return events; }

    /**
     * Write the JSON footer and stop accepting events. Called by the
     * destructor if not called explicitly.
     */
    void close();

    /** The installed sink, or nullptr when tracing is off. */
    static TraceSink *active() { return activeSink; }

    /**
     * Install @p sink as the process-wide active sink (pass nullptr
     * to disable tracing). The caller retains ownership.
     */
    static void setActive(TraceSink *sink);

  private:
    void writeHeader();
    void writeEventPrefix(const char *category, const std::string &name,
                          char phase, Tick when, int track);

    static TraceSink *activeSink;

    std::unique_ptr<std::ofstream> owned;
    std::ostream &os;
    bool closed = false;
    bool first = true;
    std::uint64_t events = 0;
};

} // namespace trace
} // namespace tlsim

#endif // TLSIM_SIM_TRACE_TRACESINK_HH
