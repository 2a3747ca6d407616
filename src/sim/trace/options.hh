/**
 * @file
 * Shared observability command-line handling for examples and bench
 * binaries:
 *
 *   --debug-flags=L2,NoC     enable debug output (also via the
 *                            TLSIM_DEBUG_FLAGS environment variable)
 *   --trace-out=run.json     write a Chrome trace-event file
 *   --stats-json=out.json    export final stats as JSON
 *   --stats-series=ts.jsonl  periodic stats samples (JSON lines)
 *   --stats-period=N         sample period in ticks (default 100000)
 *
 * Observability parses and strips these from argv (so binaries keep
 * their positional arguments), installs the trace sink for the
 * program's lifetime, and offers helpers to attach a sampler and dump
 * final stats. Environment variables TLSIM_TRACE_OUT,
 * TLSIM_STATS_JSON, TLSIM_STATS_SERIES and TLSIM_STATS_PERIOD act as
 * defaults so even harnesses that own argv are reachable.
 */

#ifndef TLSIM_SIM_TRACE_OPTIONS_HH
#define TLSIM_SIM_TRACE_OPTIONS_HH

#include <memory>
#include <string>

#include "sim/eventq.hh"
#include "sim/stats.hh"
#include "sim/trace/sampler.hh"
#include "sim/trace/tracesink.hh"

namespace tlsim
{
namespace trace
{

/** Parsed values of the observability options. */
struct ObservabilityOptions
{
    std::string debugFlags;
    std::string traceOut;
    std::string statsJson;
    std::string statsSeries;
    Cycles statsPeriod = 100'000;
};

/**
 * Extract observability options from argv (recognized arguments are
 * removed and argc adjusted), falling back to the environment.
 */
ObservabilityOptions parseObservabilityArgs(int &argc, char **argv);

/**
 * RAII wrapper used by main(): parse options, apply debug flags, and
 * install the trace sink; the destructor closes the trace file.
 */
class Observability
{
  public:
    Observability(int &argc, char **argv);

    ~Observability();

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    const ObservabilityOptions &options() const { return opts; }

    bool tracing() const { return sink != nullptr; }

    /**
     * Create (and start) a periodic sampler for @p group if
     * --stats-series was given; returns nullptr otherwise. The
     * caller owns the sampler and must stop/destroy it before the
     * event queue dies.
     */
    std::unique_ptr<StatSampler> makeSampler(EventQueue &eq,
                                             const stats::StatGroup
                                                 &group) const;

    /** Write final stats JSON to --stats-json, if given. */
    void dumpFinalStats(const stats::StatGroup &group) const;

  private:
    ObservabilityOptions opts;
    std::unique_ptr<TraceSink> sink;
};

} // namespace trace
} // namespace tlsim

#endif // TLSIM_SIM_TRACE_OPTIONS_HH
