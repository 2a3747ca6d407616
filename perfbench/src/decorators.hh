/**
 * @file
 * Timing decorators on the simulator's public virtual layer
 * boundaries: cpu::TraceSource::next, mem::L2Cache::access and
 * accessFunctional (with the response callbacks wrapped), and
 * mem::MemBackend::read and write (with the completion callbacks
 * wrapped). Each decorator forwards to the real object and records a
 * span around the call; none touches simulated state, and the
 * wrappers sit outside the stats tree, so a traced machine dumps the
 * same statistics as an untraced one.
 *
 * The L2 and memory decorators reach a System through the registries:
 * enableTracedMachines() registers "traced:<name>" for every design
 * and backend, and tracedConfig() points a config at them.
 */

#ifndef TLSIM_PERFBENCH_DECORATORS_HH
#define TLSIM_PERFBENCH_DECORATORS_HH

#include "cpu/trace.hh"
#include "harness/config.hh"
#include "spans.hh"

namespace perfbench
{

/** TraceSource::next with a "workload.next" span. */
class TracedSource : public tlsim::cpu::TraceSource
{
  public:
    TracedSource(tlsim::cpu::TraceSource &inner_, SpanRecorder &rec)
        : inner(inner_), recorder(rec)
    {}

    tlsim::cpu::TraceRecord
    next() override
    {
        Span span(recorder, "workload.next");
        tlsim::cpu::TraceRecord record = inner.next();
        recorder.addGenerated(record.gap + (record.isIFetch ? 0 : 1));
        return record;
    }

  private:
    tlsim::cpu::TraceSource &inner;
    SpanRecorder &recorder;
};

/**
 * Register the "traced:" alias of every L2 design and memory backend,
 * recording into @p rec. Call once, before building a traced machine.
 */
void enableTracedMachines(SpanRecorder &rec);

/** @p config with its L2 design and memory backend traced. */
tlsim::harness::SystemConfig
tracedConfig(const tlsim::harness::SystemConfig &config);

} // namespace perfbench

#endif // TLSIM_PERFBENCH_DECORATORS_HH
