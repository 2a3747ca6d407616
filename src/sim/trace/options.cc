#include "sim/trace/options.hh"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/trace/debug.hh"

namespace tlsim
{
namespace trace
{

namespace
{

/** If arg is "--<key>=v", store v and return true. */
bool
matchOption(const char *arg, const char *key, std::string &value)
{
    std::size_t len = std::strlen(key);
    if (std::strncmp(arg, key, len) != 0 || arg[len] != '=')
        return false;
    value = arg + len + 1;
    return true;
}

/** Fill what no flag set from the environment; @p period is the flag's. */
void
fillFromEnv(ObservabilityOptions &opts, std::string period)
{
    auto env_default = [](const char *name, std::string &value) {
        const char *env = std::getenv(name);
        if (value.empty() && env)
            value = env;
    };
    env_default("TLSIM_TRACE_OUT", opts.traceOut);
    env_default("TLSIM_STATS_JSON", opts.statsJson);
    env_default("TLSIM_STATS_SERIES", opts.statsSeries);
    env_default("TLSIM_STATS_PERIOD", period);
    if (period.empty())
        return;
    std::optional<std::uint64_t> n = json::parseU64(period);
    if (!n)
        fatal("--stats-period expects a non-negative integer, got '{}'",
              period);
    opts.statsPeriod = *n;
}

} // namespace

ObservabilityOptions
parseObservabilityArgs(int &argc, char **argv)
{
    ObservabilityOptions opts;
    std::string period;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (matchOption(argv[i], "--debug-flags", opts.debugFlags) ||
            matchOption(argv[i], "--trace-out", opts.traceOut) ||
            matchOption(argv[i], "--stats-json", opts.statsJson) ||
            matchOption(argv[i], "--stats-series", opts.statsSeries) ||
            matchOption(argv[i], "--stats-period", period)) {
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;
    fillFromEnv(opts, period);
    return opts;
}

Observability::Observability(int &argc, char **argv)
    : opts(parseObservabilityArgs(argc, argv))
{
    if (!opts.debugFlags.empty())
        debug::setFlags(opts.debugFlags);
    if (opts.statsPeriod == 0)
        opts.statsPeriod = 100'000;
    if (!opts.traceOut.empty()) {
        sink = std::make_unique<TraceSink>(opts.traceOut);
        TraceSink::setActive(sink.get());
    }
}

Observability::~Observability()
{
    if (sink) {
        sink->close();
        inform("trace written: {} ({} events)", opts.traceOut,
               sink->eventCount());
    }
}

std::unique_ptr<StatSampler>
Observability::makeSampler(EventQueue &eq,
                           const stats::StatGroup &group) const
{
    if (opts.statsSeries.empty())
        return nullptr;
    auto sampler = std::make_unique<StatSampler>(
        eq, group, opts.statsPeriod, opts.statsSeries);
    sampler->start();
    return sampler;
}

void
Observability::dumpFinalStats(const stats::StatGroup &group) const
{
    if (opts.statsJson.empty())
        return;
    std::ofstream out(opts.statsJson);
    if (!out.is_open())
        fatal("cannot open stats JSON file '{}'", opts.statsJson);
    group.dumpStatsJson(out);
    out << '\n';
    inform("stats JSON written: {}", opts.statsJson);
}

} // namespace trace
} // namespace tlsim
