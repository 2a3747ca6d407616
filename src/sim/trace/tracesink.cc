#include "sim/trace/tracesink.hh"

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/trace/observed.hh"

namespace tlsim
{
namespace trace
{

TraceSink *TraceSink::activeSink = nullptr;

TraceSink::TraceSink(std::ostream &os_)
    : os(os_)
{
    writeHeader();
}

TraceSink::TraceSink(const std::string &path)
    : owned(std::make_unique<std::ofstream>(path)), os(*owned)
{
    if (!owned->is_open())
        fatal("cannot open trace output file '{}'", path);
    writeHeader();
}

TraceSink::~TraceSink()
{
    close();
    if (activeSink == this) {
        activeSink = nullptr;
        detail::recomputeObserved();
    }
}

void
TraceSink::setActive(TraceSink *sink)
{
    activeSink = sink;
    detail::recomputeObserved();
}

void
TraceSink::writeHeader()
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
}

void
TraceSink::writeEventPrefix(const char *category,
                            const std::string &name, char phase,
                            Tick when, int track)
{
    if (first)
        first = false;
    else
        os << ",\n";
    os << "{\"ph\":\"" << phase << "\",\"cat\":\"" << category
       << "\",\"name\":\"" << json::escape(name) << "\",\"ts\":" << when
       << ",\"pid\":0,\"tid\":" << track;
    ++events;
}

void
TraceSink::span(const char *category, const std::string &name,
                Tick start, Tick end, int track, std::uint64_t req)
{
    if (closed)
        return;
    TLSIM_ASSERT(end >= start, "trace span '{}' ends before it starts",
                 name);
    writeEventPrefix(category, name, 'X', start, track);
    os << ",\"dur\":" << (end - start);
    if (req)
        os << ",\"args\":{\"req\":" << req << "}";
    os << "}";
}

void
TraceSink::counter(const char *category, const std::string &name,
                   Tick when, double value)
{
    if (closed)
        return;
    writeEventPrefix(category, name, 'C', when, 0);
    os << ",\"args\":{\"value\":" << value << "}}";
}

void
TraceSink::close()
{
    if (closed)
        return;
    closed = true;
    os << "\n]}\n";
    os.flush();
}

} // namespace trace
} // namespace tlsim
