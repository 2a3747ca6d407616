#include "sim/stats.hh"

#include <array>
#include <cmath>
#include <cstdio>
#include <iomanip>

#include "sim/json.hh"

namespace tlsim
{
namespace stats
{

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    TLSIM_ASSERT(parent != nullptr, "stat '{}' requires a parent group",
                 _name);
    parent->addStat(this);
}

StatGroup::StatGroup(std::string name, StatGroup *parent)
    : _name(std::move(name))
{
    // Registration happens one stat at a time during System
    // construction (hundreds of groups per run, every run of a
    // sweep); reserving up front spares the doubling reallocations.
    stats.reserve(16);
    children.reserve(4);
    if (parent)
        parent->addChild(this);
}

void
StatGroup::resetStats()
{
    for (auto *stat : stats)
        stat->reset();
    for (auto *child : children)
        child->resetStats();
}

void
StatGroup::dumpStats(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? _name : prefix + "." + _name;
    for (const auto *stat : stats)
        stat->dump(os, full);
    for (const auto *child : children)
        child->dumpStats(os, full);
}

void
StatGroup::dumpStatsJson(std::ostream &os, int indent,
                         bool pretty) const
{
    std::string open = pretty ? "\n" : "";
    std::string sep = pretty ? ",\n" : ", ";
    std::string pad =
        pretty ? std::string(static_cast<std::size_t>(indent) + 2, ' ')
               : "";
    os << "{";
    bool first = true;
    for (const auto *stat : stats) {
        os << (first ? open : sep) << pad << '"'
           << json::escape(stat->name()) << "\": ";
        stat->dumpJson(os);
        first = false;
    }
    for (const auto *child : children) {
        os << (first ? open : sep) << pad << '"'
           << json::escape(child->groupName()) << "\": ";
        child->dumpStatsJson(os, indent + 2, pretty);
        first = false;
    }
    if (!first && pretty)
        os << '\n' << std::string(static_cast<std::size_t>(indent), ' ');
    os << "}";
}

namespace
{

void
emitLine(std::ostream &os, const std::string &prefix,
         const std::string &name, double value, const std::string &desc)
{
    std::string full = prefix.empty() ? name : prefix + "." + name;
    os << std::left << std::setw(48) << full << ' '
       << std::right << std::setw(16) << value
       << "  # " << desc << '\n';
}

} // namespace

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    emitLine(os, prefix, name(), _value, desc());
}

void
Average::dump(std::ostream &os, const std::string &prefix) const
{
    emitLine(os, prefix, name() + ".mean", mean(), desc());
    emitLine(os, prefix, name() + ".count",
             static_cast<double>(_count), desc() + " (samples)");
}

double
Distribution::quantile(double q) const
{
    std::uint64_t in_range = _count - _underflow - _overflow;
    if (in_range == 0)
        return _lo;
    double target = q * static_cast<double>(in_range);
    double cum = 0.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        double next = cum + static_cast<double>(buckets[i]);
        if (next >= target && buckets[i] > 0) {
            double frac = (target - cum) / buckets[i];
            return _lo + (static_cast<double>(i) + frac) * _bucketWidth;
        }
        cum = next;
    }
    return _hi;
}

double
Distribution::percentile(double q) const
{
    if (_count == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    double target = q * static_cast<double>(_count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < logBuckets.size(); ++i) {
        std::uint64_t n = logBuckets[i];
        if (n == 0)
            continue;
        if (static_cast<double>(seen + n) >= target) {
            // Bucket i holds magnitudes [2^(i-1), 2^i); bucket 0
            // holds [0, 1). Interpolate linearly inside it.
            double lo = i == 0 ? 0.0
                               : std::ldexp(1.0,
                                            static_cast<int>(i) - 1);
            double hi = std::ldexp(1.0, static_cast<int>(i));
            if (i == 0)
                hi = 1.0;
            double frac = (target - static_cast<double>(seen)) /
                          static_cast<double>(n);
            return lo + (hi - lo) * frac;
        }
        seen += n;
    }
    return 0.0;
}

void
Distribution::dump(std::ostream &os, const std::string &prefix) const
{
    emitLine(os, prefix, name() + ".mean", mean(), desc());
    emitLine(os, prefix, name() + ".count",
             static_cast<double>(_count), desc() + " (samples)");
    emitLine(os, prefix, name() + ".underflow",
             static_cast<double>(_underflow), desc() + " (< lo)");
    emitLine(os, prefix, name() + ".overflow",
             static_cast<double>(_overflow), desc() + " (>= hi)");
}

void
Histogram::dump(std::ostream &os, const std::string &prefix) const
{
    emitLine(os, prefix, name() + ".mean", mean(), desc());
    emitLine(os, prefix, name() + ".count",
             static_cast<double>(_count), desc() + " (samples)");
}

void
Formula::dump(std::ostream &os, const std::string &prefix) const
{
    emitLine(os, prefix, name(), value(), desc());
}

namespace
{

/** JSON has no inf/nan literals; write a round-trippable number. */
void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << 0;
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
jsonKind(std::ostream &os, const char *kind, const std::string &desc)
{
    os << "{\"kind\": \"" << kind << "\", \"desc\": \""
       << json::escape(desc) << "\"";
}

} // namespace

void
Scalar::dumpJson(std::ostream &os) const
{
    jsonKind(os, "scalar", desc());
    os << ", \"value\": ";
    jsonNumber(os, _value);
    os << "}";
}

void
Average::dumpJson(std::ostream &os) const
{
    jsonKind(os, "average", desc());
    os << ", \"count\": " << _count << ", \"sum\": ";
    jsonNumber(os, _sum);
    os << ", \"mean\": ";
    jsonNumber(os, mean());
    os << ", \"min\": ";
    jsonNumber(os, minValue());
    os << ", \"max\": ";
    jsonNumber(os, maxValue());
    os << ", \"variance\": ";
    jsonNumber(os, variance());
    os << "}";
}

void
Distribution::dumpJson(std::ostream &os) const
{
    jsonKind(os, "distribution", desc());
    os << ", \"count\": " << _count << ", \"mean\": ";
    jsonNumber(os, mean());
    os << ", \"sum\": ";
    jsonNumber(os, _sum);
    os << ", \"p50\": ";
    jsonNumber(os, p50());
    os << ", \"p95\": ";
    jsonNumber(os, p95());
    os << ", \"p99\": ";
    jsonNumber(os, p99());
    os << ", \"lo\": ";
    jsonNumber(os, _lo);
    os << ", \"hi\": ";
    jsonNumber(os, _hi);
    os << ", \"underflow\": " << _underflow
       << ", \"overflow\": " << _overflow << ", \"buckets\": [";
    for (std::size_t i = 0; i < buckets.size(); ++i)
        os << (i ? ", " : "") << buckets[i];
    os << "]}";
}

void
Histogram::dumpJson(std::ostream &os) const
{
    jsonKind(os, "histogram", desc());
    os << ", \"count\": " << _count << ", \"mean\": ";
    jsonNumber(os, mean());
    // Emit only the occupied log2 buckets to keep files small.
    os << ", \"buckets\": {";
    bool first = true;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        os << (first ? "" : ", ") << '"' << i << "\": " << buckets[i];
        first = false;
    }
    os << "}}";
}

void
Formula::dumpJson(std::ostream &os) const
{
    jsonKind(os, "formula", desc());
    os << ", \"value\": ";
    jsonNumber(os, value());
    os << "}";
}

} // namespace stats
} // namespace tlsim
