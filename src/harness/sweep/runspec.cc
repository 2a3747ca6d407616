#include "harness/sweep/runspec.hh"

#include <iomanip>
#include <sstream>

namespace tlsim
{
namespace harness
{
namespace sweep
{

RunSpec
makeRunSpec(const std::string &design, const std::string &benchmark,
            const SystemConfig &base)
{
    RunSpec spec;
    spec.benchmark = benchmark;
    spec.config = base;
    spec.config.design = design;
    return spec;
}

std::string
specKey(const RunSpec &spec)
{
    std::ostringstream os;
    os << spec.config.design << '/' << spec.benchmark << "/w"
       << spec.config.warmup << "/m" << spec.config.measure << "/f"
       << spec.config.functionalWarm << "/s" << spec.baseSeed;
    if (!spec.config.isDefaultMachine()) {
        os << "/c" << std::hex << std::setw(16) << std::setfill('0')
           << spec.config.machineHash();
    }
    return os.str();
}

std::uint64_t
fnv1a(const std::string &text)
{
    return fnv1aHash(text);
}

std::uint64_t
traceSeed(const RunSpec &spec)
{
    // Everything except the design and machine contributes: identical
    // traces across designs, distinct traces across benchmarks and
    // budgets.
    std::ostringstream os;
    os << spec.benchmark << "/w" << spec.config.warmup << "/m"
       << spec.config.measure << "/f" << spec.config.functionalWarm
       << "/s" << spec.baseSeed;
    return fnv1a(os.str());
}

std::string
cacheKeyForSpecKey(const std::string &spec_key,
                   const std::string &model_salt)
{
    std::uint64_t hash = fnv1a(spec_key + '#' + model_salt);
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash;
    return os.str();
}

std::string
cacheKey(const RunSpec &spec)
{
    return cacheKeyForSpecKey(specKey(spec), modelVersionSalt);
}

} // namespace sweep
} // namespace harness
} // namespace tlsim
