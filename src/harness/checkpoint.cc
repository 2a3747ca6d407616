#include "harness/checkpoint.hh"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/filecommit.hh"
#include "mem/warmstate.hh"
#include "sim/logging.hh"

namespace tlsim
{
namespace harness
{

const char *const checkpointVersionSalt = "tlwc-v1";

namespace
{

constexpr char fileMagic[8] = {'T', 'L', 'W', 'C', '0', '0', '0', '1'};
constexpr char planMagic[8] = {'T', 'L', 'S', 'P', '0', '0', '0', '1'};

/** Version salt of the sampling-plan entries (see samplingPlanKey). */
constexpr const char *planVersionSalt = "tlsp-v1";

std::string
toHex(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

} // namespace

std::string
checkpointKey(std::uint64_t trace_hash, std::uint64_t start_record,
              const SystemConfig &config)
{
    std::ostringstream key;
    key << checkpointVersionSalt << "|t" << toHex(trace_hash) << "|r"
        << start_record << "|m" << toHex(config.machineHash()) << "|d"
        << config.design;
    return toHex(fnv1aHash(key.str()));
}

std::string
samplingPlanKey(std::uint64_t trace_hash,
                std::uint64_t interval_instructions,
                std::uint32_t max_clusters, std::uint64_t seed)
{
    std::ostringstream key;
    key << planVersionSalt << "|t" << toHex(trace_hash) << "|i"
        << interval_instructions << "|k" << max_clusters << "|s"
        << seed;
    return toHex(fnv1aHash(key.str()));
}

WarmCheckpointCache::WarmCheckpointCache(std::string dir)
    : _dir(std::move(dir))
{
    if (_dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec)
        fatal("cannot create checkpoint directory '{}': {}", _dir,
              ec.message());
}

std::string
WarmCheckpointCache::path(const std::string &key) const
{
    return _dir + "/warm_" + key + ".tlwc";
}

std::string
WarmCheckpointCache::planPath(const std::string &key) const
{
    return _dir + "/plan_" + key + ".tlsp";
}

void
WarmCheckpointCache::commit(const std::string &file,
                            const std::string &bytes) const
{
    std::string error = commitFile(file, bytes);
    if (!error.empty())
        fatal("cannot store checkpoint entry '{}': {}", file, error);
}

bool
WarmCheckpointCache::load(const std::string &key, System &system,
                          std::uint64_t expect_record) const
{
    if (!enabled())
        return false;
    std::ifstream is(path(key), std::ios::binary);
    if (!is.is_open())
        return false;
    char magic[8];
    if (!is.read(magic, 8) ||
        !std::equal(magic, magic + 8, fileMagic))
        return false;
    std::uint64_t record = 0;
    if (!mem::warm::getU64(is, record) || record != expect_record)
        return false;
    if (!system.loadWarmState(is))
        return false;
    // Trailing-byte check: a truncated write would already have
    // failed above, but extra bytes mean key collision or corruption.
    return is.peek() == std::ifstream::traits_type::eof();
}

void
WarmCheckpointCache::store(const std::string &key, System &system,
                           std::uint64_t start_record) const
{
    if (!enabled())
        return;
    // Serialize to memory first: designs without warm-state support
    // must leave no file behind.
    std::ostringstream out(std::ios::binary);
    out.write(fileMagic, 8);
    mem::warm::putU64(out, start_record);
    if (!system.saveWarmState(out))
        return;
    commit(path(key), out.str());
}

bool
WarmCheckpointCache::loadPlan(const std::string &key,
                              const workload::TraceFile &trace,
                              workload::SamplingPlan &plan) const
{
    if (!enabled())
        return false;
    std::ifstream is(planPath(key), std::ios::binary);
    if (!is.is_open())
        return false;
    char magic[8];
    if (!is.read(magic, 8) ||
        !std::equal(magic, magic + 8, planMagic))
        return false;
    workload::SamplingPlan loaded;
    std::uint64_t rep_count = 0;
    std::uint8_t dropped = 0;
    if (!mem::warm::getU64(is, loaded.intervalInstructions) ||
        !mem::warm::getU64(is, loaded.numIntervals) ||
        !mem::warm::getU64(is, loaded.coveredInstructions) ||
        !mem::warm::getU8(is, dropped) ||
        !mem::warm::getU64(is, rep_count))
        return false;
    // The shape selectIntervals produces: representatives ordered by
    // interval, each starting inside the trace, whose clusters
    // partition the intervals with weight = clusterSize / intervals.
    // Anything else would make the replay seek past the trace or run
    // an unbounded interval.
    if (loaded.intervalInstructions == 0 || dropped > 1 ||
        rep_count == 0 || rep_count > loaded.numIntervals ||
        loaded.coveredInstructions > trace.instructionCount())
        return false;
    loaded.droppedTail = dropped != 0;
    std::uint64_t clustered = 0;
    std::uint64_t spanned = 0;
    for (std::uint64_t i = 0; i < rep_count; ++i) {
        workload::RepresentativeInterval rep;
        std::uint64_t weight_bits = 0;
        if (!mem::warm::getU64(is, rep.interval) ||
            !mem::warm::getU64(is, rep.startRecord) ||
            !mem::warm::getU64(is, rep.startInstr) ||
            !mem::warm::getU64(is, rep.instructions) ||
            !mem::warm::getU64(is, weight_bits) ||
            !mem::warm::getU64(is, rep.clusterSize))
            return false;
        std::memcpy(&rep.weight, &weight_bits, sizeof rep.weight);
        if (rep.interval >= loaded.numIntervals ||
            rep.startRecord >= trace.recordCount() ||
            rep.instructions == 0 ||
            rep.instructions > loaded.coveredInstructions - spanned ||
            rep.startInstr >
                trace.instructionCount() - rep.instructions ||
            rep.clusterSize == 0 ||
            rep.clusterSize > loaded.numIntervals - clustered ||
            rep.weight != static_cast<double>(rep.clusterSize) /
                              static_cast<double>(loaded.numIntervals))
            return false;
        if (!loaded.representatives.empty()) {
            const workload::RepresentativeInterval &prev =
                loaded.representatives.back();
            if (rep.interval <= prev.interval ||
                rep.startRecord <= prev.startRecord ||
                rep.startInstr <= prev.startInstr)
                return false;
        }
        spanned += rep.instructions;
        clustered += rep.clusterSize;
        loaded.representatives.push_back(rep);
    }
    if (clustered != loaded.numIntervals ||
        is.peek() != std::ifstream::traits_type::eof())
        return false;
    plan = std::move(loaded);
    return true;
}

void
WarmCheckpointCache::storePlan(
    const std::string &key, const workload::SamplingPlan &plan) const
{
    if (!enabled())
        return;
    std::ostringstream out(std::ios::binary);
    out.write(planMagic, 8);
    mem::warm::putU64(out, plan.intervalInstructions);
    mem::warm::putU64(out, plan.numIntervals);
    mem::warm::putU64(out, plan.coveredInstructions);
    mem::warm::putU8(out, plan.droppedTail ? 1 : 0);
    mem::warm::putU64(out, plan.representatives.size());
    for (const workload::RepresentativeInterval &rep :
         plan.representatives) {
        std::uint64_t weight_bits = 0;
        std::memcpy(&weight_bits, &rep.weight, sizeof weight_bits);
        mem::warm::putU64(out, rep.interval);
        mem::warm::putU64(out, rep.startRecord);
        mem::warm::putU64(out, rep.startInstr);
        mem::warm::putU64(out, rep.instructions);
        mem::warm::putU64(out, weight_bits);
        mem::warm::putU64(out, rep.clusterSize);
    }
    commit(planPath(key), out.str());
}

} // namespace harness
} // namespace tlsim
