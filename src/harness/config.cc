#include "harness/config.hh"

#include <charconv>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace tlsim
{
namespace harness
{

namespace
{

/**
 * Shortest round-trip formatting for doubles, shared by the JSON
 * writer and canonicalKey so equal values always print identically.
 */
std::string
formatDouble(double value)
{
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    TLSIM_ASSERT(ec == std::errc(), "double formatting failed");
    return std::string(buf, ptr);
}

const json::Value &
requireField(const json::Value &obj, const std::string &name)
{
    const json::Value *v = obj.find(name);
    if (!v)
        fatal("config JSON missing field '{}'", name);
    return *v;
}

const json::Value &
numberValue(const json::Value &obj, const std::string &name)
{
    const json::Value &v = requireField(obj, name);
    if (!v.isNumber())
        fatal("config field '{}' must be a number", name);
    return v;
}

double
numberField(const json::Value &obj, const std::string &name)
{
    const json::Value &v = numberValue(obj, name);
    std::optional<double> d = v.asDouble();
    if (!d)
        fatal("config field '{}' is out of range (got {})", name,
              v.text);
    return *d;
}

std::uint64_t
u64Field(const json::Value &obj, const std::string &name)
{
    const json::Value &v = numberValue(obj, name);
    std::optional<std::uint64_t> n = v.asU64();
    if (!n)
        fatal("config field '{}' must be an unsigned 64-bit integer "
              "(got {})",
              name, v.text);
    return *n;
}

int
intField(const json::Value &obj, const std::string &name)
{
    const json::Value &v = numberValue(obj, name);
    std::optional<std::int64_t> n = v.asI64();
    if (!n || *n < std::numeric_limits<int>::min() ||
        *n > std::numeric_limits<int>::max())
        fatal("config field '{}' must be an int (got {})", name,
              v.text);
    return static_cast<int>(*n);
}

std::string
stringField(const json::Value &obj, const std::string &name)
{
    const json::Value &v = requireField(obj, name);
    if (!v.isString())
        fatal("config field '{}' must be a string", name);
    return v.text;
}

const json::Value &
objectField(const json::Value &obj, const std::string &name)
{
    const json::Value &v = requireField(obj, name);
    if (!v.isObject())
        fatal("config field '{}' must be an object", name);
    return v;
}

bool
boolField(const json::Value &obj, const std::string &name)
{
    const json::Value &v = requireField(obj, name);
    if (!v.isBool())
        fatal("config field '{}' must be a boolean", name);
    return v.boolean;
}

/** Every member of object field @p name as a numeric option. */
conf::OptionMap
optionsField(const json::Value &obj, const std::string &name)
{
    const json::Value &options = objectField(obj, name);
    conf::OptionMap out;
    for (const auto &member : options.members)
        out[member.first] = numberField(options, member.first);
    return out;
}

L1Config
readL1(const json::Value &obj, const std::string &name)
{
    const json::Value &v = objectField(obj, name);
    L1Config l1;
    l1.bytes = u64Field(v, "bytes");
    l1.ways = intField(v, "ways");
    l1.hitLatency = u64Field(v, "hitLatency");
    l1.mshrs = intField(v, "mshrs");
    return l1;
}

void
writeL1(std::ostream &os, const char *name, const L1Config &l1,
        const char *indent)
{
    os << indent << "\"" << name << "\": {\"bytes\": " << l1.bytes
       << ", \"ways\": " << l1.ways
       << ", \"hitLatency\": " << l1.hitLatency
       << ", \"mshrs\": " << l1.mshrs << "}";
}

constexpr const char *configSchema = "tlsim-systemconfig-v1";

} // namespace

std::string
SystemConfig::canonicalKey() const
{
    std::ostringstream os;
    os << "cores=" << cores << ";design=" << design
       << ";technologyNm=" << technologyNm
       << ";core=" << core.robEntries << "," << core.width << ","
       << core.opLatency << "," << core.mispredictPenalty << ","
       << core.fetchQuanta
       << ";l1i=" << l1i.bytes << "," << l1i.ways << ","
       << l1i.hitLatency << "," << l1i.mshrs
       << ";l1d=" << l1d.bytes << "," << l1d.ways << ","
       << l1d.hitLatency << "," << l1d.mshrs << ";l2Options=";
    for (const auto &[key, value] : l2Options)
        os << key << ":" << formatDouble(value) << ",";
    os << ";functionalWarm=" << functionalWarm << ";warmup=" << warmup
       << ";measure=" << measure << ";coreQuantum=" << coreQuantum;
    // The fault section only appears when faults are configured, so
    // every pre-fault-subsystem key (and hash) is preserved verbatim.
    if (fault != fault::FaultConfig{}) {
        os << ";fault.enabled=" << fault.enabled
           << ";fault.bitErrorRate=" << formatDouble(fault.bitErrorRate)
           << ";fault.deriveFromMargin=" << fault.deriveFromMargin
           << ";fault.deadLinks=" << fault.deadLinks
           << ";fault.stuckBanks=" << fault.stuckBanks
           << ";fault.maxRetries=" << fault.maxRetries
           << ";fault.retryBackoff=" << fault.retryBackoff
           << ";fault.requestTimeout=" << fault.requestTimeout
           << ";fault.crcCycles=" << fault.crcCycles
           << ";fault.watchdogMaxAge=" << fault.watchdogMaxAge
           << ";fault.seed=" << fault.seed;
        // Printed only when scheduled so fault keys predating the
        // DRAM-bank schedule are preserved verbatim.
        if (!fault.dramStuckBanks.empty())
            os << ";fault.dramStuckBanks=" << fault.dramStuckBanks;
    }
    // Same idea for the memory backend: the default ("fixed", no
    // options) adds nothing, so pre-registry keys (and hashes, and
    // therefore every cached paper artifact) are preserved verbatim.
    if (mem != MemConfig{}) {
        os << ";mem.backend=" << mem.backend << ";mem.options=";
        for (const auto &[key, value] : mem.options)
            os << key << ":" << formatDouble(value) << ",";
    }
    return os.str();
}

std::uint64_t
SystemConfig::contentHash() const
{
    return fnv1aHash(canonicalKey());
}

std::uint64_t
SystemConfig::machineHash() const
{
    SystemConfig machine = *this;
    SystemConfig defaults;
    machine.design = defaults.design;
    machine.functionalWarm = defaults.functionalWarm;
    machine.warmup = defaults.warmup;
    machine.measure = defaults.measure;
    return machine.contentHash();
}

bool
SystemConfig::isDefaultMachine() const
{
    SystemConfig machine = *this;
    SystemConfig defaults;
    machine.design = defaults.design;
    machine.functionalWarm = defaults.functionalWarm;
    machine.warmup = defaults.warmup;
    machine.measure = defaults.measure;
    return machine == defaults;
}

void
saveConfigJson(const SystemConfig &config, std::ostream &os)
{
    os << "{\n";
    os << "  \"schema\": \"" << configSchema << "\",\n";
    os << "  \"cores\": " << config.cores << ",\n";
    os << "  \"design\": \"" << config.design << "\",\n";
    os << "  \"technologyNm\": " << config.technologyNm << ",\n";
    os << "  \"core\": {\"robEntries\": " << config.core.robEntries
       << ", \"width\": " << config.core.width
       << ", \"opLatency\": " << config.core.opLatency
       << ", \"mispredictPenalty\": " << config.core.mispredictPenalty
       << ", \"fetchQuanta\": " << config.core.fetchQuanta << "},\n";
    writeL1(os, "l1i", config.l1i, "  ");
    os << ",\n";
    writeL1(os, "l1d", config.l1d, "  ");
    os << ",\n";
    os << "  \"l2Options\": {";
    bool first = true;
    for (const auto &[key, value] : config.l2Options) {
        if (!first)
            os << ", ";
        os << "\"" << key << "\": " << formatDouble(value);
        first = false;
    }
    os << "},\n";
    os << "  \"mem\": {\"backend\": \"" << config.mem.backend
       << "\", \"options\": {";
    first = true;
    for (const auto &[key, value] : config.mem.options) {
        if (!first)
            os << ", ";
        os << "\"" << key << "\": " << formatDouble(value);
        first = false;
    }
    os << "}},\n";
    os << "  \"functionalWarm\": " << config.functionalWarm << ",\n";
    os << "  \"warmup\": " << config.warmup << ",\n";
    os << "  \"measure\": " << config.measure << ",\n";
    os << "  \"coreQuantum\": " << config.coreQuantum << ",\n";
    const fault::FaultConfig &f = config.fault;
    os << "  \"fault\": {\"enabled\": "
       << (f.enabled ? "true" : "false")
       << ", \"bitErrorRate\": " << formatDouble(f.bitErrorRate)
       << ", \"deriveFromMargin\": "
       << (f.deriveFromMargin ? "true" : "false")
       << ", \"deadLinks\": \"" << f.deadLinks << "\""
       << ", \"stuckBanks\": \"" << f.stuckBanks << "\""
       << ", \"dramStuckBanks\": \"" << f.dramStuckBanks << "\""
       << ", \"maxRetries\": " << f.maxRetries
       << ", \"retryBackoff\": " << f.retryBackoff
       << ", \"requestTimeout\": " << f.requestTimeout
       << ", \"crcCycles\": " << f.crcCycles
       << ", \"watchdogMaxAge\": " << f.watchdogMaxAge
       << ", \"seed\": " << f.seed << "}\n";
    os << "}\n";
}

std::string
configToJson(const SystemConfig &config)
{
    std::ostringstream os;
    saveConfigJson(config, os);
    return os.str();
}

SystemConfig
loadConfigJson(const std::string &text)
{
    std::string error;
    std::optional<json::Value> parsed = json::parse(text, &error);
    if (!parsed)
        fatal("config JSON parse error at {}", error);
    const json::Value &root = *parsed;
    if (!root.isObject())
        fatal("config JSON must be an object");
    std::string schema = stringField(root, "schema");
    if (schema != configSchema) {
        fatal("config schema '{}' not supported (expected '{}')",
              schema, configSchema);
    }

    SystemConfig config;
    config.cores = intField(root, "cores");
    config.design = stringField(root, "design");
    config.technologyNm = intField(root, "technologyNm");

    const json::Value &core = objectField(root, "core");
    config.core.robEntries = intField(core, "robEntries");
    config.core.width = intField(core, "width");
    config.core.opLatency = u64Field(core, "opLatency");
    config.core.mispredictPenalty = u64Field(core, "mispredictPenalty");
    config.core.fetchQuanta = intField(core, "fetchQuanta");

    config.l1i = readL1(root, "l1i");
    config.l1d = readL1(root, "l1d");
    config.l2Options = optionsField(root, "l2Options");

    // Optional so configs written before the memory-backend registry
    // load (they get the default "fixed" backend).
    if (root.find("mem")) {
        const json::Value &m = objectField(root, "mem");
        config.mem.backend = stringField(m, "backend");
        config.mem.options = optionsField(m, "options");
    }

    config.functionalWarm = u64Field(root, "functionalWarm");
    config.warmup = u64Field(root, "warmup");
    config.measure = u64Field(root, "measure");
    config.coreQuantum = u64Field(root, "coreQuantum");

    // Optional so configs written before the fault subsystem load.
    if (root.find("fault")) {
        const json::Value &f = objectField(root, "fault");
        config.fault.enabled = boolField(f, "enabled");
        config.fault.bitErrorRate = numberField(f, "bitErrorRate");
        config.fault.deriveFromMargin = boolField(f, "deriveFromMargin");
        config.fault.deadLinks = stringField(f, "deadLinks");
        config.fault.stuckBanks = stringField(f, "stuckBanks");
        // Optional so fault configs predating the DRAM schedule load.
        if (f.find("dramStuckBanks"))
            config.fault.dramStuckBanks =
                stringField(f, "dramStuckBanks");
        config.fault.maxRetries = intField(f, "maxRetries");
        config.fault.retryBackoff = u64Field(f, "retryBackoff");
        config.fault.requestTimeout = u64Field(f, "requestTimeout");
        config.fault.crcCycles = u64Field(f, "crcCycles");
        config.fault.watchdogMaxAge = u64Field(f, "watchdogMaxAge");
        config.fault.seed = u64Field(f, "seed");
    }

    if (config.cores < 1)
        fatal("config requires at least one core (got {})",
              config.cores);
    return config;
}

SystemConfig
loadConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '{}'", path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return loadConfigJson(buffer.str());
}

phys::Technology
technologyForNode(int nm)
{
    TLSIM_ASSERT(nm > 0, "technology node must be positive");
    phys::Technology tech = phys::tech45();
    double scale = static_cast<double>(nm) / 45.0;
    tech.featureSize = nm * 1e-9;
    tech.lambda = tech.featureSize / 2.0;
    tech.sramCellArea *= scale * scale;
    return tech;
}

std::uint64_t
fnv1aHash(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace harness
} // namespace tlsim
