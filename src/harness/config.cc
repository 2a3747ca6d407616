#include "harness/config.hh"

#include <cctype>
#include <charconv>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

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

// ---------------------------------------------------------------------
// Minimal JSON reader, just enough for the SystemConfig schema:
// nested objects, strings, numbers, booleans. Errors are fatal (the
// config came from a user-supplied file).
// ---------------------------------------------------------------------

struct JsonValue
{
    enum class Kind
    {
        Object,
        String,
        Number,
        Bool,
    };

    Kind kind = Kind::Number;
    std::map<std::string, JsonValue> object;
    std::string str;
    double number = 0.0;
    bool boolean = false;
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : text(text)
    {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        fatal("config JSON parse error at offset {}: {}", pos, why);
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    char
    peek()
    {
        skipSpace();
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '"')
            return parseString();
        if (c == 't' || c == 'f')
            return parseBool();
        return parseNumber();
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos;
            return v;
        }
        while (true) {
            JsonValue key = parseString();
            expect(':');
            v.object.emplace(key.str, parseValue());
            char c = peek();
            if (c == ',') {
                ++pos;
                continue;
            }
            if (c == '}') {
                ++pos;
                return v;
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\') {
                if (pos >= text.size())
                    fail("truncated escape");
                char e = text[pos++];
                switch (e) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  default: fail("unsupported escape");
                }
            }
            v.str.push_back(c);
        }
        if (pos >= text.size())
            fail("unterminated string");
        ++pos; // closing quote
        return v;
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (text.compare(pos, 4, "true") == 0) {
            v.boolean = true;
            pos += 4;
        } else if (text.compare(pos, 5, "false") == 0) {
            v.boolean = false;
            pos += 5;
        } else {
            fail("expected boolean");
        }
        return v;
    }

    JsonValue
    parseNumber()
    {
        skipSpace();
        std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E'))
            ++pos;
        if (pos == start)
            fail("expected number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const char *first = text.data() + start;
        const char *last = text.data() + pos;
        auto [ptr, ec] = std::from_chars(first, last, v.number);
        if (ec != std::errc() || ptr != last)
            fail("malformed number");
        return v;
    }

    const std::string &text;
    std::size_t pos = 0;
};

const JsonValue &
requireField(const JsonValue &obj, const std::string &name)
{
    auto it = obj.object.find(name);
    if (it == obj.object.end())
        fatal("config JSON missing field '{}'", name);
    return it->second;
}

double
numberField(const JsonValue &obj, const std::string &name)
{
    const JsonValue &v = requireField(obj, name);
    if (v.kind != JsonValue::Kind::Number)
        fatal("config field '{}' must be a number", name);
    return v.number;
}

std::uint64_t
u64Field(const JsonValue &obj, const std::string &name)
{
    return static_cast<std::uint64_t>(numberField(obj, name));
}

int
intField(const JsonValue &obj, const std::string &name)
{
    return static_cast<int>(numberField(obj, name));
}

std::string
stringField(const JsonValue &obj, const std::string &name)
{
    const JsonValue &v = requireField(obj, name);
    if (v.kind != JsonValue::Kind::String)
        fatal("config field '{}' must be a string", name);
    return v.str;
}

const JsonValue &
objectField(const JsonValue &obj, const std::string &name)
{
    const JsonValue &v = requireField(obj, name);
    if (v.kind != JsonValue::Kind::Object)
        fatal("config field '{}' must be an object", name);
    return v;
}

bool
boolField(const JsonValue &obj, const std::string &name)
{
    const JsonValue &v = requireField(obj, name);
    if (v.kind != JsonValue::Kind::Bool)
        fatal("config field '{}' must be a boolean", name);
    return v.boolean;
}

L1Config
readL1(const JsonValue &obj, const std::string &name)
{
    const JsonValue &v = objectField(obj, name);
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
    JsonParser parser(text);
    JsonValue root = parser.parse();
    if (root.kind != JsonValue::Kind::Object)
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

    const JsonValue &core = objectField(root, "core");
    config.core.robEntries = intField(core, "robEntries");
    config.core.width = intField(core, "width");
    config.core.opLatency = u64Field(core, "opLatency");
    config.core.mispredictPenalty = u64Field(core, "mispredictPenalty");
    config.core.fetchQuanta = intField(core, "fetchQuanta");

    config.l1i = readL1(root, "l1i");
    config.l1d = readL1(root, "l1d");

    const JsonValue &options = objectField(root, "l2Options");
    for (const auto &[key, value] : options.object) {
        if (value.kind != JsonValue::Kind::Number)
            fatal("l2Options entry '{}' must be a number", key);
        config.l2Options[key] = value.number;
    }

    // Optional so configs written before the memory-backend registry
    // load (they get the default "fixed" backend).
    auto mem_it = root.object.find("mem");
    if (mem_it != root.object.end()) {
        const JsonValue &m = mem_it->second;
        if (m.kind != JsonValue::Kind::Object)
            fatal("config field 'mem' must be an object");
        config.mem.backend = stringField(m, "backend");
        const JsonValue &mem_options = objectField(m, "options");
        for (const auto &[key, value] : mem_options.object) {
            if (value.kind != JsonValue::Kind::Number)
                fatal("mem option '{}' must be a number", key);
            config.mem.options[key] = value.number;
        }
    }

    config.functionalWarm = u64Field(root, "functionalWarm");
    config.warmup = u64Field(root, "warmup");
    config.measure = u64Field(root, "measure");
    config.coreQuantum = u64Field(root, "coreQuantum");

    // Optional so configs written before the fault subsystem load.
    auto fault_it = root.object.find("fault");
    if (fault_it != root.object.end()) {
        const JsonValue &f = fault_it->second;
        if (f.kind != JsonValue::Kind::Object)
            fatal("config field 'fault' must be an object");
        config.fault.enabled = boolField(f, "enabled");
        config.fault.bitErrorRate = numberField(f, "bitErrorRate");
        config.fault.deriveFromMargin = boolField(f, "deriveFromMargin");
        config.fault.deadLinks = stringField(f, "deadLinks");
        config.fault.stuckBanks = stringField(f, "stuckBanks");
        // Optional so fault configs predating the DRAM schedule load.
        if (f.object.count("dramStuckBanks"))
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
