#include "harness/sweep/resultcache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace tlsim
{
namespace harness
{
namespace sweep
{

namespace
{

/** Name/member tables so serialize and parse can never drift. */
struct DoubleField
{
    const char *name;
    double RunResult::*ptr;
};

struct U64Field
{
    const char *name;
    std::uint64_t RunResult::*ptr;
};

constexpr DoubleField doubleFields[] = {
    {"ipc", &RunResult::ipc},
    {"l2RequestsPer1k", &RunResult::l2RequestsPer1k},
    {"l2MissesPer1k", &RunResult::l2MissesPer1k},
    {"meanLookupLatency", &RunResult::meanLookupLatency},
    {"predictablePct", &RunResult::predictablePct},
    {"banksPerRequest", &RunResult::banksPerRequest},
    {"networkPowerMw", &RunResult::networkPowerMw},
    {"linkUtilizationPct", &RunResult::linkUtilizationPct},
    {"closeHitPct", &RunResult::closeHitPct},
    {"promotesPerInsert", &RunResult::promotesPerInsert},
    {"fastMissPct", &RunResult::fastMissPct},
    {"multiMatchPct", &RunResult::multiMatchPct},
    {"queueWaitMean", &RunResult::queueWaitMean},
    {"wireMean", &RunResult::wireMean},
    {"bankMean", &RunResult::bankMean},
    {"dramMean", &RunResult::dramMean},
};

constexpr U64Field u64Fields[] = {
    {"cycles", &RunResult::cycles},
    {"instructions", &RunResult::instructions},
    {"queueWaitSamples", &RunResult::queueWaitSamples},
    {"wireSamples", &RunResult::wireSamples},
    {"bankSamples", &RunResult::bankSamples},
    {"dramSamples", &RunResult::dramSamples},
};

/**
 * Fields added after tlsim-runresult-v1 entries already existed in
 * the wild: always written, defaulted (not rejected) when an older
 * entry lacks them.
 */
constexpr DoubleField optionalDoubleFields[] = {
    {"linkRetries", &RunResult::linkRetries},
    {"linkTimeouts", &RunResult::linkTimeouts},
    {"degradedRequests", &RunResult::degradedRequests},
    {"faultMean", &RunResult::faultMean},
};

constexpr U64Field optionalU64Fields[] = {
    {"faultSamples", &RunResult::faultSamples},
};

/** A cache entry's identity plus the result it stores. */
struct Entry
{
    std::string spec;
    std::string model;
    RunResult result;
};

/**
 * Decode one entry written by writeResultJson. Every field must have
 * its written type, and every number must convert exactly; on failure
 * @p why names the first problem.
 */
std::optional<Entry>
decodeEntry(const std::string &text, std::string &why)
{
    std::string error;
    std::optional<json::Value> doc = json::parse(text, &error);
    if (!doc || !doc->isObject()) {
        why = "unparseable JSON" +
              (error.empty() ? "" : " (" + error + ")");
        return std::nullopt;
    }
    const std::string *schema = doc->findString("schema");
    if (!schema || *schema != "tlsim-runresult-v1") {
        why = "missing or unknown schema";
        return std::nullopt;
    }
    const std::string *spec = doc->findString("spec");
    const std::string *model = doc->findString("model");
    if (!spec || !model) {
        why = "missing spec/model identity";
        return std::nullopt;
    }
    const std::string *design = doc->findString("design");
    const std::string *benchmark = doc->findString("benchmark");
    if (!design || !benchmark) {
        why = "missing design/benchmark";
        return std::nullopt;
    }
    Entry entry{*spec, *model, RunResult{}};
    entry.result.design = *design;
    entry.result.benchmark = *benchmark;

    // Optional fields default when absent but, like required ones,
    // must convert exactly when present.
    auto decode = [&](const char *name, bool required, auto as,
                      auto &out) {
        const json::Value *v = doc->find(name);
        if (!v) {
            if (required)
                why = csprintf("missing result field '{}'", name);
            return !required;
        }
        auto n = (v->*as)();
        if (!n) {
            why = csprintf("malformed result field '{}'", name);
            return false;
        }
        out = *n;
        return true;
    };
    RunResult &r = entry.result;
    for (const auto &f : u64Fields)
        if (!decode(f.name, true, &json::Value::asU64, r.*f.ptr))
            return std::nullopt;
    for (const auto &f : doubleFields)
        if (!decode(f.name, true, &json::Value::asDouble, r.*f.ptr))
            return std::nullopt;
    for (const auto &f : optionalU64Fields)
        if (!decode(f.name, false, &json::Value::asU64, r.*f.ptr))
            return std::nullopt;
    for (const auto &f : optionalDoubleFields)
        if (!decode(f.name, false, &json::Value::asDouble, r.*f.ptr))
            return std::nullopt;
    return entry;
}

} // namespace

void
writeResultJson(std::ostream &os, const RunSpec &spec,
                const RunResult &result)
{
    auto str = [&](const char *key, const std::string &value) {
        os << "  \"" << key << "\": \"" << json::escape(value)
           << "\",\n";
    };
    os << "{\n";
    str("schema", "tlsim-runresult-v1");
    str("spec", specKey(spec));
    str("model", modelVersionSalt);
    str("design", result.design);
    str("benchmark", result.benchmark);
    for (const auto &field : u64Fields)
        os << "  \"" << field.name << "\": " << result.*field.ptr
           << ",\n";
    for (const auto &field : optionalU64Fields)
        os << "  \"" << field.name << "\": " << result.*field.ptr
           << ",\n";
    std::ostringstream nums;
    nums.precision(std::numeric_limits<double>::max_digits10);
    bool first = true;
    for (const auto &field : doubleFields) {
        if (!first)
            nums << ",\n";
        first = false;
        nums << "  \"" << field.name << "\": " << result.*field.ptr;
    }
    for (const auto &field : optionalDoubleFields)
        nums << ",\n  \"" << field.name
             << "\": " << result.*field.ptr;
    os << nums.str() << "\n}\n";
}

std::optional<RunResult>
readResultJson(const std::string &text, const RunSpec &spec)
{
    std::string why;
    std::optional<Entry> entry = decodeEntry(text, why);
    if (!entry || entry->spec != specKey(spec) ||
        entry->model != modelVersionSalt)
        return std::nullopt;
    return std::move(entry->result);
}

ResultCache::ResultCache(std::string dir) : _dir(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec)
        fatal("cannot create result cache directory '{}': {}", _dir,
              ec.message());
}

std::string
ResultCache::filePath(const RunSpec &spec) const
{
    return _dir + "/" + cacheKey(spec) + ".json";
}

std::optional<RunResult>
ResultCache::load(const RunSpec &spec) const
{
    std::string path = filePath(spec);
    std::ifstream in(path);
    if (!in.is_open())
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    auto result = readResultJson(text.str(), spec);
    if (!result) {
        // Corrupt or truncated entry (interrupted writer, disk
        // trouble, stale schema): treat as a miss and discard it so
        // the re-run can store a clean replacement.
        warn("discarding corrupt result cache entry '{}'", path);
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }
    return result;
}

void
ResultCache::store(const RunSpec &spec, const RunResult &result) const
{
    // Crash-safe commit: write to a per-process tmp name (so two
    // sweeps sharing the cache never clobber each other's tmp file),
    // fsync the data, rename over the final name, fsync the
    // directory. A kill or power cut at any instant leaves either the
    // old entry, the new entry, or a leftover tmp file that load()
    // and --fsck-cache ignore — never a torn visible entry.
    std::string final_path = filePath(spec);
    std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid());
    std::ostringstream text;
    writeResultJson(text, spec, result);
    std::string blob = text.str();

    int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                    0644);
    if (fd < 0)
        fatal("cannot write result cache entry '{}': {}", tmp_path,
              std::strerror(errno));
    const char *data = blob.data();
    std::size_t left = blob.size();
    while (left > 0) {
        ssize_t n = ::write(fd, data, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            fatal("cannot write result cache entry '{}': {}",
                  tmp_path, std::strerror(err));
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        fatal("cannot sync result cache entry '{}': {}", tmp_path,
              std::strerror(err));
    }
    ::close(fd);

    std::error_code ec;
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec)
        fatal("cannot commit result cache entry '{}': {}", final_path,
              ec.message());
    int dirfd = ::open(_dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirfd >= 0) {
        ::fsync(dirfd);
        ::close(dirfd);
    }
}

FsckReport
fsckCache(const std::string &dir)
{
    FsckReport report;
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
        report.problems.push_back("not a directory: " + dir);
        return report;
    }

    std::string quarantine_dir = dir + "/quarantine";
    auto quarantine = [&](const std::filesystem::path &path,
                          const std::string &why) {
        std::error_code qec;
        std::filesystem::create_directories(quarantine_dir, qec);
        std::filesystem::rename(
            path, quarantine_dir + "/" + path.filename().string(),
            qec);
        if (qec) {
            report.problems.push_back(
                path.filename().string() + ": " + why +
                " (and quarantine failed: " + qec.message() + ")");
            return;
        }
        ++report.quarantined;
        report.problems.push_back(path.filename().string() + ": " +
                                  why);
    };

    std::vector<std::filesystem::path> entries;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue; // the quarantine subdir, mainly
        if (entry.path().extension() != ".json")
            continue; // leftover .tmp.<pid> files are not entries
        entries.push_back(entry.path());
    }
    std::sort(entries.begin(), entries.end());

    for (const auto &path : entries) {
        ++report.scanned;
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();

        std::string why;
        std::optional<Entry> entry = decodeEntry(text.str(), why);
        if (!entry) {
            quarantine(path, why);
            continue;
        }
        // The file name must be the content address of the entry's
        // own identity (its declared spec + salt, not the current
        // salt: old-model entries are stale-but-healthy, a mismatch
        // means the content does not belong to this slot).
        std::string want =
            cacheKeyForSpecKey(entry->spec, entry->model) + ".json";
        if (path.filename().string() != want) {
            quarantine(path, "key/content mismatch (expected '" +
                                 want + "')");
            continue;
        }
        ++report.valid;
    }
    return report;
}

} // namespace sweep
} // namespace harness
} // namespace tlsim
