#include "harness/sweep/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "harness/config.hh"
#include "harness/sweep/resultcache.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace tlsim
{
namespace harness
{
namespace sweep
{
namespace journal
{

namespace
{

std::string
hex16(std::uint64_t value)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

} // namespace

DurableLineFile::~DurableLineFile() { close(); }

bool
DurableLineFile::open(const std::string &path, bool append)
{
    close();
    int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
    fd = ::open(path.c_str(), flags, 0644);
    return fd >= 0;
}

bool
DurableLineFile::writeLine(const std::string &line)
{
    if (fd < 0)
        return false;
    std::string buf = line;
    buf += '\n';
    const char *data = buf.data();
    std::size_t left = buf.size();
    while (left > 0) {
        ssize_t n = ::write(fd, data, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            close();
            return false;
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        close();
        return false;
    }
    return true;
}

void
DurableLineFile::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

Identity
identityOf(const std::vector<RunSpec> &specs)
{
    std::ostringstream keys;
    std::ostringstream machines;
    for (const RunSpec &spec : specs) {
        keys << specKey(spec) << '\n';
        machines << hex16(spec.config.machineHash()) << '\n';
    }
    keys << '#' << modelVersionSalt;
    Identity id;
    id.specSet = hex16(fnv1a(keys.str()));
    id.machines = hex16(fnv1a(machines.str()));
    id.specs = specs.size();
    return id;
}

Writer::Writer(const std::string &path, bool append)
{
    if (!file.open(path, append))
        warn("cannot open sweep journal '{}'; sweep will not be "
             "resumable",
             path);
}

void
Writer::writeHeader(const std::vector<RunSpec> &specs)
{
    Identity id = identityOf(specs);
    std::ostringstream os;
    os << "{\"schema\": \"" << schemaName
       << "\", \"event\": \"header\", \"model\": \""
       << modelVersionSalt << "\", \"specset\": \"" << id.specSet
       << "\", \"machines\": \"" << id.machines
       << "\", \"specs\": " << id.specs << "}";
    file.writeLine(os.str());
}

void
Writer::started(const std::string &spec_key)
{
    std::ostringstream os;
    os << "{\"schema\": \"" << schemaName
       << "\", \"event\": \"started\", \"spec\": \""
       << json::escape(spec_key) << "\"}";
    file.writeLine(os.str());
}

void
Writer::done(const std::string &spec_key, const char *outcome,
             const std::string &result_json,
             const std::string &stats_json)
{
    std::ostringstream os;
    os << "{\"schema\": \"" << schemaName
       << "\", \"event\": \"done\", \"spec\": \""
       << json::escape(spec_key) << "\", \"outcome\": \"" << outcome
       << "\", \"result\": \"" << json::escape(result_json) << "\"";
    if (!stats_json.empty())
        os << ", \"stats\": \"" << json::escape(stats_json) << "\"";
    os << "}";
    file.writeLine(os.str());
}

void
Writer::failed(const std::string &spec_key, const std::string &error,
               bool crashed)
{
    std::ostringstream os;
    os << "{\"schema\": \"" << schemaName << "\", \"event\": \""
       << (crashed ? "crashed" : "failed") << "\", \"spec\": \""
       << json::escape(spec_key) << "\", \"error\": \""
       << json::escape(error) << "\"}";
    file.writeLine(os.str());
}

void
Writer::resumed(std::size_t restored, std::size_t requeued)
{
    std::ostringstream os;
    os << "{\"schema\": \"" << schemaName
       << "\", \"event\": \"resumed\", \"restored\": " << restored
       << ", \"requeued\": " << requeued << "}";
    file.writeLine(os.str());
}

void
Writer::interrupted(const char *signal_name, std::size_t resolved,
                    std::size_t pending)
{
    std::ostringstream os;
    os << "{\"schema\": \"" << schemaName
       << "\", \"event\": \"interrupted\", \"signal\": \""
       << signal_name << "\", \"resolved\": " << resolved
       << ", \"pending\": " << pending << "}";
    file.writeLine(os.str());
}

void
Writer::complete(std::size_t executed, std::size_t cached,
                 std::size_t failed)
{
    std::ostringstream os;
    os << "{\"schema\": \"" << schemaName
       << "\", \"event\": \"complete\", \"executed\": " << executed
       << ", \"cached\": " << cached << ", \"failed\": " << failed
       << "}";
    file.writeLine(os.str());
}

ResumeState
loadForResume(const std::string &path,
              const std::vector<RunSpec> &specs)
{
    ResumeState state;
    state.runs.resize(specs.size());

    std::ifstream in(path);
    if (!in.is_open()) {
        state.error = "cannot open journal";
        return state;
    }

    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < specs.size(); ++i)
        index[specKey(specs[i])] = i;

    Identity want = identityOf(specs);
    bool sawHeader = false;
    /** specKey -> started-but-unresolved. */
    std::map<std::size_t, bool> inFlight;

    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::optional<json::Value> rec = json::parse(line);
        if (!rec || !rec->isObject()) {
            // A torn trailing line is the expected signature of a
            // crash mid-write; a torn interior line is corruption.
            if (in.peek() == EOF) {
                warn("journal '{}': ignoring torn trailing line {}",
                     path, lineno);
                break;
            }
            state.error =
                csprintf("corrupt journal line {}", lineno);
            return state;
        }
        const std::string *schema = rec->findString("schema");
        const std::string *event = rec->findString("event");
        if (!schema || *schema != schemaName || !event) {
            state.error = csprintf(
                "line {} is not a {} record", lineno, schemaName);
            return state;
        }

        if (*event == "header") {
            const std::string *model = rec->findString("model");
            const std::string *specset = rec->findString("specset");
            const std::string *machines = rec->findString("machines");
            if (!model || !specset || !machines) {
                state.error = "header missing identity fields";
                return state;
            }
            if (*model != modelVersionSalt) {
                state.error = csprintf(
                    "model salt mismatch: journal '{}' vs current "
                    "'{}'",
                    *model, modelVersionSalt);
                return state;
            }
            if (*specset != want.specSet ||
                *machines != want.machines) {
                state.error =
                    "spec-set/machine identity mismatch (different "
                    "spec list, machine config, or filter)";
                return state;
            }
            sawHeader = true;
            continue;
        }
        if (!sawHeader) {
            state.error = "journal has no identity header";
            return state;
        }

        const std::string *spec = rec->findString("spec");
        std::size_t slot = specs.size();
        if (spec) {
            auto it = index.find(*spec);
            if (it == index.end())
                continue; // identity matched, so this can't happen
            slot = it->second;
        }

        if (*event == "started" && spec) {
            if (!state.runs[slot])
                inFlight[slot] = true;
        } else if (*event == "done" && spec) {
            const std::string *result = rec->findString("result");
            const std::string *outcome = rec->findString("outcome");
            if (!result)
                continue;
            auto parsed = readResultJson(*result, specs[slot]);
            if (!parsed) {
                warn("journal '{}': unreadable result for {} "
                     "(re-queueing)",
                     path, *spec);
                continue;
            }
            RestoredRun run;
            run.result = std::move(*parsed);
            if (const std::string *stats = rec->findString("stats"))
                run.stats = *stats;
            run.outcome = outcome ? *outcome : "executed";
            state.runs[slot] = std::move(run);
            inFlight.erase(slot);
        } else if ((*event == "failed" || *event == "crashed") &&
                   spec) {
            inFlight.erase(slot);
            if (!state.runs[slot])
                ++state.requeuedFailures;
        }
        // resumed / interrupted / complete are informational.
    }

    if (!sawHeader) {
        state.error = "journal has no identity header";
        return state;
    }
    for (const auto &run : state.runs)
        if (run)
            ++state.restored;
    state.inFlight = inFlight.size();
    state.ok = true;
    return state;
}

} // namespace journal
} // namespace sweep
} // namespace harness
} // namespace tlsim
