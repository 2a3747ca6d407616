#include "repro/reprocli.hh"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "harness/config.hh"
#include "harness/sweep/sweep.hh"
#include "harness/tracerun.hh"
#include "repro/experiments.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/metrics/heatmap.hh"
#include "sim/prof/prof.hh"
#include "sim/trace/debug.hh"
#include "sim/trace/tracesink.hh"
#include "workload/tracefile.hh"

namespace tlsim
{
namespace repro
{

namespace
{

struct CliOptions
{
    bool list = false;
    bool quiet = false;
    bool useCache = true;
    bool dumpConfig = false;
    int jobs = 0; // 0 = hardware concurrency
    std::string filter;
    std::string cacheDir;
    std::string statsJson;
    std::string debugFlags;
    std::string traceOut;
    /** --config FILE replaces the default base config entirely. */
    std::string configFile;
    /** Flag overrides, applied on top of whatever config loaded. */
    std::optional<int> cores;
    std::optional<std::uint64_t> warmup;
    std::optional<std::uint64_t> measure;
    std::optional<std::uint64_t> functionalWarm;
    /** Memory-backend overrides (mem::MemRegistry names/options). */
    std::optional<std::string> memBackend;
    std::vector<std::pair<std::string, double>> memOpts;
    /** Fault-injection overrides; any of them enables the fault model. */
    std::optional<double> faultBer;
    std::optional<std::string> faultDeadLinks;
    std::optional<std::string> faultStuckBanks;
    std::optional<std::string> faultDramStuckBanks;
    bool faultMargin = false;
    /** Robustness (docs/ROBUSTNESS.md). */
    harness::sweep::Isolation isolate = harness::sweep::Isolation::Thread;
    double runTimeoutSec = 0.0;
    std::uint64_t rlimitCpuSec = 0;
    std::uint64_t rlimitRssMb = 0;
    std::string journalPath;
    bool resume = false;
    bool fsckCache = false;
    /** Telemetry: profiler, heatmaps, live progress. */
    std::string profOut;
    bool heatmaps = false;
    bool progress = false;
    std::optional<std::uint64_t> heatmapWindow;
    /** Trace replay (docs/SAMPLING.md): set by --trace FILE. */
    std::string trace;
    bool traceFull = false;
    bool traceValidate = false;
    std::uint32_t intervals = 4;
    std::uint64_t intervalSize = 100'000;
    std::string checkpointDir;

    /**
     * Effective base machine: defaults (or --config file), then
     * individual flag overrides — order on the command line does not
     * matter.
     */
    harness::SystemConfig
    baseConfig() const
    {
        harness::SystemConfig config = configFile.empty()
                                           ? defaultRunConfig()
                                           : harness::loadConfigFile(
                                                 configFile);
        if (cores)
            config.cores = *cores;
        if (warmup)
            config.warmup = *warmup;
        if (measure)
            config.measure = *measure;
        if (functionalWarm)
            config.functionalWarm = *functionalWarm;
        if (memBackend)
            config.mem.backend = *memBackend;
        for (const auto &[key, val] : memOpts)
            config.mem.options[key] = val;
        if (faultBer) {
            config.fault.enabled = true;
            config.fault.bitErrorRate = *faultBer;
        }
        if (faultDeadLinks) {
            config.fault.enabled = true;
            config.fault.deadLinks = *faultDeadLinks;
        }
        if (faultStuckBanks) {
            config.fault.enabled = true;
            config.fault.stuckBanks = *faultStuckBanks;
        }
        if (faultDramStuckBanks) {
            config.fault.enabled = true;
            config.fault.dramStuckBanks = *faultDramStuckBanks;
        }
        if (faultMargin) {
            config.fault.enabled = true;
            config.fault.deriveFromMargin = true;
        }
        return config;
    }
};

void
printUsage(std::ostream &os)
{
    os << "usage: tlsim_repro [options]\n"
          "  --list              print the experiments and exit\n"
          "  --filter a,b        run only the named experiments "
          "(default: all but ablation-*)\n"
          "  --jobs N            worker threads (default: hardware "
          "threads)\n"
          "  --cache-dir DIR     result-cache directory (default "
          "$TLSIM_CACHE_DIR or tlsim_result_cache)\n"
          "  --no-cache          disable result memoization\n"
          "  --stats-json FILE   merged per-run stats JSON, in spec "
          "order (trace mode: tlsim-tracerun-v1 document)\n"
          "  --config FILE       load the machine config (JSON, see "
          "--dump-config)\n"
          "  --dump-config       print the effective config JSON and "
          "exit\n"
          "  --cores N           CMP cores sharing the L2 (default "
          "1)\n"
          "  --warm N            timed-warmup instructions per run\n"
          "  --measure N         measured instructions per run\n"
          "  --funcwarm N        functional-warmup instructions per "
          "run\n"
          "  --mem NAME          main-memory backend: fixed (default, "
          "paper machine) or ddr\n"
          "  --mem-opt K=V       memory-backend option override "
          "(repeatable, e.g. --mem-opt tCAS=42)\n"
          "  --fault-ber P       per-link transient bit-error "
          "probability (enables fault injection)\n"
          "  --fault-dead-links S  dead-link schedule 'id@tick,...' "
          "(enables fault injection)\n"
          "  --fault-stuck-banks S stuck-bank schedule 'id@tick,...' "
          "(enables fault injection)\n"
          "  --fault-dram-stuck-banks S stuck DRAM-bank schedule "
          "'id@tick,...' (enables fault injection)\n"
          "  --fault-margin      scale bit errors by each line's "
          "signal-integrity margin\n"
          "  --isolate MODE      run containment: thread (default) or "
          "process\n"
          "                      (forked, rlimit-capped child per "
          "run; crashes become per-run errors)\n"
          "  --run-timeout SEC   per-run wall-clock timeout (process: "
          "sandbox kill; thread: watchdog)\n"
          "  --rlimit-cpu SEC    per-run CPU-seconds cap "
          "(--isolate=process only)\n"
          "  --rlimit-rss MB     per-run address-space cap in MiB "
          "(--isolate=process only)\n"
          "  --journal FILE      durable write-ahead sweep journal "
          "(JSONL, fsync'd per record)\n"
          "  --resume FILE       resume an interrupted sweep from its "
          "journal (skips completed runs)\n"
          "  --fsck-cache        validate the result cache, "
          "quarantine corrupt entries, and exit\n"
          "                      (exit 0 clean, 2 when entries were "
          "quarantined)\n"
          "  --quiet             suppress per-run progress\n"
          "  --progress          live one-line sweep progress/ETA on "
          "stderr\n"
          "  --prof-out FILE     enable the self-profiler; write "
          "collapsed stacks to FILE,\n"
          "                      attribution table to stderr\n"
          "  --heatmaps          collect spatial bank/link utilization "
          "heatmaps into the stats JSON\n"
          "  --heatmap-window N  heatmap time-window width in ticks "
          "(default 4096)\n"
          "  --debug-flags F,F   debug output (see --jobs 1)\n"
          "  --trace-out FILE    Chrome trace (forces --jobs 1)\n"
          "  --trace FILE        replay a captured .tlt trace with "
          "SimPoint-style interval sampling\n"
          "                      instead of the experiment sweep "
          "(docs/SAMPLING.md)\n"
          "  --trace-full        time the entire trace instead of "
          "sampling it\n"
          "  --trace-validate    run the sampled and the full replay, "
          "report accuracy and speedup\n"
          "  --intervals K       representative intervals to simulate "
          "(default 4)\n"
          "  --interval-size N   interval length in instructions "
          "(default 100000)\n"
          "  --checkpoint-dir D  warm-state checkpoint directory "
          "(default <cache-dir>/warm;\n"
          "                      --no-cache without this flag disables "
          "checkpointing)\n"
          "  --help              this text\n"
          "\nStats-JSON/cache run keys are "
          "design/bench/w…/m…/f…/s…; machines that differ\n"
          "from the default gain a /c<hash> suffix (the 16-hex-digit "
          "machine-config hash,\n"
          "see docs/REPRODUCING.md) so runs on different machines "
          "never collide.\n"
          "\nexperiments (--filter, comma separated):\n";
    for (const auto &experiment : experiments())
        os << "  " << experiment.name << "  \t" << experiment.title
           << "\n";
    os << "\nSet TLSIM_FAST=1 for reduced smoke-test budgets.\n";
}

/**
 * Parse "--key=value" or "--key value"; on match, stores the value
 * and advances @p i past any consumed extra argument.
 */
bool
matchValue(int argc, char **argv, int &i, const char *key,
           std::string &value)
{
    std::size_t len = std::strlen(key);
    if (std::strncmp(argv[i], key, len) != 0)
        return false;
    if (argv[i][len] == '=') {
        value = argv[i] + len + 1;
        return true;
    }
    if (argv[i][len] == '\0' && i + 1 < argc) {
        value = argv[++i];
        return true;
    }
    return false;
}

/**
 * Store a numeric flag's @p value, read as one JSON number token, in
 * @p out: trailing junk, a sign, an exponent or a fraction is an
 * error, not a silent truncation. On error prints "tlsim_repro: FLAG
 * expects ..." and returns false.
 */
template <typename T>
bool
parseCount(const char *flag, const std::string &value, T &out,
           std::uint64_t min = 0,
           std::uint64_t max = UINT64_MAX)
{
    std::optional<std::uint64_t> n = json::parseU64(value);
    if (!n || *n < min || *n > max) {
        std::cerr << "tlsim_repro: " << flag << " expects an integer from "
                  << min << " to " << max << ", got '" << value << "'\n";
        return false;
    }
    out = *n;
    return true;
}

/** parseCount for a real number. */
template <typename T>
bool
parseReal(const char *flag, const std::string &value, T &out)
{
    std::optional<json::Value> token = json::parse(value);
    std::optional<double> x = token ? token->asDouble() : std::nullopt;
    if (!x) {
        std::cerr << "tlsim_repro: " << flag << " expects a number, got '"
                  << value << "'\n";
        return false;
    }
    out = *x;
    return true;
}

bool
parseArgs(int argc, char **argv, CliOptions &opts)
{
    std::string value;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list") == 0) {
            opts.list = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            opts.quiet = true;
        } else if (std::strcmp(argv[i], "--no-cache") == 0) {
            opts.useCache = false;
        } else if (std::strcmp(argv[i], "--dump-config") == 0) {
            opts.dumpConfig = true;
        } else if (std::strcmp(argv[i], "--help") == 0 ||
                   std::strcmp(argv[i], "-h") == 0) {
            printUsage(std::cout);
            std::exit(0);
        } else if (matchValue(argc, argv, i, "--filter",
                              opts.filter) ||
                   matchValue(argc, argv, i, "--cache-dir",
                              opts.cacheDir) ||
                   matchValue(argc, argv, i, "--stats-json",
                              opts.statsJson) ||
                   matchValue(argc, argv, i, "--debug-flags",
                              opts.debugFlags) ||
                   matchValue(argc, argv, i, "--trace-out",
                              opts.traceOut) ||
                   matchValue(argc, argv, i, "--config",
                              opts.configFile) ||
                   matchValue(argc, argv, i, "--prof-out",
                              opts.profOut)) {
            continue;
        } else if (std::strcmp(argv[i], "--fsck-cache") == 0) {
            opts.fsckCache = true;
        } else if (matchValue(argc, argv, i, "--isolate", value)) {
            if (value == "thread") {
                opts.isolate = harness::sweep::Isolation::Thread;
            } else if (value == "process") {
                opts.isolate = harness::sweep::Isolation::Process;
            } else {
                std::cerr << "tlsim_repro: --isolate expects thread or "
                             "process, got '"
                          << value << "'\n";
                return false;
            }
        } else if (matchValue(argc, argv, i, "--run-timeout",
                              value)) {
            if (!parseReal("--run-timeout", value, opts.runTimeoutSec))
                return false;
        } else if (matchValue(argc, argv, i, "--rlimit-cpu", value)) {
            if (!parseCount("--rlimit-cpu", value, opts.rlimitCpuSec))
                return false;
        } else if (matchValue(argc, argv, i, "--rlimit-rss", value)) {
            if (!parseCount("--rlimit-rss", value, opts.rlimitRssMb))
                return false;
        } else if (matchValue(argc, argv, i, "--journal",
                              opts.journalPath)) {
            continue;
        } else if (matchValue(argc, argv, i, "--resume", value)) {
            opts.journalPath = value;
            opts.resume = true;
        } else if (matchValue(argc, argv, i, "--jobs", value)) {
            if (!parseCount("--jobs", value, opts.jobs, 0, INT_MAX))
                return false;
        } else if (matchValue(argc, argv, i, "--cores", value)) {
            if (!parseCount("--cores", value, opts.cores, 1, INT_MAX))
                return false;
        } else if (matchValue(argc, argv, i, "--warm", value)) {
            if (!parseCount("--warm", value, opts.warmup))
                return false;
        } else if (matchValue(argc, argv, i, "--measure", value)) {
            if (!parseCount("--measure", value, opts.measure))
                return false;
        } else if (matchValue(argc, argv, i, "--funcwarm", value)) {
            if (!parseCount("--funcwarm", value, opts.functionalWarm))
                return false;
        } else if (matchValue(argc, argv, i, "--mem-opt", value)) {
            std::size_t eq_pos = value.find('=');
            if (eq_pos == std::string::npos || eq_pos == 0) {
                std::cerr << "tlsim_repro: --mem-opt expects KEY=VALUE"
                             ", got '" << value << "'\n";
                return false;
            }
            double number = 0.0;
            if (!parseReal("--mem-opt", value.substr(eq_pos + 1), number))
                return false;
            opts.memOpts.emplace_back(value.substr(0, eq_pos), number);
        } else if (matchValue(argc, argv, i, "--mem", value)) {
            opts.memBackend = value;
        } else if (matchValue(argc, argv, i, "--fault-ber", value)) {
            if (!parseReal("--fault-ber", value, opts.faultBer))
                return false;
        } else if (matchValue(argc, argv, i, "--fault-dead-links",
                              value)) {
            opts.faultDeadLinks = value;
        } else if (matchValue(argc, argv, i,
                              "--fault-dram-stuck-banks", value)) {
            opts.faultDramStuckBanks = value;
        } else if (matchValue(argc, argv, i, "--fault-stuck-banks",
                              value)) {
            opts.faultStuckBanks = value;
        } else if (std::strcmp(argv[i], "--fault-margin") == 0) {
            opts.faultMargin = true;
        } else if (std::strcmp(argv[i], "--trace-full") == 0) {
            opts.traceFull = true;
        } else if (std::strcmp(argv[i], "--trace-validate") == 0) {
            opts.traceValidate = true;
        } else if (matchValue(argc, argv, i, "--trace", opts.trace) ||
                   matchValue(argc, argv, i, "--checkpoint-dir",
                              opts.checkpointDir)) {
            continue;
        } else if (matchValue(argc, argv, i, "--intervals", value)) {
            if (!parseCount("--intervals", value, opts.intervals, 0,
                            UINT32_MAX))
                return false;
        } else if (matchValue(argc, argv, i, "--interval-size",
                              value)) {
            if (!parseCount("--interval-size", value, opts.intervalSize))
                return false;
        } else if (std::strcmp(argv[i], "--heatmaps") == 0) {
            opts.heatmaps = true;
        } else if (std::strcmp(argv[i], "--progress") == 0) {
            opts.progress = true;
        } else if (matchValue(argc, argv, i, "--heatmap-window",
                              value)) {
            if (!parseCount("--heatmap-window", value,
                            opts.heatmapWindow))
                return false;
        } else {
            std::cerr << "tlsim_repro: unknown argument '" << argv[i]
                      << "'\n\n";
            printUsage(std::cerr);
            return false;
        }
    }
    return true;
}

/** Effective result-cache directory ("" when caching is off). */
std::string
resolveCacheDir(const CliOptions &opts)
{
    if (!opts.useCache)
        return "";
    if (!opts.cacheDir.empty())
        return opts.cacheDir;
    if (const char *env = std::getenv("TLSIM_CACHE_DIR"))
        return env;
    return "tlsim_result_cache";
}

/** Emit a RunResult as a JSON object (trace-mode stats schema). */
void
runResultJson(std::ostream &os, const harness::RunResult &result,
              const char *indent)
{
    os << "{\n"
       << indent << "  \"design\": \"" << json::escape(result.design)
       << "\",\n"
       << indent << "  \"cycles\": " << result.cycles << ",\n"
       << indent << "  \"instructions\": " << result.instructions
       << ",\n"
       << indent << "  \"ipc\": " << result.ipc << ",\n"
       << indent << "  \"l2_requests_per_1k\": "
       << result.l2RequestsPer1k << ",\n"
       << indent << "  \"l2_misses_per_1k\": " << result.l2MissesPer1k
       << ",\n"
       << indent << "  \"mean_lookup_latency\": "
       << result.meanLookupLatency << ",\n"
       << indent << "  \"predictable_pct\": " << result.predictablePct
       << ",\n"
       << indent << "  \"banks_per_request\": "
       << result.banksPerRequest << ",\n"
       << indent << "  \"network_power_mw\": "
       << result.networkPowerMw << ",\n"
       << indent << "  \"link_utilization_pct\": "
       << result.linkUtilizationPct << "\n"
       << indent << "}";
}

/**
 * Trace-replay mode (--trace): sampled by default, full with
 * --trace-full, both plus an accuracy/speedup report with
 * --trace-validate. Bypasses the experiment sweep entirely.
 */
int
runTraceMode(const CliOptions &opts)
{
    workload::TraceFile trace = workload::TraceFile::load(opts.trace);

    harness::TraceRunOptions trun;
    trun.config = opts.baseConfig();
    trun.intervalInstructions = opts.intervalSize;
    trun.maxIntervals = opts.intervals;
    trun.benchmarkLabel =
        std::filesystem::path(opts.trace).filename().string();
    if (!opts.checkpointDir.empty())
        trun.checkpointDir = opts.checkpointDir;
    else if (opts.useCache)
        trun.checkpointDir = resolveCacheDir(opts) + "/warm";

    if (!opts.quiet) {
        std::ostringstream hash;
        hash << std::hex << trace.contentHash();
        inform("trace {}: {} records, {} instructions, hash {}",
               trace.name(), trace.recordCount(),
               trace.instructionCount(), hash.str());
        if (!trun.checkpointDir.empty())
            inform("warm checkpoints: {}", trun.checkpointDir);
    }

    // The transmission-line/wire physics tables are memoized
    // process-wide: build one throwaway System before timing anything
    // so neither replay leg pays (or dodges) the one-off physics
    // solve — wall-clock comparisons stay about simulation work.
    { harness::System prewarm(trun.config); }

    bool run_full = opts.traceFull || opts.traceValidate;
    bool run_sampled = !opts.traceFull || opts.traceValidate;

    harness::RunResult full;
    double full_wall_ms = 0.0;
    if (run_full)
        full = runFullTrace(trace, trun, &full_wall_ms);

    harness::SampledTraceOutcome sampled;
    if (run_sampled)
        sampled = runSampledTrace(trace, trun);

    std::ostream &os = std::cout;
    os << std::fixed << std::setprecision(3);
    if (run_sampled) {
        os << "sampled replay (" << sampled.intervals.size()
           << " intervals x " << trun.intervalInstructions
           << " instructions, "
           << sampled.plan.coveredInstructions
           << " covered):\n"
           << "  interval  start_instr  weight  cluster  warm  "
              "ipc     l2miss/1k\n";
        for (const auto &run : sampled.intervals) {
            os << "  " << std::setw(8) << run.rep.interval << "  "
               << std::setw(11) << run.rep.startInstr << "  "
               << std::setw(6) << run.rep.weight << "  "
               << std::setw(7) << run.rep.clusterSize << "  "
               << (run.fromCheckpoint ? "ckpt" : "cold") << "  "
               << std::setw(6) << run.result.ipc << "  "
               << std::setw(9) << run.result.l2MissesPer1k << "\n";
        }
        os << "  aggregate: ipc " << sampled.aggregate.ipc
           << ", l2miss/1k " << sampled.aggregate.l2MissesPer1k
           << ", lookup " << sampled.aggregate.meanLookupLatency
           << " cyc (" << sampled.checkpointHits << " checkpoint "
           << "hits, " << sampled.checkpointStores << " stores, "
           << sampled.wallMs << " ms)\n";
    }
    if (run_full) {
        os << "full replay: ipc " << full.ipc << ", l2miss/1k "
           << full.l2MissesPer1k << ", lookup "
           << full.meanLookupLatency << " cyc (" << full_wall_ms
           << " ms)\n";
    }

    double speedup = 0.0;
    double ipc_err = 0.0;
    double miss_err = 0.0;
    if (opts.traceValidate) {
        speedup = sampled.wallMs > 0.0 ? full_wall_ms / sampled.wallMs
                                       : 0.0;
        ipc_err = full.ipc != 0.0
                      ? (sampled.aggregate.ipc - full.ipc) / full.ipc
                      : 0.0;
        miss_err = full.l2MissesPer1k != 0.0
                       ? (sampled.aggregate.l2MissesPer1k -
                          full.l2MissesPer1k) /
                             full.l2MissesPer1k
                       : 0.0;
        os << "validate: speedup " << speedup << "x, ipc error "
           << 100.0 * ipc_err << "%, l2miss/1k error "
           << 100.0 * miss_err << "%\n";
    }

    if (!opts.statsJson.empty()) {
        std::ofstream out(opts.statsJson);
        if (!out.is_open())
            fatal("cannot open stats JSON file '{}'", opts.statsJson);
        out << std::setprecision(12);
        out << "{\n\"schema\": \"tlsim-tracerun-v1\",\n";
        out << "\"trace\": {\"file\": \"" << json::escape(trace.name())
            << "\", \"records\": " << trace.recordCount()
            << ", \"instructions\": " << trace.instructionCount()
            << ", \"content_hash\": \"" << std::hex
            << trace.contentHash() << std::dec << "\"},\n";
        if (run_sampled) {
            out << "\"plan\": {\"interval_instructions\": "
                << sampled.plan.intervalInstructions
                << ", \"num_intervals\": "
                << sampled.plan.numIntervals
                << ", \"covered_instructions\": "
                << sampled.plan.coveredInstructions
                << ", \"dropped_tail\": " << sampled.plan.droppedTail
                << "},\n";
            out << "\"intervals\": [\n";
            for (std::size_t i = 0; i < sampled.intervals.size();
                 ++i) {
                const auto &run = sampled.intervals[i];
                out << "  {\"interval\": " << run.rep.interval
                    << ", \"start_record\": " << run.rep.startRecord
                    << ", \"start_instr\": " << run.rep.startInstr
                    << ", \"instructions\": " << run.rep.instructions
                    << ", \"weight\": " << run.rep.weight
                    << ", \"cluster_size\": " << run.rep.clusterSize
                    << ", \"from_checkpoint\": "
                    << (run.fromCheckpoint ? "true" : "false")
                    << ", \"stats\": ";
                runResultJson(out, run.result, "  ");
                out << "}"
                    << (i + 1 < sampled.intervals.size() ? "," : "")
                    << "\n";
            }
            out << "],\n";
            out << "\"aggregate\": ";
            runResultJson(out, sampled.aggregate, "");
            out << ",\n";
            out << "\"checkpoint\": {\"dir\": \""
                << json::escape(trun.checkpointDir)
                << "\", \"hits\": " << sampled.checkpointHits
                << ", \"stores\": " << sampled.checkpointStores
                << "},\n";
            out << "\"timed_instructions\": "
                << sampled.timedInstructions
                << ",\n\"warm_records_replayed\": "
                << sampled.warmRecordsReplayed
                << ",\n\"sampled_wall_ms\": " << sampled.wallMs
                << ",\n";
        }
        if (run_full) {
            out << "\"full\": ";
            runResultJson(out, full, "");
            out << ",\n\"full_wall_ms\": " << full_wall_ms << ",\n";
        }
        if (opts.traceValidate) {
            out << "\"speedup\": " << speedup
                << ",\n\"ipc_rel_error\": " << ipc_err
                << ",\n\"l2_misses_per_1k_rel_error\": " << miss_err
                << ",\n";
        }
        out << "\"benchmark\": \"" << json::escape(trun.benchmarkLabel)
            << "\"\n}\n";
        if (!opts.quiet)
            inform("stats JSON written: {}", opts.statsJson);
    }
    return 0;
}

std::vector<const Experiment *>
selectExperiments(const std::string &filter, bool &ok)
{
    std::vector<const Experiment *> selected;
    ok = true;
    if (filter.empty()) {
        for (const auto &experiment : experiments()) {
            if (!std::string_view(experiment.name)
                     .starts_with("ablation-"))
                selected.push_back(&experiment);
        }
        return selected;
    }
    std::istringstream names(filter);
    std::string name;
    while (std::getline(names, name, ',')) {
        if (name.empty())
            continue;
        const Experiment *experiment = findExperiment(name);
        if (!experiment) {
            std::cerr << "tlsim_repro: unknown experiment '" << name
                      << "' (see --list)\n";
            ok = false;
            return {};
        }
        selected.push_back(experiment);
    }
    return selected;
}

} // namespace

int
reproMain(int argc, char **argv)
{
    CliOptions opts;
    if (!parseArgs(argc, argv, opts))
        return 1;

    if (opts.fsckCache) {
        std::string dir = resolveCacheDir(opts);
        if (dir.empty()) {
            std::cerr << "tlsim_repro: --fsck-cache needs a cache "
                         "directory (--no-cache given)\n";
            return 1;
        }
        auto report = harness::sweep::fsckCache(dir);
        for (const auto &problem : report.problems)
            std::cerr << "  " << problem << "\n";
        std::cout << "fsck " << dir << ": " << report.scanned
                  << " scanned, " << report.valid << " valid, "
                  << report.quarantined << " quarantined";
        if (report.quarantined > 0)
            std::cout << " (moved to " << dir << "/quarantine)";
        std::cout << std::endl;
        return report.quarantined > 0 ? 2 : 0;
    }

    if (opts.dumpConfig) {
        harness::saveConfigJson(opts.baseConfig(), std::cout);
        return 0;
    }

    if (opts.list) {
        for (const auto &experiment : experiments())
            std::cout << experiment.name << "  \t" << experiment.title
                      << "\n";
        return 0;
    }

    if (!opts.trace.empty())
        return runTraceMode(opts);

    bool ok = false;
    auto selected = selectExperiments(opts.filter, ok);
    if (!ok)
        return 1;

    if (!opts.debugFlags.empty())
        debug::setFlags(opts.debugFlags);

    int jobs = opts.jobs;
    if (jobs <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        jobs = hw > 0 ? static_cast<int>(hw) : 1;
    }

    std::unique_ptr<trace::TraceSink> sink;
    if (!opts.traceOut.empty()) {
        if (jobs > 1) {
            warn("--trace-out interleaves spans across workers; "
                 "forcing --jobs 1");
            jobs = 1;
        }
        sink = std::make_unique<trace::TraceSink>(opts.traceOut);
        trace::TraceSink::setActive(sink.get());
    }

    std::string cache_dir = resolveCacheDir(opts);

    // Union of every selected experiment's specs, deduplicated so
    // shared cells (e.g. Figure 5 and 6 both need DNUCA runs)
    // simulate once.
    harness::SystemConfig base = opts.baseConfig();
    std::vector<harness::sweep::RunSpec> specs;
    for (const auto *experiment : selected) {
        if (!experiment->specs)
            continue;
        for (const auto &spec : experiment->specs(base))
            harness::sweep::addUnique(specs, spec);
    }

    // Telemetry knobs take effect before any System is built: the
    // spatial flag is read at design construction, and the profiler's
    // enabled-check sits on every dispatch site.
    metrics::spatialEnabled = opts.heatmaps;
    if (opts.heatmapWindow)
        metrics::spatialWindowTicks = *opts.heatmapWindow;
    if (!opts.profOut.empty())
        prof::setEnabled(true);

    harness::sweep::SweepOptions sweep_opts;
    sweep_opts.jobs = jobs;
    sweep_opts.cacheDir = cache_dir;
    sweep_opts.captureStats = !opts.statsJson.empty();
    sweep_opts.verbose = !opts.quiet;
    sweep_opts.progress = opts.progress;
    sweep_opts.isolate = opts.isolate;
    sweep_opts.runTimeoutSec = opts.runTimeoutSec;
    sweep_opts.rlimitCpuSec = opts.rlimitCpuSec;
    sweep_opts.rlimitRssMb = opts.rlimitRssMb;
    sweep_opts.journalPath = opts.journalPath;
    sweep_opts.resume = opts.resume;

    harness::sweep::SweepOutcome outcome;
    if (!specs.empty())
        outcome = harness::sweep::runSweep(specs, sweep_opts);

    if (outcome.interrupted) {
        std::cerr << "tlsim_repro: sweep interrupted after "
                  << (outcome.executed + outcome.cached +
                      outcome.restored)
                  << "/" << specs.size()
                  << " runs; resume with --resume "
                  << opts.journalPath << std::endl;
        return 130;
    }

    if (!opts.profOut.empty()) {
        prof::setEnabled(false);
        std::ofstream collapsed(opts.profOut);
        if (!collapsed.is_open()) {
            warn("cannot open profile output '{}'", opts.profOut);
        } else {
            prof::Registry::instance().writeCollapsed(collapsed);
            if (!opts.quiet)
                inform("collapsed stacks written: {}", opts.profOut);
        }
        prof::Registry::instance().writeReport(std::cerr);
    }

    if (!opts.quiet && !specs.empty()) {
        std::cerr << "sweep: " << outcome.executed << " simulated, "
                  << outcome.cached << " from cache";
        if (outcome.restored > 0)
            std::cerr << ", " << outcome.restored
                      << " restored from journal";
        if (outcome.failed > 0)
            std::cerr << ", " << outcome.failed << " FAILED";
        if (!cache_dir.empty())
            std::cerr << " (" << cache_dir << ")";
        std::cerr << std::endl;
    }
    if (outcome.failed > 0) {
        std::cerr << "tlsim_repro: " << outcome.failed
                  << " run(s) failed:\n";
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!outcome.results[i].error.empty())
                std::cerr << "  " << harness::sweep::specKey(specs[i])
                          << ": " << outcome.results[i].error << "\n";
        }
    }

    std::map<std::pair<std::string, std::string>, std::size_t> index;
    for (std::size_t i = 0; i < specs.size(); ++i)
        index[{specs[i].config.design, specs[i].benchmark}] = i;
    ResultLookup lookup =
        [&](const std::string &design,
            const std::string &bench) -> const harness::RunResult & {
        auto it = index.find({design, bench});
        if (it == index.end())
            panic("experiment requested a run outside its spec list: "
                  "{}/{}", design, bench);
        return outcome.results[it->second];
    };

    bool first = true;
    for (const auto *experiment : selected) {
        if (!first)
            std::cout << "\n";
        first = false;
        experiment->render(std::cout, lookup);
    }

    if (!opts.statsJson.empty()) {
        std::ofstream out(opts.statsJson);
        if (!out.is_open())
            fatal("cannot open stats JSON file '{}'", opts.statsJson);
        out << harness::sweep::mergedStatsJson(specs, outcome);
        if (!opts.quiet)
            inform("stats JSON written: {}", opts.statsJson);
    }

    if (sink) {
        trace::TraceSink::setActive(nullptr);
        sink->close();
        if (!opts.quiet)
            inform("trace written: {} ({} events)", opts.traceOut,
                   sink->eventCount());
    }
    return outcome.failed > 0 ? 1 : 0;
}

} // namespace repro
} // namespace tlsim
