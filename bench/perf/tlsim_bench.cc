/**
 * @file
 * Performance regression harness: micro + end-to-end kernels.
 *
 * Measures the simulator's own speed (the ROADMAP's "runs as fast as
 * the hardware allows") and emits BENCH_kernel.json in the stable
 * tlsim-bench-v1 schema, seeding the repo's perf trajectory:
 *
 *   tlsim_bench --quick                       # CI-sized run
 *   tlsim_bench --compare baseline.json       # speedups vs a baseline
 *   tlsim_bench --validate BENCH_kernel.json  # schema check (CI gate)
 *
 * Kernels:
 *   eventq_throughput     schedule+dispatch rate through EventQueue
 *   eventq_churn          deschedule-heavy load (heap compaction path)
 *   pulse_sim_cold        one frequency-domain pulse sim, cold caches
 *   physcache_hot         memoized pulse lookups through PhysCache
 *   ddr_frfcfs            requests/s through the banked "ddr" memory
 *                         backend's FR-FCFS scheduling hot path
 *   snuca_single_run      one fault-free SNUCA2 run at quickstart
 *                         budgets; --compare fails when it slowed
 *                         more than 3% against the baseline
 *   sweep_quickstart      the quickstart sweep, warm physics memo
 *                         (same 3% wall-time gate)
 *   sweep_quickstart_memocold  same sweep with the memo cleared first
 *   telemetry_overhead    profiler-on / profiler-off wall ratio on the
 *                         eventq workload; --compare fails when the
 *                         enabled profiler costs more than 3%
 *
 * The sweep kernels run the same table6 spec list as `tlsim_repro
 * --filter table6` (fault-margin weighting on, so the per-pair pulse
 * simulations the memo cache exists for are actually on the path),
 * and assert memo-cold and memo-hot runs produce identical results.
 *
 * Comparison semantics: wall_s metrics speed up as baseline/current,
 * rate metrics as current/baseline, so "speedup 2.0" always means
 * "twice as fast".
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/sweep/sweep.hh"
#include "harness/system.hh"
#include "mem/ddr.hh"
#include "phys/geometry.hh"
#include "phys/physcache.hh"
#include "phys/pulse.hh"
#include "phys/technology.hh"
#include "repro/experiments.hh"
#include "sim/eventq.hh"
#include "sim/json.hh"
#include "sim/prof/prof.hh"
#include "workload/profile.hh"

namespace
{

using tlsim::Event;
using tlsim::EventQueue;
using tlsim::Tick;
namespace json = tlsim::json;

double
wallSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

long
peakRssBytes()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is kilobytes on Linux.
    return usage.ru_maxrss * 1024L;
}

/** One measured kernel result. */
struct Kernel
{
    std::string name;
    std::string metric; // "wall_s" or "..._per_sec"
    double value = 0.0;
    double wallS = 0.0;
};

// ---------------------------------------------------------------- //
// Kernels                                                          //
// ---------------------------------------------------------------- //

/** Self-rescheduling typed event for the throughput kernel. */
class TickerEvent : public Event
{
  public:
    TickerEvent(EventQueue &eq, std::uint64_t limit)
        : eventq(eq), remaining(limit)
    {}

    void
    process() override
    {
        if (--remaining > 0)
            eventq.schedule(this, eventq.now() + 1);
    }

    const char *name() const override { return "TickerEvent"; }

  private:
    EventQueue &eventq;
    std::uint64_t remaining;
};

Kernel
benchEventqThroughput(bool quick)
{
    const std::uint64_t typed = quick ? 400'000 : 4'000'000;
    const std::uint64_t oneshots = quick ? 200'000 : 2'000'000;

    auto start = std::chrono::steady_clock::now();
    EventQueue eq;
    TickerEvent ticker(eq, typed);
    eq.schedule(&ticker, 1);
    std::uint64_t fired = 0;
    // Interleave pooled one-shots with the self-rescheduling typed
    // event: the dominant mix on the L1-miss path.
    for (std::uint64_t i = 0; i < oneshots; ++i) {
        eq.scheduleCallback(eq.now() + 2, [&fired](Tick) { ++fired; });
        eq.advanceTo(eq.now() + 1);
    }
    std::uint64_t processed = eq.run();
    double secs = wallSeconds(start);

    if (fired != oneshots)
        throw std::runtime_error("eventq_throughput lost callbacks");
    (void)processed;
    return Kernel{"eventq_throughput", "events_per_sec",
                  static_cast<double>(typed + oneshots) / secs, secs};
}

Kernel
benchEventqChurn(bool quick)
{
    const std::uint64_t rounds = quick ? 100'000 : 1'000'000;

    auto start = std::chrono::steady_clock::now();
    EventQueue eq;
    std::uint64_t fired = 0;
    // Retry-heavy pattern: schedule, squash, reschedule later — the
    // load that used to accumulate stale heap entries unboundedly.
    for (std::uint64_t i = 0; i < rounds; ++i) {
        Event *ev = eq.scheduleCallback(eq.now() + 100,
                                        [&fired](Tick) { ++fired; });
        eq.deschedule(ev);
        eq.scheduleCallback(eq.now() + 1, [&fired](Tick) { ++fired; });
        eq.advanceTo(eq.now() + 1);
        // Compaction keeps squashed entries bounded by 2x live.
        if (eq.heapSize() > 64 &&
            eq.staleCount() > 2 * (eq.size() + 1)) {
            throw std::runtime_error("eventq compaction ineffective");
        }
    }
    eq.run();
    double secs = wallSeconds(start);

    if (fired != rounds)
        throw std::runtime_error("eventq_churn lost callbacks");
    return Kernel{"eventq_churn", "events_per_sec",
                  static_cast<double>(2 * rounds) / secs, secs};
}

Kernel
benchPulseSimCold(bool quick)
{
    const int iters = quick ? 20 : 100;
    const auto &tech = tlsim::phys::tech45();
    const auto &lines = tlsim::phys::paperTable1Lines();

    auto start = std::chrono::steady_clock::now();
    double checksum = 0.0;
    for (int i = 0; i < iters; ++i) {
        // Fresh simulator per iteration: no per-instance r_ac table
        // reuse, so this tracks the true cold cost.
        tlsim::phys::PulseSimulator sim(tech);
        const auto &spec = lines[static_cast<std::size_t>(i) %
                                 lines.size()];
        auto pr = sim.simulate(spec.geometry, spec.length);
        checksum += pr.delay;
    }
    double secs = wallSeconds(start);

    if (!std::isfinite(checksum))
        throw std::runtime_error("pulse_sim_cold produced non-finite");
    return Kernel{"pulse_sim_cold", "sims_per_sec", iters / secs, secs};
}

Kernel
benchPhyscacheHot(bool quick)
{
    const std::uint64_t lookups = quick ? 200'000 : 2'000'000;
    const auto &tech = tlsim::phys::tech45();
    const auto &lines = tlsim::phys::paperTable1Lines();
    auto &cache = tlsim::phys::PhysCache::instance();

    // Warm the entries, then measure pure hit throughput.
    for (const auto &spec : lines)
        cache.pulse(tech, spec.geometry, spec.length);

    auto start = std::chrono::steady_clock::now();
    double checksum = 0.0;
    for (std::uint64_t i = 0; i < lookups; ++i) {
        const auto &spec = lines[i % lines.size()];
        checksum +=
            cache.pulse(tech, spec.geometry, spec.length).delay;
    }
    double secs = wallSeconds(start);

    if (!std::isfinite(checksum))
        throw std::runtime_error("physcache_hot produced non-finite");
    return Kernel{"physcache_hot", "lookups_per_sec", lookups / secs,
                  secs};
}

Kernel
benchDdrFrfcfs(bool quick)
{
    const std::uint64_t requests = quick ? 200'000 : 2'000'000;

    auto start = std::chrono::steady_clock::now();
    EventQueue eq;
    tlsim::stats::StatGroup root("bench");
    tlsim::mem::DdrBackend::Params params;
    params.tREFI = 2'000; // keep the refresh catch-up path hot
    tlsim::mem::DdrBackend dram(eq, &root, params);

    // Mixed locality: mostly-sequential streams (row hits) with
    // random jumps (row misses/conflicts) and 1-in-8 writebacks — the
    // FR-FCFS pick loop's realistic worst mix. Deterministic LCG so
    // every run measures the identical request stream.
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    std::uint64_t issued_reads = 0, completed = 0;
    tlsim::Addr ptr = 0;
    for (std::uint64_t i = 0; i < requests; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        if ((lcg >> 60) != 0)
            ptr += 1; // sequential: same row per channel, mostly hits
        else
            ptr = (lcg >> 20) % 1'000'000; // jump: miss or conflict
        if ((i & 7) == 7) {
            dram.write(ptr, eq.now());
        } else {
            ++issued_reads;
            dram.read(ptr, eq.now(),
                      [&completed](Tick) { ++completed; });
        }
        // Drain in small batches so queue depth stays realistic
        // instead of accumulating the whole stream in the spill.
        if ((i & 31) == 31)
            eq.run();
    }
    eq.run();
    double secs = wallSeconds(start);

    if (completed != issued_reads)
        throw std::runtime_error("ddr_frfcfs lost read callbacks");
    if (dram.rowHits.value() == 0.0 || dram.rowConflicts.value() == 0.0)
        throw std::runtime_error("ddr_frfcfs address mix degenerate");
    return Kernel{"ddr_frfcfs", "reqs_per_sec",
                  static_cast<double>(requests) / secs, secs};
}

/**
 * One fault-free SNUCA2 run at quickstart-sized budgets: the serial
 * timed path end to end. --compare holds it to within 3% of the
 * baseline's wall time.
 */
Kernel
benchSnucaSingleRun(bool quick)
{
    tlsim::harness::SystemConfig config =
        tlsim::repro::defaultRunConfig();
    config.design = "SNUCA2";
    config.functionalWarm = quick ? 50'000 : 200'000;
    config.warmup = quick ? 5'000 : 20'000;
    config.measure = quick ? 50'000 : 500'000;
    const auto &profile = tlsim::workload::profileByName("bzip");

    auto start = std::chrono::steady_clock::now();
    auto result = tlsim::harness::runBenchmark(config, profile, 3);
    double secs = wallSeconds(start);

    if (!result.error.empty())
        throw std::runtime_error("snuca_single_run failed: " +
                                 result.error);
    if (result.cycles == 0)
        throw std::runtime_error("snuca_single_run measured nothing");
    return Kernel{"snuca_single_run", "wall_s", secs, secs};
}

/**
 * The quickstart sweep: the table6 experiment's spec list on reduced
 * budgets with margin-weighted fault injection enabled, exactly the
 * workload of
 *
 *   tlsim_repro --filter table6 --jobs 1 --warm 2000 --measure 5000
 *       --funcwarm 50000 --fault-ber 1e-6 --fault-margin --no-cache
 *
 * (full mode uses --warm 5000 --measure 20000 --funcwarm 200000).
 */
std::vector<tlsim::harness::sweep::RunSpec>
quickstartSpecs(bool quick)
{
    const auto *table6 = tlsim::repro::findExperiment("table6");
    if (!table6)
        throw std::runtime_error("table6 experiment not registered");
    tlsim::harness::SystemConfig base = tlsim::repro::defaultRunConfig();
    base.warmup = quick ? 2'000 : 5'000;
    base.measure = quick ? 5'000 : 20'000;
    base.functionalWarm = quick ? 50'000 : 200'000;
    base.fault.enabled = true;
    base.fault.bitErrorRate = 1e-6;
    base.fault.deriveFromMargin = true;
    return table6->specs(base);
}

/** One pass of the eventq throughput mix; returns wall seconds. */
double
eventqWorkloadSeconds(std::uint64_t typed, std::uint64_t oneshots)
{
    auto start = std::chrono::steady_clock::now();
    EventQueue eq;
    TickerEvent ticker(eq, typed);
    eq.schedule(&ticker, 1);
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < oneshots; ++i) {
        eq.scheduleCallback(eq.now() + 2, [&fired](Tick) { ++fired; });
        eq.advanceTo(eq.now() + 1);
    }
    eq.run();
    double secs = wallSeconds(start);
    if (fired != oneshots)
        throw std::runtime_error("telemetry_overhead lost callbacks");
    return secs;
}

/**
 * Cost of the self-profiler on the dispatch hot path: the eventq
 * throughput workload timed with profiling off and on, alternating
 * within each rep so frequency drift hits both sides equally. The
 * reported value is min(on)/min(off) — 1.0 means free, 1.03 is the
 * budget --compare enforces.
 */
Kernel
benchTelemetryOverhead(bool quick)
{
    // Quick passes must still be long enough (~tens of ms) that the
    // per-rep ratio isn't dominated by timer and scheduler noise:
    // the gate compares against a 3% budget.
    const std::uint64_t typed = quick ? 1'000'000 : 2'000'000;
    const std::uint64_t oneshots = quick ? 500'000 : 1'000'000;
    const int reps = quick ? 11 : 7;

    bool was_enabled = tlsim::prof::enabled();
    auto start = std::chrono::steady_clock::now();
    // One discarded pass warms the allocator pools and branch
    // predictors; then each rep pairs an off- and an on-pass taken
    // back to back (order alternating per rep, so neither side
    // systematically runs first), and the median per-rep ratio is
    // reported. The pairing cancels slow frequency drift; the median
    // discards the reps a shared box's noise bursts land on (min
    // would credit noise on the off side as a fake speedup).
    tlsim::prof::setEnabled(false);
    eventqWorkloadSeconds(typed, oneshots);
    std::vector<double> ratios;
    ratios.reserve(reps);
    for (int r = 0; r < reps; ++r) {
        bool on_first = (r & 1) != 0;
        tlsim::prof::setEnabled(on_first);
        double first = eventqWorkloadSeconds(typed, oneshots);
        tlsim::prof::setEnabled(!on_first);
        double second = eventqWorkloadSeconds(typed, oneshots);
        double on = on_first ? first : second;
        double off = on_first ? second : first;
        ratios.push_back(on / off);
    }
    tlsim::prof::setEnabled(was_enabled);
    std::sort(ratios.begin(), ratios.end());
    double median_ratio = ratios[ratios.size() / 2];
    // When no one was profiling, the on-passes' samples are junk —
    // drop them. Under --prof-out the tree stays intact (a reset here
    // would also free the node of the caller's still-open scope) and
    // the samples simply show under this kernel's scope.
    if (!was_enabled)
        tlsim::prof::Registry::instance().reset();
    double secs = wallSeconds(start);

    return Kernel{"telemetry_overhead", "on_off_ratio",
                  median_ratio, secs};
}

std::pair<Kernel, Kernel>
benchSweepQuickstart(bool quick, int jobs)
{
    auto specs = quickstartSpecs(quick);
    tlsim::harness::sweep::SweepOptions options;
    options.jobs = jobs;
    options.verbose = false;

    // Memo-cold: every physics value computed from scratch.
    tlsim::phys::PhysCache::instance().clear();
    auto cold_start = std::chrono::steady_clock::now();
    auto cold = tlsim::harness::sweep::runSweep(specs, options);
    double cold_secs = wallSeconds(cold_start);

    // Memo-hot: the sweep the quickstart user actually experiences
    // once the process-wide memo is populated.
    auto hot_start = std::chrono::steady_clock::now();
    auto hot = tlsim::harness::sweep::runSweep(specs, options);
    double hot_secs = wallSeconds(hot_start);

    if (cold.failed || hot.failed)
        throw std::runtime_error("quickstart sweep run failed");
    // Memoization must never change results.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto &a = cold.results[i];
        const auto &b = hot.results[i];
        if (a.cycles != b.cycles || a.ipc != b.ipc ||
            a.meanLookupLatency != b.meanLookupLatency) {
            throw std::runtime_error(
                "memo-hot sweep diverged from memo-cold");
        }
    }

    return {Kernel{"sweep_quickstart", "wall_s", hot_secs, hot_secs},
            Kernel{"sweep_quickstart_memocold", "wall_s", cold_secs,
                   cold_secs}};
}

// ---------------------------------------------------------------- //
// Output, comparison, validation                                   //
// ---------------------------------------------------------------- //

void
writeJson(const std::string &path, const std::vector<Kernel> &kernels,
          bool quick, int jobs,
          const std::map<std::string, double> &speedups,
          const std::string &baseline_path)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\n";
    os << "  \"schema\": \"tlsim-bench-v1\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"kernels\": [\n";
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const Kernel &k = kernels[i];
        os << "    {\"name\": \"" << k.name << "\", \"metric\": \""
           << k.metric << "\", \"value\": " << k.value
           << ", \"wall_s\": " << k.wallS << "}"
           << (i + 1 < kernels.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    if (!speedups.empty()) {
        os << "  \"baseline\": \"" << baseline_path << "\",\n";
        os << "  \"speedups\": {";
        bool first = true;
        for (const auto &[name, speedup] : speedups) {
            os << (first ? "" : ", ") << "\"" << name
               << "\": " << speedup;
            first = false;
        }
        os << "},\n";
    }
    os << "  \"peak_rss_bytes\": " << peakRssBytes() << "\n";
    os << "}\n";

    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << os.str();
}

/** Member @p key as a number (always finite), or nullopt. */
std::optional<double>
numberAt(const json::Value &obj, std::string_view key)
{
    const json::Value *v = obj.find(key);
    return v ? v->asDouble() : std::nullopt;
}

/** Throws with a message on any schema violation. */
void
validateBenchJson(const json::Value &root)
{
    const std::string *schema = root.findString("schema");
    if (!schema || *schema != "tlsim-bench-v1")
        throw std::runtime_error("schema field must be tlsim-bench-v1");
    const json::Value *kernels = root.find("kernels");
    if (!kernels || !kernels->isArray() || kernels->items.empty())
        throw std::runtime_error("kernels must be a non-empty array");
    for (const json::Value &k : kernels->items) {
        const std::string *name = k.findString("name");
        const std::string *metric = k.findString("metric");
        if (!name || name->empty())
            throw std::runtime_error("kernel missing name");
        if (!metric || metric->empty())
            throw std::runtime_error("kernel missing metric");
        std::optional<double> value = numberAt(k, "value");
        if (!value || *value <= 0.0)
            throw std::runtime_error(
                "kernel value must be a positive finite number");
        std::optional<double> wall = numberAt(k, "wall_s");
        if (!wall || *wall < 0.0)
            throw std::runtime_error(
                "kernel wall_s must be a finite number");
    }
    std::optional<double> rss = numberAt(root, "peak_rss_bytes");
    if (!rss || *rss <= 0.0)
        throw std::runtime_error("peak_rss_bytes must be positive");
}

json::Value
loadJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    std::optional<json::Value> doc = json::parse(buffer.str(), &error);
    if (!doc)
        throw std::runtime_error("JSON parse error at " + error);
    return std::move(*doc);
}

std::map<std::string, double>
compareToBaseline(const std::vector<Kernel> &kernels,
                  const std::string &baseline_path)
{
    json::Value base = loadJsonFile(baseline_path);
    validateBenchJson(base);

    std::map<std::string, double> speedups;
    std::cout << "\ncomparison vs " << baseline_path << ":\n";
    for (const Kernel &k : kernels) {
        const json::Value *match = nullptr;
        for (const json::Value &b : base.find("kernels")->items) {
            if (*b.findString("name") == k.name) {
                match = &b;
                break;
            }
        }
        if (!match) {
            std::cout << "  " << k.name << ": no baseline entry\n";
            continue;
        }
        double base_value = *numberAt(*match, "value");
        // wall_s and ratios shrink when better; rates grow.
        bool smaller_is_better = k.metric == "wall_s" ||
                                 k.metric == "on_off_ratio";
        double speedup = smaller_is_better ? base_value / k.value
                                           : k.value / base_value;
        speedups[k.name] = speedup;
        std::cout << "  " << k.name << ": " << base_value << " -> "
                  << k.value << " (" << k.metric << "), speedup "
                  << speedup << "x\n";
    }
    return speedups;
}

void
usage()
{
    std::cout
        << "usage: tlsim_bench [options]\n"
           "  --quick            CI-sized kernels (default: full)\n"
           "  --jobs N           sweep worker threads (default 1)\n"
           "  --out FILE         output JSON (default "
           "BENCH_kernel.json)\n"
           "  --compare FILE     report speedups vs a baseline "
           "BENCH json; fails if the\n"
           "                     telemetry_overhead ratio exceeds "
           "1.03, or if\n"
           "                     snuca_single_run or sweep_quickstart "
           "slowed more than 3%\n"
           "  --validate FILE    schema-check an existing BENCH json "
           "and exit\n"
           "  --prof-out FILE    profile the kernels themselves; "
           "collapsed stacks to FILE,\n"
           "                     attribution table to stderr\n"
           "  --help             this text\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    int jobs = 1;
    std::string out_path = "BENCH_kernel.json";
    std::string compare_path;
    std::string validate_path;
    std::string prof_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--jobs") {
            jobs = std::stoi(next());
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--compare") {
            compare_path = next();
        } else if (arg == "--validate") {
            validate_path = next();
        } else if (arg == "--prof-out") {
            prof_path = next();
        } else if (arg == "--help") {
            usage();
            return 0;
        } else {
            std::cerr << "unknown option " << arg << "\n";
            usage();
            return 2;
        }
    }

    if (!validate_path.empty()) {
        try {
            validateBenchJson(loadJsonFile(validate_path));
        } catch (const std::exception &ex) {
            std::cerr << validate_path << ": " << ex.what() << "\n";
            return 1;
        }
        std::cout << validate_path << ": schema ok\n";
        return 0;
    }

    if (!prof_path.empty())
        tlsim::prof::setEnabled(true);

    try {
        std::vector<Kernel> kernels;
        auto run = [&](const char *scope_name, auto &&kernel_fn) {
            tlsim::prof::Scope scope(scope_name);
            kernels.push_back(kernel_fn());
        };
        run("bench:eventq_throughput",
            [&] { return benchEventqThroughput(quick); });
        run("bench:eventq_churn",
            [&] { return benchEventqChurn(quick); });
        run("bench:pulse_sim_cold",
            [&] { return benchPulseSimCold(quick); });
        run("bench:physcache_hot",
            [&] { return benchPhyscacheHot(quick); });
        run("bench:ddr_frfcfs",
            [&] { return benchDdrFrfcfs(quick); });
        run("bench:snuca_single_run",
            [&] { return benchSnucaSingleRun(quick); });
        {
            tlsim::prof::Scope scope("bench:sweep_quickstart");
            auto [hot, cold] = benchSweepQuickstart(quick, jobs);
            kernels.push_back(hot);
            kernels.push_back(cold);
        }
        // Last: it toggles the profiler flag itself.
        run("bench:telemetry_overhead",
            [&] { return benchTelemetryOverhead(quick); });

        for (const Kernel &k : kernels) {
            std::cout << k.name << ": " << k.value << " " << k.metric
                      << " (" << k.wallS << " s)\n";
        }

        std::map<std::string, double> speedups;
        if (!compare_path.empty()) {
            speedups = compareToBaseline(kernels, compare_path);
            for (const Kernel &k : kernels) {
                if (k.name != "telemetry_overhead" || k.value <= 1.03)
                    continue;
                // Re-measure before failing: on a shared box one
                // noisy measurement shouldn't fail the gate, while a
                // real regression fails every attempt.
                double ratio = k.value;
                for (int retry = 0; retry < 2 && ratio > 1.03; ++retry) {
                    ratio = benchTelemetryOverhead(quick).value;
                    std::cout << "telemetry_overhead (re-measure "
                              << retry + 1 << "): " << ratio << "\n";
                }
                if (ratio > 1.03) {
                    throw std::runtime_error(
                        "telemetry_overhead ratio " +
                        std::to_string(ratio) +
                        " exceeds the 1.03 budget");
                }
            }
            // Wall-time regression gate: fail when the serial single
            // run or the quickstart sweep slowed more than 3% vs the
            // baseline, re-measuring first so one noise burst on a
            // shared box doesn't fail the gate while a real
            // regression fails every attempt.
            auto gate = [&](const std::string &name,
                            const std::function<Kernel()> &again) {
                auto it = speedups.find(name);
                if (it == speedups.end())
                    return;
                const Kernel *k = nullptr;
                for (const Kernel &c : kernels) {
                    if (c.name == name)
                        k = &c;
                }
                // speedup = base/current for wall_s metrics.
                double base_value = it->second * k->value;
                double speedup = it->second;
                for (int retry = 0; retry < 2 && speedup < 0.97; ++retry) {
                    speedup = base_value / again().value;
                    std::cout << name << " (re-measure " << retry + 1
                              << "): speedup " << speedup << "x\n";
                }
                if (speedup < 0.97) {
                    throw std::runtime_error(
                        name + " slowed more than 3% against the "
                               "baseline (speedup " +
                        std::to_string(speedup) + "x)");
                }
            };
            gate("snuca_single_run",
                 [&] { return benchSnucaSingleRun(quick); });
            gate("sweep_quickstart", [&] {
                return benchSweepQuickstart(quick, jobs).first;
            });
        }

        writeJson(out_path, kernels, quick, jobs, speedups,
                  compare_path);
        std::cout << "\nwrote " << out_path << "\n";
    } catch (const std::exception &ex) {
        std::cerr << "tlsim_bench: " << ex.what() << "\n";
        return 1;
    }

    if (!prof_path.empty()) {
        tlsim::prof::setEnabled(false);
        std::ofstream collapsed(prof_path);
        if (collapsed) {
            tlsim::prof::Registry::instance().writeCollapsed(collapsed);
            std::cout << "collapsed stacks written: " << prof_path
                      << "\n";
        } else {
            std::cerr << "cannot write " << prof_path << "\n";
        }
        tlsim::prof::Registry::instance().writeReport(std::cerr);
    }
    return 0;
}
