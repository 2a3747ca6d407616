/**
 * @file
 * tlsim_perfbench: the end-to-end benchmark's measuring program.
 *
 *   tlsim_perfbench --workload NAME --seed N --seconds S --out FILE
 *                   [--trace 0|1 --spans FILE] [--smoke]
 *
 * It first builds one System per machine configuration of the
 * workload, several times from a cold PhysCache, before any
 * simulation runs (set-up time, in CPU time of the building thread).
 * Untraced (--trace 0), it then repeats the batch through runBenchmark
 * with RunObserver stamps (worker-thread CPU time) until S seconds are
 * used. A sweep workload alternates those passes with whole runSweep
 * passes, timed in wall time. Traced (--trace 1), it runs the batch
 * once untraced on one worker (plus once through runSweep on the
 * workload's worker count when the workload is a sweep), then once
 * with every machine rebuilt behind the span decorators, and writes
 * the spans to --spans.
 *
 * Every run leaves a digest of its simulated statistics. The raw
 * measurements go to --out as one JSON object; perfbench/run.py turns
 * them into metrics and checks the digests.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "decorators.hh"
#include "harness/sweep/sweep.hh"
#include "harness/system.hh"
#include "paperdata.hh"
#include "phys/physcache.hh"
#include "phys/technology.hh"
#include "spans.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"
#include "workloads.hh"

namespace
{

using namespace tlsim;
using harness::sweep::RunSpec;
using perfbench::nowNs;
using perfbench::Span;
using perfbench::SpanRecorder;
using perfbench::TracedSource;
using perfbench::Workload;

/** CPU time the calling thread has run [ns]. */
std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** What one run left behind. */
struct RunRecord
{
    /** Empty on success, else why the run failed. */
    std::string error;
    /** Hash of the run's stats JSON, cycles and instructions. */
    std::string digest;
    std::uint64_t cycles = 0;
    /**
     * The worker thread's CPU time [ns] at: run start, System built,
     * measure begin, measure end, run end (observed runs only).
     */
    std::array<std::uint64_t, 5> c{};
    /**
     * Host ns each phase of kPhases took, read outside the span
     * recorder on another clock (traced runs only).
     */
    std::array<std::uint64_t, 4> phaseNs{};
    double linkRetries = 0.0;
    double demandRequests = 0.0;
};

/** The phase spans of a traced run, in order. */
constexpr std::array<const char *, 4> kPhases = {"build", "funcwarm",
                                                 "warmup", "measure"};

struct Batch
{
    const char *kind; ///< "sweep", "observed" or "traced"
    int jobs = 1;
    double wallS = 0.0;
    std::vector<RunRecord> runs;
};

std::string
digestOf(const std::string &stats_json, std::uint64_t cycles,
         std::uint64_t instructions)
{
    std::ostringstream os;
    os << stats_json << "|cycles=" << cycles
       << "|instructions=" << instructions;
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      harness::sweep::fnv1a(os.str())));
    return buf;
}

void
record(RunRecord &rec, const harness::RunResult &result,
       const std::string &stats_json)
{
    rec.error = result.error;
    if (!rec.error.empty())
        return;
    if (stats_json.empty()) {
        rec.error = "no statistics captured";
        return;
    }
    rec.cycles = result.cycles;
    rec.digest = digestOf(stats_json, result.cycles, result.instructions);
    rec.linkRetries = result.linkRetries;
    rec.demandRequests = std::round(
        result.l2RequestsPer1k *
        static_cast<double>(result.instructions) / 1000.0);
}

/** One round of set-up: cold then warm builds of every machine. */
struct SetupRound
{
    double coldS = 0.0;
    double warmS = 0.0;
    std::vector<double> coldPerMachine;
    std::uint64_t physMisses = 0;
    std::uint64_t physHits = 0;
};

/** First spec of each distinct design: the workload's machines. */
std::vector<const RunSpec *>
machinesOf(const Workload &w)
{
    std::vector<const RunSpec *> machines;
    for (const RunSpec &spec : w.specs) {
        bool seen = std::any_of(
            machines.begin(), machines.end(), [&](const RunSpec *m) {
                return m->config.design == spec.config.design;
            });
        if (!seen)
            machines.push_back(&spec);
    }
    return machines;
}

double
timeBuild(const RunSpec &spec)
{
    std::optional<harness::System> system;
    std::uint64_t start = threadCpuNs();
    system.emplace(spec.config, harness::sweep::traceSeed(spec));
    std::uint64_t end = threadCpuNs();
    return seconds(end - start);
}

std::vector<SetupRound>
measureSetup(const Workload &w, int rounds)
{
    std::vector<const RunSpec *> machines = machinesOf(w);
    std::vector<SetupRound> out;
    for (int r = 0; r < rounds; ++r) {
        SetupRound round;
        phys::PhysCache::instance().clear();
        for (const RunSpec *m : machines) {
            double s = timeBuild(*m);
            round.coldS += s;
            round.coldPerMachine.push_back(s);
        }
        round.physMisses = phys::PhysCache::instance().misses();
        round.physHits = phys::PhysCache::instance().hits();
        for (const RunSpec *m : machines)
            round.warmS += timeBuild(*m);
        out.push_back(round);
    }
    return out;
}

Batch
sweepBatch(const Workload &w, int jobs)
{
    harness::sweep::SweepOptions options;
    options.jobs = jobs;
    options.captureStats = true;
    options.verbose = false;
    Batch batch{"sweep", jobs, 0.0, {}};
    std::uint64_t start = nowNs();
    harness::sweep::SweepOutcome outcome =
        harness::sweep::runSweep(w.specs, options);
    batch.wallS = seconds(nowNs() - start);
    batch.runs.resize(w.specs.size());
    for (std::size_t i = 0; i < w.specs.size(); ++i)
        record(batch.runs[i], outcome.results[i], outcome.statsJson[i]);
    return batch;
}

/** The batch through runBenchmark, with RunObserver timestamps. */
Batch
observedBatch(const Workload &w, int jobs)
{
    Batch batch{"observed", jobs, 0.0,
                std::vector<RunRecord>(w.specs.size())};
    std::atomic<std::size_t> next{0};
    std::uint64_t start = nowNs();
    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= w.specs.size())
                return;
            const RunSpec &spec = w.specs[i];
            RunRecord &rec = batch.runs[i];
            std::ostringstream stats;
            harness::RunObserver observer;
            auto stamp = [&](int point) { rec.c[point] = threadCpuNs(); };
            observer.onSystemBuilt = [&](harness::System &) {
                stamp(1);
            };
            observer.onMeasureBegin = [&](harness::System &) {
                stamp(2);
            };
            observer.onMeasureEnd = [&](harness::System &sys) {
                stamp(3);
                sys.root().dumpStatsJson(stats);
                stats << '\n';
            };
            stamp(0);
            harness::RunResult result;
            try {
                result = harness::runBenchmark(
                    spec.config, workload::profileByName(spec.benchmark),
                    harness::sweep::traceSeed(spec), &observer);
            } catch (const std::exception &e) {
                result.error = e.what();
            } catch (...) {
                result.error = "unknown error";
            }
            stamp(4);
            record(rec, result, stats.str());
        }
    };
    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        for (int j = 0; j < jobs; ++j)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    batch.wallS = seconds(nowNs() - start);
    return batch;
}

// --- traced run --------------------------------------------------
//
// A copy of harness::runBenchmark's sequence on a traced machine, with
// each core fed through a TracedSource and each OoOCore::run call in a
// "cpu.run" span. The digest check against the untraced batch proves
// the copy still matches the runner.

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
maxCurrentCycle(harness::System &system)
{
    std::uint64_t cycle = 0;
    for (int i = 0; i < system.numCores(); ++i)
        cycle = std::max(cycle, system.core(i).currentCycle());
    return cycle;
}

/** Raw monotonic host time [ns]; the span recorder never reads it. */
std::uint64_t
rawNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC_RAW, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/** @p body in phase span kPhases[@p phase], also timed on rawNs(). */
template <typename F>
void
tracedPhase(SpanRecorder &rec, RunRecord &out, std::size_t phase, F body)
{
    std::uint64_t start = rawNs();
    {
        Span span(rec, kPhases[phase]);
        body();
    }
    out.phaseNs[phase] = rawNs() - start;
}

std::uint64_t
runCoresTraced(harness::System &system, std::vector<TracedSource> &src,
               std::uint64_t instructions, std::uint64_t quantum,
               SpanRecorder &rec)
{
    if (instructions == 0)
        return 0;
    int n = system.numCores();
    if (n == 1) {
        Span span(rec, "cpu.run");
        return system.core().run(src[0], instructions);
    }
    quantum = std::max<std::uint64_t>(quantum, 1);
    std::uint64_t start = maxCurrentCycle(system);
    std::vector<std::uint64_t> remaining(static_cast<std::size_t>(n),
                                         instructions);
    bool active = true;
    while (active) {
        active = false;
        for (int i = 0; i < n; ++i) {
            auto &left = remaining[static_cast<std::size_t>(i)];
            if (left == 0)
                continue;
            std::uint64_t chunk = std::min(left, quantum);
            system.core(i).catchUp();
            {
                Span span(rec, "cpu.run");
                system.core(i).run(src[static_cast<std::size_t>(i)],
                                   chunk);
            }
            left -= chunk;
            if (left > 0)
                active = true;
        }
    }
    return maxCurrentCycle(system) - start;
}

void
tracedRun(const RunSpec &spec, SpanRecorder &rec, RunRecord &out)
{
    const auto &profile = workload::profileByName(spec.benchmark);
    harness::SystemConfig config = perfbench::tracedConfig(spec.config);
    config.core.fetchQuanta = profile.ilpQuanta;
    std::uint64_t seed = harness::sweep::traceSeed(spec);

    std::optional<harness::System> storage;
    tracedPhase(rec, out, 0, [&] { storage.emplace(config, seed); });
    harness::System &system = *storage;
    auto n = static_cast<std::size_t>(system.numCores());
    std::vector<workload::TraceGenerator> gens;
    std::vector<TracedSource> sources;
    gens.reserve(n);
    sources.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        gens.emplace_back(profile, i == 0 ? seed : splitmix64(seed + i));
        sources.emplace_back(gens[i], rec);
    }
    tracedPhase(rec, out, 1, [&] {
        for (std::size_t i = 0; i < n; ++i)
            system.functionalWarm(sources[i], config.functionalWarm,
                                  static_cast<int>(i));
    });
    tracedPhase(rec, out, 2, [&] {
        runCoresTraced(system, sources, config.warmup,
                       config.coreQuantum, rec);
    });
    system.beginMeasurement();
    std::uint64_t cycles = 0;
    tracedPhase(rec, out, 3, [&] {
        cycles = runCoresTraced(system, sources, config.measure,
                                config.coreQuantum, rec);
    });
    system.l2().syncStats();
    std::ostringstream stats;
    system.root().dumpStatsJson(stats);
    stats << '\n';
    out.cycles = cycles;
    out.digest = digestOf(stats.str(), cycles, config.measure * n);
}

Batch
tracedBatch(const Workload &w, SpanRecorder &rec)
{
    Batch batch{"traced", 1, 0.0, std::vector<RunRecord>(w.specs.size())};
    std::uint64_t t0 = nowNs();
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        RunRecord &out = batch.runs[i];
        rec.beginRun(i);
        try {
            tracedRun(w.specs[i], rec, out);
        } catch (const std::exception &e) {
            out.error = e.what();
        } catch (...) {
            out.error = "unknown error";
        }
        rec.endRun();
    }
    batch.wallS = seconds(nowNs() - t0);
    return batch;
}

// --- accuracy ----------------------------------------------------

/**
 * Mean absolute error of execution time normalised to SNUCA2 against
 * paperdata::fig5, over the cells (benchmark x DNUCA/TLC) the batch
 * covers.
 */
double
fig5Error(const Workload &w, const Batch &batch)
{
    std::map<std::pair<std::string, std::string>, double> cycles;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const RunRecord &rec = batch.runs[i];
        if (rec.error.empty() && rec.cycles > 0) {
            cycles[{w.specs[i].config.design, w.specs[i].benchmark}] =
                static_cast<double>(rec.cycles);
        }
    }
    double sum = 0.0;
    int cells = 0;
    auto cell = [&](const std::string &design, const char *bench,
                    double base, double paper) {
        auto it = cycles.find({design, bench});
        if (it == cycles.end())
            return;
        sum += std::fabs(it->second / base - paper);
        ++cells;
    };
    for (const auto &row : paperdata::fig5) {
        auto base = cycles.find({"SNUCA2", row.bench});
        if (base == cycles.end())
            continue;
        cell("DNUCA", row.bench, base->second, row.dnuca);
        cell("TLC", row.bench, base->second, row.tlc);
    }
    return cells > 0 ? sum / cells : 0.0;
}

// --- output ------------------------------------------------------

/** @p s as a JSON string literal. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
warmKey(const RunSpec &spec)
{
    const harness::SystemConfig &c = spec.config;
    std::ostringstream os;
    os << spec.benchmark << "/t" << harness::sweep::traceSeed(spec)
       << "/f" << c.functionalWarm << "/l1i" << c.l1i.bytes << "x"
       << c.l1i.ways << "/l1d" << c.l1d.bytes << "x" << c.l1d.ways
       << "/c" << c.cores;
    return os.str();
}

template <typename T, typename F>
void
writeList(std::ostream &os, const std::vector<T> &items, F each)
{
    os << "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            os << ", ";
        each(items[i]);
    }
    os << "]";
}

void
writeRaw(std::ostream &os, const Workload &w, std::uint64_t seed,
         const std::vector<SetupRound> &setup,
         const std::vector<Batch> &batches, double fig5_err)
{
    os.precision(17);
    os << "{\"workload\": " << quoted(w.name) << ", \"seed\": " << seed
       << ", \"jobs\": " << w.jobs << ",\n \"specs\": ";
    writeList(os, w.specs, [&](const RunSpec &s) {
        const harness::SystemConfig &c = s.config;
        auto cores = static_cast<std::uint64_t>(c.cores);
        os << "{\"key\": " << quoted(harness::sweep::specKey(s))
           << ", \"design\": " << quoted(c.design)
           << ", \"benchmark\": " << quoted(s.benchmark)
           << ", \"backend\": " << quoted(c.mem.backend)
           << ", \"cores\": " << c.cores
           << ", \"warm_key\": " << quoted(warmKey(s))
           << ", \"functional_instr\": " << c.functionalWarm * cores
           << ", \"warmup_instr\": " << c.warmup * cores
           << ", \"measure_instr\": " << c.measure * cores << "}";
    });
    std::vector<const RunSpec *> machines = machinesOf(w);
    os << ",\n \"machines\": ";
    writeList(os, machines,
              [&](const RunSpec *m) { os << quoted(m->config.design); });
    os << ",\n \"setup\": ";
    writeList(os, setup, [&](const SetupRound &r) {
        os << "{\"cold_s\": " << r.coldS << ", \"warm_s\": " << r.warmS
           << ", \"phys_misses\": " << r.physMisses
           << ", \"phys_hits\": " << r.physHits
           << ", \"cold_per_machine_s\": ";
        writeList(os, r.coldPerMachine, [&](double s) { os << s; });
        os << "}";
    });
    os << ",\n \"batches\": ";
    writeList(os, batches, [&](const Batch &b) {
        os << "{\"kind\": \"" << b.kind << "\", \"jobs\": " << b.jobs
           << ", \"wall_s\": " << b.wallS << ", \"runs\": ";
        writeList(os, b.runs, [&](const RunRecord &r) {
            os << "{\"error\": " << quoted(r.error)
               << ", \"digest\": " << quoted(r.digest)
               << ", \"cycles\": " << r.cycles
               << ", \"link_retries\": " << r.linkRetries
               << ", \"demand_requests\": " << r.demandRequests
               << ", \"cpu_ns\": ";
            writeList(os, std::vector<std::uint64_t>(r.c.begin(),
                                                     r.c.end()),
                      [&](std::uint64_t t) { os << t; });
            os << ", \"phase_ns\": ";
            writeList(os, std::vector<std::uint64_t>(r.phaseNs.begin(),
                                                     r.phaseNs.end()),
                      [&](std::uint64_t t) { os << t; });
            os << "}";
        });
        os << "}";
    });
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    os << ",\n \"fig5_err\": " << fig5_err << ", \"peak_rss_mb\": "
       << static_cast<double>(usage.ru_maxrss) / 1024.0 << "}\n";
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    bool trace = false;
    bool smoke = false;
    std::string out;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value());
        } else if (arg == "--seconds") {
            opt.seconds = std::stod(value());
        } else if (arg == "--trace") {
            opt.trace = std::stoi(value()) != 0;
        } else if (arg == "--out") {
            opt.out = value();
        } else if (arg == "--spans") {
            opt.spans = value();
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    return !opt.workload.empty() && !opt.out.empty() &&
           opt.seconds >= 0.0 && (!opt.trace || !opt.spans.empty());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        if (!parseArgs(argc, argv, opt)) {
            std::cerr << "usage: tlsim_perfbench --workload NAME --seed N "
                         "--seconds S --out FILE [--trace 0|1 --spans "
                         "FILE] [--smoke]\n";
            return 2;
        }
    } catch (const std::exception &e) {
        std::cerr << "tlsim_perfbench: " << e.what() << "\n";
        return 2;
    }
    Workload w;
    if (!perfbench::makeWorkload(opt.workload, opt.seed, opt.smoke, w)) {
        std::cerr << "tlsim_perfbench: unknown workload '" << opt.workload
                  << "'\n";
        return 2;
    }

    // Set-up first, while no simulation has run in this process.
    std::vector<SetupRound> setup = measureSetup(w, opt.smoke ? 3 : 61);
    phys::tech45();
    workload::paperBenchmarks();

    std::vector<Batch> batches;
    if (!opt.trace) {
        // Repeat the batch while another one fits in the time left.
        // A sweep workload alternates whole runSweep passes (wall_s)
        // with observed passes (the phase split of the MIPS metrics).
        std::uint64_t start = nowNs();
        std::uint64_t budget =
            static_cast<std::uint64_t>(opt.seconds * 1e9);
        std::size_t min_batches = w.viaSweep ? 2 : 1;
        std::uint64_t longest = 0;
        for (std::size_t rep = 0;; ++rep) {
            std::uint64_t used = nowNs() - start;
            if (rep >= min_batches && used + longest > budget)
                break;
            std::uint64_t t = nowNs();
            if (w.viaSweep && rep % 2 == 0)
                batches.push_back(sweepBatch(w, w.jobs));
            else
                batches.push_back(observedBatch(w, w.jobs));
            longest = std::max(longest, nowNs() - t);
        }
    } else {
        batches.push_back(observedBatch(w, 1));
        if (w.viaSweep)
            batches.push_back(sweepBatch(w, w.jobs));
        // Static: the registries keep the traced factories, which
        // refer to it, until the process exits.
        static SpanRecorder recorder;
        perfbench::enableTracedMachines(recorder);
        batches.push_back(tracedBatch(w, recorder));
        std::ofstream spans(opt.spans);
        recorder.writeJsonl(spans);
        if (!spans) {
            std::cerr << "tlsim_perfbench: cannot write " << opt.spans
                      << "\n";
            return 1;
        }
    }

    double fig5_err = fig5Error(w, batches.front());
    std::ofstream out(opt.out);
    writeRaw(out, w, opt.seed, setup, batches, fig5_err);
    if (!out) {
        std::cerr << "tlsim_perfbench: cannot write " << opt.out << "\n";
        return 1;
    }
    return 0;
}
