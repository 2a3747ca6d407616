#include "harness/sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "harness/sweep/journal.hh"
#include "harness/sweep/sandbox.hh"
#include "phys/technology.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/metrics/metrics.hh"
#include "workload/profile.hh"

namespace tlsim
{
namespace harness
{
namespace sweep
{

namespace detail
{

/** Execute one spec to completion (simulation only, no cache). */
RunResult
executeSpec(const RunSpec &spec, bool capture_stats,
            std::string &stats_json, double run_timeout_sec,
            WarmImage *image, WarmImageUse use)
{
    const auto &profile = workload::profileByName(spec.benchmark);
    std::ostringstream stats;
    RunObserver observer;
    if (run_timeout_sec > 0.0) {
        observer.onSystemBuilt = [run_timeout_sec](System &sys) {
            sys.armRunTimeout(run_timeout_sec);
        };
    }
    observer.onMeasureEnd = [&](System &sys) {
        if (capture_stats) {
            sys.root().dumpStatsJson(stats);
            stats << '\n';
        }
    };
    RunResult result =
        image ? runBenchmark(spec.config, profile, traceSeed(spec),
                             &observer, *image, use)
              : runBenchmark(spec.config, profile, traceSeed(spec),
                             &observer);
    stats_json = stats.str();
    return result;
}

} // namespace detail

namespace
{

/**
 * Crash-isolated wrapper: a panic or exception escaping one run is
 * captured into the result's error field instead of tearing down the
 * whole sweep (and the other workers' finished runs with it).
 */
RunResult
executeSpecIsolated(const RunSpec &spec, bool capture_stats,
                    std::string &stats_json, double run_timeout_sec,
                    WarmImage *image, WarmImageUse use)
{
    try {
        return detail::executeSpec(spec, capture_stats, stats_json,
                                   run_timeout_sec, image, use);
    } catch (const std::exception &e) {
        RunResult failed;
        failed.design = spec.config.design;
        failed.benchmark = spec.benchmark;
        failed.error = e.what();
        stats_json.clear(); // partial stats are meaningless
        return failed;
    } catch (...) {
        RunResult failed;
        failed.design = spec.config.design;
        failed.benchmark = spec.benchmark;
        failed.error = "unknown error";
        stats_json.clear();
        return failed;
    }
}

/**
 * Everything a run's functional warm depends on besides its L2
 * design (harness::WarmImage): cache misses with equal keys share one
 * recorded warm.
 */
std::string
warmKey(const RunSpec &spec)
{
    const SystemConfig &c = spec.config;
    std::ostringstream os;
    os << spec.benchmark << '/' << traceSeed(spec) << "/f"
       << c.functionalWarm << "/c" << c.cores << "/l1i" << c.l1i.bytes
       << 'x' << c.l1i.ways << 'x' << c.l1i.hitLatency << 'x'
       << c.l1i.mshrs << "/l1d" << c.l1d.bytes << 'x' << c.l1d.ways
       << 'x' << c.l1d.hitLatency << 'x' << c.l1d.mshrs;
    return os.str();
}

/** Specs run in order on one worker, sharing one warm image. */
struct WarmGroup
{
    std::vector<std::size_t> specs;
    /** Instructions the group simulates: its scheduling weight. */
    std::uint64_t cost = 0;
};

/**
 * Split the cache misses into tasks, longest first: one group per
 * warm key when @p share, else (or for a spec without functional
 * warm) one task per spec. Groups keep spec order inside.
 */
std::vector<WarmGroup>
groupMisses(const std::vector<RunSpec> &specs,
            const std::vector<std::size_t> &misses, bool share)
{
    std::vector<WarmGroup> groups;
    std::map<std::string, std::size_t> byKey;
    for (std::size_t i : misses) {
        std::size_t g = groups.size();
        if (share && specs[i].config.functionalWarm > 0)
            g = byKey.try_emplace(warmKey(specs[i]), g).first->second;
        if (g == groups.size())
            groups.emplace_back();
        groups[g].specs.push_back(i);
    }
    for (WarmGroup &group : groups) {
        const SystemConfig &c = specs[group.specs.front()].config;
        group.cost = static_cast<std::uint64_t>(c.cores) *
                     (c.functionalWarm +
                      group.specs.size() * (c.warmup + c.measure));
    }
    std::stable_sort(groups.begin(), groups.end(),
                     [](const WarmGroup &a, const WarmGroup &b) {
                         return a.cost > b.cost;
                     });
    return groups;
}

/**
 * Fleet metrics of one sweep: a local Registry (not process-global,
 * so concurrent sweeps and tests stay isolated) plus the run ledger.
 * All mutation happens under the sweep's io_mutex.
 */
class FleetTelemetry
{
  public:
    FleetTelemetry(const SweepOptions &options, std::size_t total)
        : metricsPath(options.metricsOut),
          runsCached(registry.counter(
              "tlsim_sweep_runs_total{result=\"cached\"}",
              "Sweep runs by final result")),
          runsExecuted(registry.counter(
              "tlsim_sweep_runs_total{result=\"executed\"}",
              "Sweep runs by final result")),
          runsFailed(registry.counter(
              "tlsim_sweep_runs_total{result=\"failed\"}",
              "Sweep runs by final result")),
          runsRestored(registry.counter(
              "tlsim_sweep_runs_total{result=\"restored\"}",
              "Sweep runs by final result")),
          specsTotal(registry.gauge("tlsim_sweep_specs",
                                    "Specs in the current sweep")),
          specsDone(registry.gauge("tlsim_sweep_done",
                                   "Specs resolved so far")),
          linkRetries(registry.counter(
              "tlsim_sweep_link_retries_total",
              "Link-level CRC retries across executed runs")),
          degraded(registry.counter(
              "tlsim_sweep_degraded_requests_total",
              "Requests served on a degraded path across executed "
              "runs")),
          wallMs(registry.histogram(
              "tlsim_sweep_run_wall_milliseconds",
              "Wall-clock time of executed runs"))
    {
        specsTotal.set(static_cast<double>(total));
        if (!options.manifestOut.empty() &&
            !manifest.open(options.manifestOut, /*append=*/false)) {
            warn("cannot write sweep manifest '{}'",
                 options.manifestOut);
        }
    }

    /** Record one resolved spec; @p result may be null for cache hits. */
    void
    record(const RunSpec &spec, const char *outcome, double wall_ms,
           const RunResult *result)
    {
        if (std::string{outcome} == "cached") {
            runsCached.inc();
        } else if (std::string{outcome} == "restored") {
            runsRestored.inc();
        } else if (result && !result->error.empty()) {
            runsFailed.inc();
        } else {
            runsExecuted.inc();
        }
        specsDone.add(1.0);
        if (result) {
            linkRetries.inc(
                static_cast<std::uint64_t>(result->linkRetries));
            degraded.inc(static_cast<std::uint64_t>(
                result->degradedRequests));
        }
        if (wall_ms >= 0.0)
            wallMs.observe(static_cast<std::uint64_t>(wall_ms));

        if (manifest.ok()) {
            // Each record is one write(2) + fsync (DurableLineFile):
            // a killed sweep never leaves a truncated final record.
            std::ostringstream line;
            line << "{\"schema\": \"tlsim-manifest-v1\", "
                 << "\"spec\": \""
                 << json::escape(specKey(spec))
                 << "\", \"benchmark\": \""
                 << json::escape(spec.benchmark)
                 << "\", \"design\": \""
                 << json::escape(spec.config.design)
                 << "\", \"outcome\": \"" << outcome
                 << "\", \"wall_ms\": "
                 << (wall_ms >= 0.0 ? wall_ms : 0.0)
                 << ", \"retries\": "
                 << (result ? result->linkRetries : 0.0)
                 << ", \"timeouts\": "
                 << (result ? result->linkTimeouts : 0.0)
                 << ", \"degraded\": "
                 << (result ? result->degradedRequests : 0.0);
            if (result && !result->error.empty()) {
                line << ", \"error\": \""
                     << json::escape(result->error) << "\"";
            }
            line << "}";
            manifest.writeLine(line.str());
        }
        publish();
    }

    /** Rewrite the Prometheus snapshot (atomic tmp+rename). */
    void
    publish()
    {
        if (metricsPath.empty())
            return;
        if (!registry.writePrometheusFile(metricsPath) &&
            !warnedWrite) {
            warnedWrite = true;
            warn("cannot write sweep metrics '{}'", metricsPath);
        }
    }

  private:
    metrics::Registry registry;
    std::string metricsPath;
    journal::DurableLineFile manifest;
    bool warnedWrite = false;

    metrics::Counter &runsCached;
    metrics::Counter &runsExecuted;
    metrics::Counter &runsFailed;
    metrics::Counter &runsRestored;
    metrics::Gauge &specsTotal;
    metrics::Gauge &specsDone;
    metrics::Counter &linkRetries;
    metrics::Counter &degraded;
    metrics::LogHistogram &wallMs;
};

/** Single-line progress/ETA display ("--progress"). */
class ProgressLine
{
  public:
    explicit ProgressLine(std::size_t total_) : total(total_) {}

    void
    update(std::size_t done, std::size_t cached, std::size_t failed,
           double total_exec_ms, std::size_t executed,
           std::size_t workers)
    {
        double eta_s = 0.0;
        if (executed > 0 && done < total) {
            double avg_ms = total_exec_ms /
                            static_cast<double>(executed);
            std::size_t remaining = total - done;
            eta_s = avg_ms * static_cast<double>(remaining) /
                    (1000.0 *
                     static_cast<double>(std::max<std::size_t>(
                         1, workers)));
        }
        std::ostringstream line;
        line << "\r  sweep " << done << "/" << total << " (cached "
             << cached << ", failed " << failed << ")";
        if (done < total) {
            line << " ETA ~" << static_cast<std::uint64_t>(eta_s + 0.5)
                 << "s";
        }
        line << "   ";
        std::cerr << line.str() << std::flush;
        active = true;
    }

    void
    finish()
    {
        if (active)
            std::cerr << '\n';
        active = false;
    }

  private:
    std::size_t total;
    bool active = false;
};

/**
 * Stop flag shared with the SIGINT/SIGTERM handler. Only armed while
 * a journaled sweep is running (SignalGuard); an unjournaled sweep
 * keeps the default die-on-signal behavior.
 */
std::atomic<int> stopSignal{0};

extern "C" void
sweepStopHandler(int sig)
{
    stopSignal.store(sig, std::memory_order_relaxed);
}

/**
 * Scoped SIGINT/SIGTERM trap: workers observing stopSignal finish
 * their in-flight run (journaling its outcome) and stop claiming new
 * ones, so an interrupted journal is a clean resumable prefix.
 */
class SignalGuard
{
  public:
    SignalGuard()
    {
        stopSignal.store(0, std::memory_order_relaxed);
        struct sigaction sa = {};
        sa.sa_handler = sweepStopHandler;
        sigemptyset(&sa.sa_mask);
        ::sigaction(SIGINT, &sa, &prevInt);
        ::sigaction(SIGTERM, &sa, &prevTerm);
    }

    ~SignalGuard()
    {
        ::sigaction(SIGINT, &prevInt, nullptr);
        ::sigaction(SIGTERM, &prevTerm, nullptr);
    }

    int signalled() const
    {
        return stopSignal.load(std::memory_order_relaxed);
    }

  private:
    struct sigaction prevInt;
    struct sigaction prevTerm;
};

} // namespace

void
addUnique(std::vector<RunSpec> &specs, const RunSpec &spec)
{
    if (std::find(specs.begin(), specs.end(), spec) == specs.end())
        specs.push_back(spec);
}

SweepOutcome
runSweep(const std::vector<RunSpec> &specs, const SweepOptions &options)
{
    SweepOutcome outcome;
    outcome.results.resize(specs.size());
    outcome.statsJson.resize(specs.size());

    std::optional<ResultCache> cache;
    if (!options.cacheDir.empty())
        cache.emplace(options.cacheDir);

    std::optional<FleetTelemetry> telemetry;
    if (!options.metricsOut.empty() || !options.manifestOut.empty())
        telemetry.emplace(options, specs.size());
    std::optional<ProgressLine> progress;
    if (options.progress)
        progress.emplace(specs.size());

    // Journal setup. A resume first replays the existing journal and
    // revalidates its identity; restored runs then take precedence
    // over both the cache and execution below.
    journal::ResumeState resumeState;
    std::optional<journal::Writer> jw;
    if (!options.journalPath.empty() && options.resume) {
        resumeState =
            journal::loadForResume(options.journalPath, specs);
        if (!resumeState.ok) {
            fatal("cannot resume from journal '{}': {}",
                  options.journalPath, resumeState.error);
        }
        jw.emplace(options.journalPath, /*append=*/true);
        jw->resumed(resumeState.restored,
                    resumeState.inFlight +
                        resumeState.requeuedFailures);
        if (options.verbose) {
            std::cerr << "  resume: restored " << resumeState.restored
                      << "/" << specs.size() << " runs ("
                      << resumeState.inFlight << " in-flight and "
                      << resumeState.requeuedFailures
                      << " failed re-queued)" << std::endl;
        }
    } else if (!options.journalPath.empty()) {
        jw.emplace(options.journalPath, /*append=*/false);
        jw->writeHeader(specs);
    }

    // Resolve non-executing slots up front, single-threaded, in the
    // precedence order journal-restored > cache hit > miss queue. A
    // fully warm or fully restored sweep executes 0 simulations.
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i < resumeState.runs.size() && resumeState.runs[i]) {
            journal::RestoredRun &run = *resumeState.runs[i];
            outcome.results[i] = std::move(run.result);
            outcome.statsJson[i] = std::move(run.stats);
            ++outcome.restored;
            if (telemetry)
                telemetry->record(specs[i], "restored", -1.0,
                                  nullptr);
            continue;
        }
        if (cache) {
            if (auto hit = cache->load(specs[i])) {
                outcome.results[i] = std::move(*hit);
                ++outcome.cached;
                if (jw) {
                    std::ostringstream os;
                    writeResultJson(os, specs[i],
                                    outcome.results[i]);
                    jw->done(specKey(specs[i]), "cached", os.str(),
                             "");
                }
                if (telemetry)
                    telemetry->record(specs[i], "cached", -1.0,
                                      nullptr);
                continue;
            }
        }
        misses.push_back(i);
    }

    if (misses.empty()) {
        if (jw)
            jw->complete(0, outcome.cached, 0);
        if (progress) {
            progress->update(specs.size(), outcome.cached, 0, 0.0, 0,
                            1);
            progress->finish();
        }
        return outcome;
    }

    // Touch lazily-initialized shared tables before spawning workers
    // so no simulation constructs them concurrently.
    phys::tech45();
    workload::paperBenchmarks();

    // Under process isolation every run warms inside its own sandbox:
    // recording in the parent would let a crash escape it.
    std::vector<WarmGroup> groups = groupMisses(
        specs, misses, options.isolate != Isolation::Process);

    int jobs = std::max(1, options.jobs);
    std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(jobs),
                              groups.size());

    // Only a journaled sweep traps signals: without a journal there
    // is nothing resumable to protect, so ^C keeps its usual bite.
    std::optional<SignalGuard> guard;
    if (jw)
        guard.emplace();

    std::atomic<std::size_t> next{0};
    std::mutex io_mutex; // guards journal/cache/telemetry/progress IO
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> failures{0};
    std::atomic<std::size_t> replays{0};
    double executedWallMs = 0.0; // under io_mutex
    std::size_t resolvedBase = outcome.cached + outcome.restored;

    // Execute and record spec i; false when the run failed.
    auto runOne = [&](std::size_t i, WarmImage *image,
                      WarmImageUse use) {
        const RunSpec &spec = specs[i];
        auto start = std::chrono::steady_clock::now();
        if (options.verbose) {
            std::lock_guard<std::mutex> lock(io_mutex);
            std::cerr << "  [" << done.load() + resolvedBase << "/"
                      << specs.size() << "] running "
                      << specKey(spec) << "..." << std::endl;
        }
        if (jw) {
            std::lock_guard<std::mutex> lock(io_mutex);
            jw->started(specKey(spec));
        }
        if (image && use == WarmImageUse::Replay)
            ++replays;
        bool crashed = false;
        RunResult result;
        switch (options.isolate) {
          case Isolation::None:
            result = detail::executeSpec(spec, options.captureStats,
                                         outcome.statsJson[i],
                                         options.runTimeoutSec, image,
                                         use);
            break;
          case Isolation::Thread:
            result = executeSpecIsolated(spec, options.captureStats,
                                         outcome.statsJson[i],
                                         options.runTimeoutSec, image,
                                         use);
            break;
          case Isolation::Process: {
            SandboxLimits limits;
            limits.wallTimeoutSec = options.runTimeoutSec;
            limits.cpuSeconds = options.rlimitCpuSec;
            limits.rssMegabytes = options.rlimitRssMb;
            result = runSandboxed(spec, options.captureStats,
                                  outcome.statsJson[i], limits,
                                  &crashed);
            break;
          }
        }
        auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start);
        std::lock_guard<std::mutex> lock(io_mutex);
        // Only successes are memoized: a cached failure would
        // poison every later sweep with a stale crash.
        if (cache && result.error.empty())
            cache->store(spec, result);
        if (!result.error.empty())
            ++failures;
        bool failed_run = !result.error.empty();
        std::string error_text = result.error;
        if (jw) {
            if (failed_run) {
                jw->failed(specKey(spec), error_text, crashed);
            } else {
                std::ostringstream os;
                writeResultJson(os, spec, result);
                jw->done(specKey(spec), "executed", os.str(),
                         outcome.statsJson[i]);
            }
        }
        double wall_ms = static_cast<double>(elapsed.count());
        executedWallMs += wall_ms;
        if (telemetry) {
            telemetry->record(spec, failed_run ? "failed" : "executed",
                              wall_ms, &result);
        }
        outcome.results[i] = std::move(result);
        ++done;
        if (options.verbose) {
            std::cerr << "  [" << done.load() + resolvedBase << "/"
                      << specs.size() << "] "
                      << (failed_run ? "FAILED " : "finished ")
                      << specKey(spec) << " ("
                      << elapsed.count() / 1000.0 << " s)";
            if (failed_run)
                std::cerr << ": " << error_text;
            std::cerr << std::endl;
        }
        if (progress) {
            progress->update(done.load() + resolvedBase,
                             outcome.cached, failures.load(),
                             executedWallMs, done.load(), workers);
        }
        return !failed_run;
    };

    auto worker = [&] {
        while (true) {
            // Drain on SIGINT/SIGTERM: finish (and journal) the run
            // in hand, claim no new ones.
            if (guard && guard->signalled())
                return;
            std::size_t slot = next.fetch_add(1);
            if (slot >= groups.size())
                return;
            const std::vector<std::size_t> &group = groups[slot].specs;
            // The group's image lives until its last replay, so a
            // worker holds at most one.
            WarmImage image;
            bool recorded = false;
            for (std::size_t k = 0; k < group.size(); ++k) {
                if (k > 0 && guard && guard->signalled())
                    return;
                if (recorded) {
                    runOne(group[k], &image, WarmImageUse::Replay);
                } else if (k + 1 < group.size()) {
                    // Only a run that succeeds hands its image on; a
                    // failed or timed-out one leaves the next run to
                    // record its own.
                    recorded = runOne(group[k], &image,
                                      WarmImageUse::Record);
                    if (!recorded)
                        image.clear();
                } else {
                    runOne(group[k], nullptr, WarmImageUse::Record);
                }
            }
        }
    };

    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto &thread : pool)
            thread.join();
    }

    if (progress)
        progress->finish();
    if (telemetry)
        telemetry->publish();

    outcome.executed = done.load();
    outcome.failed = failures.load();
    outcome.replayed = replays.load();
    outcome.interrupted = guard && guard->signalled() != 0;
    if (jw) {
        if (outcome.interrupted) {
            std::size_t resolved = resolvedBase + done.load();
            jw->interrupted(
                guard->signalled() == SIGINT ? "SIGINT" : "SIGTERM",
                resolved, specs.size() - resolved);
        } else {
            jw->complete(done.load(), outcome.cached,
                         failures.load());
        }
    }
    return outcome;
}

std::string
mergedStatsJson(const std::vector<RunSpec> &specs,
                const SweepOutcome &outcome)
{
    std::ostringstream os;
    os << "{\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        os << "\"" << specKey(specs[i]) << "\": ";
        const std::string &doc = outcome.statsJson[i];
        if (doc.empty()) {
            os << "null";
        } else {
            // Documents end with '\n'; strip it so separators are
            // uniform regardless of the emitter.
            std::string trimmed = doc;
            while (!trimmed.empty() && trimmed.back() == '\n')
                trimmed.pop_back();
            os << trimmed;
        }
        os << (i + 1 < specs.size() ? ",\n" : "\n");
    }
    os << "}\n";
    return os.str();
}

} // namespace sweep
} // namespace harness
} // namespace tlsim
