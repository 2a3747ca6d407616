/**
 * @file
 * Durable sweep journal: a write-ahead JSONL log of run transitions.
 *
 * A sweep that journals survives its own death. Before a run is
 * dispatched the journal records `started`; when it resolves it
 * records `done` (with the full result, and the captured stats
 * document when stats capture is on) or `failed`/`crashed`. Every
 * line is written with a single write(2) and fsync'd before the
 * sweep proceeds, so after a SIGKILL or a power cut the journal is a
 * truthful prefix of what happened: completed work is never lost and
 * in-flight work is visible as `started` without a matching `done`.
 *
 * `tlsim_repro --resume <journal>` replays that prefix: the journal's
 * identity header (spec-set hash + machine-set hash + model-version
 * salt) is revalidated against the current spec list, `done` runs are
 * restored without re-execution, and `started`/`failed`/`crashed`
 * runs are re-queued. Format spec: docs/ROBUSTNESS.md.
 */

#ifndef TLSIM_HARNESS_SWEEP_JOURNAL_HH
#define TLSIM_HARNESS_SWEEP_JOURNAL_HH

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "harness/sweep/runspec.hh"
#include "harness/system.hh"

namespace tlsim
{
namespace harness
{
namespace sweep
{
namespace journal
{

/** Schema tag carried by every journal line. */
inline constexpr const char *schemaName = "tlsim-journal-v1";

/**
 * Line-oriented file whose every line is durable: writeLine appends
 * the line plus '\n' with one write(2) and fsyncs before returning,
 * so a crash at any instant leaves at most one torn *trailing* line,
 * never a lost earlier one. Used for the sweep journal and the sweep
 * manifest.
 */
class DurableLineFile
{
  public:
    DurableLineFile() = default;
    ~DurableLineFile();

    DurableLineFile(const DurableLineFile &) = delete;
    DurableLineFile &operator=(const DurableLineFile &) = delete;

    /** Open @p path (O_APPEND when @p append, truncating otherwise). */
    bool open(const std::string &path, bool append);

    /** True while the file is open and no write has failed. */
    bool ok() const { return fd >= 0; }

    /** Append @p line + '\n' and fsync. Returns false on error. */
    bool writeLine(const std::string &line);

    void close();

  private:
    int fd = -1;
};

/**
 * Identity of a sweep: what --resume revalidates before trusting a
 * journal. All three components must match.
 */
struct Identity
{
    /** 16-hex FNV-1a over every specKey in order + the model salt. */
    std::string specSet;
    /** 16-hex FNV-1a over every spec's machine hash in order. */
    std::string machines;
    /** Number of specs in the sweep. */
    std::size_t specs = 0;
};

/** Compute the identity of @p specs. */
Identity identityOf(const std::vector<RunSpec> &specs);

/** Append-side journal handle. All writes are fsync'd lines. */
class Writer
{
  public:
    /**
     * Open @p path. A fresh journal (@p append false) is truncated;
     * a resumed one is appended to. Open failure leaves ok() false
     * (the sweep then runs unjournaled with a warning upstream).
     */
    Writer(const std::string &path, bool append);

    bool ok() const { return file.ok(); }

    /** First line of a fresh journal: the sweep identity header. */
    void writeHeader(const std::vector<RunSpec> &specs);

    /** A run is about to be dispatched. */
    void started(const std::string &spec_key);

    /**
     * A run resolved successfully. @p outcome is "executed" or
     * "cached"; @p result_json is the writeResultJson document;
     * @p stats_json is the captured stats document ("" when capture
     * is off or the run came from cache).
     */
    void done(const std::string &spec_key, const char *outcome,
              const std::string &result_json,
              const std::string &stats_json);

    /**
     * A run failed. @p crashed selects the `crashed` event (child
     * died by signal / timeout / resource limit) over `failed`
     * (clean in-run error). Both are re-queued on resume.
     */
    void failed(const std::string &spec_key, const std::string &error,
                bool crashed);

    /** Resume marker: how much prior progress was restored. */
    void resumed(std::size_t restored, std::size_t requeued);

    /** Clean-interruption record (SIGINT/SIGTERM drain). */
    void interrupted(const char *signal_name, std::size_t resolved,
                     std::size_t pending);

    /** Terminal record of a sweep that ran to completion. */
    void complete(std::size_t executed, std::size_t cached,
                  std::size_t failed);

  private:
    DurableLineFile file;
};

/** One run restored from a journal's `done` record. */
struct RestoredRun
{
    RunResult result;
    /** Captured stats document ("" when none was journaled). */
    std::string stats;
    /** Original outcome: "executed" or "cached". */
    std::string outcome;
};

/** What loadForResume recovered from a journal. */
struct ResumeState
{
    /** False when the journal is unusable; see error. */
    bool ok = false;
    std::string error;
    /** Per input-spec slot: the restored run, if any. */
    std::vector<std::optional<RestoredRun>> runs;
    /** Counts for the resume summary. */
    std::size_t restored = 0;
    /** `started` without `done`: in-flight at the kill, re-queued. */
    std::size_t inFlight = 0;
    /** `failed`/`crashed` records: re-queued. */
    std::size_t requeuedFailures = 0;
};

/**
 * Parse @p path and recover completed runs for @p specs. Rejects
 * (ok = false) journals whose identity header is missing or does not
 * match the current spec list / model salt; tolerates one torn
 * trailing line (the crash-in-mid-write case).
 */
ResumeState loadForResume(const std::string &path,
                          const std::vector<RunSpec> &specs);

} // namespace journal
} // namespace sweep
} // namespace harness
} // namespace tlsim

#endif // TLSIM_HARNESS_SWEEP_JOURNAL_HH
