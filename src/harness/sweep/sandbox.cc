#include "harness/sweep/sandbox.hh"

#include <poll.h>
#include <signal.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>
#include <vector>

#include "harness/sweep/resultcache.hh"
#include "harness/sweep/sweep.hh"
#include "sim/logging.hh"

namespace tlsim
{
namespace harness
{
namespace sweep
{

namespace
{

/** Wire magic for the child's result frame ("TLSB" v1). */
constexpr std::uint32_t frameMagic = 0x42534c54u;
constexpr std::uint32_t frameVersion = 1;

bool
writeAll(int fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::write(fd, p, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

void
writeBlob(int fd, const std::string &blob, bool &ok)
{
    std::uint64_t len = blob.size();
    ok = ok && writeAll(fd, &len, sizeof(len));
    ok = ok && writeAll(fd, blob.data(), blob.size());
}

/** Pull one length-prefixed blob out of the frame buffer. */
bool
readBlob(const std::string &buf, std::size_t &pos, std::string &out)
{
    std::uint64_t len = 0;
    if (pos + sizeof(len) > buf.size())
        return false;
    std::memcpy(&len, buf.data() + pos, sizeof(len));
    pos += sizeof(len);
    if (len > buf.size() - pos)
        return false;
    out.assign(buf.data() + pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
}

/** First test hook whose value is a substring of @p key, if any. */
const char *
matchHook(const char *env, const std::string &key)
{
    const char *value = std::getenv(env);
    if (value && *value && key.find(value) != std::string::npos)
        return value;
    return nullptr;
}

/** Human-readable signal verdict, e.g. "signal 11 (Segmentation fault)". */
std::string
signalVerdict(int sig, const SandboxLimits &limits)
{
    std::ostringstream os;
    os << "signal " << sig << " (" << strsignal(sig) << ")";
    if (sig == SIGXCPU && limits.cpuSeconds > 0)
        os << "; cpu limit " << limits.cpuSeconds << "s exceeded";
    return os.str();
}

RunResult
failedResult(const RunSpec &spec, std::string error)
{
    RunResult result;
    result.design = spec.config.design;
    result.benchmark = spec.benchmark;
    result.error = std::move(error);
    return result;
}

/**
 * Child side: apply rlimits, honor test hooks, run the spec, marshal
 * the outcome, and _exit without running the parent's atexit chain.
 */
[[noreturn]] void
childMain(int out_fd, const RunSpec &spec, bool capture_stats,
          const SandboxLimits &limits)
{
    if (limits.cpuSeconds > 0) {
        struct rlimit rl;
        rl.rlim_cur = limits.cpuSeconds;
        rl.rlim_max = limits.cpuSeconds + 2; // SIGKILL backstop
        ::setrlimit(RLIMIT_CPU, &rl);
    }
    if (limits.rssMegabytes > 0) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max = limits.rssMegabytes << 20;
        ::setrlimit(RLIMIT_AS, &rl);
    }

    std::string key = specKey(spec);
    std::string stats;
    RunResult result;
    try {
        if (matchHook("TLSIM_TEST_CRASH_SPEC", key))
            ::raise(SIGSEGV);
        if (matchHook("TLSIM_TEST_KILL_SWEEP_SPEC", key)) {
            ::kill(::getppid(), SIGKILL);
            ::_exit(1);
        }
        if (matchHook("TLSIM_TEST_HANG_SPEC", key)) {
            volatile std::uint64_t spin = 0;
            for (;;)
                spin = spin + 1;
        }
        if (matchHook("TLSIM_TEST_OOM_SPEC", key)) {
            std::vector<char *> hog;
            for (;;) {
                char *chunk = new char[16u << 20];
                std::memset(chunk, 1, 16u << 20);
                hog.push_back(chunk);
            }
        }
        result = detail::executeSpec(spec, capture_stats, stats,
                                     /*run_timeout_sec=*/0.0);
    } catch (const std::bad_alloc &) {
        std::ostringstream os;
        if (limits.rssMegabytes > 0)
            os << "rss limit " << limits.rssMegabytes
               << " MiB exceeded (std::bad_alloc)";
        else
            os << "out of memory (std::bad_alloc)";
        result = failedResult(spec, os.str());
        stats.clear();
    } catch (const std::exception &e) {
        result = failedResult(spec, e.what());
        stats.clear();
    } catch (...) {
        result = failedResult(spec, "unknown error");
        stats.clear();
    }

    std::string result_json;
    if (result.error.empty()) {
        std::ostringstream os;
        writeResultJson(os, spec, result);
        result_json = os.str();
    }

    bool ok = true;
    ok = ok && writeAll(out_fd, &frameMagic, sizeof(frameMagic));
    ok = ok && writeAll(out_fd, &frameVersion, sizeof(frameVersion));
    writeBlob(out_fd, result_json, ok);
    writeBlob(out_fd, result.error, ok);
    writeBlob(out_fd, stats, ok);
    ::close(out_fd);
    ::_exit(ok ? 0 : 3);
}

} // namespace

RunResult
runSandboxed(const RunSpec &spec, bool capture_stats,
             std::string &stats_json, const SandboxLimits &limits,
             bool *crashed)
{
    using clock = std::chrono::steady_clock;
    stats_json.clear();
    if (crashed)
        *crashed = false;

    // A child keeps every descriptor open at its fork. Were another
    // worker to fork between this pipe() and the close of its write
    // end below, that sibling's child would hold this run's write end,
    // and this parent would see EOF only once the sibling exited: a
    // healthy run would wait out a hung sibling, or time out with it.
    // One lock held from pipe() to that close rules this out.
    static std::mutex forkMutex;
    std::unique_lock<std::mutex> forkLock(forkMutex);
    int fds[2];
    if (::pipe(fds) != 0)
        return failedResult(
            spec, csprintf("sandbox: pipe failed: {}",
                           std::strerror(errno)));

    [[maybe_unused]] pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        return failedResult(
            spec, csprintf("sandbox: fork failed: {}",
                           std::strerror(errno)));
    }
    if (pid == 0) {
#if defined(__linux__)
        // Die with the sweep: an orphaned worker would otherwise hold
        // inherited pipes open (and keep spinning) after its parent
        // is killed. A parent that died before prctl took effect has
        // already reparented us, so check for that race too.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(1);
#endif
        ::close(fds[0]);
        childMain(fds[1], spec, capture_stats, limits);
    }
    ::close(fds[1]);
    forkLock.unlock();

    auto deadline = clock::now();
    bool hasDeadline = limits.wallTimeoutSec > 0.0;
    if (hasDeadline)
        deadline += std::chrono::microseconds(static_cast<long long>(
            limits.wallTimeoutSec * 1e6));

    std::string frame;
    bool timedOut = false;
    char buf[65536];
    for (;;) {
        int timeout_ms = -1;
        if (hasDeadline) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - clock::now())
                    .count();
            if (left <= 0) {
                timedOut = true;
                break;
            }
            timeout_ms = static_cast<int>(left);
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        int ready = ::poll(&pfd, 1, timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0) {
            timedOut = true;
            break;
        }
        ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break; // child closed its end
        frame.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);

    if (timedOut) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        if (crashed)
            *crashed = true;
        std::ostringstream os;
        os << "timeout after " << limits.wallTimeoutSec
           << "s (wall clock)";
        return failedResult(spec, os.str());
    }

    int status = 0;
    ::waitpid(pid, &status, 0);

    // A complete frame from a zero-exit child is the success path;
    // everything else is a verdict on how the child died.
    std::uint32_t magic = 0, version = 0;
    std::size_t pos = 0;
    std::string result_json, child_error, stats;
    bool frameOk =
        frame.size() >= sizeof(magic) + sizeof(version) &&
        (std::memcpy(&magic, frame.data(), sizeof(magic)), true) &&
        (std::memcpy(&version, frame.data() + sizeof(magic),
                     sizeof(version)),
         true) &&
        magic == frameMagic && version == frameVersion &&
        (pos = sizeof(magic) + sizeof(version),
         readBlob(frame, pos, result_json)) &&
        readBlob(frame, pos, child_error) &&
        readBlob(frame, pos, stats);

    if (WIFSIGNALED(status)) {
        if (crashed)
            *crashed = true;
        return failedResult(spec,
                            signalVerdict(WTERMSIG(status), limits));
    }
    if (!frameOk || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        if (crashed)
            *crashed = true;
        return failedResult(
            spec,
            csprintf("sandbox: child exited with status {} without a "
                     "complete result",
                     WIFEXITED(status) ? WEXITSTATUS(status) : -1));
    }
    if (!child_error.empty())
        return failedResult(spec, child_error);

    auto parsed = readResultJson(result_json, spec);
    if (!parsed) {
        if (crashed)
            *crashed = true;
        return failedResult(spec,
                            "sandbox: malformed result from child");
    }
    if (capture_stats)
        stats_json = std::move(stats);
    return std::move(*parsed);
}

} // namespace sweep
} // namespace harness
} // namespace tlsim
