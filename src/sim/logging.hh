/**
 * @file
 * Logging and error-reporting primitives for the TLC simulator.
 *
 * Follows the gem5 convention: panic() for internal simulator bugs
 * (aborts), fatal() for user/configuration errors (clean exit),
 * warn()/inform() for non-fatal status messages.
 *
 * Messages use a lightweight "{}" placeholder syntax: each "{}" in the
 * format string is replaced by the next argument streamed through
 * operator<<. Literal braces are written as "{{" and "}}".
 */

#ifndef TLSIM_SIM_LOGGING_HH
#define TLSIM_SIM_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tlsim
{

/**
 * Format a string by substituting "{}" placeholders with arguments.
 *
 * "{{" and "}}" are escapes producing literal "{" and "}" (so brace
 * characters can appear in log and trace messages). Surplus arguments
 * are appended at the end separated by spaces; surplus placeholders
 * are left verbatim.
 *
 * @param fmt Format string containing zero or more "{}" placeholders.
 * @param args Values streamed via operator<< into the placeholders.
 * @return The formatted string.
 */
template <typename... Args>
std::string
csprintf(const std::string &fmt, const Args &...args)
{
    std::ostringstream out;
    std::size_t pos = 0;
    // Copy literal text (resolving {{ / }} escapes) up to and
    // including the next "{}" placeholder; false when the format
    // string is exhausted without finding one.
    [[maybe_unused]] auto advance = [&]() -> bool {
        while (pos < fmt.size()) {
            char c = fmt[pos];
            if ((c == '{' || c == '}') && pos + 1 < fmt.size() &&
                fmt[pos + 1] == c) {
                out << c;
                pos += 2;
                continue;
            }
            if (c == '{' && pos + 1 < fmt.size() &&
                fmt[pos + 1] == '}') {
                pos += 2;
                return true;
            }
            out << c;
            ++pos;
        }
        return false;
    };
    // Stream one argument into the next "{}"; used via fold expression.
    [[maybe_unused]] auto emit_one = [&](const auto &arg) {
        if (advance())
            out << arg;
        else
            out << ' ' << arg;
    };
    (emit_one(args), ...);
    // Flush the tail: resolve escapes, keep surplus "{}" verbatim.
    while (pos < fmt.size()) {
        char c = fmt[pos];
        if ((c == '{' || c == '}') && pos + 1 < fmt.size() &&
            fmt[pos + 1] == c) {
            pos += 2;
        } else {
            ++pos;
        }
        out << c;
    }
    return out.str();
}

/** Exception thrown by panic(); carries the formatted message. */
class PanicError : public std::runtime_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Exception thrown by fatal(); carries the formatted message. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace logging_detail
{
/** Print a tagged message to stderr (used by warn/inform/panic/fatal). */
void emitMessage(const char *tag, const std::string &msg);

/** If true, warn()/inform() output is suppressed (used in tests). */
extern bool quiet;
} // namespace logging_detail

/**
 * Report an internal simulator bug and throw PanicError.
 *
 * Use when something happens that should never happen regardless of
 * user input. Throws (rather than abort()) so tests can assert on it.
 */
template <typename... Args>
[[noreturn]] void
panic(const std::string &fmt, const Args &...args)
{
    std::string msg = csprintf(fmt, args...);
    logging_detail::emitMessage("panic", msg);
    throw PanicError(msg);
}

/**
 * Report an unrecoverable user/configuration error and throw
 * FatalError.
 */
template <typename... Args>
[[noreturn]] void
fatal(const std::string &fmt, const Args &...args)
{
    std::string msg = csprintf(fmt, args...);
    logging_detail::emitMessage("fatal", msg);
    throw FatalError(msg);
}

/**
 * Run a program's main body, turning a FatalError (bad input;
 * fatal() has already printed the message) into exit status 1. A
 * PanicError (a simulator bug) still propagates and aborts.
 */
template <typename Body>
int
exitOnFatal(Body &&body)
{
    try {
        return body();
    } catch (const FatalError &) {
        return 1;
    }
}

/** Report a suspicious but survivable condition. */
template <typename... Args>
void
warn(const std::string &fmt, const Args &...args)
{
    logging_detail::emitMessage("warn", csprintf(fmt, args...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(const std::string &fmt, const Args &...args)
{
    logging_detail::emitMessage("info", csprintf(fmt, args...));
}

/** panic() unless the condition holds. */
#define TLSIM_ASSERT(cond, ...)                                           \
    do {                                                                  \
        if (!(cond))                                                      \
            ::tlsim::panic("assertion '" #cond "' failed: " __VA_ARGS__); \
    } while (0)

} // namespace tlsim

#endif // TLSIM_SIM_LOGGING_HH
