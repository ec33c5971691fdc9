/**
 * @file
 * Error-reporting and status-message helpers.
 *
 * Follows the gem5 fatal/panic distinction: fatal() reports a condition
 * that is the caller's fault (bad configuration, invalid arguments) and
 * exits cleanly; panic() reports a broken internal invariant (a library
 * bug) and aborts so a core dump or debugger can inspect the state.
 */

#ifndef CSPRINT_COMMON_LOGGING_HH
#define CSPRINT_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace csprint {

/** Terminate with exit(1) after printing a user-facing error message. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Abort after printing an internal-invariant violation. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Print a non-fatal warning to stderr. */
void warnImpl(const char *file, int line, const std::string &msg);

namespace detail {

/** Fold any set of streamable arguments into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

} // namespace detail

} // namespace csprint

/** Report a user error (bad config or arguments) and exit(1). */
#define SPRINT_FATAL(...)                                                    \
    ::csprint::fatalImpl(__FILE__, __LINE__,                                 \
                         ::csprint::detail::formatMessage(__VA_ARGS__))

/** Report a library bug (violated internal invariant) and abort(). */
#define SPRINT_PANIC(...)                                                    \
    ::csprint::panicImpl(__FILE__, __LINE__,                                 \
                         ::csprint::detail::formatMessage(__VA_ARGS__))

/** Non-fatal warning. */
#define SPRINT_WARN(...)                                                     \
    ::csprint::warnImpl(__FILE__, __LINE__,                                  \
                        ::csprint::detail::formatMessage(__VA_ARGS__))

/** Panic unless an internal invariant holds. */
#define SPRINT_ASSERT(cond, ...)                                             \
    do {                                                                     \
        if (!(cond)) {                                                       \
            SPRINT_PANIC("assertion failed: " #cond " ",                     \
                         ::csprint::detail::formatMessage(__VA_ARGS__));     \
        }                                                                    \
    } while (0)

#endif // CSPRINT_COMMON_LOGGING_HH
