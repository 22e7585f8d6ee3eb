/**
 * @file
 * Status-message and error-handling helpers for ANTSim.
 *
 * Follows the gem5 convention: panic() is for internal simulator bugs
 * (aborts), fatal() is for user-caused conditions such as invalid
 * configurations (exits with an error code), inform() reports status
 * without stopping the simulation.
 */

#ifndef ANTSIM_UTIL_LOGGING_HH
#define ANTSIM_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace antsim {

/**
 * Verbosity levels for status messages. Only ANT_INFORM is gated:
 * Info and Debug print it, Silent and Warn (the default) do not.
 */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Get the process-wide log level (default Warn). */
LogLevel logLevel();

/** Set the process-wide log level. */
void setLogLevel(LogLevel level);

/**
 * Parse a log-level name: "error" (only panic/fatal output), "warn",
 * "info", or "debug". Fatal (user error) on anything else.
 */
LogLevel parseLogLevel(const std::string &name);

namespace detail {

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Abort the simulation because of an internal invariant violation.
 * Use when something happens that should never happen regardless of
 * user input (i.e., an ANTSim bug).
 */
#define ANT_PANIC(...)                                                        \
    ::antsim::detail::panicImpl(__FILE__, __LINE__,                          \
                                ::antsim::detail::concat(__VA_ARGS__))

/**
 * Exit the simulation because of a user-caused error (bad configuration,
 * invalid argument values, over-capacity buffers, ...).
 */
#define ANT_FATAL(...)                                                        \
    ::antsim::detail::fatalImpl(__FILE__, __LINE__,                          \
                                ::antsim::detail::concat(__VA_ARGS__))

/** Normal operating status messages. */
#define ANT_INFORM(...)                                                       \
    ::antsim::detail::informImpl(::antsim::detail::concat(__VA_ARGS__))

/** Assertion that is kept in release builds; panics on failure. */
#define ANT_ASSERT(cond, ...)                                                 \
    do {                                                                      \
        if (!(cond)) {                                                        \
            ANT_PANIC("assertion failed: " #cond " ",                        \
                      ::antsim::detail::concat(__VA_ARGS__));                 \
        }                                                                     \
    } while (0)

} // namespace antsim

#endif // ANTSIM_UTIL_LOGGING_HH
