#include "logging.hh"

#include <atomic>
#include <stdexcept>

namespace antsim {

namespace {

std::atomic<LogLevel> g_level{LogLevel::Warn};

} // namespace

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

LogLevel
parseLogLevel(const std::string &name)
{
    if (name == "error")
        return LogLevel::Silent;
    if (name == "warn")
        return LogLevel::Warn;
    if (name == "info")
        return LogLevel::Info;
    if (name == "debug")
        return LogLevel::Debug;
    detail::fatalImpl(__FILE__, __LINE__,
                      "unknown log level '" + name +
                          "' (expected error, warn, info, or debug)");
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::exit(1);
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Info)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail

} // namespace antsim
