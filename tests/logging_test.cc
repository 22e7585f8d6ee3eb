/**
 * @file
 * Tests for the logging layer: panic/fatal/assert termination
 * semantics (message content, file:line prefix, exit status) and
 * log-level gating of inform.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/logging.hh"

namespace antsim {
namespace {

using LoggingDeathTest = ::testing::Test;

TEST(LoggingDeathTest, PanicAbortsWithMessageAndFileLine)
{
    EXPECT_DEATH(ANT_PANIC("boom ", 42),
                 "panic: boom 42 \\(.*logging_test\\.cc:[0-9]+\\)");
}

TEST(LoggingDeathTest, FatalExitsWithCodeOneAndFileLine)
{
    EXPECT_EXIT(ANT_FATAL("bad config value ", 7),
                ::testing::ExitedWithCode(1),
                "fatal: bad config value 7 "
                "\\(.*logging_test\\.cc:[0-9]+\\)");
}

TEST(LoggingDeathTest, AssertPanicsWithConditionAndMessage)
{
    const int lhs = 1;
    EXPECT_DEATH(ANT_ASSERT(lhs == 2, "lhs was ", lhs),
                 "panic: assertion failed: lhs == 2 .*lhs was 1");
}

TEST(LoggingDeathTest, AssertPassesSilently)
{
    ANT_ASSERT(1 + 1 == 2, "arithmetic is broken");
    SUCCEED();
}

/** Capture what one logging statement writes to stderr. */
template <typename Fn>
std::string
stderrOf(Fn &&fn)
{
    ::testing::internal::CaptureStderr();
    fn();
    return ::testing::internal::GetCapturedStderr();
}

class LogLevelTest : public ::testing::Test
{
  protected:
    void TearDown() override { setLogLevel(LogLevel::Warn); }
};

TEST_F(LogLevelTest, SilentSuppressesEverything)
{
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(stderrOf([] { ANT_INFORM("i"); }), "");
}

TEST_F(LogLevelTest, WarnLevelSuppressesInform)
{
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(stderrOf([] { ANT_INFORM("i"); }), "");
}

TEST_F(LogLevelTest, InfoLevelAddsInform)
{
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(stderrOf([] { ANT_INFORM("status"); }), "info: status\n");
}

TEST_F(LogLevelTest, DebugLevelPassesEverything)
{
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(stderrOf([] { ANT_INFORM("status"); }), "info: status\n");
}

TEST_F(LogLevelTest, MessagesConcatenateMixedTypes)
{
    setLogLevel(LogLevel::Info);
    EXPECT_EQ(stderrOf([] { ANT_INFORM("x = ", 3, ", y = ", 1.5); }),
              "info: x = 3, y = 1.5\n");
}

} // namespace
} // namespace antsim
