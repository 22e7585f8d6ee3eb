/**
 * @file
 * Regression tests for the CLI/RunConfig correctness fixes: each of
 * these used to fail silently (wrong value, saturated value, dropped
 * flag, or a 4-billion-thread pool) and must now die with a clear
 * fatal diagnostic.
 */

#include <gtest/gtest.h>

#include <vector>

#include "util/cli.hh"
#include "workload/runner.hh"

namespace antsim {
namespace {

const std::vector<std::string> kKnown = {"audit", "seed",    "threads",
                                        "ratio", "samples", "verbose"};

Cli
makeCli(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"cli_test"};
    argv.insert(argv.end(), args.begin(), args.end());
    return Cli(static_cast<int>(argv.size()), argv.data(), kKnown);
}

TEST(CliDeath, NonBooleanValueIsFatal)
{
    // Used to parse as false: a typo like "--audit=ture" silently
    // disabled the audits the user explicitly asked for.
    const Cli cli = makeCli({"--audit=ture"});
    EXPECT_EXIT(cli.getBool("audit", false),
                ::testing::ExitedWithCode(1),
                "fatal: flag --audit expects a boolean");
    const Cli cli_on = makeCli({"--audit", "on"});
    EXPECT_EXIT(cli_on.getBool("audit", false),
                ::testing::ExitedWithCode(1),
                "fatal: flag --audit expects a boolean");
}

TEST(Cli, BooleanSpellingsStillAccepted)
{
    EXPECT_TRUE(makeCli({"--audit"}).getBool("audit", false));
    EXPECT_TRUE(makeCli({"--audit=1"}).getBool("audit", false));
    EXPECT_TRUE(makeCli({"--audit", "yes"}).getBool("audit", false));
    EXPECT_FALSE(makeCli({"--audit=false"}).getBool("audit", true));
    EXPECT_FALSE(makeCli({"--audit", "0"}).getBool("audit", true));
    EXPECT_FALSE(makeCli({"--audit=no"}).getBool("audit", true));
    EXPECT_TRUE(makeCli({}).getBool("audit", true));
}

TEST(CliDeath, IntegerOverflowIsFatal)
{
    // strtoll saturates to INT64_MAX with errno=ERANGE; the old code
    // ignored errno and happily returned the saturated value.
    const Cli cli = makeCli({"--seed", "99999999999999999999999"});
    EXPECT_EXIT(cli.getInt("seed", 0), ::testing::ExitedWithCode(1),
                "fatal: flag --seed value .* is out of the 64-bit "
                "integer range");
    const Cli negative = makeCli({"--seed=-99999999999999999999999"});
    EXPECT_EXIT(negative.getInt("seed", 0), ::testing::ExitedWithCode(1),
                "out of the 64-bit integer range");
}

TEST(CliDeath, MalformedIntegerIsFatal)
{
    const Cli cli = makeCli({"--seed", "12abc"});
    EXPECT_EXIT(cli.getInt("seed", 0), ::testing::ExitedWithCode(1),
                "fatal: flag --seed expects an integer");
    const Cli empty = makeCli({"--seed="});
    EXPECT_EXIT(empty.getInt("seed", 0), ::testing::ExitedWithCode(1),
                "fatal: flag --seed expects an integer");
}

TEST(CliDeath, DoubleOverflowIsFatal)
{
    const Cli cli = makeCli({"--ratio", "1e999"});
    EXPECT_EXIT(cli.getDouble("ratio", 0.0), ::testing::ExitedWithCode(1),
                "out of the representable double range");
}

TEST(CliDeath, DuplicateFlagIsFatal)
{
    // Last-one-wins used to silently drop half of a contradictory
    // command line like "--seed 1 --seed 2".
    EXPECT_EXIT(makeCli({"--seed", "1", "--seed", "2"}),
                ::testing::ExitedWithCode(1),
                "fatal: duplicate flag '--seed'");
    EXPECT_EXIT(makeCli({"--audit", "--audit=false"}),
                ::testing::ExitedWithCode(1),
                "fatal: duplicate flag '--audit'");
}

TEST(CliDeath, UnknownFlagIsFatal)
{
    EXPECT_EXIT(makeCli({"--thread", "4"}), ::testing::ExitedWithCode(1),
                "fatal: unknown flag '--thread'");
}

TEST(RunConfigDeath, NegativeThreadsWrappedToUnsignedIsFatal)
{
    // "--threads -1" cast to uint32 yields 4294967295 workers; the old
    // code would try to spawn them. validate() rejects anything past a
    // sane cap with a message pointing at the likely negative input.
    RunConfig config;
    config.numThreads = static_cast<std::uint32_t>(-1);
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "fatal: numThreads = 4294967295 is not a sane worker "
                "count");
}

TEST(RunConfigDeath, ZeroSampleCapIsFatal)
{
    RunConfig config;
    config.sampleCap = 0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "fatal: sampleCap must be positive");
}

TEST(RunConfigDeath, ZeroPesIsFatal)
{
    RunConfig config;
    config.numPes = 0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "fatal: numPes must be positive");
}

TEST(RunConfigDeath, ChunkBeyondValueBufferIsFatal)
{
    // Every PE's value buffer holds 4096 elements (Table 4); a larger
    // chunk used to pass here and then die mid-run on the SRAM check.
    RunConfig config;
    config.chunkCapacity = 4096;
    config.validate();
    config.chunkCapacity = 4097;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "fatal: chunkCapacity = 4097 exceeds the PE value buffer "
                "of 4096 elements");
}

TEST(RunConfig, DefaultsValidate)
{
    // The stock configuration must pass its own validation.
    RunConfig config;
    config.validate();
    config.numThreads = 0; // 0 = all hardware threads, explicitly legal
    config.validate();
    SUCCEED();
}

} // namespace
} // namespace antsim
