/**
 * @file
 * Tests for counters, stats, tables, and the CLI parser.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/counters.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/cli.hh"

namespace antsim {
namespace {

TEST(Counters, StartAtZero)
{
    CounterSet counters;
    for (std::size_t i = 0; i < kNumCounters; ++i)
        EXPECT_EQ(counters.get(static_cast<Counter>(i)), 0u);
}

TEST(Counters, AddAndGet)
{
    CounterSet counters;
    counters.add(Counter::MultsExecuted, 5);
    counters.add(Counter::MultsExecuted);
    EXPECT_EQ(counters.get(Counter::MultsExecuted), 6u);
    EXPECT_EQ(counters.get(Counter::MultsValid), 0u);
}

TEST(Counters, SetOverwrites)
{
    CounterSet counters;
    counters.add(Counter::Cycles, 100);
    counters.set(Counter::Cycles, 7);
    EXPECT_EQ(counters.get(Counter::Cycles), 7u);
}

TEST(Counters, AccumulateElementwise)
{
    CounterSet a;
    CounterSet b;
    a.add(Counter::Cycles, 10);
    b.add(Counter::Cycles, 5);
    b.add(Counter::MultsRcp, 3);
    a += b;
    EXPECT_EQ(a.get(Counter::Cycles), 15u);
    EXPECT_EQ(a.get(Counter::MultsRcp), 3u);
}

TEST(Counters, ScaleByRational)
{
    CounterSet counters;
    counters.add(Counter::MultsExecuted, 10);
    counters.scale(3, 2);
    EXPECT_EQ(counters.get(Counter::MultsExecuted), 15u);
}

TEST(Counters, ScaleRoundsToNearest)
{
    CounterSet counters;
    counters.add(Counter::MultsExecuted, 5);
    counters.scale(1, 2); // 2.5 -> 3
    EXPECT_EQ(counters.get(Counter::MultsExecuted), 3u);
}

TEST(Counters, ScaleIsExactForLargeValues)
{
    // The old floating-point path lost the low bits of counts beyond
    // 2^53; the 128-bit rational path must be exact.
    CounterSet counters;
    const std::uint64_t big = 1000000000000000003ull; // > 2^53, odd
    counters.set(Counter::MultsExecuted, big);
    counters.scale(1, 1);
    EXPECT_EQ(counters.get(Counter::MultsExecuted), big);
    counters.scale(3, 1);
    EXPECT_EQ(counters.get(Counter::MultsExecuted), 3 * big);
}

TEST(Counters, ScaleIntermediateProductDoesNotWrap)
{
    // v * num would wrap 64-bit arithmetic; the result still fits.
    CounterSet counters;
    counters.set(Counter::Cycles, 1ull << 62);
    counters.scale(6, 3);
    EXPECT_EQ(counters.get(Counter::Cycles), 1ull << 63);
}

TEST(CountersDeathTest, ScalePanicsOnOverflowInsteadOfWrapping)
{
    CounterSet counters;
    counters.set(Counter::Cycles, 1ull << 63);
    EXPECT_DEATH(counters.scale(4, 2), "counter overflow scaling");
}

TEST(CountersDeathTest, ScalePanicsOnZeroDenominator)
{
    CounterSet counters;
    EXPECT_DEATH(counters.scale(1, 0),
                 "scale denominator must be positive");
}

TEST(Counters, ResetClearsAll)
{
    CounterSet counters;
    counters.add(Counter::Cycles, 42);
    counters.reset();
    EXPECT_EQ(counters.get(Counter::Cycles), 0u);
}

TEST(Counters, NamesAreUniqueAndNonEmpty)
{
    // The name table in counters.cc is static_assert-sized against the
    // enum; this guards the run-time properties the asserts cannot see.
    std::set<std::string> names;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        const char *name = counterName(static_cast<Counter>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_NE(std::string(name), "");
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate counter name " << name;
    }
    EXPECT_EQ(names.size(), kNumCounters);
}

TEST(CountersDeathTest, NameOfOutOfRangeIdPanics)
{
    EXPECT_DEATH(counterName(Counter::NumCounters), "unknown counter id");
}

TEST(Counters, ToStringListsNonZeroOnly)
{
    CounterSet counters;
    counters.add(Counter::MultsValid, 2);
    const std::string dump = counters.toString();
    EXPECT_NE(dump.find("mults_valid = 2"), std::string::npos);
    EXPECT_EQ(dump.find("mults_rcp"), std::string::npos);
}

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, MeanBasic)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, GeomeanBasic)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, GeomeanSingle)
{
    EXPECT_NEAR(geomean({3.71}), 3.71, 1e-12);
}

TEST(Stats, GeomeanMatchesPaperStyleAggregation)
{
    // Five per-network speedups whose geomean should sit between
    // min and max and below the arithmetic mean.
    const std::vector<double> xs = {2.1, 3.0, 4.5, 5.2, 4.0};
    const double g = geomean(xs);
    EXPECT_GT(g, 2.1);
    EXPECT_LT(g, 5.2);
    EXPECT_LT(g, mean(xs));
}

TEST(StatsDeath, GeomeanOfEmptyDies)
{
    // A bench that filters every network out of its selection must not
    // aggregate a phantom geomean; the guard makes that path loud.
    EXPECT_DEATH(geomean({}), "panic: .*geomean of empty set");
}

TEST(StatsDeath, GeomeanOfNonPositiveDies)
{
    EXPECT_DEATH(geomean({2.0, 0.0}),
                 "panic: .*geomean requires positive values");
    EXPECT_DEATH(geomean({-1.0}),
                 "panic: .*geomean requires positive values");
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"bb", "22"});
    const std::string text = t.toString();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvQuotesSpecials)
{
    Table t({"a"});
    t.addRow({"x,y"});
    EXPECT_NE(t.toCsv().find("\"x,y\""), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::times(3.705, 2), "3.71x"); // rounds
    EXPECT_EQ(Table::percent(0.9652, 2), "96.52%");
}

TEST(Cli, ParsesBothFlagForms)
{
    const char *argv[] = {"prog", "--alpha", "3", "--beta=hello",
                          "--flag"};
    Cli cli(5, argv, {"alpha", "beta", "flag"});
    EXPECT_EQ(cli.getInt("alpha", 0), 3);
    EXPECT_EQ(cli.get("beta"), "hello");
    EXPECT_TRUE(cli.getBool("flag"));
    EXPECT_FALSE(cli.getBool("absent"));
    EXPECT_EQ(cli.getInt("absent", 9), 9);
    EXPECT_DOUBLE_EQ(cli.getDouble("absent", 1.5), 1.5);
}

TEST(Cli, HasReportsPresence)
{
    const char *argv[] = {"prog", "--alpha", "1"};
    Cli cli(3, argv, {"alpha", "beta"});
    EXPECT_TRUE(cli.has("alpha"));
    EXPECT_FALSE(cli.has("beta"));
}

} // namespace
} // namespace antsim
