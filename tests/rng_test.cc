/**
 * @file
 * Tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hh"

namespace antsim {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Rng, BelowStaysInBound)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo = saw_lo || v == -2;
        saw_hi = saw_hi || v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(21);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.1) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.1, 0.01);
}

TEST(Rng, NormalMomentsRoughlyStandard)
{
    Rng rng(33);
    double sum = 0.0;
    double sumsq = 0.0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        const double x = rng.normal();
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / trials, 0.0, 0.02);
    EXPECT_NEAR(sumsq / trials, 1.0, 0.03);
}

TEST(Rng, NormalIsBoxMullerOfItsDraw)
{
    // The top-K trace generator draws uniforms with drawNormal and
    // transforms only some of them: the split must reproduce normal()
    // value for value and consume exactly its stream.
    Rng whole(41);
    Rng split(41);
    for (int i = 0; i < 10000; ++i) {
        const double x = whole.normal();
        const Rng::NormalDraw draw = split.drawNormal();
        ASSERT_GT(draw.u1, 0.0);
        ASSERT_LT(draw.u1, 1.0);
        ASSERT_GE(draw.u2, 0.0);
        ASSERT_LT(draw.u2, 1.0);
        ASSERT_EQ(x, Rng::boxMuller(draw)) << "draw " << i;
        ASSERT_EQ(whole.state(), split.state()) << "draw " << i;
    }
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(17);
    const auto perm = rng.permutation(50);
    std::set<std::uint32_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 50u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, SampleWithoutReplacementDistinct)
{
    Rng rng(19);
    const auto sample = rng.sampleWithoutReplacement(100, 30);
    EXPECT_EQ(sample.size(), 30u);
    std::set<std::uint32_t> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), 30u);
    for (auto v : seen)
        EXPECT_LT(v, 100u);
}

TEST(Rng, SampleFullRange)
{
    Rng rng(23);
    const auto sample = rng.sampleWithoutReplacement(8, 8);
    std::set<std::uint32_t> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(77);
    Rng child = parent.split();
    // The child should not replay the parent's stream.
    Rng parent_copy(77);
    parent_copy.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += child.next() == parent.next() ? 1 : 0;
    EXPECT_LT(same, 2);
}

} // namespace
} // namespace antsim
