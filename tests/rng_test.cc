/**
 * @file
 * Tests for the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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

TEST(Rng, BernoulliThresholdIsTheExactIntegerTrial)
{
    // The trace generator's Bernoulli planes test each draw's top 53
    // bits against a hoisted threshold in place of bernoulli(p): the
    // two must agree on every 53-bit draw, at the edges of [0, 1], at
    // rates that are not dyadic, and at random ones.
    std::vector<double> probabilities = {
        0.0, 0x1.0p-53, 0.25, 0.3, 1.0 / 3.0, 0.42, 0.5, 1.0 - 0x1.0p-53,
        1.0};
    Rng pick(53);
    for (int i = 0; i < 1000; ++i)
        probabilities.push_back(pick.uniform());

    constexpr std::uint64_t kDraws = 1ull << 53;
    for (std::size_t i = 0; i < probabilities.size(); ++i) {
        const double p = probabilities[i];
        SCOPED_TRACE("p " + std::to_string(p) + " (#" + std::to_string(i) +
                     ")");
        const std::uint64_t threshold = Rng::bernoulliThreshold(p);
        ASSERT_LE(threshold, kDraws);
        // Around the threshold the integer compare m < T is the double
        // compare uniform() < p that m would produce.
        for (const std::uint64_t m :
             {std::uint64_t{0}, threshold - 1, threshold, threshold + 1,
              kDraws - 1}) {
            if (m >= kDraws)
                continue;
            EXPECT_EQ(m < threshold, static_cast<double>(m) * 0x1.0p-53 < p)
                << "m " << m;
        }
        // Draw for draw on a stream, which both trials consume alike.
        Rng by_double(1000 + i);
        Rng by_threshold(1000 + i);
        for (int draw = 0; draw < 10000; ++draw) {
            ASSERT_EQ((by_threshold.next() >> 11) < threshold,
                      by_double.bernoulli(p))
                << "draw " << draw;
        }
        EXPECT_EQ(by_threshold.state(), by_double.state());
    }
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

/** The first outputs of each draw from a fresh Rng(seed). */
struct KnownAnswers
{
    std::uint64_t seed;
    std::uint64_t next[4];
    double uniform[4];
    /** bernoulli(0.3). */
    bool bernoulli[16];
    Rng::NormalDraw draws[3];
    double normal[4];
};

/**
 * Every trace is a function of this stream, so its first values are
 * pinned bit for bit: a change to any draw's body, or to where it is
 * defined, that moves one bit fails here.
 */
const KnownAnswers kKnownAnswers[] = {
    {42,
     {0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull, 0xae17533239e499a1ull,
      0xecb8ad4703b360a1ull},
     {0x1.5780b2e0c2ecp-4, 0x1.84136619b444ep-2, 0x1.5c2ea66473c93p-1,
      0x1.d9715a8e0766cp-1},
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0},
     {{0x1.5780b2e0c2ecp-4, 0x1.84136619b444ep-2},
      {0x1.5c2ea66473c93p-1, 0x1.d9715a8e0766cp-1},
      {0x1.fbcdb8ffc5d8bp-1, 0x1.8a1b4a6202f2ap-1}},
     {-0x1.9cfc3b5554226p+0, 0x1.9039f092211cbp-1, 0x1.0409077faf56dp-6,
      0x1.e8ab869120c28p-2}},
    {2022,
     {0x3240f99fbeb236c4ull, 0x97f4c24ed811819dull, 0x9d797807af82a01dull,
      0x428f32d0c9d15906ull},
     {0x1.9207ccfdf5918p-3, 0x1.2fe9849db023p-1, 0x1.3af2f00f5f054p-1,
      0x1.0a3ccb4327456p-2},
     {1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0},
     {{0x1.9207ccfdf5918p-3, 0x1.2fe9849db023p-1},
      {0x1.3af2f00f5f054p-1, 0x1.0a3ccb4327456p-2},
      {0x1.5ab32be24f4acp-3, 0x1.9a9b54cc26ebcp-3}},
     {-0x1.805f88512a3c2p+0, -0x1.faf5332416011p-5, 0x1.275d4423d1f1bp-1,
      -0x1.aa3b56d768a4fp-2}},
};

TEST(Rng, KnownAnswerStreams)
{
    for (const KnownAnswers &known : kKnownAnswers) {
        SCOPED_TRACE("seed " + std::to_string(known.seed));
        Rng next_rng(known.seed);
        for (const std::uint64_t want : known.next)
            EXPECT_EQ(next_rng.next(), want);
        Rng uniform_rng(known.seed);
        for (const double want : known.uniform)
            EXPECT_EQ(uniform_rng.uniform(), want);
        Rng bernoulli_rng(known.seed);
        for (const bool want : known.bernoulli)
            EXPECT_EQ(bernoulli_rng.bernoulli(0.3), want);
        Rng draw_rng(known.seed);
        for (const Rng::NormalDraw &want : known.draws) {
            const Rng::NormalDraw draw = draw_rng.drawNormal();
            EXPECT_EQ(draw.u1, want.u1);
            EXPECT_EQ(draw.u2, want.u2);
        }
        Rng normal_rng(known.seed);
        for (const double want : known.normal)
            EXPECT_EQ(normal_rng.normal(), want);
    }
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
