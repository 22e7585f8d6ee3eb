/**
 * @file
 * Tests for the bit-level FNIR block (Sec. 4.4, Fig. 8): comparator
 * bank + first-n+1 arbiter-select priority encoder, and the stream
 * form the ANT PE's counting runs use (comparator pass into a bitset,
 * popcount window walk), which must decide every window as
 * Fnir::evaluate does, and the closed form of a stream whose
 * candidates all lie in range, which must equal that walk.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "ant/fnir.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

/** One window's candidate indices, as the CSR columns array holds them. */
std::vector<std::uint32_t>
lanes(std::initializer_list<std::uint32_t> indices)
{
    return indices;
}

TEST(ArbiterSelect, GrantsLowestSetBit)
{
    std::uint32_t pos = 99;
    bool valid = false;
    const std::uint64_t rest = Fnir::arbiterSelect(0b101100, pos, valid);
    EXPECT_TRUE(valid);
    EXPECT_EQ(pos, 2u);
    EXPECT_EQ(rest, 0b101000u);
}

TEST(ArbiterSelect, EmptyRequestInvalid)
{
    std::uint32_t pos = 99;
    bool valid = true;
    const std::uint64_t rest = Fnir::arbiterSelect(0, pos, valid);
    EXPECT_FALSE(valid);
    EXPECT_EQ(rest, 0u);
}

TEST(ArbiterSelect, ChainDrainsAllBits)
{
    std::uint64_t req = 0b1011;
    std::uint32_t pos;
    bool valid;
    std::vector<std::uint32_t> granted;
    while (req) {
        req = Fnir::arbiterSelect(req, pos, valid);
        ASSERT_TRUE(valid);
        granted.push_back(pos);
    }
    EXPECT_EQ(granted, (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST(Fnir, SelectsFirstNInRange)
{
    const Fnir fnir(2, 8);
    CounterSet c;
    const std::vector<std::uint32_t> s = {9, 3, 5, 1, 4, 8, 2, 6};
    const FnirResult r = fnir.evaluate(s, 2, 5, c);
    // In range: positions 1(3), 2(5), 4(4), 6(2). First 2 go to the
    // multiplier, the 3rd is the feedback.
    ASSERT_EQ(r.ports.size(), 3u);
    EXPECT_TRUE(r.ports[0].valid);
    EXPECT_EQ(r.ports[0].position, 1u);
    EXPECT_TRUE(r.ports[1].valid);
    EXPECT_EQ(r.ports[1].position, 2u);
    EXPECT_TRUE(r.feedback().valid);
    EXPECT_EQ(r.feedback().position, 4u);
    EXPECT_EQ(r.selectedCount(), 2u);
}

TEST(Fnir, FeedbackInvalidWhenAtMostNValid)
{
    const Fnir fnir(4, 8);
    CounterSet c;
    const std::vector<std::uint32_t> s = {9, 3, 5, 1, 9, 8, 9, 6};
    const FnirResult r = fnir.evaluate(s, 3, 6, c); // valid: 3,5,6
    EXPECT_EQ(r.selectedCount(), 3u);
    EXPECT_FALSE(r.feedback().valid);
}

TEST(Fnir, NothingInRange)
{
    const Fnir fnir(4, 8);
    CounterSet c;
    const std::vector<std::uint32_t> s = {9, 9, 9, 9};
    const FnirResult r = fnir.evaluate(s, 0, 5, c);
    EXPECT_EQ(r.selectedCount(), 0u);
    EXPECT_FALSE(r.feedback().valid);
}

TEST(Fnir, InclusiveBounds)
{
    const Fnir fnir(2, 4);
    CounterSet c;
    const FnirResult r = fnir.evaluate(lanes({2, 5, 1, 6}), 2, 5, c);
    EXPECT_EQ(r.selectedCount(), 2u);
    EXPECT_EQ(r.ports[0].position, 0u); // s=2 == min
    EXPECT_EQ(r.ports[1].position, 1u); // s=5 == max
}

TEST(Fnir, ShortWindowModelsBufferEnd)
{
    const Fnir fnir(4, 16);
    CounterSet c;
    const FnirResult r = fnir.evaluate(lanes({3, 4}), 0, 10, c);
    EXPECT_EQ(r.selectedCount(), 2u);
}

TEST(Fnir, ComparatorEnergyChargedPerLane)
{
    const Fnir fnir(4, 16);
    CounterSet c;
    fnir.evaluate(lanes({1, 2, 3}), 0, 10, c);
    // All k comparator lanes switch regardless of occupancy.
    EXPECT_EQ(c.get(Counter::IndexCompares), 32u);
}

TEST(FnirDeathTest, WindowWiderThanKPanics)
{
    const Fnir fnir(2, 2);
    CounterSet c;
    EXPECT_DEATH(fnir.evaluate(lanes({1, 2, 3}), 0, 10, c), "exceeds");
}

TEST(FnirDeathTest, BadParams)
{
    EXPECT_DEATH(Fnir(0, 8), "at least one");
    EXPECT_DEATH(Fnir(4, 65), "in \\[1, 64\\]");
}

/** Naive reference: first n+1 indices within [min, max]. */
std::vector<std::uint32_t>
naiveFirstWithin(const std::vector<std::uint32_t> &s, std::int64_t min,
                 std::int64_t max, std::uint32_t count)
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < s.size() && out.size() < count; ++i)
        if (s[i] >= min && s[i] <= max)
            out.push_back(i);
    return out;
}

/** Property sweep: the hardware composition equals the naive scan. */
class FnirSweep : public ::testing::TestWithParam<
                      std::tuple<std::uint32_t, std::uint32_t>>
{};

TEST_P(FnirSweep, MatchesNaiveScan)
{
    const auto [n, k] = GetParam();
    const Fnir fnir(n, k);
    Rng rng(n * 100 + k);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<std::uint32_t> s(k);
        for (auto &v : s)
            v = static_cast<std::uint32_t>(rng.range(0, 15));
        const std::int64_t lo = rng.range(0, 10);
        const std::int64_t hi = lo + rng.range(0, 8);

        CounterSet c;
        const FnirResult r = fnir.evaluate(s, lo, hi, c);
        const auto want = naiveFirstWithin(s, lo, hi, n + 1);

        for (std::uint32_t port = 0; port <= n; ++port) {
            if (port < want.size()) {
                EXPECT_TRUE(r.ports[port].valid);
                EXPECT_EQ(r.ports[port].position, want[port]);
            } else {
                EXPECT_FALSE(r.ports[port].valid);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, FnirSweep,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u,
                                                              6u, 8u),
                                            ::testing::Values(4u, 8u, 16u,
                                                              32u)));

/** Random candidate indices, a few of them near the top of uint32. */
std::vector<std::uint32_t>
randomStream(Rng &rng, std::size_t size)
{
    std::vector<std::uint32_t> stream(size);
    for (auto &v : stream) {
        v = rng.bernoulli(0.05)
            ? std::numeric_limits<std::uint32_t>::max() -
                static_cast<std::uint32_t>(rng.range(0, 3))
            : static_cast<std::uint32_t>(rng.range(0, 40));
    }
    return stream;
}

/**
 * Random [min, max] bounds: ordinary, empty, negative, and reaching
 * past the uint32 index domain.
 */
std::pair<std::int64_t, std::int64_t>
randomBounds(Rng &rng)
{
    constexpr std::int64_t beyond = std::int64_t{1} << 33;
    switch (rng.range(0, 5)) {
      case 0: { // empty
        const std::int64_t lo = rng.range(0, 40);
        return {lo, lo - rng.range(1, 5)};
      }
      case 1: // entirely negative
        return {-rng.range(5, 50), -rng.range(1, 4)};
      case 2: // from below zero
        return {-rng.range(1, 50), rng.range(0, 40)};
      case 3: // past uint32
        return {rng.range(0, 40), beyond};
      case 4: // everything
        return {-beyond, beyond};
      default: {
        const std::int64_t lo = rng.range(0, 40);
        return {lo, lo + rng.range(0, 20)};
      }
    }
}

TEST(FnirStream, WindowWalkMatchesRepeatedEvaluate)
{
    // Streams of 0-300 candidates cross several 64-bit words, so the
    // walk reads windows that straddle word boundaries.
    constexpr std::uint32_t geometries[][2] = {
        {4, 16}, {4, 4}, {8, 9}, {16, 16}, {2, 64}, {1, 1}, {3, 64}};
    Rng rng(1700);
    for (const auto &geometry : geometries) {
        const Fnir fnir(geometry[0], geometry[1]);
        const std::uint32_t k = fnir.k();
        for (int trial = 0; trial < 150; ++trial) {
            const auto stream = randomStream(
                rng, static_cast<std::size_t>(rng.range(0, 300)));
            const auto [lo, hi] = randomBounds(rng);
            FnirRangeBits bits;
            Fnir::compareStream(stream, lo, hi, bits);
            ASSERT_EQ(bits.size, stream.size());

            std::size_t pos = 0;
            while (pos < stream.size()) {
                const auto width = static_cast<std::uint32_t>(
                    std::min<std::size_t>(k, stream.size() - pos));
                CounterSet c;
                const FnirResult want = fnir.evaluate(
                    std::span<const std::uint32_t>(stream.data() + pos,
                                                   width),
                    lo, hi, c);
                const std::size_t want_next = want.feedback().valid
                    ? pos + want.feedback().position
                    : pos + width;
                const FnirWindow got = fnir.window(bits, pos);
                ASSERT_EQ(got.width, width) << "pos " << pos;
                ASSERT_EQ(got.selected, want.selectedCount())
                    << "n " << fnir.n() << " k " << k << " pos " << pos
                    << " bounds [" << lo << ", " << hi << "]";
                ASSERT_EQ(got.next, want_next) << "pos " << pos;

                // idleWindows counts the full windows from here on that
                // select nothing, as successive evaluations see them.
                std::size_t idle = 0;
                for (std::size_t at = pos; at + k <= stream.size();
                     at += k) {
                    CounterSet scratch;
                    if (fnir.evaluate(std::span<const std::uint32_t>(
                                          stream.data() + at, k),
                                      lo, hi, scratch)
                            .selectedCount() != 0)
                        break;
                    ++idle;
                }
                ASSERT_EQ(fnir.idleWindows(bits, pos), idle)
                    << "pos " << pos;
                pos = got.next;
            }
        }
    }
}

/**
 * A stream whose candidates all lie in range: the closed form
 * (Fnir::inRangeScan) equals the walk over its all-ones bitset, window
 * by window, for every length 1-300 (so across several words), at
 * geometries where k > n, k == n and k spans many windows. With a
 * recorder attached, the closed form records the walk's histogram and
 * spans.
 */
TEST(FnirStream, InRangeScanMatchesTheWalk)
{
    constexpr std::uint32_t geometries[][2] = {{4, 16}, {8, 16}, {4, 4},
                                               {1, 2},  {3, 64}, {16, 64}};
    for (const auto &geometry : geometries) {
        const Fnir fnir(geometry[0], geometry[1]);
        const std::uint32_t n = fnir.n();
        const std::uint32_t k = fnir.k();
        for (std::size_t length = 1; length <= 300; ++length) {
            const std::vector<std::uint32_t> stream(length, 0);
            FnirRangeBits bits;
            Fnir::compareStream(stream, 0, 0, bits);
            const FnirInRangeScan scan = fnir.inRangeScan(length);
            const std::string where = "n " + std::to_string(n) + " k " +
                std::to_string(k) + " length " + std::to_string(length);

            obs::UnitRecorder walked;
            std::size_t windows = 0;
            for (std::size_t pos = 0; pos < length; ++windows) {
                const FnirWindow w = fnir.window(bits, pos);
                ASSERT_LT(windows, scan.windows) << where;
                ASSERT_EQ(w.width, scan.width(windows))
                    << where << " window " << windows;
                ASSERT_EQ(w.selected, scan.selected(windows))
                    << where << " window " << windows;
                walked.hist(obs::HistId::FnirValidPartners, w.selected);
                walked.advance(w.selected == 0 ? obs::SpanKind::IdleScan
                                               : obs::SpanKind::Active,
                               1);
                pos = w.next;
            }
            ASSERT_EQ(windows, scan.windows) << where;
            ASSERT_LE(scan.windows - scan.fullWindows, (k + n - 1) / n)
                << where;

            obs::UnitRecorder closed;
            scan.record(closed);
            ASSERT_EQ(closed.histograms(), walked.histograms()) << where;
            ASSERT_EQ(closed.spans().size(), walked.spans().size())
                << where;
            for (std::size_t i = 0; i < walked.spans().size(); ++i) {
                ASSERT_EQ(closed.spans()[i].begin, walked.spans()[i].begin);
                ASSERT_EQ(closed.spans()[i].end, walked.spans()[i].end);
                ASSERT_EQ(closed.spans()[i].kind, walked.spans()[i].kind);
            }
        }
    }
}

TEST(FnirDeathTest, InRangeScanNeedsACandidateAndKAtLeastN)
{
    EXPECT_DEATH(Fnir(4, 16).inRangeScan(0), "in-range scan");
    EXPECT_DEATH(Fnir(8, 4).inRangeScan(10), "in-range scan");
}

/**
 * The two comparator banks set the same bits. Every stream length from
 * 0 to 200 covers each tail of an 8-lane vector and of a 64-lane word;
 * the fixed bounds sit at the edges of the int64-to-uint32 clamp, and
 * one is empty (min > max). Both banks write into words pre-filled
 * with different garbage, so a word either bank leaves unwritten shows.
 */
TEST(FnirStream, ComparatorBankScalarMatchesAvx2)
{
#if defined(__x86_64__)
    if (!Fnir::hasAvx2Bank())
        GTEST_SKIP() << "CPU lacks AVX2; the scalar bank is the only one";
    constexpr std::int64_t u32_max =
        std::numeric_limits<std::uint32_t>::max();
    const std::pair<std::int64_t, std::int64_t> edges[] = {
        {-1, -1},
        {-1, 0},
        {0, 0},
        {0, 5},
        {-1, u32_max},
        {u32_max, u32_max},
        {u32_max - 2, u32_max},
        {u32_max, u32_max + 1},
        {u32_max + 1, u32_max + 1},
        {0, u32_max + 1},
        {7, 3}};
    Rng rng(1701);
    const auto check = [](const std::vector<std::uint32_t> &stream,
                          std::int64_t lo, std::int64_t hi) {
        const std::size_t words = (stream.size() + 63) / 64;
        std::vector<std::uint64_t> scalar(words, 0x5555555555555555ull);
        std::vector<std::uint64_t> avx2(words, 0xaaaaaaaaaaaaaaaaull);
        Fnir::rangeBitsScalar(stream.data(), stream.size(), lo, hi,
                              scalar.data());
        Fnir::rangeBitsAvx2(stream.data(), stream.size(), lo, hi,
                            avx2.data());
        ASSERT_EQ(scalar, avx2) << "size " << stream.size() << " bounds ["
                                << lo << ", " << hi << "]";
    };
    for (std::size_t size = 0; size <= 200; ++size) {
        const auto stream = randomStream(rng, size);
        const auto [lo, hi] = randomBounds(rng);
        check(stream, lo, hi);
        for (const auto &[edge_lo, edge_hi] : edges)
            check(stream, edge_lo, edge_hi);
    }
    for (int trial = 0; trial < 300; ++trial) {
        const auto stream =
            randomStream(rng, static_cast<std::size_t>(rng.range(0, 300)));
        const auto [lo, hi] = randomBounds(rng);
        check(stream, lo, hi);
    }
#else
    GTEST_SKIP() << "not an x86-64 build; the scalar bank is the only one";
#endif
}

} // namespace
} // namespace antsim
