/**
 * @file
 * Tests for the multi-PE level: chunked execution of one pair
 * (functionally exact, counters additive) and the load-balance
 * reduction of task cycles to accelerator cycles (Sec. 6.1).
 */

#include <gtest/gtest.h>

#include <vector>

#include "ant/ant_pe.hh"
#include "conv/dense_conv.hh"
#include "oracles/chunked_run.hh"
#include "scnn/scnn_pe.hh"
#include "sim/accelerator.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

/** @p count task cycle counts in [1, 1000]. */
std::vector<std::uint64_t>
randomTaskCycles(std::size_t count, Rng &rng)
{
    std::vector<std::uint64_t> cycles(count);
    for (std::uint64_t &c : cycles)
        c = 1 + rng.below(1000);
    return cycles;
}

TEST(Accelerator, ChunkingPreservesFunctionalOutput)
{
    Rng rng(2);
    const auto kernel_plane = bernoulliPlane(8, 8, 0.3, rng);
    const auto image_plane = bernoulliPlane(16, 16, 0.3, rng);
    const auto spec = ProblemSpec::conv(8, 8, 16, 16);

    AntPe pe;
    const auto result = runChunked(pe, spec,
                                   CsrMatrix::fromDense(kernel_plane),
                                   CsrMatrix::fromDense(image_plane),
                                   /*capacity=*/16); // force many chunks
    EXPECT_GT(result.counters.get(Counter::TasksProcessed), 1u);
    EXPECT_LT(maxAbsDiff(result.output,
                         referenceExecute(spec, kernel_plane, image_plane)),
              1e-9);
}

TEST(Accelerator, PerfectLoadBalanceIsCeilingOfSum)
{
    Rng rng(3);
    for (std::size_t count : {1u, 7u, 64u, 65u, 300u}) {
        const auto cycles = randomTaskCycles(count, rng);
        std::uint64_t total = 0;
        for (std::uint64_t c : cycles)
            total += c;
        EXPECT_EQ(scheduleCycles(cycles, 1, LoadBalance::Perfect), total);
        EXPECT_EQ(scheduleCycles(cycles, 64, LoadBalance::Perfect),
                  (total + 63) / 64);
    }
}

TEST(Accelerator, GreedyLptNeverBeatsPerfect)
{
    Rng rng(4);
    for (std::uint32_t pes : {1u, 2u, 4u, 64u}) {
        for (std::size_t count : {1u, 5u, 33u, 200u}) {
            const auto cycles = randomTaskCycles(count, rng);
            EXPECT_GE(scheduleCycles(cycles, pes, LoadBalance::GreedyLpt),
                      scheduleCycles(cycles, pes, LoadBalance::Perfect))
                << pes << " PEs, " << count << " tasks";
        }
    }
}

TEST(Accelerator, LoadBalanceKnownAnswer)
{
    // Sum 18 on 2 PEs: perfect balance takes 9 cycles. LPT places 5
    // and 4, then each 3 on the lighter PE: {5, 3} and {4, 3, 3}.
    const std::vector<std::uint64_t> cycles = {5, 4, 3, 3, 3};
    EXPECT_EQ(scheduleCycles(cycles, 2, LoadBalance::Perfect), 9u);
    EXPECT_EQ(scheduleCycles(cycles, 2, LoadBalance::GreedyLpt), 10u);
    EXPECT_EQ(scheduleCycles({}, 2, LoadBalance::GreedyLpt), 0u);
}

TEST(Accelerator, CountersSumOverTasks)
{
    // Executed multiplies must be invariant to chunking (every product
    // happens exactly once regardless of the chunk split).
    Rng rng(5);
    const auto kernel_plane = bernoulliPlane(6, 6, 0.5, rng);
    const auto image_plane = bernoulliPlane(12, 12, 0.5, rng);
    const auto spec = ProblemSpec::conv(6, 6, 12, 12);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);

    ScnnPe pe;
    const auto rb = runChunked(pe, spec, kernel, image, 4096);
    const auto rs = runChunked(pe, spec, kernel, image, 5);
    EXPECT_EQ(rb.counters.get(Counter::MultsExecuted),
              rs.counters.get(Counter::MultsExecuted));
    EXPECT_EQ(rb.counters.get(Counter::MultsValid),
              rs.counters.get(Counter::MultsValid));
    // But chunking pays more startup.
    EXPECT_GT(rs.counters.get(Counter::StartupCycles),
              rb.counters.get(Counter::StartupCycles));
}

} // namespace
} // namespace antsim
