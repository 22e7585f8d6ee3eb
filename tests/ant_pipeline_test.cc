/**
 * @file
 * Tests validating the tick-accurate ANT pipeline model against the
 * throughput model (ant_pe.hh) -- the perfect-overlap assumption.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "ant/ant_pe.hh"
#include "oracles/ant_pipeline.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

struct Planes
{
    CsrMatrix kernel;
    CsrMatrix image;
    ProblemSpec spec;
};

Planes
makePlanes(std::uint32_t kdim, std::uint32_t idim, double sparsity,
           std::uint64_t seed)
{
    Rng rng(seed);
    return {CsrMatrix::fromDense(bernoulliPlane(kdim, kdim, sparsity, rng)),
            CsrMatrix::fromDense(bernoulliPlane(idim, idim, sparsity, rng)),
            ProblemSpec::conv(kdim, kdim, idim, idim)};
}

TEST(AntPipeline, ProductCountsMatchThroughputModel)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const Planes p = makePlanes(3, 14, 0.5, seed);
        AntPe batch;
        AntPipelineModel ticks;
        const PeResult b = batch.runPair(p.spec, p.kernel, p.image, false);
        const PipelineRunResult t = ticks.run(p.spec, p.kernel, p.image);
        EXPECT_EQ(t.executed, b.counters.get(Counter::MultsExecuted))
            << seed;
        EXPECT_EQ(t.valid, b.counters.get(Counter::MultsValid)) << seed;
        EXPECT_EQ(t.residualRcps, b.counters.get(Counter::MultsRcp))
            << seed;
    }
}

TEST(AntPipeline, CyclesMatchThroughputModelUpToDrain)
{
    // The throughput model assumes perfect stage overlap; the tick
    // model should agree to within the pipeline drain (the three
    // registers behind the scanner) on problems with no controller
    // walk (full-row-window kernels).
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const Planes p = makePlanes(3, 16, 0.6, 100 + seed);
        AntPe batch;
        AntPipelineModel ticks;
        const std::uint64_t b =
            batch.runPair(p.spec, p.kernel, p.image, false)
                .counters.get(Counter::Cycles);
        const std::uint64_t t = ticks.run(p.spec, p.kernel, p.image).cycles;
        EXPECT_GE(t, b) << seed;
        EXPECT_LE(t - b, 4u) << seed;
    }
}

TEST(AntPipeline, FnirEvaluationsMatchScanCycles)
{
    const Planes p = makePlanes(3, 14, 0.5, 7);
    AntPe batch;
    AntPipelineModel ticks;
    const PeResult b = batch.runPair(p.spec, p.kernel, p.image, false);
    const PipelineRunResult t = ticks.run(p.spec, p.kernel, p.image);
    // Scan cycles (active + idle FNIR evaluations) agree. The batch
    // model also charges one idle cycle per *empty* group, which the
    // tick scanner spends without an FNIR evaluation, so compare
    // against active+idle minus empty-group cycles conservatively.
    EXPECT_LE(t.fnirEvaluations,
              b.counters.get(Counter::ActiveCycles) +
                  b.counters.get(Counter::IdleScanCycles));
    EXPECT_GE(t.fnirEvaluations, b.counters.get(Counter::ActiveCycles));
}

TEST(AntPipeline, EmptyOperands)
{
    const auto spec = ProblemSpec::conv(3, 3, 8, 8);
    AntPipelineModel ticks;
    const PipelineRunResult t =
        ticks.run(spec, CsrMatrix(3, 3), CsrMatrix(8, 8));
    EXPECT_EQ(t.executed, 0u);
    EXPECT_EQ(t.cycles, 5u);
}

TEST(AntPipeline, DrainAccountsForTailBundles)
{
    // A single small group: the last issue must still traverse fetch,
    // multiply and retire before the model reports completion.
    Rng rng(9);
    const auto spec = ProblemSpec::conv(2, 2, 4, 4);
    const CsrMatrix kernel =
        CsrMatrix::fromDense(bernoulliPlane(2, 2, 0.0, rng));
    Dense2d<float> image_plane(4, 4);
    image_plane.at(1, 1) = 2.0f;
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);
    AntPipelineModel ticks;
    const PipelineRunResult t = ticks.run(spec, kernel, image);
    EXPECT_EQ(t.executed, kernel.nnz());
    // startup + 1 scan + 3 drain stages.
    EXPECT_GE(t.cycles, 5u + 1u + 2u);
}

TEST(AntPipelineDeathTest, RejectsUnsupportedModes)
{
    AntPeConfig cfg;
    cfg.dataflow = AntDataflow::KernelStationary;
    EXPECT_DEATH(AntPipelineModel{cfg}, "image-stationary");
    AntPipelineModel ticks;
    EXPECT_DEATH(ticks.run(ProblemSpec::matmul(4, 4, 4, 4),
                           CsrMatrix(4, 4), CsrMatrix(4, 4)),
                 "convolutions");
}

/** Parameterized agreement sweep. */
class PipelineSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, double>>
{};

TEST_P(PipelineSweep, CountsAgree)
{
    const auto [n, k, sparsity] = GetParam();
    AntPeConfig cfg;
    cfg.n = n;
    cfg.k = k;
    const Planes p = makePlanes(4, 15, sparsity, n * 17 + k);
    AntPe batch(cfg);
    AntPipelineModel ticks(cfg);
    const PeResult b = batch.runPair(p.spec, p.kernel, p.image, false);
    const PipelineRunResult t = ticks.run(p.spec, p.kernel, p.image);
    EXPECT_EQ(t.executed, b.counters.get(Counter::MultsExecuted));
    EXPECT_EQ(t.valid, b.counters.get(Counter::MultsValid));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineSweep,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(8u, 16u, 32u),
                       ::testing::Values(0.3, 0.9)));

} // namespace
} // namespace antsim
