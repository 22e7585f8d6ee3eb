/**
 * @file
 * Tests for the kernel-stack dataflow (PeModel::runStack): the
 * channel-batched, image-stationary streaming of Sec. 2.3 that both
 * the SCNN baseline and ANT use.
 */

#include <gtest/gtest.h>

#include "ant/ant_pe.hh"
#include "baselines/inner_product.hh"
#include "conv/dense_conv.hh"
#include "scnn/scnn_pe.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"
#include "workload/tracegen.hh"

namespace antsim {
namespace {

struct StackFixture
{
    ProblemSpec spec = ProblemSpec::conv(3, 3, 14, 14);
    std::vector<CsrMatrix> kernels;
    CsrMatrix image = CsrMatrix(14, 14);
    Dense2d<float> image_plane;

    explicit StackFixture(std::uint32_t count, double sparsity,
                          std::uint64_t seed)
    {
        Rng rng(seed);
        for (std::uint32_t i = 0; i < count; ++i) {
            kernels.push_back(
                CsrMatrix::fromDense(bernoulliPlane(3, 3, sparsity, rng)));
        }
        image_plane = bernoulliPlane(14, 14, sparsity, rng);
        image = CsrMatrix::fromDense(image_plane);
    }

    std::vector<const CsrMatrix *>
    ptrs() const
    {
        std::vector<const CsrMatrix *> out;
        for (const auto &k : kernels)
            out.push_back(&k);
        return out;
    }

    /** Sum of the per-kernel reference convolutions. */
    Dense2d<double>
    summedReference() const
    {
        Dense2d<double> sum(spec.outH(), spec.outW());
        for (const auto &k : kernels) {
            const auto ref =
                referenceExecute(spec, k.toDense(), image_plane);
            for (std::size_t i = 0; i < sum.data().size(); ++i)
                sum.data()[i] += ref.data()[i];
        }
        return sum;
    }

    std::uint64_t
    stackNnz() const
    {
        std::uint64_t total = 0;
        for (const auto &k : kernels)
            total += k.nnz();
        return total;
    }
};

TEST(ScnnStack, FunctionalOutputIsSummedReference)
{
    const StackFixture fx(5, 0.5, 1);
    ScnnPe pe;
    const PeResult r = pe.runStack(fx.spec, fx.ptrs(), fx.image, true);
    EXPECT_LT(maxAbsDiff(r.output, fx.summedReference()), 1e-9);
}

TEST(ScnnStack, CycleFormulaOverMergedStream)
{
    const StackFixture fx(7, 0.4, 2);
    ScnnPeConfig cfg;
    ScnnPe pe(cfg);
    const PeResult r = pe.runStack(fx.spec, fx.ptrs(), fx.image, false);
    const std::uint64_t igroups = (fx.image.nnz() + 3) / 4;
    const std::uint64_t kgroups = (fx.stackNnz() + 3) / 4;
    EXPECT_EQ(r.counters.get(Counter::Cycles),
              cfg.startupCycles + igroups * kgroups);
    // One startup for the whole stack.
    EXPECT_EQ(r.counters.get(Counter::StartupCycles), cfg.startupCycles);
}

TEST(ScnnStack, CountingMatchesFunctional)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const StackFixture fx(4 + seed, 0.5, 10 + seed);
        ScnnPe pe;
        const PeResult slow =
            pe.runStack(fx.spec, fx.ptrs(), fx.image, true);
        const PeResult fast =
            pe.runStack(fx.spec, fx.ptrs(), fx.image, false);
        for (std::size_t i = 0; i < kNumCounters; ++i) {
            const auto counter = static_cast<Counter>(i);
            EXPECT_EQ(fast.counters.get(counter),
                      slow.counters.get(counter))
                << counterName(counter) << " seed " << seed;
        }
    }
}

TEST(ScnnStack, SingleKernelStackEqualsRunPair)
{
    const StackFixture fx(1, 0.5, 3);
    ScnnPe pe;
    const PeResult stack =
        pe.runStack(fx.spec, fx.ptrs(), fx.image, false);
    const PeResult pair =
        pe.runPair(fx.spec, fx.kernels[0], fx.image, false);
    EXPECT_EQ(stack.counters.get(Counter::Cycles),
              pair.counters.get(Counter::Cycles));
    EXPECT_EQ(stack.counters.get(Counter::MultsExecuted),
              pair.counters.get(Counter::MultsExecuted));
}

TEST(AntStack, FunctionalOutputIsSummedReference)
{
    const StackFixture fx(5, 0.5, 4);
    AntPe pe;
    const PeResult r = pe.runStack(fx.spec, fx.ptrs(), fx.image, true);
    EXPECT_LT(maxAbsDiff(r.output, fx.summedReference()), 1e-9);
}

TEST(AntStack, CountingMatchesFunctionalCounters)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        const StackFixture fx(6, 0.6, 20 + seed);
        AntPe pe;
        const PeResult slow =
            pe.runStack(fx.spec, fx.ptrs(), fx.image, true);
        const PeResult fast =
            pe.runStack(fx.spec, fx.ptrs(), fx.image, false);
        for (std::size_t i = 0; i < kNumCounters; ++i) {
            const auto counter = static_cast<Counter>(i);
            EXPECT_EQ(fast.counters.get(counter),
                      slow.counters.get(counter))
                << counterName(counter) << " seed " << seed;
        }
    }
}

TEST(AntStack, ExecutedProductSetMatchesPerPairSum)
{
    // Screening decisions are per (kernel element, image group), so
    // the stacked execution admits exactly the union of the per-pair
    // executions.
    const StackFixture fx(6, 0.5, 5);
    AntPe pe;
    const PeResult stack =
        pe.runStack(fx.spec, fx.ptrs(), fx.image, false);
    std::uint64_t pair_executed = 0;
    std::uint64_t pair_valid = 0;
    for (const auto &kernel : fx.kernels) {
        const PeResult r = pe.runPair(fx.spec, kernel, fx.image, false);
        pair_executed += r.counters.get(Counter::MultsExecuted);
        pair_valid += r.counters.get(Counter::MultsValid);
    }
    EXPECT_EQ(stack.counters.get(Counter::MultsExecuted), pair_executed);
    EXPECT_EQ(stack.counters.get(Counter::MultsValid), pair_valid);
}

TEST(AntStack, ValidProductsEqualScnn)
{
    const StackFixture fx(8, 0.7, 6);
    AntPe ant;
    ScnnPe scnn;
    const PeResult a = ant.runStack(fx.spec, fx.ptrs(), fx.image, false);
    const PeResult s = scnn.runStack(fx.spec, fx.ptrs(), fx.image, false);
    EXPECT_EQ(a.counters.get(Counter::MultsValid),
              s.counters.get(Counter::MultsValid));
    EXPECT_LE(a.counters.get(Counter::MultsExecuted),
              s.counters.get(Counter::MultsExecuted));
}

TEST(AntStack, ControllerWalkBoundsSmallKernelStacks)
{
    // An update-phase-shaped problem whose windows are proper: the
    // controller's pointer walk sets a floor on ANT's group time.
    Rng rng(7);
    const auto spec = ProblemSpec::conv(12, 12, 14, 14);
    std::vector<CsrMatrix> kernels;
    for (int i = 0; i < 64; ++i) {
        kernels.push_back(
            CsrMatrix::fromDense(bernoulliPlane(12, 12, 0.95, rng)));
    }
    std::vector<const CsrMatrix *> ptrs;
    for (const auto &k : kernels)
        ptrs.push_back(&k);
    const CsrMatrix image =
        CsrMatrix::fromDense(bernoulliPlane(14, 14, 0.9, rng));

    AntPeConfig cfg;
    AntPe pe(cfg);
    const PeResult r = pe.runStack(spec, ptrs, image, false);
    // Row pointers were actually walked.
    EXPECT_GT(r.counters.get(Counter::SramRowPtrReads), 0u);
    // Cycles at least the walk floor for the non-empty groups.
    const std::uint64_t groups = (image.nnz() + cfg.n - 1) / cfg.n;
    EXPECT_GE(r.counters.get(Counter::Cycles), groups);
}

TEST(AntStack, FullWindowStreamsWithoutWalk)
{
    // Forward-phase shape: tiny kernel, window covers all rows -> the
    // degenerate stream charges no pointer walk.
    const StackFixture fx(16, 0.9, 8);
    AntPe pe;
    const PeResult r = pe.runStack(fx.spec, fx.ptrs(), fx.image, false);
    EXPECT_EQ(r.counters.get(Counter::SramRowPtrReads), 0u);
}

TEST(AntStackDeathTest, RejectsMatmulStacks)
{
    const auto spec = ProblemSpec::matmul(4, 4, 4, 4);
    const CsrMatrix kernel(4, 4);
    const CsrMatrix image(4, 4);
    AntPe pe;
    // One plane is a matmul pair (runPair's path); two are a stack.
    pe.runStack(spec, {&kernel}, image, false);
    EXPECT_DEATH(pe.runStack(spec, {&kernel, &kernel}, image, false),
                 "convolution dataflow");
}

TEST(StackDeathTest, EmptyStackRejected)
{
    const auto spec = ProblemSpec::conv(3, 3, 8, 8);
    const CsrMatrix image(8, 8);
    ScnnPe scnn;
    AntPe ant;
    EXPECT_DEATH(scnn.runStack(spec, {}, image, false), "must not be");
    EXPECT_DEATH(ant.runStack(spec, {}, image, false), "must not be");
}

TEST(BaselineStack, DenseScalesWithStackSize)
{
    const StackFixture fx(6, 0.5, 9);
    DenseInnerProductPe pe;
    const PeResult stack =
        pe.runStack(fx.spec, fx.ptrs(), fx.image, false);
    const PeResult one =
        pe.runPair(fx.spec, fx.kernels[0], fx.image, false);
    EXPECT_EQ(stack.counters.get(Counter::MultsExecuted),
              6 * one.counters.get(Counter::MultsExecuted));
    // Startup paid once.
    EXPECT_EQ(stack.counters.get(Counter::StartupCycles),
              one.counters.get(Counter::StartupCycles));
}

TEST(BaselineStack, TensorDashScalesWithStackSize)
{
    const StackFixture fx(4, 0.9, 10);
    TensorDashPe pe;
    const PeResult stack =
        pe.runStack(fx.spec, fx.ptrs(), fx.image, false);
    EXPECT_EQ(stack.counters.get(Counter::MultsExecuted),
              4 * nonzeroImageMacs(fx.spec, fx.image));
}

TEST(BaselineStack, FunctionalOutputIsSummedReference)
{
    const StackFixture fx(3, 0.4, 11);
    DenseInnerProductPe pe;
    const PeResult r = pe.runStack(fx.spec, fx.ptrs(), fx.image, true);
    // The dense model sums the kernel stack in float before the
    // reference conv, so allow float rounding.
    EXPECT_LT(maxAbsDiff(r.output, fx.summedReference()), 1e-5);
}

TEST(StackTask, TaskCountsFollowPhase)
{
    const ConvLayer layer{"t", 8, 16, 14, 14, 3, 1, 1};
    EXPECT_EQ(stackTaskCount(layer, TrainingPhase::Forward), 8u);
    EXPECT_EQ(stackTaskCount(layer, TrainingPhase::Backward), 16u);
    EXPECT_EQ(stackTaskCount(layer, TrainingPhase::Update), 8u);
}

TEST(StackTask, ForwardTaskShape)
{
    const ConvLayer layer{"t", 8, 16, 14, 14, 3, 1, 1};
    Rng rng(12);
    const StackTask task = makeConvPhaseTask(
        layer, TrainingPhase::Forward, SparsityProfile::swat(0.9), rng);
    EXPECT_EQ(task.kernels.size(), 16u);
    EXPECT_EQ(task.image->height(), 16u);
    EXPECT_EQ(task.kernelPtrs().size(), 16u);
    for (const CsrMatrix &k : task.kernels)
        EXPECT_EQ(k.height(), 3u);
}

TEST(StackTask, UpdateTaskShape)
{
    const ConvLayer layer{"t", 8, 16, 14, 14, 3, 1, 1};
    Rng rng(13);
    const StackTask task = makeConvPhaseTask(
        layer, TrainingPhase::Update, SparsityProfile::swat(0.9), rng);
    EXPECT_EQ(task.kernels.size(), 16u);
    EXPECT_EQ(task.kernels[0].height(), 14u);
    EXPECT_EQ(task.spec.outH(), 3u);
}

TEST(StackTask, BackwardTaskShape)
{
    const ConvLayer layer{"t", 8, 16, 14, 14, 3, 1, 1};
    Rng rng(14);
    const StackTask task = makeConvPhaseTask(
        layer, TrainingPhase::Backward, SparsityProfile::swat(0.9), rng);
    // One gradient image, a rotated-weight kernel per input channel.
    EXPECT_EQ(task.kernels.size(), 8u);
    EXPECT_EQ(task.image->height(), 16u);
}

} // namespace
} // namespace antsim
