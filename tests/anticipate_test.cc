/**
 * @file
 * Tests for Algorithm 1 (ideal anticipation) and Algorithm 2 (block
 * anticipation at outer-product granularity).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "conv/dense_conv.hh"
#include "oracles/anticipate.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

struct Pair
{
    Dense2d<float> kernel;
    Dense2d<float> image;
    ProblemSpec spec;
};

Pair
makePair(std::uint32_t kdim, std::uint32_t idim, double sparsity,
         std::uint32_t stride, std::uint64_t seed)
{
    Rng rng(seed);
    return {bernoulliPlane(kdim, kdim, sparsity, rng),
            bernoulliPlane(idim, idim, sparsity, rng),
            ProblemSpec::conv(kdim, kdim, idim, idim, stride)};
}

TEST(IdealAnticipation, EliminatesAllRcps)
{
    const Pair p = makePair(4, 12, 0.5, 1, 1);
    const auto result =
        idealAnticipation(p.spec, CsrMatrix::fromDense(p.kernel),
                          CsrMatrix::fromDense(p.image));
    EXPECT_EQ(result.residualRcps, 0u);
    EXPECT_EQ(result.executedProducts, result.validProducts);
    EXPECT_DOUBLE_EQ(result.rcpEliminationRate(), 1.0);
}

TEST(IdealAnticipation, OutputMatchesReference)
{
    const Pair p = makePair(3, 10, 0.4, 1, 2);
    const auto result =
        idealAnticipation(p.spec, CsrMatrix::fromDense(p.kernel),
                          CsrMatrix::fromDense(p.image));
    const auto ref = referenceExecute(p.spec, p.kernel, p.image);
    EXPECT_LT(maxAbsDiff(result.output, ref), 1e-9);
}

TEST(IdealAnticipation, SkipCountIsComplement)
{
    const Pair p = makePair(5, 9, 0.5, 1, 3);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    const auto result = idealAnticipation(p.spec, kernel, image);
    EXPECT_EQ(result.skippedRcps + result.executedProducts,
              static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
}

TEST(BlockAnticipation, OutputMatchesReference)
{
    const Pair p = makePair(4, 11, 0.5, 1, 4);
    const auto result =
        blockAnticipation(p.spec, CsrMatrix::fromDense(p.kernel),
                          CsrMatrix::fromDense(p.image), 4);
    const auto ref = referenceExecute(p.spec, p.kernel, p.image);
    EXPECT_LT(maxAbsDiff(result.output, ref), 1e-9);
}

TEST(BlockAnticipation, NeverSkipsValidProducts)
{
    // All valid products must still execute (the row/column-granular
    // screen can only remove whole-kernel-element RCP rows).
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        const Pair p = makePair(3, 9, 0.6, 1, 100 + seed);
        const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
        const CsrMatrix image = CsrMatrix::fromDense(p.image);
        const auto ideal = idealAnticipation(p.spec, kernel, image);
        const auto block =
            blockAnticipation(p.spec, kernel, image, 4);
        EXPECT_EQ(block.validProducts, ideal.validProducts);
    }
}

TEST(BlockAnticipation, BoundedBetweenIdealAndNone)
{
    const Pair p = makePair(6, 12, 0.5, 1, 5);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    const auto ideal = idealAnticipation(p.spec, kernel, image);
    const auto block = blockAnticipation(p.spec, kernel, image, 4);
    const std::uint64_t all =
        static_cast<std::uint64_t>(kernel.nnz()) * image.nnz();
    EXPECT_GE(block.executedProducts, ideal.executedProducts);
    EXPECT_LE(block.executedProducts, all);
}

TEST(BlockAnticipation, GroupOfOneIsNearIdeal)
{
    // With n = 1 the group min/max equal the element indices, so the
    // screen reduces to the per-element conditions; at stride 1 these
    // are exact (no divisibility concerns), i.e. zero residual RCPs.
    const Pair p = makePair(5, 10, 0.5, 1, 6);
    const auto block =
        blockAnticipation(p.spec, CsrMatrix::fromDense(p.kernel),
                          CsrMatrix::fromDense(p.image), 1);
    EXPECT_EQ(block.residualRcps, 0u);
}

TEST(BlockAnticipation, LargerGroupsAdmitMoreResiduals)
{
    const Pair p = makePair(8, 16, 0.7, 1, 7);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    std::uint64_t prev = 0;
    for (std::uint32_t n : {1u, 4u, 16u}) {
        const auto block = blockAnticipation(p.spec, kernel, image, n);
        EXPECT_GE(block.residualRcps, prev);
        prev = block.residualRcps;
    }
}

TEST(BlockAnticipation, AblationConditionsAreMonotone)
{
    // Fig. 14: either condition alone eliminates fewer RCPs than both.
    const Pair p = makePair(8, 14, 0.6, 1, 8);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    const auto both = blockAnticipation(p.spec, kernel, image, 4);
    const auto r_only =
        blockAnticipation(p.spec, kernel, image, 4, true, false);
    const auto s_only =
        blockAnticipation(p.spec, kernel, image, 4, false, true);
    const auto none =
        blockAnticipation(p.spec, kernel, image, 4, false, false);
    EXPECT_LE(both.executedProducts, r_only.executedProducts);
    EXPECT_LE(both.executedProducts, s_only.executedProducts);
    EXPECT_LE(r_only.executedProducts, none.executedProducts);
    EXPECT_LE(s_only.executedProducts, none.executedProducts);
    // With no conditions, nothing is anticipated.
    EXPECT_EQ(none.skippedRcps, 0u);
    // Outputs identical in all cases.
    const auto ref = referenceExecute(p.spec, p.kernel, p.image);
    EXPECT_LT(maxAbsDiff(both.output, ref), 1e-9);
    EXPECT_LT(maxAbsDiff(r_only.output, ref), 1e-9);
    EXPECT_LT(maxAbsDiff(s_only.output, ref), 1e-9);
    EXPECT_LT(maxAbsDiff(none.output, ref), 1e-9);
}

TEST(BlockAnticipation, UpdatePhaseShapeEliminatesMostRcps)
{
    // G_A*A-like shape: large kernel, small output -- RCP-dominated
    // (Table 2); the block screen should remove the vast majority.
    Rng rng(9);
    const auto kernel_plane = bernoulliPlane(14, 14, 0.9, rng);
    const auto image_plane = bernoulliPlane(16, 16, 0.9, rng);
    const auto spec = ProblemSpec::conv(14, 14, 16, 16);
    const auto block =
        blockAnticipation(spec, CsrMatrix::fromDense(kernel_plane),
                          CsrMatrix::fromDense(image_plane), 4);
    EXPECT_GT(block.rcpEliminationRate(), 0.5);
}

/** Parameterized sweep: anticipation preserves outputs. */
class AnticipateSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                     std::uint32_t>>
{};

TEST_P(AnticipateSweep, BothAlgorithmsMatchReference)
{
    const auto [kdim, idim, stride, n] = GetParam();
    const Pair p = makePair(kdim, idim, 0.5, stride,
                            kdim * 1000 + idim * 10 + stride);
    const CsrMatrix kernel = CsrMatrix::fromDense(p.kernel);
    const CsrMatrix image = CsrMatrix::fromDense(p.image);
    const auto ref = referenceExecute(p.spec, p.kernel, p.image);
    EXPECT_LT(maxAbsDiff(idealAnticipation(p.spec, kernel, image).output,
                         ref),
              1e-9);
    EXPECT_LT(
        maxAbsDiff(blockAnticipation(p.spec, kernel, image, n).output, ref),
        1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AnticipateSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 6u),
                       ::testing::Values(8u, 13u),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(1u, 4u, 8u)));

} // namespace
} // namespace antsim
