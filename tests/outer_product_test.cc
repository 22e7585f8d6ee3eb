/**
 * @file
 * Tests for the functional sparse outer-product executor and product
 * census (the un-anticipated baseline semantics of Fig. 2d).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "conv/dense_conv.hh"
#include "conv/outer_product.hh"
#include "oracles/legacy_planes.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

TEST(OuterProduct, MatchesDenseReference)
{
    Rng rng(11);
    const auto kernel = bernoulliPlane(3, 3, 0.4, rng);
    const auto image = bernoulliPlane(8, 8, 0.6, rng);
    const auto spec = ProblemSpec::conv(3, 3, 8, 8);

    const auto result = sparseOuterProduct(
        spec, CsrMatrix::fromDense(kernel), CsrMatrix::fromDense(image));
    const auto ref = referenceExecute(spec, kernel, image);
    EXPECT_LT(maxAbsDiff(result.output, ref), 1e-9);
}

TEST(OuterProduct, ProductCountsAddUp)
{
    Rng rng(13);
    const auto kernel = CsrMatrix::fromDense(bernoulliPlane(4, 4, 0.5, rng));
    const auto image = CsrMatrix::fromDense(bernoulliPlane(9, 9, 0.5, rng));
    const auto spec = ProblemSpec::conv(4, 4, 9, 9);

    const auto result = sparseOuterProduct(spec, kernel, image);
    const ProductCensus &c = result.census;
    EXPECT_EQ(c.nonzeroProducts,
              static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
    EXPECT_EQ(c.validProducts + c.rcpProducts, c.nonzeroProducts);
    EXPECT_EQ(c.denseProducts, spec.denseCartesianProducts());
}

TEST(OuterProduct, DenseOperandsHitAnalyticEfficiency)
{
    // With fully dense operands the valid fraction equals Eq. 6.
    Rng rng(17);
    const auto kernel = CsrMatrix::fromDense(randomDensePlane(3, 3, rng));
    const auto image = CsrMatrix::fromDense(randomDensePlane(10, 10, rng));
    const auto spec = ProblemSpec::conv(3, 3, 10, 10);

    const auto census = countProducts(spec, kernel, image);
    const double measured = static_cast<double>(census.validProducts) /
        static_cast<double>(census.nonzeroProducts);
    EXPECT_NEAR(measured, spec.outerProductEfficiency(), 1e-12);
}

TEST(OuterProduct, CountMatchesExecution)
{
    Rng rng(19);
    for (int trial = 0; trial < 10; ++trial) {
        const std::uint32_t k = 2 + trial % 3;
        const std::uint32_t img = 6 + trial;
        const auto kernel =
            CsrMatrix::fromDense(bernoulliPlane(k, k, 0.5, rng));
        const auto image =
            CsrMatrix::fromDense(bernoulliPlane(img, img, 0.6, rng));
        const auto spec = ProblemSpec::conv(k, k, img, img);

        const auto executed = sparseOuterProduct(spec, kernel, image);
        const auto counted = countProducts(spec, kernel, image);
        EXPECT_EQ(executed.census.validProducts, counted.validProducts);
        EXPECT_EQ(executed.census.rcpProducts, counted.rcpProducts);
    }
}

TEST(OuterProduct, CountMatchesExecutionStridedDilated)
{
    Rng rng(23);
    for (std::uint32_t stride : {1u, 2u}) {
        for (std::uint32_t dil : {1u, 2u}) {
            const auto kernel =
                CsrMatrix::fromDense(bernoulliPlane(3, 3, 0.4, rng));
            const auto image =
                CsrMatrix::fromDense(bernoulliPlane(12, 12, 0.5, rng));
            const auto spec = ProblemSpec::conv(3, 3, 12, 12, stride, dil);
            const auto executed = sparseOuterProduct(spec, kernel, image);
            const auto counted = countProducts(spec, kernel, image);
            EXPECT_EQ(executed.census.validProducts,
                      counted.validProducts);
        }
    }
}

TEST(OuterProduct, MatmulCensusHistogramPath)
{
    Rng rng(29);
    const auto image = CsrMatrix::fromDense(bernoulliPlane(6, 8, 0.5, rng));
    const auto kernel =
        CsrMatrix::fromDense(bernoulliPlane(8, 5, 0.5, rng));
    const auto spec = ProblemSpec::matmul(6, 8, 8, 5);

    const auto executed = sparseOuterProduct(spec, kernel, image);
    const auto counted = countProducts(spec, kernel, image);
    EXPECT_EQ(executed.census.validProducts, counted.validProducts);
    EXPECT_EQ(executed.census.rcpProducts, counted.rcpProducts);
}

TEST(OuterProduct, MatmulMatchesDense)
{
    Rng rng(31);
    const auto image_plane = bernoulliPlane(7, 9, 0.4, rng);
    const auto kernel_plane = bernoulliPlane(9, 6, 0.4, rng);
    const auto spec = ProblemSpec::matmul(7, 9, 9, 6);
    const auto result =
        sparseOuterProduct(spec, CsrMatrix::fromDense(kernel_plane),
                           CsrMatrix::fromDense(image_plane));
    const auto ref = referenceExecute(spec, kernel_plane, image_plane);
    EXPECT_LT(maxAbsDiff(result.output, ref), 1e-9);
}

TEST(OuterProduct, EmptyOperandsProduceNothing)
{
    const CsrMatrix kernel(3, 3);
    const CsrMatrix image(8, 8);
    const auto spec = ProblemSpec::conv(3, 3, 8, 8);
    const auto result = sparseOuterProduct(spec, kernel, image);
    EXPECT_EQ(result.census.nonzeroProducts, 0u);
    EXPECT_EQ(result.census.validProducts, 0u);
    EXPECT_DOUBLE_EQ(result.census.rcpFraction(), 0.0);
}

TEST(OuterProduct, RcpFractionGrowsWithKernelSize)
{
    // Sec. 3.1: as the kernel approaches the image size, the RCP
    // fraction of the dense outer product increases.
    Rng rng(37);
    const auto image_plane = randomDensePlane(16, 16, rng);
    double prev_fraction = -1.0;
    for (std::uint32_t k : {3u, 8u, 14u}) {
        const auto kernel_plane = randomDensePlane(k, k, rng);
        const auto spec = ProblemSpec::conv(k, k, 16, 16);
        const auto census =
            countProducts(spec, CsrMatrix::fromDense(kernel_plane),
                          CsrMatrix::fromDense(image_plane));
        EXPECT_GT(census.rcpFraction(), prev_fraction);
        prev_fraction = census.rcpFraction();
    }
    // The update-phase-like 14x14-over-16x16 case is RCP-dominated.
    EXPECT_GT(prev_fraction, 0.9);
}

/** Parameterized sweep: outer product == dense reference. */
class OuterProductSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, double>>
{};

TEST_P(OuterProductSweep, MatchesDenseReference)
{
    const auto [kernel_dim, image_dim, stride, sparsity] = GetParam();
    Rng rng(kernel_dim * 1000 + image_dim * 10 + stride);
    const auto kernel_plane =
        bernoulliPlane(kernel_dim, kernel_dim, sparsity, rng);
    const auto image_plane =
        bernoulliPlane(image_dim, image_dim, sparsity, rng);
    const auto spec =
        ProblemSpec::conv(kernel_dim, kernel_dim, image_dim, image_dim,
                          stride);
    const auto result =
        sparseOuterProduct(spec, CsrMatrix::fromDense(kernel_plane),
                           CsrMatrix::fromDense(image_plane));
    const auto ref = referenceExecute(spec, kernel_plane, image_plane);
    EXPECT_LT(maxAbsDiff(result.output, ref), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OuterProductSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u),
                       ::testing::Values(6u, 11u, 16u),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(0.0, 0.5, 0.9)));

} // namespace
} // namespace antsim
