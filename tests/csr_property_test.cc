/**
 * @file
 * Parameterized property tests for the compressed-format substrate:
 * round trips, involutions, and COO reconstruction over a grid
 * of shapes (including degenerate single-row/column planes) and
 * sparsities.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "tensor/csr.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

class CsrShapeSweep
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, double>>
{
  protected:
    Dense2d<float>
    plane() const
    {
        const auto [h, w, sparsity] = GetParam();
        Rng rng(h * 131 + w * 17 + static_cast<std::uint64_t>(
                                       sparsity * 100));
        return bernoulliPlane(h, w, sparsity, rng);
    }
};

TEST_P(CsrShapeSweep, DenseRoundTrip)
{
    const auto d = plane();
    const CsrMatrix csr = CsrMatrix::fromDense(d);
    csr.validate();
    EXPECT_EQ(csr.toDense(), d);
    EXPECT_EQ(csr.nnz(), d.nnz());
}

TEST_P(CsrShapeSweep, RotationInvolution)
{
    const CsrMatrix csr = CsrMatrix::fromDense(plane());
    EXPECT_EQ(csr.rotated180().rotated180(), csr);
}

TEST_P(CsrShapeSweep, TransposeInvolution)
{
    const CsrMatrix csr = CsrMatrix::fromDense(plane());
    EXPECT_EQ(csr.transposed().transposed(), csr);
}

TEST_P(CsrShapeSweep, RotationEqualsDoubleTransposeFlip)
{
    // rot180 == flip rows then flip columns; verify via dense.
    const auto d = plane();
    const auto rotated = CsrMatrix::fromDense(d).rotated180().toDense();
    for (std::uint32_t y = 0; y < d.height(); ++y)
        for (std::uint32_t x = 0; x < d.width(); ++x)
            EXPECT_EQ(rotated.at(x, y),
                      d.at(d.width() - 1 - x, d.height() - 1 - y));
}

TEST_P(CsrShapeSweep, CooReconstruction)
{
    const auto d = plane();
    const CsrMatrix direct = CsrMatrix::fromDense(d);
    const CsrMatrix via_coo =
        CsrMatrix::fromCoo(d.height(), d.width(), direct.entries());
    EXPECT_EQ(via_coo, direct);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CsrShapeSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 7u, 16u, 33u),
                       ::testing::Values(1u, 3u, 16u, 31u),
                       ::testing::Values(0.0, 0.5, 0.95, 1.0)));

} // namespace
} // namespace antsim
