/**
 * @file
 * Tests for the dense synthetic sparsifiers: bernoulliPlane and the
 * legacy pipeline's top-K oracle (oracles/legacy_planes.hh).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "oracles/legacy_planes.hh"
#include "tensor/sparsify.hh"

namespace antsim {
namespace {

TEST(Sparsify, RandomDensePlaneHasNoZeros)
{
    Rng rng(1);
    const auto plane = randomDensePlane(20, 20, rng);
    EXPECT_EQ(plane.nnz(), plane.size());
}

TEST(Sparsify, BernoulliHitsTargetApproximately)
{
    Rng rng(2);
    const auto plane = bernoulliPlane(100, 100, 0.9, rng);
    EXPECT_NEAR(plane.sparsity(), 0.9, 0.02);
}

TEST(Sparsify, BernoulliZeroSparsityIsDense)
{
    Rng rng(3);
    const auto plane = bernoulliPlane(10, 10, 0.0, rng);
    EXPECT_EQ(plane.nnz(), plane.size());
}

TEST(Sparsify, BernoulliFullSparsityIsEmpty)
{
    Rng rng(4);
    const auto plane = bernoulliPlane(10, 10, 1.0, rng);
    EXPECT_EQ(plane.nnz(), 0u);
}

TEST(Sparsify, TopKExactCount)
{
    Rng rng(5);
    const auto dense = randomDensePlane(32, 32, rng);
    const auto sparse = topKSparsify(dense, 0.9);
    const auto keep = static_cast<std::size_t>(
        std::llround(32 * 32 * 0.1));
    EXPECT_EQ(sparse.nnz(), keep);
}

TEST(Sparsify, TopKKeepsLargestMagnitudes)
{
    Dense2d<float> d(1, 4);
    d.at(0, 0) = 0.1f;
    d.at(1, 0) = -5.0f;
    d.at(2, 0) = 2.0f;
    d.at(3, 0) = -0.3f;
    const auto sparse = topKSparsify(d, 0.5);
    EXPECT_EQ(sparse.at(1, 0), -5.0f);
    EXPECT_EQ(sparse.at(2, 0), 2.0f);
    EXPECT_EQ(sparse.at(0, 0), 0.0f);
    EXPECT_EQ(sparse.at(3, 0), 0.0f);
}

TEST(Sparsify, TopKZeroSparsityIsIdentity)
{
    Rng rng(6);
    const auto dense = randomDensePlane(8, 8, rng);
    EXPECT_EQ(topKSparsify(dense, 0.0), dense);
}

TEST(Sparsify, TopKDeterministicTieBreak)
{
    Dense2d<float> d(1, 4, 1.0f); // all equal magnitudes
    const auto sparse = topKSparsify(d, 0.5);
    // Positional tie-break keeps the first two.
    EXPECT_EQ(sparse.at(0, 0), 1.0f);
    EXPECT_EQ(sparse.at(1, 0), 1.0f);
    EXPECT_EQ(sparse.at(2, 0), 0.0f);
    EXPECT_EQ(sparse.at(3, 0), 0.0f);
}

TEST(SparsifyDeathTest, SparsityOutOfRange)
{
    Rng rng(10);
    EXPECT_DEATH(bernoulliPlane(4, 4, 1.5, rng), "sparsity");
}

} // namespace
} // namespace antsim
