/**
 * @file
 * Tests for buffer-capacity chunking (the SCNN+ operand split).
 */

#include <gtest/gtest.h>

#include "conv/dense_conv.hh"
#include "conv/outer_product.hh"
#include "sim/chunking.hh"
#include "tensor/sparsify.hh"
#include "util/rng.hh"

namespace antsim {
namespace {

TEST(Chunking, SmallMatrixSingleChunk)
{
    Rng rng(1);
    const CsrMatrix m =
        CsrMatrix::fromDense(bernoulliPlane(8, 8, 0.5, rng));
    const auto chunks = chunkByCapacity(m, 1000);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], m);
}

TEST(Chunking, EmptyMatrixYieldsOneEmptyChunk)
{
    const CsrMatrix m(5, 5);
    const auto chunks = chunkByCapacity(m, 16);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].nnz(), 0u);
    EXPECT_EQ(chunks[0].height(), 5u);
}

TEST(Chunking, ChunkSizesRespectCapacity)
{
    Rng rng(2);
    const CsrMatrix m =
        CsrMatrix::fromDense(bernoulliPlane(20, 20, 0.3, rng));
    const std::uint32_t cap = 50;
    const auto chunks = chunkByCapacity(m, cap);
    std::uint32_t total = 0;
    for (const auto &chunk : chunks) {
        EXPECT_LE(chunk.nnz(), cap);
        EXPECT_EQ(chunk.height(), m.height());
        EXPECT_EQ(chunk.width(), m.width());
        total += chunk.nnz();
    }
    EXPECT_EQ(total, m.nnz());
    EXPECT_EQ(chunks.size(), (m.nnz() + cap - 1) / cap);
}

TEST(Chunking, ChunksPartitionEntries)
{
    Rng rng(3);
    const Dense2d<float> plane = bernoulliPlane(15, 15, 0.4, rng);
    const CsrMatrix m = CsrMatrix::fromDense(plane);
    const auto chunks = chunkByCapacity(m, 37);
    // Summing the decompressed chunks must reproduce the plane.
    Dense2d<float> sum(15, 15);
    for (const auto &chunk : chunks) {
        const auto d = chunk.toDense();
        for (std::size_t i = 0; i < sum.data().size(); ++i)
            sum.data()[i] += d.data()[i];
    }
    EXPECT_EQ(sum, plane);
}

TEST(Chunking, ChunkedOuterProductIsExact)
{
    // Functional linearity: executing all chunk pairs and summing
    // equals the un-chunked convolution.
    Rng rng(4);
    const auto kernel_plane = bernoulliPlane(6, 6, 0.4, rng);
    const auto image_plane = bernoulliPlane(14, 14, 0.5, rng);
    const auto spec = ProblemSpec::conv(6, 6, 14, 14);
    const CsrMatrix kernel = CsrMatrix::fromDense(kernel_plane);
    const CsrMatrix image = CsrMatrix::fromDense(image_plane);

    const auto kernel_chunks = chunkByCapacity(kernel, 7);
    const auto image_chunks = chunkByCapacity(image, 13);

    Dense2d<double> sum(spec.outH(), spec.outW());
    std::uint64_t products = 0;
    for (const auto &pair : allChunkPairs(kernel_chunks, image_chunks)) {
        const auto r = sparseOuterProduct(spec, *pair.kernel, *pair.image);
        products += r.census.nonzeroProducts;
        for (std::size_t i = 0; i < sum.data().size(); ++i)
            sum.data()[i] += r.output.data()[i];
    }
    // Same products, same output.
    EXPECT_EQ(products,
              static_cast<std::uint64_t>(kernel.nnz()) * image.nnz());
    const auto ref = referenceExecute(spec, kernel_plane, image_plane);
    EXPECT_LT(maxAbsDiff(sum, ref), 1e-9);
}

TEST(Chunking, PairEnumerationIsCartesian)
{
    Rng rng(5);
    const CsrMatrix a =
        CsrMatrix::fromDense(bernoulliPlane(10, 10, 0.3, rng));
    const CsrMatrix b =
        CsrMatrix::fromDense(bernoulliPlane(10, 10, 0.3, rng));
    const auto ac = chunkByCapacity(a, 10);
    const auto bc = chunkByCapacity(b, 10);
    EXPECT_EQ(allChunkPairs(ac, bc).size(), ac.size() * bc.size());
}

/**
 * Reference chunker through coordinate lists: copy the entries, copy
 * each slice, rebuild each slice with fromCoo.
 */
std::vector<CsrMatrix>
chunkViaCoo(const CsrMatrix &matrix, std::uint32_t capacity)
{
    std::vector<CsrMatrix> chunks;
    const auto entries = matrix.entries();
    if (entries.empty()) {
        chunks.push_back(CsrMatrix(matrix.height(), matrix.width()));
        return chunks;
    }
    for (std::size_t base = 0; base < entries.size(); base += capacity) {
        const std::size_t end = std::min<std::size_t>(base + capacity,
                                                      entries.size());
        chunks.push_back(CsrMatrix::fromCoo(
            matrix.height(), matrix.width(),
            std::vector<SparseEntry>(entries.begin() + base,
                                     entries.begin() + end)));
    }
    return chunks;
}

TEST(Chunking, SlicingEqualsCoordinateListPath)
{
    Rng rng(6);
    for (int trial = 0; trial < 30; ++trial) {
        const auto height = static_cast<std::uint32_t>(rng.range(1, 24));
        const auto width = static_cast<std::uint32_t>(rng.range(1, 24));
        const CsrMatrix m = CsrMatrix::fromDense(
            bernoulliPlane(height, width, rng.uniform(), rng));
        const std::uint32_t nnz = m.nnz();
        for (const std::uint32_t capacity :
             {1u, nnz > 1 ? nnz - 1 : 1u, std::max(nnz, 1u), nnz + 1}) {
            const auto expected = chunkViaCoo(m, capacity);
            const auto got = chunkByCapacity(m, capacity);
            ASSERT_EQ(expected.size(), got.size())
                << "trial " << trial << " capacity " << capacity;
            for (std::size_t c = 0; c < got.size(); ++c) {
                EXPECT_TRUE(expected[c] == got[c])
                    << "trial " << trial << " capacity " << capacity
                    << " chunk " << c;
            }
        }
    }
}

TEST(ChunkingDeathTest, ZeroCapacityPanics)
{
    const CsrMatrix m(2, 2);
    EXPECT_DEATH(chunkByCapacity(m, 0), "positive");
}

} // namespace
} // namespace antsim
