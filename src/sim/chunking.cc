#include "chunking.hh"

#include <algorithm>

#include "util/logging.hh"

namespace antsim {

std::vector<CsrMatrix>
chunkByCapacity(const CsrMatrix &matrix, std::uint32_t capacity)
{
    ANT_ASSERT(capacity > 0, "chunk capacity must be positive");

    std::vector<CsrMatrix> chunks;
    // A matrix that fits (the empty one included) is its own chunk.
    if (matrix.nnz() <= capacity) {
        chunks.push_back(matrix);
        return chunks;
    }
    const std::uint64_t nnz = matrix.nnz();
    chunks.reserve((nnz + capacity - 1) / capacity);
    for (std::uint64_t base = 0; base < nnz; base += capacity) {
        const std::uint64_t end = std::min<std::uint64_t>(base + capacity,
                                                          nnz);
        chunks.push_back(matrix.slice(static_cast<std::uint32_t>(base),
                                      static_cast<std::uint32_t>(end)));
    }
    return chunks;
}

std::vector<ChunkPair>
allChunkPairs(std::span<const CsrMatrix> kernels,
              std::span<const CsrMatrix> images)
{
    std::vector<ChunkPair> pairs;
    pairs.reserve(kernels.size() * images.size());
    for (const auto &k : kernels)
        for (const auto &i : images)
            pairs.push_back({&k, &i});
    return pairs;
}

} // namespace antsim
