/**
 * @file
 * Buffer-capacity chunking of sparse operand streams.
 *
 * A PE's value/index buffers hold at most capacityElements non-zeros
 * (8 KB at 16-bit values, Table 4). Larger operands are split into
 * chunks of at most that many entries; every (kernel chunk, image
 * chunk) combination becomes an independent task. Because the sparse
 * outer product is linear in the operand entries, executing the chunk
 * pairs independently and summing their outputs is functionally exact.
 * This realizes the paper's SCNN+ modification ("split up the kernel
 * matrix across the 8x8 PEs", Sec. 6.1) and equally applies to ANT.
 */

#ifndef ANTSIM_SIM_CHUNKING_HH
#define ANTSIM_SIM_CHUNKING_HH

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/csr.hh"

namespace antsim {

/**
 * Slice a CSR matrix's entry stream into sub-matrices of at most
 * @p capacity entries each (same logical dims, disjoint entry subsets,
 * storage order preserved). A matrix that fits -- an empty one
 * included -- yields one chunk, a copy of itself, so pair enumeration
 * stays uniform.
 */
std::vector<CsrMatrix> chunkByCapacity(const CsrMatrix &matrix,
                                       std::uint32_t capacity);

/** A kernel-chunk x image-chunk work unit. */
struct ChunkPair
{
    const CsrMatrix *kernel;
    const CsrMatrix *image;
};

/**
 * Enumerate all chunk pairs (cartesian product of the chunk lists),
 * kernel chunks outermost: the order every engine runs its tasks in.
 */
std::vector<ChunkPair> allChunkPairs(std::span<const CsrMatrix> kernels,
                                     std::span<const CsrMatrix> images);

} // namespace antsim

#endif // ANTSIM_SIM_CHUNKING_HH
