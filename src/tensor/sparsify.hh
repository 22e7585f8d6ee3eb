/**
 * @file
 * The Bernoulli cell rule, and a dense Bernoulli-sparsified plane for
 * the examples, the micro benchmarks and the tests' legacy pipeline.
 *
 * The runner's trace planes come from the fused CSR generator in
 * workload/tracegen.hh, which applies the same rule to the same
 * stream; the legacy dense pipeline it replaced is the tests' oracle
 * (tests/oracles/legacy_planes.hh).
 */

#ifndef ANTSIM_TENSOR_SPARSIFY_HH
#define ANTSIM_TENSOR_SPARSIFY_HH

#include <bit>
#include <cstdint>

#include "tensor/matrix.hh"
#include "util/rng.hh"

namespace antsim {

/**
 * A kept Bernoulli cell's value from the low byte @p m of its draw:
 * (-1)^[m >= 128] (1 + (m mod 128) / 128). The cell's trial reads only
 * the draw's top 53 bits, so the value is independent of it. No
 * counter reads a value, so no normal is drawn; the value is non-zero
 * and bf16-exact (seven mantissa bits), built from its float bits
 * without a branch.
 */
inline float
bernoulliValue(std::uint32_t m)
{
    return std::bit_cast<float>((m & 0x80u) << 24 | 0x3f800000u |
                                (m & 0x7fu) << 16);
}

/**
 * Generate a plane with one Rng::next() draw r per cell in row-major
 * order: the cell is kept, with probability 1 - sparsity, iff
 * (r >> 11) < Rng::bernoulliThreshold(1 - sparsity), and a kept cell
 * holds bernoulliValue(r & 0xff).
 */
Dense2d<float> bernoulliPlane(std::uint32_t height, std::uint32_t width,
                              double sparsity, Rng &rng);

} // namespace antsim

#endif // ANTSIM_TENSOR_SPARSIFY_HH
