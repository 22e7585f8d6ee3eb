/**
 * @file
 * A dense Bernoulli-sparsified plane, for the examples and the micro
 * benchmarks.
 *
 * The runner's trace planes come from the fused CSR generator in
 * workload/tracegen.hh, which draws the same Bernoulli stream; the
 * legacy dense top-K pipeline it replaced is the tests' oracle
 * (tests/oracles/legacy_planes.hh).
 */

#ifndef ANTSIM_TENSOR_SPARSIFY_HH
#define ANTSIM_TENSOR_SPARSIFY_HH

#include <cstdint>

#include "tensor/matrix.hh"
#include "util/rng.hh"

namespace antsim {

/**
 * Generate a plane where each element is non-zero with probability
 * 1 - sparsity; non-zero values are standard normal (re-drawn if they
 * round to exactly zero so nnz is exact w.r.t. the mask).
 */
Dense2d<float> bernoulliPlane(std::uint32_t height, std::uint32_t width,
                              double sparsity, Rng &rng);

} // namespace antsim

#endif // ANTSIM_TENSOR_SPARSIFY_HH
