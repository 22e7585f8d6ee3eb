/**
 * @file
 * The legacy dense plane pipeline, a test oracle.
 *
 * It builds a trace plane densely: draw the plane (generatePlane: a
 * Bernoulli plane of one draw per cell, tensor/sparsify.hh's
 * bernoulliPlane, or i.i.d. normals cut to their top-K magnitudes,
 * rounded to bf16), embed it into its padded or dilated plane
 * (embedPlane), compress it (CsrMatrix::fromDense) and rotate it
 * (rotated180) for backward kernels. The fused CSR generator
 * (workload/tracegen.hh, generateCsrPlane) draws the identical random
 * stream and emits the same planes, so census_property_test checks it
 * against this pipeline; other tests use these planes as fixtures.
 */

#ifndef ANTSIM_ORACLES_LEGACY_PLANES_HH
#define ANTSIM_ORACLES_LEGACY_PLANES_HH

#include <cstdint>

#include "tensor/matrix.hh"
#include "util/rng.hh"
#include "workload/tracegen.hh"

namespace antsim {

/** Fill a plane with i.i.d. standard-normal values. */
Dense2d<float> randomDensePlane(std::uint32_t height, std::uint32_t width,
                                Rng &rng);

/**
 * Keep the top-K magnitudes of @p plane so that the kept fraction is
 * 1 - sparsity (ties broken by position for determinism); zero the
 * rest. This mirrors the paper's synthetic top-K sparsification.
 */
Dense2d<float> topKSparsify(const Dense2d<float> &plane, double sparsity);

/** Generate one bf16-rounded plane at the given dims/sparsity/method. */
Dense2d<float> generatePlane(std::uint32_t height, std::uint32_t width,
                             double sparsity, SparsifyMethod method,
                             Rng &rng);

/**
 * Embed an unpadded plane into a larger plane with the given border
 * offset (used for padding and, with @p dilation > 1, zero-dilation of
 * the backward-phase gradient).
 */
Dense2d<float> embedPlane(const Dense2d<float> &inner,
                          std::uint32_t out_height, std::uint32_t out_width,
                          std::uint32_t offset, std::uint32_t dilation = 1);

} // namespace antsim

#endif // ANTSIM_ORACLES_LEGACY_PLANES_HH
